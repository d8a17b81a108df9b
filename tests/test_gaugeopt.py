import hashlib

import numpy as np
import pytest

import nclp.vecnorm as vn
from nclp import gaugeopt
from nclp.counterexample import verify_pipeline, witness_w
from nclp.cpmaps import amplify_apply, build_counterexample_maps
from nclp.schatten import psd_power, schatten_norm
from nclp.vecnorm import (DEFAULT_OPTS, FAST_OPTS, CertifyOptions, Side, VecElem,
                          alpha_certify, alpha_upper, beta_certify,
                          certified_dual_upper, random_element)

from conftest import random_complex


def rel_err(a, b):
    return float(np.linalg.norm(a - b)) / float(np.linalg.norm(b))


def random_pd(rng, r):
    g = random_complex(rng, r, r)
    return g @ g.conj().T + 0.1 * np.eye(r)


def project_inputs(rng, r):
    """Five r x r Hermitian matrices covering every branch of ``_project``."""
    g = random_complex(rng, r, r)
    h = random_complex(rng, r, r)
    v = random_complex(rng, r, 1)
    return [
        g @ g.conj().T + 0.1 * np.eye(r),    # positive definite
        h + h.conj().T,                      # indefinite: floor-clipped
        v @ v.conj().T,                      # rank one: floor-clipped
        np.zeros((r, r), dtype=complex),     # zero spectrum
        -(g @ g.conj().T) - np.eye(r),       # negative: zero spectrum after clipping
    ]


class TestKernels:
    """The GEMM kernels against plain per-coordinate sums (N, k, r all differ)."""

    N, K, R = 4, 3, 5

    def test_m_matrix(self, rng):
        a = random_complex(rng, self.N, self.K, self.R)
        svals, svecs = np.linalg.eigh(random_pd(rng, self.R))
        s_inv = (svecs / svals) @ svecs.conj().T
        explicit = sum(a[n] @ s_inv @ a[n].conj().T for n in range(self.N))
        m = gaugeopt._m_matrix(gaugeopt._k_major(a), svals, svecs)
        assert rel_err(m, explicit) <= 1e-13
        assert_triangles_agree(m)

    def test_grad_gram(self, rng):
        a = random_complex(rng, self.N, self.K, self.R)
        v = random_complex(rng, self.K, self.K)
        ts = [a[n].conj().T @ v for n in range(self.N)]
        explicit = sum(t @ t.conj().T for t in ts)
        c = gaugeopt._grad_gram(gaugeopt._k_major(a), v)
        assert rel_err(c, explicit) <= 1e-13

    @pytest.mark.parametrize("r", [1, 2, 3, 5, 8, 9])
    @pytest.mark.parametrize("e", [1.5, 2.0, 3.0, 4.0])
    def test_project_and_m_matrix(self, rng, r, e):
        """Every branch of ``_project`` lands on the normalized PD cone, and
        ``M(s)`` of its output is the plain sum over the coordinates."""
        inputs = project_inputs(rng, r)
        a = random_complex(rng, 3, 4, r)
        ak = gaugeopt._k_major(a)
        for j, s in enumerate(inputs):
            vals, vecs = gaugeopt._project(s, e)
            assert np.all(vals > 0.0) and np.all(np.diff(vals) >= 0.0)
            assert float((vals ** (e / 2.0)).sum()) == pytest.approx(1.0, rel=1e-12)
            assert np.allclose(vecs.conj().T @ vecs, np.eye(r), rtol=0, atol=1e-13)
            if j == 0:
                # positive definite: only the scale changes
                want = np.linalg.eigvalsh(s)
                assert np.allclose(vals / vals[-1], want / want[-1], rtol=1e-12, atol=0)
            elif j in (3, 4):
                # the zero-spectrum branch takes the identity, normalized
                assert np.all(vals == vals[0])
            elif r > 1:
                # the indefinite and rank-one spectra sit on the relative floor
                assert vals[0] == pytest.approx(gaugeopt._EIG_FLOOR * vals[-1], rel=1e-12)
            s_inv = (vecs / vals) @ vecs.conj().T
            explicit = sum(a[n] @ s_inv @ a[n].conj().T for n in range(3))
            m = gaugeopt._m_matrix(ak, vals, vecs)
            assert_triangles_agree(m)
            assert rel_err(m, explicit) <= 1e-10
            lam = np.linalg.eigvalsh(m)
            assert lam[0] >= -1e-12 * lam[-1]
            assert lam[-1] == pytest.approx(np.linalg.eigvalsh(explicit)[-1], rel=1e-10)

    @pytest.mark.parametrize("e", [2.0, 3.0, 4.0, 6.0])
    def test_dual_point_reads_tr_rho_m_off_the_spectra(self, rng, e):
        """``sum_i c_i / s_i`` is ``tr(rho M(s))``: ``s`` shares the
        eigenvectors of ``C(rho)``.  The coordinates are restricted to their
        right support, as in the ascent: random ones, rank-one ones and ones
        with a shared right kernel, each at a random density and at one of
        numerical rank one (``C(rho)`` stays nonsingular on the support; where
        it is singular, the explicit ``vdot`` itself rounds in its null
        directions, where ``s^{-1}`` is large)."""
        n, k, r = self.N, self.K, self.R
        rank_one = random_complex(rng, n, k, 1) @ random_complex(rng, n, 1, r)
        kernel = random_complex(rng, n, k, r)
        kernel[:, :, 0] = 0.5 * kernel[:, :, 1] - 2.0 * kernel[:, :, 3]
        for coords, low_rank in ((random_complex(rng, n, k, r), False), (rank_one, False),
                                 (rank_one, True), (kernel, False), (kernel, True)):
            ak = gaugeopt._restrict(coords)[1]
            x = random_complex(rng, k, k)
            vals, vecs = np.linalg.eigh(x + x.conj().T)
            if low_rank:
                vals[:-1] -= 200.0  # every other eigenvalue of rho below 1e-86
            h = (vecs * vals) @ vecs.conj().T
            v, _, sv, sq, _, _, tr_rho_m = gaugeopt._dual_point(ak, h, e, 1.0)
            want = float(np.vdot(v @ v.conj().T, gaugeopt._m_matrix(ak, sv, sq)).real)
            assert tr_rho_m == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("k, n", [(2, 1), (3, 3), (5, 18), (18, 3)])
    @pytest.mark.parametrize("p", [1.5, 2.5, 3.0])
    def test_residual_correction(self, rng, k, n, p):
        """The stacked SVD gives the bits of one ``schatten_norm`` per nonzero
        coordinate, summed in order, also on rounding-level residuals."""
        for scale in (1.0, 1e-16):
            resid = scale * random_complex(rng, n, k, k)
            resid[n // 2] = 0.0
            want = 0.0
            for rn in resid:
                if np.any(rn):
                    want += schatten_norm(rn, p)
            assert gaugeopt._residual_correction(resid, p) == want
        resid[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            gaugeopt._residual_correction(resid, p)

    @pytest.mark.parametrize("p", [1.2, 1.5])
    def test_left_factor(self, rng, p):
        y = random_complex(rng, self.N, self.K, self.R)
        res = gaugeopt.minimize_two_sided(y, p, max_iters=30)
        g = np.einsum("nij,jl,nkl->ik", y, psd_power(res.s, -1.0), y.conj())
        assert rel_err(res.r, 0.5 * (g + g.conj().T)) <= 1e-13


def assert_triangles_agree(m):
    """``M(s)`` is Hermitian up to rounding: ``eigh`` reads either triangle
    to the same spectrum."""
    low, up = np.linalg.eigvalsh(m), np.linalg.eigvalsh(m, UPLO="U")
    assert np.allclose(low, up, rtol=0, atol=1e-13 * float(np.abs(up).max()))


def pipeline_image(k, p):
    return amplify_apply(build_counterexample_maps(k, p)[-1], witness_w(k))


class TestDualMemo:
    """One descent per distinct dual witness within one certificate call."""

    @pytest.fixture
    def dual_inputs(self, monkeypatch):
        seen = []
        solve = vn.certified_dual_upper

        def counting(yp, p_dual, opts):
            seen.append(yp.coords.tobytes())
            return solve(yp, p_dual, opts)

        monkeypatch.setattr(vn, "certified_dual_upper", counting)
        return seen

    @pytest.mark.parametrize("y, p", [
        (random_element(5, 5, np.random.default_rng(3)), 3.0),
        (pipeline_image(18, 3.0), 3.0),
    ], ids=["k5", "pipeline-k18"])
    def test_beta_solves_each_witness_once(self, dual_inputs, y, p):
        cert = beta_certify(y, p, DEFAULT_OPTS)
        assert cert.lower <= cert.upper * (1 + 1e-9)
        assert dual_inputs
        assert len(dual_inputs) == len(set(dual_inputs))

def transposed_strides(coords):
    """The same values as ``coords`` held with each coordinate's strides swapped."""
    return np.transpose(np.transpose(coords, (0, 2, 1)).copy(), (0, 2, 1))


class TestLayout:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_results_independent_of_strides(self, k):
        y = random_element(k, k, np.random.default_rng(0))
        t = VecElem(transposed_strides(y.coords))
        assert t.coords.flags.c_contiguous
        for p in (1.5, 3.0):
            for side in (Side.ELL_ROW, Side.R_COL):
                a = alpha_certify(y, p, side, FAST_OPTS)
                b = alpha_certify(t, p, side, FAST_OPTS)
                assert (a.upper, a.lower) == (b.upper, b.lower)
            assert certified_dual_upper(y, p, FAST_OPTS) == \
                certified_dual_upper(t, p, FAST_OPTS)


#: alpha_certify(random_element(5, 5, default_rng(0)), p, side, DEFAULT_OPTS)
#: as computed before the GEMM descent kernels: (upper, lower); the lower
#: bounds then came from pairing against dual witnesses and stay a floor
GOLDEN = {
    (1.5, Side.ELL_ROW): (15.439807799691112, 13.15665415564238),
    (1.5, Side.R_COL): (15.39110019083922, 13.15473710070455),
    (3.0, Side.ELL_ROW): (10.334773325506507, 8.578000910869086),
    (3.0, Side.R_COL): (10.022488106702498, 8.54514103462701),
    (4.0, Side.ELL_ROW): (9.187004998604785, 7.930041000887533),
    (4.0, Side.R_COL): (8.886949127506071, 7.608803898901602),
}

#: cases in which the upper-bound descent ended on its stall criterion; in
#: the others it ended on a failed line search, which rounding decides and
#: which can move a bracket by percents, so there only a sound bracket no
#: looser than the recorded one is required.  Values: the minimax lower
#: bound.  The p >= 2 case is now solved by the ascent, which stops on its
#: gap: its bracket must meet the recorded one and be closed to 2e-8.
STALL_ENDED = {
    (1.5, Side.R_COL): 15.391100190831542,
    (3.0, Side.ELL_ROW): 10.334772219019275,
}


@pytest.mark.parametrize("p, side", sorted(GOLDEN, key=lambda c: (c[0], c[1].value)),
                         ids=lambda v: getattr(v, "name", str(v)))
def test_golden_brackets(p, side):
    upper, lower = GOLDEN[(p, side)]
    cert = alpha_certify(random_element(5, 5, np.random.default_rng(0)), p,
                         side, DEFAULT_OPTS)
    assert cert.lower <= cert.upper
    assert cert.upper <= upper * (1 + 1e-9)
    assert cert.lower >= lower * (1 - 1e-9)
    if (p, side) == (3.0, Side.ELL_ROW):
        assert cert.lower <= upper and cert.upper >= STALL_ENDED[(p, side)]
        assert cert.upper - cert.lower <= 2e-8 * cert.upper
    elif (p, side) in STALL_ENDED:
        assert cert.upper == pytest.approx(upper, rel=1e-9)
        assert cert.lower == pytest.approx(STALL_ENDED[(p, side)], rel=1e-9)


def diagonal_coordinates_elem(seed, n, k, zero_column=None):
    """Random complex element whose N coordinates are diagonal k x k matrices."""
    rng = np.random.default_rng(seed)
    diag = random_complex(rng, n, k)
    if zero_column is not None:
        diag[:, zero_column] = 0.0
    coords = np.zeros((n, k, k), dtype=np.complex128)
    coords[:, np.arange(k), np.arange(k)] = diag
    return VecElem(coords)


def closed_form(y, p):
    """|c^{1/2}|_p with c_i = sum_n |(y_n)_ii|^2."""
    c = np.sum(np.abs(np.diagonal(y.coords, axis1=1, axis2=2)) ** 2, axis=0)
    return float(np.sum(c ** (0.5 * p))) ** (1.0 / p)


def random_unitary(rng, k):
    q, r = np.linalg.qr(random_complex(rng, k, k))
    return q * (np.diag(r) / np.abs(np.diag(r)))


DIAGONAL_ELEMS = {
    "n5-k3": diagonal_coordinates_elem(1, 5, 3),
    "n2-k4-zero-column": diagonal_coordinates_elem(2, 2, 4, zero_column=1),
}
ONE_SIDED_PS = (2.0, 2.5, 3.0, 4.0)
TWO_SIDED_PS = (1.2, 1.5, 1.8)

#: verify_pipeline(18, p, k_cap=18).numeric_lb as computed by the descent
PIPELINE_NUMERIC_LB = {
    2.5: 0.4860701536200573,
    3.0: 0.456976623010891,
    4.0: 0.4411222071028318,
}


class TestDiagonalCoordinates:
    """Diagonal coordinates take the closed-form optimum without descent."""

    @pytest.mark.parametrize("name", sorted(DIAGONAL_ELEMS))
    @pytest.mark.parametrize("p", ONE_SIDED_PS + TWO_SIDED_PS)
    @pytest.mark.parametrize("side", list(Side), ids=lambda s: s.name)
    def test_closed_form_value(self, name, p, side):
        y = DIAGONAL_ELEMS[name]
        value, wit = alpha_upper(y, p, side, DEFAULT_OPTS)
        assert value == pytest.approx(closed_form(y, p), rel=1e-12)
        assert wit.branch == ("one_sided" if p >= 2.0 else "two_sided")
        assert wit.iterations == 0
        assert wit.converged

    @pytest.mark.parametrize("name", sorted(DIAGONAL_ELEMS))
    @pytest.mark.parametrize("p", ONE_SIDED_PS + TWO_SIDED_PS)
    @pytest.mark.parametrize("side", list(Side), ids=lambda s: s.name)
    def test_conjugated_element_descends_to_closed_form(self, name, p, side):
        y = DIAGONAL_ELEMS[name]
        u = random_unitary(np.random.default_rng(10), y.k)
        v = random_unitary(np.random.default_rng(11), y.k)
        rotated = VecElem(u @ y.coords @ v.conj().T)  # same norm, not diagonal
        value, wit = alpha_upper(rotated, p, side, DEFAULT_OPTS)
        cf = closed_form(y, p)
        assert wit.iterations > 0
        assert cf * (1 - 1e-9) <= value <= cf * (1 + 1e-3)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_tiny_off_diagonal_entry_descends(self, p):
        coords = DIAGONAL_ELEMS["n5-k3"].coords.copy()
        coords[2, 0, 1] = 1e-300
        y = VecElem(coords)
        assert not gaugeopt._diagonal_coordinates(y.coords)
        _, wit = alpha_upper(y, p, Side.ELL_ROW, DEFAULT_OPTS)
        assert wit.iterations > 0

    def test_detection(self):
        y = DIAGONAL_ELEMS["n5-k3"].coords
        assert gaugeopt._diagonal_coordinates(y)
        assert not gaugeopt._diagonal_coordinates(y[:, :, :2])
        assert not gaugeopt._diagonal_coordinates(witness_w(3).coords)

    @pytest.mark.parametrize("p", sorted(PIPELINE_NUMERIC_LB))
    def test_pipeline_reports(self, p):
        rep = verify_pipeline(18, p, k_cap=18)
        assert rep.all_checks_ok, rep.diagnostics
        assert rep.numeric_lb == pytest.approx(PIPELINE_NUMERIC_LB[p], rel=1e-10)


#: coordinates diag(1, 0) and diag(0, 2e-5) turned by a Hadamard rotation on
#: the right: the two-sided lower bound misses the square root of an
#: eigenvalue of C(rho) below the rounding that ``minimax_lower`` resolves
#: (near 1e-17 of its norm at p = 1.8), so the ascent's gap stays open and
#: it ends on its budget
NEAR_CUT = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 2e-5])], dtype=complex) \
    @ (np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))


def ill_conditioned(scales):
    """Three 3 x 3 coordinates ``U diag(d_n) V^*`` with the columns of ``d``
    scaled by ``scales``, and ``d``: the norm is ``|(sum_n |d_n|^2)^{1/2}|_p``."""
    rng = np.random.default_rng(1)
    u, v = random_unitary(rng, 3), random_unitary(rng, 3)
    d = random_complex(rng, 3, 3) * np.array(scales)
    return VecElem(np.einsum("ij,nj,kj->nik", u, d, v.conj())), d


def exact_norm(d, p):
    return float(np.sum(np.sum(np.abs(d) ** 2, axis=0) ** (0.5 * p))) ** (1.0 / p)


class TestConvergedFlag:
    """``converged`` is False only when the budget or a failed step search
    stopped a live solve before its gap closed, or when the certified
    bracket of ``alpha_certify`` is wider than the solve's own."""

    def test_zero_budget_without_descent(self):
        y = random_element(1, 3, np.random.default_rng(0))
        cert = alpha_certify(y, 3.0, Side.ELL_ROW, CertifyOptions(max_iters=0))
        # the rounding allowance keeps the lower bound strictly below
        assert cert.lower <= cert.upper <= cert.lower * (1 + 1e-12)
        assert cert.iterations == 0
        assert cert.converged

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_zero_budget_with_descent(self, p):
        y = random_element(3, 3, np.random.default_rng(0))
        cert = alpha_certify(y, p, Side.ELL_ROW, CertifyOptions(max_iters=0))
        assert cert.iterations == 0
        assert not cert.converged

    @pytest.mark.parametrize("solve", [
        lambda y, n: gaugeopt.minimize_gauge(y, 3.0, max_iters=n),
        lambda y, n: gaugeopt.minimize_two_sided(y, 1.5, max_iters=n),
    ], ids=["one_sided", "two_sided"])
    def test_budget_equal_to_the_descent(self, solve):
        y = random_element(3, 3, np.random.default_rng(1)).coords
        free = solve(y, 5000)
        assert free.converged and 0 < free.iterations < 5000
        exact = solve(y, free.iterations)
        assert exact.converged
        assert (exact.iterations, exact.value) == (free.iterations, free.value)
        short = solve(y, free.iterations - 1)
        assert not short.converged
        assert short.iterations == free.iterations - 1

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_failed_step_search(self, monkeypatch, p):
        """From the fifth dual point on every trial lowers the dual: the
        ascent stops after ``_TRIALS`` of them, with the last accepted
        density and a sound, open bracket.  The element is one whose first
        three trials are accepted at both exponents."""
        points = []
        dual_point = gaugeopt._dual_point

        def failing(ak, h, e, t):
            point = dual_point(ak, h, e, t)
            points.append(point)
            return point if len(points) <= 4 else (point[0], -1.0) + point[2:]

        monkeypatch.setattr(gaugeopt, "_dual_point", failing)
        y = random_element(3, 3, np.random.default_rng(2)).coords
        solve = gaugeopt.minimize_gauge if p >= 2.0 else gaugeopt.minimize_two_sided
        res = solve(y, p, max_iters=5000)
        assert (res.iterations, res.converged) == (4, False)
        assert len(points) == 4 + gaugeopt._TRIALS
        v = points[3][0]
        assert np.array_equal(res.rho, v @ v.conj().T)
        lower = gaugeopt.minimax_lower(y, res.rho, p)
        assert lower <= res.value
        assert res.value - lower > gaugeopt.DESCENT_GAP_TOL * res.value

    def test_restricted_direction_opens_the_bracket(self):
        """The support restriction drops the third direction, which the
        certificate charges at its p-norm: the solve closes its own gap, but
        the certified bracket stays 1.6e-5 wide."""
        y, d = ill_conditioned((1.0, 3.2e-3, 1e-5))
        cert = alpha_certify(y, 1.5, Side.ELL_ROW, DEFAULT_OPTS)
        assert cert.factor_witness.converged and not cert.converged
        assert cert.lower <= exact_norm(d, 1.5) <= cert.upper
        assert cert.upper - cert.lower > 1e-5 * cert.upper


#: the R_COL solve (coordinatewise transpose) of ``beta_certify`` on the
#: ``beta k=2 n=2 p=2.5`` item of the benchmark's fuzz workload, seed 0, block 0
CENTERED_R_COL = np.array([
    [[0.3505055973299662 + 0.9365606367130554j, -0.14116497018657573 - 0.8329117096523169j],
     [-0.3443885896224823 + 0.9135589526586486j, 0.06947105899352035 - 0.06855184169133163j]],
    [[-0.264420641893675 + 0.16658413179524592j, 0.63090212794441 - 0.36024303843933375j],
     [-0.06487148790568818 - 0.3698633428637106j, -0.4704622061774469 - 0.11540898936025647j]]])
#: a dual-norm solve (e = 13/3) of ``beta_certify`` on the ``beta k=2 n=2
#: p=1.3`` item of the same workload, seed 1, block 0: with momentum on the
#: uncentered step ``h += eta M / tr(rho M)`` it ends at 240 iterations
CENTERED_DUAL = np.array([
    [[0.9715493825597489 + 0.23683706898999343j, -0.029620453141438526 - 0.2798989008540611j],
     [-0.46736026102806355 - 0.23767640893027156j, 0.58305112072485 - 0.7741043804983416j]],
    [[-0.7294095075273177 + 0.17402896375482382j, 0.15436048100436123 + 0.7235206047145534j],
     [-0.5515011453128192 - 0.6509896637534149j, 0.6686038987572057 - 0.10909490486596833j]]])


class TestAscent:
    """The one-sided solve: an ascent on the dual density (module docstring)."""

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_one_coordinate_is_schatten_norm(self, rng, p):
        for k, rank in ((1, 1), (2, 2), (3, 1), (5, 5)):
            a = (random_complex(rng, k, rank) @ random_complex(rng, rank, k))[None]
            res = gaugeopt.minimize_gauge(a, p)
            want = schatten_norm(a[0], p)
            assert (res.iterations, res.converged) == (0, True)
            assert res.value == pytest.approx(want, rel=1e-10)
            lower = gaugeopt.minimax_lower(a, res.rho, p)
            assert want * (1 - 1e-10) <= lower <= res.value

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("e", [2.0, 3.0, 4.0])
    def test_gradient_is_m_at_the_inner_optimum(self, rng, k, e):
        """grad g(rho) = g^{1 - beta} M(s) at s = C(rho)^{1/(a+1)}, unnormalized."""
        a_exp = 0.5 * e
        beta = a_exp / (a_exp + 1.0)
        coords = random_complex(rng, 3, k, k)

        def c_of(rho):
            return np.einsum("nji,jl,nlk->ik", coords.conj(), rho, coords)

        def g_of(rho):
            c = np.linalg.eigvalsh(c_of(rho))
            return float(np.sum(c ** beta)) ** (1.0 / beta)

        x = random_complex(rng, k, k)
        rho = x @ x.conj().T + 0.2 * np.eye(k)
        rho /= np.trace(rho).real
        s = psd_power(c_of(rho), 1.0 / (a_exp + 1.0))
        m = np.einsum("nij,jl,nkl->ik", coords, np.linalg.inv(s), coords.conj())
        grad = g_of(rho) ** (1.0 - beta) * m
        for _ in range(3):
            d = random_complex(rng, k, k)
            d = d + d.conj().T
            t = 1e-6
            fd = (g_of(rho + t * d) - g_of(rho - t * d)) / (2 * t)
            assert fd == pytest.approx(float(np.vdot(d, grad).real), rel=1e-6)
        # the ascent's own point: its lower bound is g^{1/2} and its M(s), at
        # s normalized to tr(s^a) = 1, is the gradient itself
        ak = gaugeopt._k_major(coords)
        vals, vecs = np.linalg.eigh(rho)
        h = (vecs * np.log(vals)) @ vecs.conj().T  # rho = exp(h)
        _, lower, sv, sq, _, _, _ = gaugeopt._dual_point(ak, h, e, 1.0)
        assert lower ** 2 == pytest.approx(g_of(rho), rel=1e-10)
        assert rel_err(gaugeopt._m_matrix(ak, sv, sq), grad) <= 1e-8
        if e == 2.0:
            # the two-sided ascent: f(u^{1/t}) has the gradient M(s) pulled
            # back to u (Daleckii-Krein), also where eigenvalues coincide
            for t in (1.5, 13 / 6):
                for u in (rho, np.eye(k) / k):
                    self.check_pullback(rng, coords, u, t)

    @staticmethod
    def check_pullback(rng, coords, u, t):
        k = u.shape[0]

        def f_of(u):
            c = np.einsum("nji,jl,nlk->ik", coords.conj(), psd_power(u, 1.0 / t), coords)
            return float(np.sum(np.sqrt(np.maximum(np.linalg.eigvalsh(c), 0.0)))) ** 2

        ak = gaugeopt._k_major(coords)
        vals, vecs = np.linalg.eigh(u)
        h = (vecs * np.log(vals)) @ vecs.conj().T
        v, lower, sv, sq, log_u, uq, tr_rho_m = gaugeopt._dual_point(ak, h, 2.0, t)
        rho = v @ v.conj().T
        assert rel_err(rho, psd_power(u, 1.0 / t)) <= 1e-12
        assert lower ** 2 == pytest.approx(f_of(u), rel=1e-10)
        m = gaugeopt._m_matrix(ak, sv, sq)
        grad = gaugeopt._pullback(m, log_u, uq, t)
        assert float(np.vdot(u, grad).real) == pytest.approx(
            float(np.vdot(rho, m).real) / t, rel=1e-10)
        assert tr_rho_m == pytest.approx(float(np.vdot(rho, m).real), rel=1e-12)
        for _ in range(3):
            d = random_complex(rng, k, k)
            d = d + d.conj().T
            step = 1e-4 * float(np.linalg.eigvalsh(u)[0])
            fd = (f_of(u + step * d) - f_of(u - step * d)) / (2 * step)
            assert fd == pytest.approx(float(np.vdot(d, grad).real), rel=1e-6)

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8, 2.0, 2.5, 3.0, 4.0, 13 / 3])
    def test_certified_gap_or_budget_stop(self, k, p):
        """Both gauges: the one-sided ascent (p >= 2) and the ascent on ``u =
        rho^t`` (p < 2), each at twice its stop tolerance, which leaves room
        for the rounding allowance of the certified bracket."""
        tol = gaugeopt.GAP_TOL if p >= 2.0 else gaugeopt.DESCENT_GAP_TOL
        y = random_element(k, k, np.random.default_rng(40 + k))
        for side in Side:
            cert = alpha_certify(y, p, side, DEFAULT_OPTS)
            assert cert.lower <= cert.upper
            assert (not cert.converged
                    or cert.upper - cert.lower <= 2 * tol * cert.upper), (side, cert)

    def test_ill_conditioned_two_sided_bracket(self):
        """Singular values 1, 4.5e-3 and 2e-5 at p = 1.8: the projected descent
        that the ascent replaced ended 2.7e-2 above and 18.5 % below the norm.
        The bracket still ends on the budget, held open by the rounding
        allowance of ``minimax_lower``."""
        y, d = ill_conditioned((1.0, 4.5e-3, 2e-5))
        exact = exact_norm(d, 1.8)
        cert = alpha_certify(y, 1.8, Side.ELL_ROW, DEFAULT_OPTS)
        assert cert.lower <= cert.upper
        assert exact * (1 - 1e-7) <= cert.lower and cert.upper <= exact * (1 + 1e-7)

    def test_rejects_exponents_below_two(self):
        with pytest.raises(ValueError):
            gaugeopt.minimize_gauge(random_complex(np.random.default_rng(0), 2, 2, 2), 1.5)

    @pytest.mark.parametrize("coords, e", [(CENTERED_R_COL, 2.5),
                                           (CENTERED_DUAL, 13 / 3)],
                             ids=["r_col-2.5", "dual-13/3"])
    def test_centered_step_closes_the_gap(self, coords, e):
        res = gaugeopt.minimize_gauge(coords, e, 240)
        assert res.converged and res.iterations < 240
        lower = gaugeopt.minimax_lower(coords, res.rho, e)
        assert 0.0 <= res.value - lower <= gaugeopt.GAP_TOL * res.value

    @pytest.mark.parametrize("e, t", [
        pytest.param(2.0, 1.0, id="2.0"), pytest.param(2.5, 1.0, id="2.5"),
        pytest.param(4.0, 1.0, id="4.0"), pytest.param(2.0, 1.5, id="2.0-t1.5"),
        pytest.param(2.0, 13 / 6, id="2.0-t13/6")])
    def test_dual_point_ignores_shifts_of_h(self, rng, e, t):
        """exp(h + cI) / tr is the density of h: the step may be centered."""
        ak = gaugeopt._k_major(random_complex(rng, 3, 4, 3))
        x = random_complex(rng, 4, 4)
        h = x + x.conj().T
        v, lower, sv, _, log_u, _, _ = gaugeopt._dual_point(ak, h, e, t)
        rho = v @ v.conj().T
        assert float(np.sum(np.linalg.eigvalsh(rho) ** t)) == pytest.approx(1.0, rel=1e-12)
        for c in (-240.0, -1.0, 1e-3, 3.0, 240.0):
            v_c, lower_c, sv_c, _, log_u_c, _, _ = gaugeopt._dual_point(
                ak, h + c * np.eye(4), e, t)
            assert rel_err(v_c @ v_c.conj().T, rho) <= 1e-12
            assert lower_c == pytest.approx(lower, rel=1e-12)
            assert np.allclose(sv_c, sv, rtol=1e-10, atol=0)
            assert np.allclose(log_u_c, log_u, rtol=0, atol=1e-11)

    def test_momentum_cuts_iterations(self):
        """The iterations of the ascent without momentum or centering were
        7,911 on these 8 solves (all converged)."""
        total = 0
        for k in (5, 6, 7, 8):
            y = random_element(k, k, np.random.default_rng(k)).coords
            for p in (3.0, 4.0):
                res = gaugeopt.minimize_gauge(y, p, DEFAULT_OPTS.max_iters)
                assert res.converged, (k, p)
                total += res.iterations
        assert total <= 0.4 * 7911

    def test_step_rule_cuts_iterations(self):
        """With ``eta = min(2 / spread, 1.5 eta_prev)`` these 10 solves took
        1,479 iterations and with ``min(5 / spread, 1.03 eta_prev)`` 974;
        capping by the top of ``D``, ``min(4 / top, 1.03 eta_prev)``, takes
        745."""
        total = 0
        for seed in range(5):
            y = random_element(5, 5, np.random.default_rng(seed)).coords
            for p in (3.0, 4.0):
                res = gaugeopt.minimize_gauge(y, p)
                assert res.converged, (seed, p)
                total += res.iterations
        assert total < 974

    def test_step_rule_ends_fewer_ascents_on_the_budget(self):
        """Held out from the choice of the cap's constant: at 240 iterations
        the spread cap ``min(5 / spread, 1.03 eta_prev)`` ended 5 of these
        100 ascents on the budget; the cap by the top of ``D`` ends none."""
        stops = 0
        for seed in range(20, 30):
            for degenerate in (False, True):
                y = random_element(5, 5, np.random.default_rng(seed),
                                   degenerate=degenerate).coords
                for p in (2.0, 2.5, 3.0, 4.0, 6.0):
                    stops += not gaugeopt.minimize_gauge(y, p, max_iters=240).converged
        assert stops < 5

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_reordered_sums(self, k):
        """The norm does not see the order of the coordinates; the brackets
        of two orders meet and agree far below the ascent's gap."""
        y = random_element(k, k, np.random.default_rng(60 + k))
        y_perm = VecElem(y.coords[np.random.default_rng(k).permutation(k)])
        for p in (1.3, 1.5, 1.8, 2.5, 3.0, 4.0):
            for side in Side:
                for opts in (DEFAULT_OPTS, FAST_OPTS):
                    a = alpha_certify(y, p, side, opts)
                    b = alpha_certify(y_perm, p, side, opts)
                    assert max(a.lower, b.lower) <= min(a.upper, b.upper)
                    assert b.upper == pytest.approx(a.upper, rel=1e-9)
                    assert b.lower == pytest.approx(a.lower, rel=1e-9)


#: minimize_two_sided ("two", exponent p) and minimize_gauge ("gauge",
#: exponent e) on random_element(k, k, default_rng(seed), degenerate) at the
#: budget max_iters: (value, iterations, converged, SHA-256 of s, of rho).
#: Recorded with numpy 2.4.6 and its bundled OpenBLAS (x86-64, AVX-512), with
#: one and with two BLAS threads alike.
DESCENT_PINS = {
    ("two", 1, 0, False, 1.5, 240): (
        0.12895693738881814, 0, True,
        "d3afcb2d6e97bf4727f55801b6acc10d1f088d3a505d3c3da04a3eddf1186376",
        "3239b05c38b825ebb79f103172438292a22a0951351a6b81be1df5d44776cc65"),
    ("two", 2, 0, False, 1.5, 5000): (
        2.9663321250615504, 8, True,
        "475de7abdf51a6b322c873e9c042fba1ee9dc8cd181d50c329677d003da56dbf",
        "fc4ff16a257ea2873908d0bb170134eda9c140799639933680917f0f3a712158"),
    ("two", 3, 1, True, 1.5, 5000): (
        4.420039602219784, 7, True,
        "25ef5d1b062d73262d395a0490362425f3e89eb2e0320184f79557714fb33301",
        "16595935e09f0476c6405550e7c12687bd2f2492e6fb920dea36e29c9dd4c25f"),
    ("two", 3, 0, False, 1.2, 240): (
        6.612066771073361, 11, True,
        "656f86211bc678360d945ac21ea24799f5f537d2a56da976dfcaa27be4271d86",
        "512dc3a05ce7552af68ecadeff1e5dd2f2e16a54cec25526fb5612c96ed85980"),
    ("two", 5, 1, False, 1.5, 5000): (
        13.561698475709273, 15, True,
        "d442f27d2add1b0503dff686e67fb7c0670606f509f4f85066ed039db7e4e61d",
        "dab0312bd890dd4637ebfbbf3c7243280e9e7ee6ea4357cc85a6d9bca7c04fa0"),
    ("two", 8, 1, True, 1.5, 5000): (
        29.41935985332674, 20, True,
        "7b0a3395bf126752d5d2f5c47db06d2ac295b083be16de65535b9784b594a4c7",
        "a98a749b6bf5ef1e81292586c86976dffeb68b55184d2512dc74a45651213a88"),
    ("two", 8, 0, False, 1.8, 240): (
        26.677249804435952, 14, True,
        "7b34804655189bf7623629b4e071837139ede664fe0be4796179f752173da865",
        "b733c25fa35c09968407c9f17f7af16f74702f455b6082d05df9a664576a3604"),
    ("gauge", 1, 0, False, 3.0, 240): (
        0.1289569373888181, 0, True,
        "c8db0ed7d3a4479694d1b8b750622cfb910763aee594a9e9fce2513dfb358e89",
        "3239b05c38b825ebb79f103172438292a22a0951351a6b81be1df5d44776cc65"),
    ("gauge", 2, 0, False, 3.0, 240): (
        2.72256896090646, 18, True,
        "065a56507b9a5d4ea995f46dde08f89eb2e13883c21713a7a161017fc4597a60",
        "f5c9248a5ff2b8d9e86a011d69cd14f80a82e30a94abcf036aca73be34699167"),
    ("gauge", 2, 0, True, 4.0, 5000): (
        2.282403053544306, 3, True,
        "f436b8aebe6b96c78fa442b112159e641c8363e4d2ccea2b928f3a16b5b9d7ff",
        "7e28d94c39ab945bc3366729ead78b0ea520a4780201700f6654fe344dad17ec"),
    ("gauge", 2, 19, False, 2.0, 5000): (
        2.4762995334427074, 23, True,
        "078b5111bbc0546d9a463f81404c997783b25ae83e5878858ee643c706cb9c9b",
        "2064de4c2850809b158d2c811bbeca2824afd72e1ecd2b3ed32d2a6f112d4a92"),
    ("gauge", 3, 2, True, 4.0, 240): (
        3.6396946367762304, 25, True,
        "689db975ecad946bd0fc65e38dfc66825f6542a20696d2e5d0e037bb9d276e30",
        "3265be154980b45c59ddd6f60665314a9aa98fe74157b8c875e9e17c9e717c63"),
    ("gauge", 3, 3, False, 3.0, 5000): (
        6.0625366340667135, 32, True,
        "1293befe88a87beb9c0cdc7b370384d39e16e0740643fb7bacba8fa0070661c2",
        "fd371ef77deef97b7e683e3785e737632c8ad96dde95351715b6b0d33453898c"),
    ("gauge", 3, 1, False, 13 / 3, 5000): (
        4.035599489425506, 38, True,
        "9a6d6b3142e3ce9cc5d76c4548fc559e68fcec84bacea213dfccf8eedd36cabb",
        "b4e0f4523634f70fce0e9edad4ee2292ffeae705420a454767460f4ecb43fdf2"),
    ("gauge", 4, 0, True, 2.5, 240): (
        6.90437857232086, 41, True,
        "67a8f58d0a22c09e4e2c13679c7acd5890e2da8f9962bacb2cbed7f85f9b6be7",
        "b027d1ca5fb9177a02989d7eaf2645629979d1fc340310a42c0f92b94b98d4f6"),
    ("gauge", 5, 2, True, 4.0, 5000): (
        8.526551999943148, 57, True,
        "c445a53bdd11c7feb6d290b188063e9c16bd3446b6e5a27ee48e039100f6eab7",
        "e865f6e45264ceef63387aaa23e2527dbc082beea09154ad22b7ff77f300f8e2"),
    ("gauge", 5, 0, False, 3.0, 240): (
        10.33477254562273, 77, True,
        "bb2b11b6bd3e4cd724ec4d8e96ef78dfffb0131754400d11abf55ee0ae6f1a7a",
        "8137ace3d394416192b7c4f4d9434e210d7e8027a2830a7cb02765e5f751bd46"),
    ("gauge", 5, 1, False, 2.5, 5000): (
        9.796326211453662, 74, True,
        "cc6ae12caae4d260ea2309a601de8c92dd95e393bc3ecd9ed898f8bfa2d809fc",
        "13d5820dac5aaf4c2a88495ce742266e5e173e0a7aecc5a4ea0b89061be934e3"),
    ("gauge", 8, 2, False, 4.0, 5000): (
        16.004955767976423, 76, True,
        "0e6bccdcb6a6d703a4b6e1d8d4a5c8a7cff8f86f12d902aa083d0b04f86527ea",
        "d34679f7a40e008d6f57c612c41c01a626f59a005b4b28332c4c0b173b2bfb05"),
    ("gauge", 8, 1, True, 3.0, 240): (
        18.06893311009454, 130, True,
        "7ca943d0177da9c80eca2a87da1aebe64c7d24c8e655871048bd669e73eede47",
        "ad2e26dd0288466223f16aca476a4c9fa90f59dec5e68e6534e42d67791dd917"),
    ("gauge", 3, 4, True, 2.5, 240): (
        4.1417803508268625, 23, True,
        "4e36fa3c04156d090f66018e0d8c82e7c7d7001a1aa47b97c63b8866783d9f2e",
        "09680f916929c47b5169037ae9b05b75742c6440647c6104c0e877371d385a66"),
    ("gauge", 4, 3, False, 3.0, 240): (
        7.329238421248978, 103, True,
        "66e3dfd78d311c693f36b63e203197616b0d962340d493ebb880b8d4597c458f",
        "bd79ebc779cf5721da98bbbb1ca8843aefeea5ba5888f3d32a3ee76f608118ba"),
    ("gauge", 6, 3, True, 4.0, 240): (
        10.852568324643396, 100, True,
        "ec26a26c4dc46fd30c7f65b23ff2f16cadd8b39ea8709c4f7edd159842138c41",
        "81f52c95dc3ad5e5f6f8c0f66229ba5f08a55340efd51f449db90393d2392f93"),
    ("gauge", 4, 1, False, 2.5, 240): (
        7.286700648371872, 57, True,
        "edfbdbb10184c500ef1972f58f7ea78bc4d50b07ba8730c76c3aa6c09ec1cd9b",
        "69f103c59cf100abe0410c97e1081f27cb8cf8d57c1c7841f6e1b04df559de96"),
    ("gauge", 3, 5, False, 2.0, 240): (
        5.776231034351924, 73, True,
        "f077428f7732e91ec6e17c6b34b88135c638436856e6aaddbe11e5601ed39e0e",
        "8d6fda25f496525272244602ea33844c659b9779de9a5139eccc5557ab1d5a55"),
    ("gauge", 5, 2, True, 4.0, 240): (
        8.526551999943148, 57, True,
        "c445a53bdd11c7feb6d290b188063e9c16bd3446b6e5a27ee48e039100f6eab7",
        "e865f6e45264ceef63387aaa23e2527dbc082beea09154ad22b7ff77f300f8e2"),
    ("gauge", 5, 6, True, 3.0, 240): (
        8.478074733472214, 84, True,
        "8a40ec6515406a1ee89a8262449f1100d1984a8392b86057e0fa5b9d17bfd7f8",
        "d74fbb16161e76b86e39aa0ac0810bdab04a1c3051915a6ecac02eb9aa2759c7"),
    ("gauge", 3, 5, False, 2.0, 40): (
        5.77623528095991, 40, False,
        "662141e077555b28648ebc58318e56b3b3613b6c64eeb977657805da9ede15d6",
        "70f62e6503742fe858103ac86b6b6e67cdb945be7ca10cfbdedb16ab9bde465e"),
    ("gauge", 5, 2, True, 4.0, 40): (
        8.526552676000028, 40, False,
        "7518fcb0f5257e9f350131cfdf9ac5f4d5f22996b7da77e0bd170b949700d842",
        "4dbba009a3bb597878ee65a5244ce018b0c88bab5cd9b49ba21901c210b9e023"),
    ("gauge", 5, 6, True, 3.0, 40): (
        8.478102465036415, 40, False,
        "f70c8c3ae356cb684b28a08ee80fb6a89169325fe9f94dbfd4ddc896f3224b33",
        "edd46a1cec12366b39511ecfd62babe44d8c289f25a0543c8af09d39232b5298"),
}
PINNED_NUMPY = "2.4.6"


def pinned_descent(case):
    solver, k, seed, degenerate, x, max_iters = case
    y = random_element(k, k, np.random.default_rng(seed), degenerate=degenerate).coords
    solve = gaugeopt.minimize_gauge if solver == "gauge" else gaugeopt.minimize_two_sided
    return solve(y, x, max_iters=max_iters)


def pin_id(case):
    solver, k, seed, degenerate, x, max_iters = case
    return f"{solver}-k{k}-seed{seed}{'-deg' if degenerate else ''}-{round(x, 4)}-{max_iters}"


def sha256(a):
    return None if a is None else hashlib.sha256(a.tobytes()).hexdigest()


@pytest.mark.skipif(np.__version__ != PINNED_NUMPY,
                    reason="the pins are bits of one numpy/BLAS build")
class TestDescentPins:
    """The ascent's bits do not depend on the BLAS thread count.

    They do depend on numpy's SIMD loops: the pins hold only where numpy runs
    its AVX-512 loops, whose array powers differ from the scalar ones in the
    last bit.  They were recorded on an Intel Xeon (avx512f, avx512bw,
    avx512dq, avx512vl, avx512_fp16) where ``numpy.show_runtime()`` lists the
    SIMD extensions X86_V3, X86_V4, AVX512_ICL and AVX512_SPR; with
    ``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"`` they fail.
    """

    @pytest.mark.parametrize("case", list(DESCENT_PINS), ids=pin_id)
    def test_bit_identical(self, case):
        res = pinned_descent(case)
        assert (res.value, res.iterations, res.converged, sha256(res.s),
                sha256(res.rho)) == DESCENT_PINS[case]

    def test_cases_cover_failed_searches_and_budgets(self, monkeypatch):
        # the two-sided ascent on NEAR_CUT cannot close its gap: it ends on
        # its budget (and at 5000 with these same bits)
        res = gaugeopt.minimize_two_sided(NEAR_CUT, 1.8, max_iters=240)
        assert (res.value, res.iterations, res.converged, sha256(res.s),
                sha256(res.rho)) == (
            1.0000000037150767, 240, False,
            "4ab2f3581b2e692a5a9b68aa5c425166a8e44d1b3348cbc2ab1878e8f6a1c936",
            "9cd27fd65670909e9cccc5d1442f29ebd8d65b7c5b5a8462357b4507551fb776")
        budget_ended = [c for c, pin in DESCENT_PINS.items() if not pin[2]]
        assert len(budget_ended) >= 3
        # a pinned ascent halves its step, and one restarts its momentum (a
        # failed trial with momentum is retried at the same step without it)
        res, pairs = retried_steps(monkeypatch, ("gauge", 2, 19, False, 2.0, 5000))
        assert res.converged and any(halved for halved in pairs)
        res, pairs = retried_steps(monkeypatch, ("gauge", 3, 2, True, 4.0, 240))
        assert res.converged and pairs and not any(pairs)


def retried_steps(monkeypatch, case):
    """The pinned ascent, and for each failed trial whose step is well above
    the rounding of ``h``: whether the next trial took half of that step."""
    trials = []
    dual_point = gaugeopt._dual_point

    def recording(ak, h, e, t):
        point = dual_point(ak, h, e, t)
        trials.append((h, point[1]))
        return point

    monkeypatch.setattr(gaugeopt, "_dual_point", recording)
    res = pinned_descent(case)
    (h_cur, lower), pairs = trials[0], []
    for (h, low), (h_next, _) in zip(trials[1:], trials[2:]):
        if low >= lower:
            h_cur, lower = h, low
            continue
        step = h - h_cur
        size = float(np.linalg.norm(step))
        if size > 1e-6 * (1.0 + float(np.linalg.norm(h_cur))):
            pairs.append(float(np.linalg.norm(h_next - h_cur - 0.5 * step)) <= 1e-9 * size)
    return res, pairs
