import hashlib

import numpy as np
import pytest

import nclp.vecnorm as vn
from nclp import gaugeopt
from nclp.counterexample import verify_pipeline, witness_w
from nclp.cpmaps import amplify_apply, build_counterexample_maps
from nclp.schatten import psd_power, schatten_norm
from nclp.vecnorm import (DEFAULT_OPTS, FAST_OPTS, Side, VecElem,
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
        assert np.array_equal(m, m.conj().T)

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
            assert np.array_equal(m, m.conj().T)
            assert rel_err(m, explicit) <= 1e-10
            lam = gaugeopt._eigvals(m)
            assert np.all(lam >= 0.0)
            assert lam[-1] == pytest.approx(np.linalg.eigvalsh(explicit)[-1], rel=1e-10)

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
        cert = alpha_certify(y, 3.0, Side.ELL_ROW, DEFAULT_OPTS.replace(max_iters=0))
        # the rounding allowance keeps the lower bound strictly below
        assert cert.lower <= cert.upper <= cert.lower * (1 + 1e-12)
        assert cert.iterations == 0
        assert cert.converged

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_zero_budget_with_descent(self, p):
        y = random_element(3, 3, np.random.default_rng(0))
        cert = alpha_certify(y, p, Side.ELL_ROW, DEFAULT_OPTS.replace(max_iters=0))
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
        assert np.array_equal(res.rho, points[3][0])
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
        _, lower, sv, sq, _, _ = gaugeopt._dual_point(ak, h, e, 1.0)
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
        rho, lower, sv, sq, log_u, uq = gaugeopt._dual_point(ak, h, 2.0, t)
        assert rel_err(rho, psd_power(u, 1.0 / t)) <= 1e-12
        assert lower ** 2 == pytest.approx(f_of(u), rel=1e-10)
        m = gaugeopt._m_matrix(ak, sv, sq)
        grad = gaugeopt._pullback(m, log_u, uq, t)
        assert float(np.vdot(u, grad).real) == pytest.approx(
            float(np.vdot(rho, m).real) / t, rel=1e-10)
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
        rho, lower, sv, _, log_u, _ = gaugeopt._dual_point(ak, h, e, t)
        assert float(np.sum(np.linalg.eigvalsh(rho) ** t)) == pytest.approx(1.0, rel=1e-12)
        for c in (-240.0, -1.0, 1e-3, 3.0, 240.0):
            rho_c, lower_c, sv_c, _, log_u_c, _ = gaugeopt._dual_point(
                ak, h + c * np.eye(4), e, t)
            assert rel_err(rho_c, rho) <= 1e-12
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
        1,479 iterations; ``min(5 / spread, 1.03 eta_prev)`` takes 974."""
        total = 0
        for seed in range(5):
            y = random_element(5, 5, np.random.default_rng(seed)).coords
            for p in (3.0, 4.0):
                res = gaugeopt.minimize_gauge(y, p)
                assert res.converged, (seed, p)
                total += res.iterations
        assert total < 1479

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
        2.9663321250615517, 8, True,
        "9d5574aaa66186a3fc6b87c93a0098fe543204b6961be2e3c14e3d3020a22d35",
        "441d097b572f26ad391204fe3bce2b5a7a49f8c5c136757ebb6424134195bd18"),
    ("two", 3, 1, True, 1.5, 5000): (
        4.420039602219791, 7, True,
        "f26352e4fa04caa33ac71a03a76f298f78ee2421b091ecfdd97791749e126746",
        "63cdf86211277ea216460aae09d3de160f62a963f7842122800e0b800ac926bc"),
    ("two", 3, 0, False, 1.2, 240): (
        6.612066771073371, 11, True,
        "1fb5ff68b8470cbfea41d6c48f42793a47078eb402e455581ec160641e5b2dfc",
        "d39b2042d4fd155ee98d11189ce83500634b65e805618e4478709dd3476afd7f"),
    ("two", 5, 1, False, 1.5, 5000): (
        13.561698475709283, 15, True,
        "f313df68961819d4050d8bff1ee76e0a27fc8f08c1953af758eb4e329128cadc",
        "15f5dc2242442ece4c701f5840617a04d7b898bbf29e93b8e8c64328b1b088be"),
    ("two", 8, 1, True, 1.5, 5000): (
        29.41935985332677, 20, True,
        "f1292826fbb2aa1c2d1a39d2b74bb55479c12a3a7a04cfcff06d8978e894e655",
        "4ef92f11fd26681d592a97ea1f6b9307ae78c13e074373d23562ce65f1da0798"),
    ("two", 8, 0, False, 1.8, 240): (
        26.67724980443592, 14, True,
        "b62a49f712052cce0d6041b0ea23c2b4480dc26f7754a64b14af3c2bd6fb7c2b",
        "fec2054346b6c64cfec865ba84a5092bc48be3ab6206cc5cfd11f27179ab4c68"),
    ("gauge", 1, 0, False, 3.0, 240): (
        0.1289569373888181, 0, True,
        "c8db0ed7d3a4479694d1b8b750622cfb910763aee594a9e9fce2513dfb358e89",
        "3239b05c38b825ebb79f103172438292a22a0951351a6b81be1df5d44776cc65"),
    ("gauge", 2, 0, False, 3.0, 240): (
        2.7225689614546393, 18, True,
        "4d173a84041952f2be5807fb7f72f9068f2affb94b86754ca23371fbd25060d9",
        "45fe734d5d2127ecff068ab51d21f69ac19b46a32332309a5934a60e71f7af60"),
    ("gauge", 2, 0, True, 4.0, 5000): (
        2.2824030535443067, 4, True,
        "25d89f75eb405a222d75d53dfc8814c0809797ffa5a05d7af8dfee65e70b691a",
        "908dd9dcdaff5b41bc5097c3bda77f29625c67a53e70d8a964ebb39518339e7b"),
    ("gauge", 2, 19, False, 2.0, 5000): (
        2.476299536370883, 24, True,
        "7cb68bf6b6176497e76a5825de5dd00df9f953c11aaf7e23cc8a7beb9d8180b0",
        "eeceea8cdb212d11d5c4b34f727a7db1f9c802b7037e84e338a86a1c6c503bd2"),
    ("gauge", 3, 2, True, 4.0, 240): (
        3.639694636767198, 31, True,
        "09515446039ef0c7db350e1cf1fd7f9804a498bbac47ee94ae661c538404e398",
        "1b320db61b2592b36e88cfecac4edbc6d986273aac72f6450e3cdfabf05009d1"),
    ("gauge", 3, 3, False, 3.0, 5000): (
        6.062536634431977, 32, True,
        "8953fb2c96857e6dad63ceb6c1cd94b9bc39d79c734116b9035418b8b4eae4cb",
        "c27c58fe845bca886e57031e1c6729f23a89d2f2ae17de4d92263fc9b67e4096"),
    ("gauge", 3, 1, False, 13 / 3, 5000): (
        4.03559948948625, 43, True,
        "c32c522019c251712eb538b24c87037cd6c163eb97c34bf1cbc768d34d32f3a4",
        "03af5647d37719c8350d8027c3788139ab6d367cd73034cf2a9dd4dc9dfb1900"),
    ("gauge", 4, 0, True, 2.5, 240): (
        6.904378572315066, 44, True,
        "98c6461eb99ec26889ddb572d0e66d43ea9814ab872f259502fe6db113c2e4dd",
        "81b22cafd73b7487a46f980c78cc4f8ff4e97215f7d73e31847bcc7a41b16164"),
    ("gauge", 5, 2, True, 4.0, 5000): (
        8.52655196284363, 280, True,
        "31c853f99c974b6b531ff8ad552041e66b999d99c4b388d2eabd4cfea1f2b0c8",
        "dcdb482b2d1e66e66b0c5374fee1b1248a6197e2bbf6a75a2797d9851ce4762b"),
    ("gauge", 5, 0, False, 3.0, 240): (
        10.334772540091835, 104, True,
        "6047ba918672d6e285319a002bc662100f96630a40a51669ffb2c8fbbcddb4bf",
        "86b8eb69be6c7dfc77f0f019337eee05495f94c5639616f43f5024ccd07c81c2"),
    ("gauge", 5, 1, False, 2.5, 5000): (
        9.796326218359978, 132, True,
        "fdf009fc3c6b884fcd3c1d46d05edd4bfdc353a3bbc05b1af037299809dde26e",
        "472dac82fb97f97367f3faac42f8c096368a1c7b8a5a77e667a634a35bdefcb9"),
    ("gauge", 8, 2, False, 4.0, 5000): (
        16.004955819958298, 106, True,
        "e764ac938dd3507e2067c483657d0a18ac49496fd727c5b04cfaa80308316adf",
        "59e04d4bebc5701bf530019be25b138cf70537d2b7db6845b4c9b363a78531e5"),
    ("gauge", 8, 1, True, 3.0, 240): (
        18.068933205152568, 89, True,
        "081c0f7ec5adb5dd31fdc5a1978f75d66e85d116d4fb530384f988373b5c24c7",
        "2afd745f306d83bb41d584c84e98739e2c2d6d6bd24027c3e328705984e45517"),
    ("gauge", 3, 4, True, 2.5, 240): (
        4.141780361637956, 35, True,
        "f7dcf355228ab10095b0d8e7974944260392f82b4ff47a2129e0723d557b9691",
        "2ff240c34d30f483c3044b3be386df90eaf83bca55f6462aa8e6263d4b1f31ec"),
    ("gauge", 4, 3, False, 3.0, 240): (
        7.329238410208052, 72, True,
        "780e3992971d662ed085e6848e215bfa817edcf13e76abaf9ad201e6a6132938",
        "21cb596484fdd6e6d6645c2ffad9556d0a81ec3b16a1857be8bbb8bffe81aeff"),
    ("gauge", 6, 3, True, 4.0, 240): (
        10.852568317836955, 133, True,
        "61865987a5c31b5b585bd647b66743e0326ec9caa5a89a6a55bb7ab80cc2bcad",
        "dfa55be565ea1563d9d68c767028b91a89e3b4599286d6c34e7fd8c6e88d86fd"),
    ("gauge", 4, 1, False, 2.5, 240): (
        7.286700646394941, 67, True,
        "d1c216eadd6c63aaa4706b805947d8d95805ea07c0084b86e7d95669b0c0b5c1",
        "7ebdd2f4edcfb7e2af6210955e4adeea7af721b358b623f4a6652201d8de44b2"),
    ("gauge", 3, 5, False, 2.0, 240): (
        5.776231070460599, 240, False,
        "f6c76a673911fac328f54421099419326d9f8b8e9052f42c1c53a23279b14315",
        "516875249a34535f77e42322eef20445be9dca03180f0bc38340ba2c654e04ad"),
    ("gauge", 5, 2, True, 4.0, 240): (
        8.526552022639628, 240, False,
        "5f8ed16b17b498f6a86b31db031c3510b460ce992882eced31250d2d3487a078",
        "a71683c61bf4b281326ab983028316cbd8b19138d26c0cd32a4e44ed864388d5"),
    ("gauge", 5, 6, True, 3.0, 240): (
        8.478074801772562, 240, False,
        "440472ff9ae9b98e3d4407861487f354001ae048b9b15a7b7b834ad3af9d1bac",
        "e0122c2bec771e46ba77e8612b73e01d084c3295f5924a12a12996982759a6ef"),
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
