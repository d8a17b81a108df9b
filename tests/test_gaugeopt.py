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


def random_unitary(seed, k):
    q, r = np.linalg.qr(random_complex(np.random.default_rng(seed), k, k))
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
        u, v = random_unitary(10, y.k), random_unitary(11, y.k)
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
#: (near 1e-17 of its norm at p = 1.8), so the descent's gap stays open and
#: it ends on a failed line search
NEAR_CUT = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 2e-5])], dtype=complex) \
    @ (np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))


def failed_searches(monkeypatch):
    """Records, for each line search of the two-sided descent, whether it failed."""
    failed = []
    search = gaugeopt._line_search

    def recording(*args):
        eta, trial = search(*args)
        failed.append(trial is None)
        return eta, trial

    monkeypatch.setattr(gaugeopt, "_line_search", recording)
    return failed


class TestConvergedFlag:
    """``converged`` is False only when the budget or a failed step search
    stopped a live solve before its gap closed."""

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

    @pytest.mark.parametrize("p", [1.8, 1.95])
    def test_failed_line_search(self, monkeypatch, p):
        failed = failed_searches(monkeypatch)
        res = gaugeopt.minimize_two_sided(NEAR_CUT, p)
        assert failed[-1] and res.iterations == len(failed) < 5000
        assert not res.converged
        lower = gaugeopt.minimax_lower(NEAR_CUT, res.rho, p)
        assert lower <= res.value
        assert res.value - lower > gaugeopt.DESCENT_GAP_TOL * res.value


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
        _, lower, sv, sq = gaugeopt._dual_point(ak, h, e)
        assert lower ** 2 == pytest.approx(g_of(rho), rel=1e-10)
        assert rel_err(gaugeopt._m_matrix(ak, sv, sq), grad) <= 1e-8

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8, 2.0, 2.5, 3.0, 4.0, 13 / 3])
    def test_certified_gap_or_budget_stop(self, k, p):
        """Both solvers: the one-sided ascent (p >= 2) and the two-sided
        descent (p < 2), each at twice its stop tolerance, which leaves room
        for the rounding allowance of the certified bracket."""
        tol = gaugeopt.GAP_TOL if p >= 2.0 else gaugeopt.DESCENT_GAP_TOL
        y = random_element(k, k, np.random.default_rng(40 + k))
        for side in Side:
            cert = alpha_certify(y, p, side, DEFAULT_OPTS)
            assert cert.lower <= cert.upper
            assert (not cert.converged
                    or cert.upper - cert.lower <= 2 * tol * cert.upper), (side, cert)

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

    @pytest.mark.parametrize("e", [2.0, 2.5, 4.0])
    def test_dual_point_ignores_shifts_of_h(self, rng, e):
        """exp(h + cI) / tr is the density of h: the step may be centered."""
        ak = gaugeopt._k_major(random_complex(rng, 3, 4, 3))
        x = random_complex(rng, 4, 4)
        h = x + x.conj().T
        rho, lower, sv, sq = gaugeopt._dual_point(ak, h, e)
        for c in (-240.0, -1.0, 1e-3, 3.0, 240.0):
            rho_c, lower_c, sv_c, _ = gaugeopt._dual_point(ak, h + c * np.eye(4), e)
            assert rel_err(rho_c, rho) <= 1e-12
            assert lower_c == pytest.approx(lower, rel=1e-12)
            assert np.allclose(sv_c, sv, rtol=1e-10, atol=0)

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

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_reordered_sums(self, k):
        """The norm does not see the order of the coordinates; the brackets
        of two orders meet and agree far below the ascent's gap."""
        y = random_element(k, k, np.random.default_rng(60 + k))
        y_perm = VecElem(y.coords[np.random.default_rng(k).permutation(k)])
        for p in (2.5, 3.0, 4.0):
            for side in Side:
                for opts in (DEFAULT_OPTS, FAST_OPTS):
                    a = alpha_certify(y, p, side, opts)
                    b = alpha_certify(y_perm, p, side, opts)
                    assert max(a.lower, b.lower) <= min(a.upper, b.upper)
                    assert b.upper == pytest.approx(a.upper, rel=1e-9)
                    assert b.lower == pytest.approx(a.lower, rel=1e-9)


def stacked_inputs(rng, r):
    """(5, r, r) Hermitian stack covering every branch of ``_project``."""
    g = random_complex(rng, r, r)
    h = random_complex(rng, r, r)
    v = random_complex(rng, r, 1)
    return np.stack([
        g @ g.conj().T + 0.1 * np.eye(r),    # positive definite
        h + h.conj().T,                      # indefinite: floor-clipped
        v @ v.conj().T,                      # rank one: floor-clipped
        np.zeros((r, r), dtype=complex),     # zero spectrum
        -(g @ g.conj().T) - np.eye(r),       # negative: zero spectrum after clipping
    ])


class TestStackedKernels:
    """A (B, r, r) stack gives, matrix by matrix, the bits of single calls.

    At r >= 8 numpy's sums switch to pairwise summation, which the stacked
    trace powers match only because they reduce along the contiguous last
    axis.
    """

    @pytest.mark.parametrize("r", [1, 2, 3, 5, 8, 9])
    @pytest.mark.parametrize("e", [1.5, 2.0, 3.0, 4.0])
    def test_project_and_m_matrix(self, rng, r, e):
        stack = stacked_inputs(rng, r)
        ak = gaugeopt._k_major(random_complex(rng, 3, 4, r))
        vals, vecs = gaugeopt._project(stack, e)
        m = gaugeopt._m_matrix(ak, vals, vecs)
        lam = gaugeopt._eigvals(m)
        for j, s in enumerate(stack):
            v1, q1 = gaugeopt._project(s, e)
            m1 = gaugeopt._m_matrix(ak, v1, q1)
            assert np.array_equal(vals[j], v1) and np.array_equal(vecs[j], q1)
            assert np.array_equal(m[j], m1)
            assert np.array_equal(lam[j], gaugeopt._eigvals(m1))
        # the zero-spectrum branch takes the identity, normalized
        assert np.all(vals[3] == vals[3][0]) and np.all(vals[4] == vals[4][0])
        if r > 1:
            # the indefinite and rank-one spectra sit on the relative floor
            for j in (1, 2):
                assert vals[j][0] == pytest.approx(gaugeopt._EIG_FLOOR * vals[j][-1],
                                                   rel=1e-12)


#: minimize_two_sided ("two", exponent p) and minimize_gauge ("gauge",
#: exponent e) on random_element(k, k, default_rng(seed), degenerate) at the
#: budget max_iters, the two-sided descent as computed by the
#: one-trial-at-a-time line search: (value, iterations, converged, SHA-256 of
#: s, of rho).  Recorded with numpy 2.4.6 and its bundled OpenBLAS (x86-64,
#: AVX-512), with one and with two BLAS threads alike.
DESCENT_PINS = {
    ("two", 1, 0, False, 1.5, 240): (
        0.12895693738881814, 0, True,
        "d3afcb2d6e97bf4727f55801b6acc10d1f088d3a505d3c3da04a3eddf1186376",
        "3239b05c38b825ebb79f103172438292a22a0951351a6b81be1df5d44776cc65"),
    ("two", 2, 0, False, 1.5, 5000): (
        2.966332125109071, 8, True,
        "c2fdeafe29d91c79d0fdac4c845f517d306869a7b30540a862216d581b786123",
        "6135d7f67de0a0aff53cedafb4f4e8ce160d3710590058775dcb5d05bd4c8114"),
    ("two", 3, 1, True, 1.5, 5000): (
        4.420039602444352, 28, True,
        "88662d7461163cf467e477df9eb0f24b4798446b934648637f3875feda6fbaa8",
        "59cc43034e8091f4b7f1ab9225fcad6bdaf82d2e6ed86a8f21a6ac9dbf388cfc"),
    ("two", 3, 0, False, 1.2, 240): (
        6.612066771174305, 11, True,
        "6fe3faec5e992c6f0cd31a0b052e910daed47566b06b2637e295b59d9ca21e8a",
        "308868e120623943c0dde2c714b8ffc2091f8fbe237ed534bed096c09cff3813"),
    ("two", 5, 1, False, 1.5, 5000): (
        13.561698476199888, 21, True,
        "e1dfc510e38cb07c74e4beb1983af5f3e76ed4039d2b845114790b3b377da247",
        "771baaaee91c7f5bbadc38438c91f74dc245724ee5e7ce5879bb51c97135fa0c"),
    ("two", 8, 1, True, 1.5, 5000): (
        29.41935985330172, 11, True,
        "e733850df503b199a01c5d3179c881ab243f330afd3d7c92f3f7d992c19e3569",
        "b8c15ab9a1bc86e56fb502634a0b3be91fbd72f8c7fa5e8ffa5d9e6383f8bb77"),
    ("two", 8, 0, False, 1.8, 240): (
        26.677249805037064, 102, True,
        "dd9f225953ca14037a00d577ec48614ac788de61bbcabecfef8a11973f250234",
        "495eacf99fa78d569d2c0e39cecfccfb4fa844cae797d917839f3c6cb0bd9d0a"),
    ("gauge", 1, 0, False, 3.0, 240): (
        0.1289569373888181, 0, True,
        "c8db0ed7d3a4479694d1b8b750622cfb910763aee594a9e9fce2513dfb358e89",
        "3239b05c38b825ebb79f103172438292a22a0951351a6b81be1df5d44776cc65"),
    ("gauge", 2, 0, False, 3.0, 240): (
        2.7225689633633023, 18, True,
        "51598a2ad328a8c2b22e3d7fd84477dc29acba0ada5ca13fba215d93d33c4e1e",
        "0e0e7a9e3c8f8b1291424bdcbf9c414488b4084844947bccadd3a399fa2b666e"),
    ("gauge", 2, 0, True, 4.0, 5000): (
        2.2824030535443067, 6, True,
        "25d89f75eb405a222d75d53dfc8814c0809797ffa5a05d7af8dfee65e70b691a",
        "7d59978b198a13fcb4827d6ddfd892bb6191b34c02d85f3c7235e82e636b140a"),
    ("gauge", 2, 19, False, 2.0, 5000): (
        2.4762995368811187, 27, True,
        "b3713827b3152a6c653fb0c23ea4513b890e3bf74ba0f001bbd48139bad9165b",
        "06860de367b6ea69ce7affbafc8d6ddb33b6a3f154d46217131690f7f5a1de20"),
    ("gauge", 3, 2, True, 4.0, 240): (
        3.63969464127068, 46, True,
        "ec9c79e18421469903d5d6edc847c7dd071c537f2bed7d046016b535309b844e",
        "ff226a7ecebf1b42b746ab554611b4bd595b47be1c92d4e7404846b08dddb939"),
    ("gauge", 3, 3, False, 3.0, 5000): (
        6.062536634141337, 36, True,
        "a5b1d1572a56d985610c6a166f000ac5627dc2e30e9c0d0908fdb621d7a0465b",
        "d34f62c976da30d9b75cfc63d8c78345682808bad297332f29d537ca4e747810"),
    ("gauge", 3, 1, False, 13 / 3, 5000): (
        4.035599489526254, 62, True,
        "ed88f01c3b9d58d9c701c7b507d1fe21608a7770c694981d341a95c2b7376122",
        "9d060290e24f86d8a209efe5057b22f2a73b6ead9ede1d0ae7cf3a0fd5cdca86"),
    ("gauge", 4, 0, True, 2.5, 240): (
        6.90437857225412, 56, True,
        "f00243f86f1a2399945b6b76226edd86d76b2189d0619c29d6920eaa7b062401",
        "d0931490b81726ef5cce4e34d7f99ebcb0e1b0144403b95216ac1ec0bd770a31"),
    ("gauge", 5, 2, True, 4.0, 5000): (
        8.526551940683044, 173, True,
        "780cd2cbc77a232d34bfd54b7de7f3a0edda9639873a9044ce762d051cc248d2",
        "df1db86b4097bb3bd04e65a9fafd8e07b8a087144c1c75801fb6f9d6c182b131"),
    ("gauge", 5, 0, False, 3.0, 240): (
        10.334772570421062, 128, True,
        "bb1c1a736a9663ae52d8dc1cb8aaa2c7c69d4a62b17e07efa46239a412ee78f6",
        "66b5ce9c7a8af60c466e7ca3dd02af13a3a0f95f5c5ae2e1f7a6cc69758b52d3"),
    ("gauge", 5, 1, False, 2.5, 5000): (
        9.79632620426575, 122, True,
        "e2e4aaeea4bcd96b903383ff6b0d1cf7e4d6bf91a1a1cfac8eb24a18de8051ed",
        "eb8f731fe00c76531347229c1f06cec1ae9ec885f231dc450b5b93018fe38f9a"),
    ("gauge", 8, 2, False, 4.0, 5000): (
        16.00495581351225, 177, True,
        "f4c52838ccd1e09ebc9bf8dba336c5cfe5db73416d5fa563eaa9d287947e5a6f",
        "2daffb454d218ace6fe6e8be0d625b35ada47c7b049649e175d1c921feda70eb"),
    ("gauge", 8, 1, True, 3.0, 240): (
        18.06893309278876, 137, True,
        "a010eb4ed8c5be0719e0f0f4654876cccf4dde5b1f289d330b9cb3cd95a16017",
        "4f79308376a0f764fae5d948685b6be6b0a0369e156131979728b79719c05daf"),
    ("gauge", 3, 4, True, 2.5, 240): (
        4.141780401588399, 240, False,
        "aa5080660a1e0701127ce573781590a8067f64bf3723d860feb9976bac8f4ab2",
        "07f104e344345788599f5439d12f1baabbbc209fed3e1b64c77f232bf42ee997"),
    ("gauge", 4, 3, False, 3.0, 240): (
        7.32923846534125, 240, False,
        "6151f1c33b3c4baef5d1366321bf22db07304ae9d4e05c0a10a2778e906d62e4",
        "99a8a5ad347544ebb71b53039f7f06b9ff9db42f065cc39915714d3a2dea53af"),
    ("gauge", 6, 3, True, 4.0, 240): (
        10.852568370977597, 240, False,
        "dd5bc724cdde1f11417e22d3aae225034e66aaf6a024ec06a6b66c75cfa7e002",
        "074c8d4b5290a2d39c0df6a7031ed7f583d85ee251bc6eb1712b773b09098abd"),
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
    """The stacked line search takes the points of trying each halving alone,
    and the ascent's bits do not depend on the BLAS thread count."""

    @pytest.mark.parametrize("case", list(DESCENT_PINS), ids=pin_id)
    def test_bit_identical(self, case):
        res = pinned_descent(case)
        assert (res.value, res.iterations, res.converged, sha256(res.s),
                sha256(res.rho)) == DESCENT_PINS[case]

    def test_cases_cover_failed_searches_and_budgets(self, monkeypatch):
        # no pinned random element ends the two-sided descent on a failed line
        # search (each closes its gap); this one does, at its 28th search
        failed = failed_searches(monkeypatch)
        res = gaugeopt.minimize_two_sided(NEAR_CUT, 1.8)
        assert failed[-1] and res.iterations == len(failed) == 28
        assert (res.value, res.iterations, res.converged, sha256(res.s),
                sha256(res.rho)) == (
            1.0000000019347624, 28, False,
            "57e8b11994a28ca302882b610e8a4374488d98b588ec36112d269473e9172804",
            "757e1f99a341a4c881aebf86a2ece482a8ad40197255d178464e4bb96268741a")
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

    def recording(ak, h, e):
        point = dual_point(ak, h, e)
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
