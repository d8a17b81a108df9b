import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.linalg import _umath_linalg

import nclp.vecnorm as vn
from nclp import gaugeopt
from nclp.counterexample import verify_pipeline, witness_w
from nclp.cpmaps import amplify_apply, build_counterexample_maps
from nclp.schatten import conjugate, eigh, lp_norm, psd_power, schatten_norm
from nclp.vecnorm import (DEFAULT_OPTS, FAST_OPTS, Side, VecElem,
                          alpha_certify, alpha_upper, beta_certify,
                          certified_dual_upper, evaluate_upper_at, random_element)

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


class TestDualSolves:
    """One descent per distinct dual witness within one certificate call,
    and none for diagonal coordinates."""

    @pytest.fixture
    def dual_inputs(self, monkeypatch):
        seen = []
        solve = vn.certified_dual_upper

        def counting(yp, p_dual, opts):
            seen.append(yp.coords.tobytes())
            return solve(yp, p_dual, opts)

        monkeypatch.setattr(vn, "certified_dual_upper", counting)
        return seen

    def test_beta_solves_each_witness_once(self, dual_inputs):
        y = random_element(5, 5, np.random.default_rng(3))
        cert = beta_certify(y, 3.0, DEFAULT_OPTS)
        assert cert.lower <= cert.upper * (1 + 1e-9)
        assert dual_inputs
        assert len(dual_inputs) == len(set(dual_inputs))

    @pytest.mark.parametrize("y, p", [
        (pipeline_image(18, 3.0), 3.0),
        (random_element(1, 3, np.random.default_rng(3)), 1.5),
    ], ids=["pipeline-k18", "k1-n3"])
    def test_diagonal_beta_runs_no_solve(self, monkeypatch, dual_inputs, y, p):
        # diagonal coordinates take the closed form of the p-sum
        upper_calls = []
        upper = vn.alpha_upper
        monkeypatch.setattr(vn, "alpha_upper",
                            lambda *args: upper_calls.append(1) or upper(*args))
        lapack = count_lapack(monkeypatch)
        cert = beta_certify(y, p, DEFAULT_OPTS)
        assert lapack == [] and upper_calls == [] and dual_inputs == []
        assert cert.iterations == 0 and cert.converged
        assert cert.lower <= cert.upper <= cert.lower * (1 + 1e-13)

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


def count_lapack(monkeypatch):
    """The names of the eigensolves and SVDs made from now on, in order.

    Counted at numpy's LAPACK gufuncs, which both ``np.linalg`` and the
    ``schatten.eigh`` / ``eigvalsh`` kernel call; ``svd_s`` / ``svd_f`` are
    the SVDs with singular vectors.
    """
    calls = []
    for gufunc, name in (("eigh_lo", "eigh"), ("eigvalsh_lo", "eigvalsh"),
                         ("svd", "svd"), ("svd_s", "svd"), ("svd_f", "svd")):
        def counting(*args, _solve=getattr(_umath_linalg, gufunc), _name=name,
                     **kwargs):
            calls.append(_name)
            return _solve(*args, **kwargs)
        monkeypatch.setattr(_umath_linalg, gufunc, counting)
    return calls


def reference_value(y, s, p, r=None):
    """The certified witness value by the ``psd_power`` route: one
    eigendecomposition per root and separate spectra for the trace terms."""
    s_ih, s_h = psd_power(s, -0.5), psd_power(s, 0.5)
    if r is None:
        z = y @ s_ih
        rebuilt = z @ s_h
    else:
        z = psd_power(r, -0.5) @ y @ s_ih
        rebuilt = psd_power(r, 0.5) @ z @ s_h
    top = np.sqrt(max(np.linalg.eigvalsh(sum(zn @ zn.conj().T for zn in z))[-1], 0.0))
    charge = sum(schatten_norm(c, p) for c in rebuilt - y)
    svals = np.clip(np.linalg.eigvalsh(s), 0.0, None)
    if r is None:
        return top * np.sum(svals ** (p / 2)) ** (1 / p) + charge
    q = gaugeopt.q_from_p(p)
    rvals = np.clip(np.linalg.eigvalsh(r), 0.0, None)
    return np.sum(rvals ** (q / 2)) ** (1 / q) * top * np.sum(svals) ** 0.5 + charge


def below_cut(rng, k):
    """A PD-looking k x k witness with one eigenvalue under the rank cut."""
    u = random_unitary(rng, k)
    vals = np.linspace(1.0, 0.2, k)
    vals[-1] = 1e-12
    return (u * vals) @ u.conj().T


def witness_cases():
    """(label, y, s, r, p): solved witnesses, on full and deficient supports,
    and arbitrary ones with eigenvalues below the rank cut."""
    cases = []
    for k, seed, degenerate in ((3, 0, False), (4, 1, True), (5, 2, False)):
        y = random_element(k, k, np.random.default_rng(seed), degenerate=degenerate).coords
        tag = f"k{k}{'-deg' if degenerate else ''}"
        for p in (2.5, 4.0):
            cases.append((f"solved-{tag}-{p}", y,
                          gaugeopt.minimize_gauge(y, p, max_iters=240).s, None, p))
        for p in (1.3, 1.8):
            res = gaugeopt.minimize_two_sided(y, p, max_iters=240)
            cases.append((f"solved-{tag}-{p}", y, res.s, res.r, p))
        rng = np.random.default_rng(10 + seed)
        s_cut, r_cut = below_cut(rng, k), below_cut(rng, k)
        cases.append((f"cut-{tag}-3.0", y, s_cut, None, 3.0))
        cases.append((f"cut-{tag}-1.5", y, s_cut, r_cut, 1.5))
    return cases


WITNESS_CASES = witness_cases()


class TestWitnessEvaluation:
    """One eigendecomposition per witness factor, with the values of the
    route that decomposes each factor once per power."""

    @pytest.mark.parametrize("label, y, s, r, p", WITNESS_CASES,
                             ids=[c[0] for c in WITNESS_CASES])
    def test_against_psd_power_route(self, label, y, s, r, p):
        if r is None:
            got = gaugeopt.evaluate_one_sided(y, s, p)
        else:
            got = gaugeopt.evaluate_two_sided(y, r, s, p)
        assert got == pytest.approx(reference_value(y, s, p, r), rel=1e-13)

    def test_cut_witness_is_charged(self):
        # the eigenvalue under the cut leaves a part of y unreproduced
        _, y, s, r, p = next(c for c in WITNESS_CASES if c[0] == "cut-k3-1.5")
        rebuilt = psd_power(r, 0.5) @ psd_power(r, -0.5) @ y @ psd_power(s, -0.5) \
            @ psd_power(s, 0.5)
        assert float(np.max(np.abs(rebuilt - y))) > 1e-3

    def test_lapack_calls(self, monkeypatch):
        y = random_element(3, 3, np.random.default_rng(0)).coords
        one = gaugeopt.minimize_gauge(y, 3.0, max_iters=240)
        two = gaugeopt.minimize_two_sided(y, 1.5, max_iters=240)
        calls = count_lapack(monkeypatch)
        gaugeopt.evaluate_one_sided(y, one.s, 3.0)
        assert calls == ["eigh", "eigvalsh", "svd"]
        calls.clear()
        gaugeopt.evaluate_two_sided(y, two.r, two.s, 1.5)
        assert calls == ["eigh", "eigh", "eigvalsh", "svd"]

    @pytest.mark.parametrize("y", [
        random_element(3, 3, np.random.default_rng(0)).coords,
        random_element(4, 4, np.random.default_rng(1), degenerate=True).coords,
    ], ids=["ascent", "ascent-deg"])
    def test_two_sided_solve_takes_no_eigensolve_after_it(self, monkeypatch, y):
        calls = count_lapack(monkeypatch)
        ascend, evaluate = gaugeopt._ascend, gaugeopt.evaluate_two_sided

        def marked_ascend(*args):
            out = ascend(*args)
            calls.append("ascent done")
            return out

        def marked_evaluate(*args):
            calls.append("evaluate")
            return evaluate(*args)

        monkeypatch.setattr(gaugeopt, "_ascend", marked_ascend)
        monkeypatch.setattr(gaugeopt, "evaluate_two_sided", marked_evaluate)
        res = gaugeopt.minimize_two_sided(y, 1.5, max_iters=240)
        end = calls.index("evaluate")
        assert calls[end:] == ["evaluate", "eigh", "eigh", "eigvalsh", "svd"]
        assert calls[end - 1] == "ascent done"
        assert "eigh" in calls[:end - 1]  # the ascent's solves are counted too
        # r is G(s) = sum_n y_n s^+ y_n^*
        s_pinv = psd_power(res.s, -1.0)
        want = sum(yn @ s_pinv @ yn.conj().T for yn in y)
        assert rel_err(res.r, want) <= 1e-13


def rank_one_support(rng, n, k):
    """n coordinates ``u_n w^*`` that share one right vector ``w``."""
    w = random_complex(rng, k, 1)
    return np.stack([random_complex(rng, k, 1) @ w.conj().T for _ in range(n)])


class TestSolveCalls:
    """The LAPACK calls a solve makes before its first iterate, and those of
    the two-sided closed forms."""

    @pytest.mark.parametrize("solve, p", [(gaugeopt.minimize_gauge, 3.0),
                                          (gaugeopt.minimize_two_sided, 1.5)],
                             ids=["one-sided", "two-sided"])
    def test_ascent_starts_at_its_first_dual_point(self, monkeypatch, solve, p):
        # the Gram's eigh in _restrict, then the dual start's eigh of h and of
        # C(rho), and only then the first eigvalsh of M(s): no other start
        # point is scored
        y = random_element(3, 3, np.random.default_rng(0)).coords
        calls = count_lapack(monkeypatch)
        assert solve(y, p, max_iters=240).iterations > 0
        assert calls[:4] == ["eigh", "eigh", "eigh", "eigvalsh"]

    @pytest.mark.parametrize("y", [
        random_complex(np.random.default_rng(3), 1, 3, 3),
        rank_one_support(np.random.default_rng(4), 3, 3),
    ], ids=["one-coordinate", "rank-one-support"])
    def test_two_sided_closed_forms(self, monkeypatch, y):
        # the restriction's eigh, the eigh of M(s) behind rho, and the three
        # eigensolves and the SVD of the evaluation (test_lapack_calls): s is
        # diagonal in the Gram eigenbasis, so it takes no eigh of its own
        calls = count_lapack(monkeypatch)
        res = gaugeopt.minimize_two_sided(y, 1.5)
        assert res.iterations == 0 and res.converged
        assert calls == ["eigh", "eigh", "eigh", "eigh", "eigvalsh", "svd"]

    def test_ascending_diagonal_decomposes_exactly(self, rng):
        # why the closed form may skip that eigh: on an ascending diagonal,
        # ties included, LAPACK returns its entries and the identity
        for r in range(1, 7):
            x = np.sort(rng.random(r) ** 3)
            for vals in (x, np.concatenate([x[:1], x[:-1]])):
                w, q = eigh(np.diag(vals).astype(np.complex128))
                assert np.array_equal(w, vals) and np.array_equal(q, np.eye(r))


class TestSolveReturnsWitness:
    """Both solves return the ``FactorWitness`` that certificates carry, with
    its branch, on the ascent, on the closed forms and on diagonal
    coordinates; ``alpha_upper`` hands it on with the frame and the value
    scaled back."""

    @pytest.mark.parametrize("coords", [
        random_element(3, 3, np.random.default_rng(0)).coords,
        random_complex(np.random.default_rng(3), 1, 3, 3),
        rank_one_support(np.random.default_rng(4), 3, 3),
        diagonal_coordinates_elem(1, 5, 3).coords,
        np.zeros((2, 3, 3), dtype=np.complex128),
    ], ids=["ascent", "one-coordinate", "rank-one-support", "diagonal", "zero"])
    @pytest.mark.parametrize("solve, p, branch", [
        (gaugeopt.minimize_gauge, 3.0, "one_sided"),
        (gaugeopt.minimize_two_sided, 1.5, "two_sided"),
    ], ids=["one-sided", "two-sided"])
    def test_branch(self, coords, solve, p, branch):
        wit = solve(coords, p, max_iters=240)
        assert type(wit) is vn.FactorWitness is gaugeopt.FactorWitness
        assert wit.branch == branch and not wit.transposed
        assert (wit.r is None) == (branch == "one_sided")
        assert wit.value >= 0.0 and wit.s.shape == (3, 3)

    @pytest.mark.parametrize("y", [
        random_element(3, 2, np.random.default_rng(1)),
        VecElem.diagonal([1.0, -2.0j, 0.5]),
        VecElem.zeros(3, 2),
    ], ids=["ascent", "diagonal", "zero"])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("side", list(Side), ids=lambda s: s.value)
    def test_alpha_upper_returns_the_witness_value(self, y, p, side):
        value, wit = alpha_upper(y, p, side, FAST_OPTS)
        assert value == wit.value
        assert wit.transposed == (side == Side.R_COL)
        zero = y.is_zero()
        assert wit.branch == ("one_sided" if p >= 2.0 or zero else "two_sided")
        if not zero:
            assert value == pytest.approx(evaluate_upper_at(y, wit, p), rel=1e-9)


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

    @pytest.mark.parametrize("name", sorted(DIAGONAL_ELEMS))
    def test_solves_make_no_lapack_call(self, monkeypatch, name):
        y = DIAGONAL_ELEMS[name].coords
        calls = count_lapack(monkeypatch)
        one = gaugeopt.minimize_gauge(y, 3.0)
        two = gaugeopt.minimize_two_sided(y, 1.5)
        assert calls == []
        assert one.iterations == two.iterations == 0
        # r is G(s) = sum_n y_n s^+ y_n^*
        s_pinv = psd_power(two.s, -1.0)
        want = sum(yn @ s_pinv @ yn.conj().T for yn in y)
        assert rel_err(two.r, want) <= 1e-13

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


@st.composite
def diagonal_coordinate_elements(draw):
    """Diagonal coordinates, k, N <= 4: each entry zero or of modulus in
    [1/8, 1] with a random phase, the whole scaled by 2^-400, 1 or 2^400.
    Nonzero entries stay far above the support cut, so the witness leaves
    nothing out."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.one_of(st.just(0.0), st.tuples(st.floats(0.125, 1.0),
                                              st.floats(-math.pi, math.pi)))
    diag = [draw(entry) for _ in range(n * k)]
    shift = draw(st.sampled_from((-400, 0, 400)))
    coords = np.zeros((n, k, k), dtype=np.complex128)
    for idx, z in enumerate(diag):
        if z != 0.0:
            mod, phase = z
            coords[idx // k, idx % k, idx % k] = complex(
                math.ldexp(mod * math.cos(phase), shift),
                math.ldexp(mod * math.sin(phase), shift))
    return VecElem(coords)


def mp_closed_form(y, p):
    """|c^{1/2}|_p at 50 digits from the stored floats."""
    with mpmath.workdps(50):
        d = np.diagonal(y.coords, axis1=1, axis2=2)
        c = [mpmath.fsum(mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2
                         for z in d[:, i]) for i in range(y.k)]
        mp_p = mpmath.mpf(p)
        return mpmath.fsum(x ** (mp_p / 2) for x in c) ** (1 / mp_p)


class TestDiagonalClosedForm:
    """The closed form of diagonal coordinates: exact, rounded up, and
    attained by the witness up to its regularization."""

    @settings(max_examples=120, deadline=None)
    @given(y=diagonal_coordinate_elements(),
           p=st.sampled_from((1.1, 1.5, 2.0, 3.0, 7.0)),
           side=st.sampled_from(list(Side)))
    def test_bracket_and_witness(self, y, p, side):
        cert = alpha_certify(y, p, side)
        upper, wit = alpha_upper(y, p, side)
        assert upper == cert.upper
        assert wit.iterations == 0
        if y.is_zero():
            assert cert.upper == cert.lower == 0.0
            return
        exact = mp_closed_form(y, p)
        with mpmath.workdps(50):
            assert mpmath.mpf(cert.lower) <= exact <= mpmath.mpf(upper)
            assert (mpmath.mpf(upper) - exact) / exact <= mpmath.mpf("1e-13")
        assert evaluate_upper_at(y, wit, p) == pytest.approx(upper, rel=1e-9)

    @settings(max_examples=120, deadline=None)
    @given(y=diagonal_coordinate_elements(),
           p=st.sampled_from((1.1, 1.5, 2.0, 3.0, 7.0, 600.0)))
    def test_beta_bracket(self, y, p):
        # the p-sum 2^{1/p - 1} |c^{1/2}|_p, both bounds rounded outward
        cert = beta_certify(y, p)
        if y.is_zero():
            assert cert.upper == cert.lower == 0.0
            return
        with mpmath.workdps(50):
            exact = mpmath.mpf(2) ** (1 / mpmath.mpf(p) - 1) * mp_closed_form(y, p)
            assert mpmath.mpf(cert.lower) <= exact <= mpmath.mpf(cert.upper)
            assert (mpmath.mpf(cert.upper) - cert.lower) / exact <= mpmath.mpf("1e-13")

    @pytest.mark.parametrize("p", [1.5, 3.0, 7.0])
    def test_beta_bracket_at_subnormal_scale(self, p):
        # scaling back to m 2^-1074 rounds: both bounds step outward
        for m in range(1, 200):
            v = math.ldexp(m, -1074)
            cert = beta_certify(VecElem(np.full((1, 1, 1), v, dtype=complex)), p)
            with mpmath.workdps(50):
                exact = mpmath.mpf(2) ** (1 / mpmath.mpf(p) - 1) * mpmath.mpf(v)
                assert mpmath.mpf(cert.lower) <= exact <= mpmath.mpf(cert.upper)

    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 7.0, 600.0])
    def test_beta_dual_witness_attains_the_lower_bound(self, p):
        rng = np.random.default_rng(int(10 * p))
        for y in list(DIAGONAL_ELEMS.values()) + [
                VecElem(random_complex(rng, n, k, k) * np.eye(k))
                for k, n in ((1, 1), (1, 3), (3, 2), (4, 4))]:
            cert = beta_certify(y, p)
            wit = cert.dual_witness
            assert gaugeopt._diagonal_coordinates(wit.coords)
            du = gaugeopt.diagonal_upper(wit.coords, conjugate(p))
            assert cert.dual_norm_bound == lp_norm((du, du), conjugate(p))
            ratio = abs(vn.pairing(y, wit)) / cert.dual_norm_bound
            assert ratio == pytest.approx(cert.lower, rel=1e-13)

    @pytest.mark.parametrize("p", [1.5, 3.0, 600.0])
    def test_dual_upper_takes_the_closed_form(self, monkeypatch, p):
        # any candidate with diagonal coordinates, not only e_i (x) e_i (x) e_i
        y = DIAGONAL_ELEMS["n5-k3"]
        monkeypatch.setattr(vn, "alpha_upper", None)  # no solve may run
        got = certified_dual_upper(y, p, FAST_OPTS)
        assert got == gaugeopt.diagonal_upper(y.coords, p)
        exact = mp_closed_form(y, p)
        with mpmath.workdps(50):
            assert exact <= mpmath.mpf(got)
            assert (mpmath.mpf(got) - exact) / exact <= mpmath.mpf("1e-13")


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
        cert = alpha_certify(y, 3.0, Side.ELL_ROW, 0)
        # the rounding allowance keeps the lower bound strictly below
        assert cert.lower <= cert.upper <= cert.lower * (1 + 1e-12)
        assert cert.iterations == 0
        assert cert.converged

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_zero_budget_with_descent(self, p):
        y = random_element(3, 3, np.random.default_rng(0))
        cert = alpha_certify(y, p, Side.ELL_ROW, 0)
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

    @pytest.mark.parametrize("p", [2.0, math.nextafter(2.0, 0.0), 2.0 - 3e-15])
    @pytest.mark.parametrize("k, n, seed, degenerate",
                             [(3, 3, 0, False), (4, 2, 1, False), (2, 5, 2, False),
                              (3, 3, 3, True), (5, 5, 0, False), (5, 5, 1, False),
                              (5, 5, 2, False), (5, 5, 4, False)])
    def test_two_sided_ascent_at_q_inf(self, p, k, n, seed, degenerate):
        """At p = 2, and just below, where ``q_from_p`` reads ``q = inf``, the
        two-sided solve runs its own ascent and meets the one-sided gauge.

        Just below 2 the dual exponent is ``t = 1`` too: with the ``t > 1``
        step seven of the eight (5, 5) solves there ended unconverged."""
        y = random_element(k, n, np.random.default_rng(seed), degenerate=degenerate).coords
        two = gaugeopt.minimize_two_sided(y, p)
        assert two.converged and two.iterations > 0
        assert gaugeopt.minimax_lower(y, two.rho, p) <= two.value
        assert two.value == pytest.approx(gaugeopt.minimize_gauge(y, 2.0).value,
                                          rel=1e-8)

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
        # only the pullback at t > 1 reads the log-spectrum
        assert (log_u is None) == (t == 1.0)
        for c in (-240.0, -1.0, 1e-3, 3.0, 240.0):
            v_c, lower_c, sv_c, _, log_u_c, _, _ = gaugeopt._dual_point(
                ak, h + c * np.eye(4), e, t)
            assert rel_err(v_c @ v_c.conj().T, rho) <= 1e-12
            assert lower_c == pytest.approx(lower, rel=1e-12)
            assert np.allclose(sv_c, sv, rtol=1e-10, atol=0)
            if t > 1.0:
                assert np.allclose(log_u_c, log_u, rtol=0, atol=1e-11)
            else:
                assert log_u_c is None

    def test_momentum_cuts_iterations(self):
        """The iterations of the ascent without momentum or centering were
        7,911 on these 8 solves (all converged)."""
        total = 0
        for k in (5, 6, 7, 8):
            y = random_element(k, k, np.random.default_rng(k)).coords
            for p in (3.0, 4.0):
                res = gaugeopt.minimize_gauge(y, p, DEFAULT_OPTS)
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
        0.12895693738881842, 0, True,
        "d3afcb2d6e97bf4727f55801b6acc10d1f088d3a505d3c3da04a3eddf1186376",
        "3239b05c38b825ebb79f103172438292a22a0951351a6b81be1df5d44776cc65"),
    ("two", 2, 0, False, 1.5, 5000): (
        2.9663321250615517, 8, True,
        "0c77e781c27cc6364b79733b8b2d0493a53c76cab85206551b592a22c0466038",
        "4b0ba02f61b835607fed4f6c40a4dff73e3182578ac5820b0a923ed3a600b008"),
    ("two", 3, 1, True, 1.5, 5000): (
        4.420039602219788, 7, True,
        "c405dd10f3f882a6ef59c3ecf64a61c7d26ac6511fcfb5f70f34847d1f90c6bb",
        "e7707f99f2236c8ee3436a08ea4c20037926163b5a0fe7a2a242d2aeaff15476"),
    ("two", 3, 0, False, 1.2, 240): (
        6.612066771073369, 11, True,
        "c390c81a22674dbcc5ab93bb64db9dc2157d15a172aaed95c22e6ca16538cbcf",
        "82d6f7bf08192d517a8b10225129ff8fd8bbbec84a02a388255a381e1184deb6"),
    ("two", 5, 1, False, 1.5, 5000): (
        13.561698475709267, 15, True,
        "d546eee28e67be166d5c0ad8d204636dec4688a129ea2e8bfe4218c0f59e08d3",
        "b5f471b119b3581c62ee5d71afbd83b8642117cb058d0317740ad272c6b64ba8"),
    ("two", 8, 1, True, 1.5, 5000): (
        29.419359853326764, 20, True,
        "7c28d1897ace432f1f08d87428a1a85709444094e0d1ca5447942775a0116e1d",
        "1aca4984286f4ce5ce96acd67ea80e3893c139347ae383e15e5ca433dc6a86de"),
    ("two", 8, 0, False, 1.8, 240): (
        26.677249804435984, 14, True,
        "e50d072192d2cebe3e68a221101f0a28e32a6447f9f6027fba855761b4d3da68",
        "d67f1b83fe8ab824f48993dceb3278f391b189452b1509c0c5c4d3eab184ea3d"),
    ("gauge", 1, 0, False, 3.0, 240): (
        0.12895693738881842, 0, True,
        "c8db0ed7d3a4479694d1b8b750622cfb910763aee594a9e9fce2513dfb358e89",
        "3239b05c38b825ebb79f103172438292a22a0951351a6b81be1df5d44776cc65"),
    ("gauge", 2, 0, False, 3.0, 240): (
        2.722568960906461, 18, True,
        "4a74de77c77dad9d083d6fbf0aea8a0a881219301b787669f1b3e13f33947b2e",
        "ed3c5aab48bec2c4b1d7a72b73cca5da1498eaffa38f876eb6d8ba2614308ee4"),
    ("gauge", 2, 0, True, 4.0, 5000): (
        2.2824030535443063, 3, True,
        "f436b8aebe6b96c78fa442b112159e641c8363e4d2ccea2b928f3a16b5b9d7ff",
        "7e28d94c39ab945bc3366729ead78b0ea520a4780201700f6654fe344dad17ec"),
    ("gauge", 2, 19, False, 2.0, 5000): (
        2.476299533442707, 23, True,
        "78eed9e9b1f9dc5ede9072cf9c39541705209b8ba1146fde2cbb000c0983d8d5",
        "6306ac473add2888f98c630665cbe8ceec1ea0718229b7f3a8de79bfb61ef718"),
    ("gauge", 3, 2, True, 4.0, 240): (
        3.639694610212527, 25, True,
        "80b8c9089bd198359be1b4a1cc18a9cf949cd0df48ad8127578065e5364111b8",
        "802488b23b76523f9a9f7a1addbef5950ccdd8067597dcaf688d933f398c9ee1"),
    ("gauge", 3, 3, False, 3.0, 5000): (
        6.062536634066706, 32, True,
        "bb9dadf2a6ed6e781e38da41ae3ec8e73b53d57f9641045ce0509428bc3cc522",
        "d760eb4cf83943973ce2d85d9a3aeebc24a6812236dddf11a6d1a6e20c4abea4"),
    ("gauge", 3, 1, False, 13 / 3, 5000): (
        4.035599489425505, 38, True,
        "fa319c9c6e476374fd3f36fee75fb22a3fc68cf768c3ea0b76fac74da01c639a",
        "d096b4ec7cc07ed9128042b23b338f89e8e5d3a9634ff0b5762bc585cae8cf5c"),
    ("gauge", 4, 0, True, 2.5, 240): (
        6.904378572320856, 41, True,
        "489ad88a98a9b23e7fc37003d26b4451c0d4ab623219a7720de61340ea6665d6",
        "9bb3524454b8909ac1aa3de9f855b00a707f1e3496f862c0502de901a7cabbb0"),
    ("gauge", 5, 2, True, 4.0, 5000): (
        8.526551999943274, 57, True,
        "cbe9b8bd91521b8dd7eac4f44269bb95d7b4e0cb560856aa9b8a07886f03327a",
        "41a4945c2321c17de6f5ebb129d45f9c58954075b9a5cb0f3c82190036922be2"),
    ("gauge", 5, 0, False, 3.0, 240): (
        10.334772545623203, 77, True,
        "38170f38ba203497d546ef5b5c94b2a23b5a2d9eade8fa420cf7204b98d81112",
        "5f4cfe3e06f93798f0d3bcc4d63f93e0623d72dc707424286c61c3b2033beadb"),
    ("gauge", 5, 1, False, 2.5, 5000): (
        9.796326211454419, 74, True,
        "c1a3dcb5a41784754b1ab3164a90a5b9b124c0491bd34d331878481934a7dba4",
        "e6b6651b5b5b6bc5d1cfa5d3f5bda44931e82eee6669dc0737d9aaa0699ee749"),
    ("gauge", 8, 2, False, 4.0, 5000): (
        16.004955767975968, 76, True,
        "405070a1c9bcbdd8a1d5e37aff6c2d68747a798998c19c2d87e2b2e5d6eb6267",
        "bde3d568a6e34d83a291f24dd85e74161a07a998056b01fdc257c539dbb652e9"),
    ("gauge", 8, 1, True, 3.0, 240): (
        18.068933110095077, 130, True,
        "3665af8f42f5cb03b71930941af5a1febfa5b2ed307258e420ee0e42aeddde81",
        "e4a14637addcfebdde25c49420fd57cf4022cc8229d46dbfa5a4f67bf2e75a17"),
    ("gauge", 3, 4, True, 2.5, 240): (
        4.141780350826863, 23, True,
        "33e52ccce36de563a2c12b690750d1757064656dad3e923a876023f8efdf1ceb",
        "c7fc0c25b49d93649773b656134437f6561b964e0efbc6571b51bd88410e097c"),
    ("gauge", 4, 3, False, 3.0, 240): (
        7.329238421248764, 103, True,
        "8287bbfc6f0c17e9ea2cf54296768391061c36b995a3a4297cb9726d7bab207d",
        "b20d5b2a1eee2d9b023d4e8a20f612b97583be89ecc85de3157def71681a9811"),
    ("gauge", 6, 3, True, 4.0, 240): (
        10.852568324643178, 100, True,
        "67fe88361c1da3b6ce4dc9c7929f8e933c2d8e732f0d22d6f150adb7d9c12507",
        "1eaf3d2a03ec59725a89bdcc9be00d24d90e0fbb12c1babc35e35222ea7b1ec7"),
    ("gauge", 4, 1, False, 2.5, 240): (
        7.2867006483725225, 57, True,
        "73cfe8accd3cdef2aa113ab27f3eb69405ce8aaf361aaccf1922404a72d96b46",
        "30cfda1b8e7ef21c84fca6970a4913ed0e8cd5baa4c8b399b50f3f535258254a"),
    ("gauge", 3, 5, False, 2.0, 240): (
        5.776231034351967, 73, True,
        "4daf8c3599ba13641e2f91dd069a7c177b0c25e291ee64fde7119748d6585866",
        "383ded58e333d28640eae1bf515e9f45012bde7082d62a07b1bc7bb96b1377c3"),
    ("gauge", 5, 2, True, 4.0, 240): (
        8.526551999943274, 57, True,
        "cbe9b8bd91521b8dd7eac4f44269bb95d7b4e0cb560856aa9b8a07886f03327a",
        "41a4945c2321c17de6f5ebb129d45f9c58954075b9a5cb0f3c82190036922be2"),
    ("gauge", 5, 6, True, 3.0, 240): (
        8.478074733472717, 84, True,
        "c1c8ec559b9ab6e3ab29763af57854c7222ac53b77634d7f48770b2ba7d02047",
        "d3c63a785c129da38c3760df8261b0d20e79dd32550601e3498c5532667ed4c1"),
    ("gauge", 3, 5, False, 2.0, 40): (
        5.776235280960075, 40, False,
        "b943f419bb9663d6020bcca4e20215901b679e98861bf78028179c70b6ad33a4",
        "8a5c7230be1ea9eba724c764e7b1dcce1dbc010b33dcbdd3525aeeae832dca10"),
    ("gauge", 5, 2, True, 4.0, 40): (
        8.526552675999984, 40, False,
        "b11ab83f26ac28e68b25c068034256151c9b720ed4e6cc05971a1471e2a3a40a",
        "321a9afaaef83f58cf775b4cad0a001e61705d770140eb94df367812933ed667"),
    ("gauge", 5, 6, True, 3.0, 40): (
        8.478102465037692, 40, False,
        "83918f5822a0fc3c5d3a07d7476d86da791a75ce8903c7ef64f4c3f8fadf220c",
        "676a56ba74300c3c5839d1b487abf3cfa6fae0f927d474ab721bcaaa830f5326"),
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
            1.0000000044391544, 240, False,
            "4ab2f3581b2e692a5a9b68aa5c425166a8e44d1b3348cbc2ab1878e8f6a1c936",
            "9cd27fd65670909e9cccc5d1442f29ebd8d65b7c5b5a8462357b4507551fb776")
        budget_ended = [c for c, pin in DESCENT_PINS.items() if not pin[2]]
        assert len(budget_ended) >= 3
        # a pinned ascent halves its step, and one restarts its momentum (a
        # failed trial with momentum is retried at the same step without it)
        res, pairs = retried_steps(monkeypatch, ("gauge", 2, 19, False, 2.0, 5000))
        assert res.converged and any(halved for halved in pairs)
        res, pairs = retried_steps(monkeypatch, ("gauge", 3, 4, True, 2.5, 240))
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
