import math

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from nclp import schatten
from nclp.errors import InvalidInputError
from nclp.schatten import (as_matrix, check_exponent, conjugate, dual_witness,
                           lp_norm, pow2_normalize, pow2_restore, psd_power,
                           schatten_norm)

from conftest import random_complex


def unit(k, i, j):
    m = np.zeros((k, k), dtype=np.complex128)
    m[i, j] = 1.0
    return m


def assert_same_solve(h):
    w, v = schatten.eigh(h)
    want_w, want_v = np.linalg.eigh(h)
    assert np.array_equal(w, want_w) and np.array_equal(v, want_v)
    assert np.array_equal(schatten.eigvalsh(h), np.linalg.eigvalsh(h))


class TestHermitianKernel:
    """``schatten.eigh`` / ``eigvalsh`` give numpy's bits, from the lower
    triangle, and numpy's ``LinAlgError`` when a solve fails."""

    @pytest.mark.parametrize("k", range(9))  # k = 0 passes through
    def test_matches_numpy(self, rng, k):
        x = random_complex(rng, k, k)
        assert_same_solve(x + x.conj().T)
        b = random_complex(rng, k, 2 * k + 1)
        assert_same_solve(b @ b.conj().T)  # not symmetrized

    @pytest.mark.parametrize("k", range(2, 9))
    def test_reads_only_the_lower_triangle(self, rng, k):
        x = random_complex(rng, k, k)
        h = x + x.conj().T
        garbled = h + np.triu(random_complex(rng, k, k), 1)
        (w, v), (want_w, want_v) = schatten.eigh(garbled), schatten.eigh(h)
        assert np.array_equal(w, want_w) and np.array_equal(v, want_v)
        assert np.array_equal(schatten.eigvalsh(garbled), schatten.eigvalsh(h))

    def test_failed_solve_raises(self, monkeypatch):
        # a LAPACK solve that fails leaves NaN in the gufunc's outputs
        h = np.eye(3, dtype=np.complex128)
        monkeypatch.setattr(_umath_linalg, "eigh_lo",
                            lambda a: (np.full(3, np.nan), np.full((3, 3), np.nan)))
        monkeypatch.setattr(_umath_linalg, "eigvalsh_lo", lambda a: np.full(3, np.nan))
        with pytest.raises(np.linalg.LinAlgError):
            schatten.eigh(h)
        with pytest.raises(np.linalg.LinAlgError):
            schatten.eigvalsh(h)


class TestSchattenNorm:
    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_identity(self, k, p):
        assert abs(schatten_norm(np.eye(k), p) - k ** (1.0 / p)) < 1e-12

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 7.0, math.inf])
    def test_matrix_unit(self, p):
        assert schatten_norm(unit(3, 0, 0), p) == pytest.approx(1.0, abs=1e-14)

    def test_against_singular_value_oracle(self, rng):
        # independent route: singular values from the Gram eigenvalues
        for _ in range(20):
            a = random_complex(rng, 3, 3)
            sv = np.sqrt(np.clip(np.linalg.eigvalsh(a.conj().T @ a), 0, None))
            for p in (1.5, 2.0, 3.7, math.inf):
                want = sv[-1] if math.isinf(p) else float(np.sum(sv ** p)) ** (1 / p)
                assert schatten_norm(a, p) == pytest.approx(want, abs=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            schatten_norm(np.array([[np.nan, 0], [0, 1]]), 2.0)

    def test_unitary_invariance(self, rng):
        a = random_complex(rng, 4, 4)
        q1, _ = np.linalg.qr(random_complex(rng, 4, 4))
        q2, _ = np.linalg.qr(random_complex(rng, 4, 4))
        for p in (1.5, 3.0):
            assert schatten_norm(q1 @ a @ q2, p) == pytest.approx(
                schatten_norm(a, p), rel=1e-10)

    def test_log_convexity_in_inverse_exponent(self, rng):
        a = random_complex(rng, 4, 4)
        p0, p1 = 1.5, 6.0
        for theta in (0.25, 0.5, 0.75):
            p_theta = 1.0 / ((1 - theta) / p0 + theta / p1)
            lhs = schatten_norm(a, p_theta)
            rhs = schatten_norm(a, p0) ** (1 - theta) * schatten_norm(a, p1) ** theta
            assert lhs <= rhs * (1 + 1e-12)


class TestLpNorm:
    """The contract of the one helper that sums powers of a spectrum."""

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 3.0, 40.0])
    def test_against_direct_sum(self, rng, p):
        v = rng.uniform(0.0, 3.0, size=7)
        want = float(np.sum(v ** p)) ** (1.0 / p)
        assert lp_norm(v, p) == pytest.approx(want, rel=1e-14)
        assert lp_norm(tuple(v.tolist()), p) == lp_norm(v, p)

    def test_inf_is_the_top(self):
        assert lp_norm(np.array([0.5, 3.0, 2.0]), math.inf) == 3.0
        assert lp_norm((2.0, 0.0), math.inf) == 2.0

    @pytest.mark.parametrize("values", [(), np.zeros(0), (0.0, 0.0), np.zeros(4)])
    @pytest.mark.parametrize("p", [0.5, 2.0, math.inf])
    def test_empty_and_zero_give_zero(self, values, p):
        assert lp_norm(values, p) == 0.0

    def test_nonpositive_entries_count_as_zero(self):
        assert lp_norm((-1e-17, 4.0, 0.0, -2.0), 2.0) == 4.0
        assert lp_norm((-1e-17, -3.0), 2.0) == 0.0
        assert lp_norm(np.array([-1e-17, 3.0, 4.0]), 2.0) == pytest.approx(5.0, rel=1e-15)

    def test_quasi_norm_below_one(self):
        # the beta quasi-sum of the dual: (sum v^beta)^{1/beta} at beta < 1
        assert lp_norm((1.0, 1.0), 0.5) == pytest.approx(4.0, rel=1e-15)
        assert lp_norm((9.0, 4.0, 1.0), 0.5) == pytest.approx(36.0, rel=1e-15)

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    @pytest.mark.parametrize("p", [0.5, 2.0, 7.0])
    def test_extreme_entries(self, scale, p):
        got = lp_norm((scale, scale), p)
        assert math.isfinite(got)
        assert got == pytest.approx(scale * 2.0 ** (1.0 / p), rel=1e-13)

    @pytest.mark.parametrize("a", [1.0, 0.3, 2.0 ** -900, 1.7e300])
    @pytest.mark.parametrize("p", [1.2, 2.0, 3.0, 1000.0])
    def test_one_nonzero_entry_comes_back_exactly(self, a, p):
        assert lp_norm((a, 0.0), p) == a
        assert lp_norm((0.0, a), p) == a


class TestCheckExponent:
    @pytest.mark.parametrize("p", [1.0, 0.5, -2.0, math.inf, -math.inf, math.nan])
    def test_rejects(self, p):
        with pytest.raises(InvalidInputError):
            check_exponent(p)

    @pytest.mark.parametrize("p", [1.0000001, 2, 3.5, 1e6])
    def test_accepts_finite_above_one(self, p):
        assert check_exponent(p) == float(p)


class TestHoelderDuality:
    def test_hoelder_bound(self, rng):
        for p in (1.5, 2.0, 3.0):
            q = conjugate(p)
            a, c = random_complex(rng, 4, 4), random_complex(rng, 4, 4)
            assert abs(np.trace(a @ c)) <= \
                schatten_norm(a, p) * schatten_norm(c, q) + 1e-10

    def test_duality_attainment(self, rng):
        for p in (1.5, 2.0, 4.0, math.inf):
            a = random_complex(rng, 4, 4)
            pd = math.inf if p == 1.0 else (1.0 if math.isinf(p) else conjugate(p))
            c = dual_witness(a, p)
            ratio = abs(np.trace(a @ c)) / schatten_norm(c, pd)
            assert ratio == pytest.approx(schatten_norm(a, p), rel=1e-10)


def low_rank(rng, rows, cols, rank):
    return random_complex(rng, rows, rank) @ random_complex(rng, rank, cols)


DUAL_PS = [1.3, 1.5, 2.0, 3.0, 4.0, math.inf]
DUAL_SIZES = [1, 2, 3, 5]


class TestDualWitness:
    """``vecnorm._auto_dual_pool`` builds its Schatten-duality candidate from
    this function one (square) coordinate at a time, rank-deficient
    coordinates included; rectangular input works the same way."""

    @staticmethod
    def _check_attains(rng, p, rows, cols):
        rank = max(1, min(rows, cols) - 2)
        a = low_rank(rng, rows, cols, rank)
        c = dual_witness(a, p)
        assert c.shape == (cols, rows)
        pd = 1.0 if math.isinf(p) else conjugate(p)
        pair = np.trace(a @ c)
        assert abs(pair.imag) <= 1e-10 * abs(pair)
        assert pair.real / schatten_norm(c, pd) == pytest.approx(
            schatten_norm(a, p), rel=1e-10)
        # c vanishes off the support of a, on both sides
        u, _, vh = np.linalg.svd(a)
        off_range = np.eye(rows) - u[:, :rank] @ u[:, :rank].conj().T
        off_corange = np.eye(cols) - vh[:rank].conj().T @ vh[:rank]
        top = float(np.max(np.abs(c)))
        assert float(np.max(np.abs(c @ off_range))) <= 1e-10 * top
        assert float(np.max(np.abs(off_corange @ c))) <= 1e-10 * top

    @pytest.mark.parametrize("k", DUAL_SIZES)
    @pytest.mark.parametrize("p", DUAL_PS)
    def test_attains_the_norm_on_the_support(self, rng, p, k):
        self._check_attains(rng, p, k, k)

    # p = inf takes only the top singular pair, which never depended on the shape
    @pytest.mark.parametrize("rows, cols", [(1, 5), (3, 5), (5, 2)])
    @pytest.mark.parametrize("p", DUAL_PS[:-1])
    def test_rectangular_attains_the_norm(self, rng, p, rows, cols):
        self._check_attains(rng, p, rows, cols)

    @pytest.mark.parametrize("k", DUAL_SIZES)
    def test_zero_matrix(self, k):
        c = dual_witness(np.zeros((k, k)), 3.0)
        assert c.shape == (k, k) and not np.any(c)

    @pytest.mark.parametrize("k", DUAL_SIZES)
    def test_p2_is_adjoint_over_operator_norm(self, rng, k):
        a = random_complex(rng, k, k)
        want = a.conj().T / schatten_norm(a, math.inf)
        assert np.allclose(dual_witness(a, 2.0), want, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("p", [1.5, 3.0, math.inf])
    def test_positive_scaling_invariant(self, rng, p):
        a = random_complex(rng, 4, 4)
        c = dual_witness(a, p)
        for t in (2.0 ** -600, 1e-3, 7.5, 2.0 ** 600):
            assert np.allclose(dual_witness(t * a, p), c, rtol=0.0, atol=1e-12)


class TestPsdPower:
    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_negative_one_is_pseudo_inverse(self, rng, rank):
        g = random_complex(rng, 4, rank)
        b = g @ g.conj().T
        binv = psd_power(b, -1.0)
        scale = float(np.max(np.abs(b)))
        assert np.allclose(b @ binv @ b, b, rtol=0.0, atol=1e-9 * scale)
        assert np.allclose(binv @ b @ binv, binv, rtol=0.0,
                           atol=1e-9 * float(np.max(np.abs(binv))))
        assert np.allclose(binv, binv.conj().T, rtol=0.0, atol=1e-12 / scale)

    @pytest.mark.parametrize("s, t", [(0.5, 0.5), (-0.5, 1.5), (0.25, 0.75),
                                      (-1.0, 1.0)])
    def test_powers_add_on_the_support(self, rng, s, t):
        g = random_complex(rng, 4, 2)
        b = g @ g.conj().T
        got = psd_power(b, s) @ psd_power(b, t)
        want = psd_power(b, s + t)
        assert np.allclose(got, want, rtol=0.0,
                           atol=1e-9 * max(1.0, float(np.max(np.abs(want)))))


class TestConjugate:
    def test_values(self):
        assert conjugate(2.0) == pytest.approx(2.0)
        assert conjugate(4.0) == pytest.approx(4.0 / 3.0)

    def test_rejects_inf_and_one(self):
        with pytest.raises(InvalidInputError):
            conjugate(math.inf)
        with pytest.raises(InvalidInputError):
            conjugate(1.0)

    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 17.0])
    def test_involution(self, p):
        assert conjugate(conjugate(p)) == pytest.approx(p, rel=1e-14)
        assert 1.0 / p + 1.0 / conjugate(p) == pytest.approx(1.0, abs=1e-14)


def test_as_matrix_promotes_real():
    m = as_matrix(np.eye(2, dtype=float))
    assert m.dtype == np.complex128


class TestPow2Normalize:
    @pytest.mark.parametrize("top", [1e-320, 1e-310, 2.0 ** -1000, 0.75, 3.0,
                                     1e300, 2.0 ** 1022, 2.0 ** 1023])
    def test_exact_over_the_whole_range(self, rng, top):
        a = random_complex(rng, 3, 3)
        a = a / np.max(np.abs(a)) * top  # rounds at subnormal tops; that is the input
        scaled, e = pow2_normalize(a)
        assert 0.5 <= float(np.max(np.abs(scaled))) < 1.0
        back = np.ldexp(scaled.real, e) + 1j * np.ldexp(scaled.imag, e)
        assert np.array_equal(back, a)

    def test_one_division_in_the_normal_range(self, rng):
        a = random_complex(rng, 4, 4) * 1e5
        e = math.frexp(float(np.max(np.abs(a))))[1]
        scaled, shift = pow2_normalize(a)
        assert shift == e
        assert scaled.tobytes() == (a / 2.0 ** e).tobytes()

    def test_modulus_overflow_and_zero(self):
        a = np.array([1.5e308 + 1.5e308j, 0.0])
        assert math.isinf(float(np.max(np.abs(a))))
        scaled, e = pow2_normalize(a)
        assert e == 1025 and np.all(np.isfinite(scaled))
        zero, e0 = pow2_normalize(np.zeros(3))
        assert e0 == 0 and not np.any(zero)

    def test_restore(self):
        assert pow2_restore(0.75, 3) == 6.0
        assert pow2_restore(0.75, -1074) == 5e-324
        with pytest.raises(InvalidInputError):
            pow2_restore(1.5, 1024)
