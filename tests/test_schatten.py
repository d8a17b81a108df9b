import math

import numpy as np
import pytest

from nclp.errors import FactorizationHypothesisError, InvalidInputError
from nclp.schatten import (as_matrix, conjugate, dual_witness, factor_through,
                           polar_decompose, pow2_normalize, pow2_restore,
                           schatten_norm, support_projection, trace_pairing)

from conftest import random_complex


def unit(k, i, j):
    m = np.zeros((k, k), dtype=np.complex128)
    m[i, j] = 1.0
    return m


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


class TestTracePairing:
    def test_matrix_units(self):
        assert trace_pairing(unit(2, 0, 1), unit(2, 1, 0)) == pytest.approx(1.0)

    def test_identity(self):
        assert trace_pairing(np.eye(5), np.eye(5)) == pytest.approx(5.0)

    def test_entrywise_oracle(self, rng):
        a = random_complex(rng, 3, 4)
        c = random_complex(rng, 4, 3)
        want = sum(a[i, j] * c[j, i] for i in range(3) for j in range(4))
        assert trace_pairing(a, c) == pytest.approx(want, abs=1e-13)

    def test_shape_mismatch(self, rng):
        with pytest.raises(InvalidInputError):
            trace_pairing(random_complex(rng, 2, 3), random_complex(rng, 2, 3))

    def test_hoelder_bound(self, rng):
        for p in (1.5, 2.0, 3.0):
            q = conjugate(p)
            a, c = random_complex(rng, 4, 4), random_complex(rng, 4, 4)
            assert abs(trace_pairing(a, c)) <= \
                schatten_norm(a, p) * schatten_norm(c, q) + 1e-10

    def test_duality_attainment(self, rng):
        for p in (1.5, 2.0, 4.0, math.inf):
            a = random_complex(rng, 4, 4)
            pd = math.inf if p == 1.0 else (1.0 if math.isinf(p) else conjugate(p))
            c = dual_witness(a, p)
            ratio = abs(trace_pairing(a, c)) / schatten_norm(c, pd)
            assert ratio == pytest.approx(schatten_norm(a, p), rel=1e-10)


class TestPolar:
    def test_psd_input(self, rng):
        g = random_complex(rng, 3, 3)
        a = g @ g.conj().T
        parts = polar_decompose(a)
        assert np.allclose(parts.modulus, a, atol=1e-10)
        assert np.allclose(parts.partial_isometry,
                           support_projection(a), atol=1e-10)

    def test_rank_one_rectangular(self):
        a = 2.0 * unit(2, 0, 1)
        parts = polar_decompose(a)
        assert np.allclose(parts.partial_isometry, unit(2, 0, 1), atol=1e-12)
        assert np.allclose(parts.modulus, 2.0 * unit(2, 1, 1), atol=1e-12)

    def test_reconstruction_and_support(self, rng):
        for _ in range(10):
            a = random_complex(rng, 4, 3)
            parts = polar_decompose(a)
            assert np.linalg.norm(a - parts.partial_isometry @ parts.modulus) < 1e-12
            wtw = parts.partial_isometry.conj().T @ parts.partial_isometry
            assert np.allclose(wtw, support_projection(parts.modulus), atol=1e-10)


class TestSupportProjection:
    def test_diagonal(self):
        q = support_projection(np.diag([1.0, 0.0]))
        assert np.allclose(q, np.diag([1.0, 0.0]))

    def test_zero(self):
        assert np.allclose(support_projection(np.zeros((3, 3))), 0.0)

    def test_constructed_rank(self, rng):
        for r in (1, 2, 3):
            g = random_complex(rng, 4, r)
            q = support_projection(g @ g.conj().T)
            assert np.trace(q).real == pytest.approx(r, abs=1e-9)
            assert np.allclose(q @ q, q, atol=1e-10)
            assert np.allclose(q, q.conj().T, atol=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            support_projection(np.diag([1.0, -0.5]))

    def test_reproduces_input(self, rng):
        g = random_complex(rng, 4, 2)
        b = g @ g.conj().T
        q = support_projection(b)
        assert np.allclose(q @ b, b, atol=1e-10)
        assert np.allclose(b @ q, b, atol=1e-10)


class TestFactorThrough:
    def test_identity_factors(self, rng):
        y = random_complex(rng, 3, 3)
        y = y / schatten_norm(y, math.inf)
        res = factor_through(y, np.eye(3), np.eye(3))
        assert np.allclose(res.w, y, atol=1e-12)
        assert res.is_contraction

    def test_product_of_psd(self, rng):
        ga, gb = random_complex(rng, 3, 2), random_complex(rng, 3, 2)
        a, b = ga @ ga.conj().T, gb @ gb.conj().T
        res = factor_through(a @ b, a, b)
        qa, qb = support_projection(a), support_projection(b)
        assert np.allclose(res.w, qa @ qb, atol=1e-8)
        assert np.allclose(a @ res.w @ b, a @ b, atol=1e-8)
        assert schatten_norm(res.w, math.inf) <= 1 + 1e-10

    def test_construct_then_recover(self, rng):
        for _ in range(10):
            ga, gb = random_complex(rng, 3, 3), random_complex(rng, 3, 3)
            a, b = ga @ ga.conj().T + 0.1 * np.eye(3), gb @ gb.conj().T + 0.1 * np.eye(3)
            w0 = random_complex(rng, 3, 3)
            w0 = w0 / schatten_norm(w0, math.inf)
            y = a @ w0 @ b
            res = factor_through(y, a, b)
            assert np.linalg.norm(a @ res.w @ b - y) <= 1e-8 * np.linalg.norm(y)
            assert schatten_norm(res.w, math.inf) <= 1 + 1e-10
            qa, qb = support_projection(a), support_projection(b)
            assert np.allclose(qa @ res.w @ qb, res.w, atol=1e-10)

    def test_hypothesis_violation_raises(self):
        # mass of y outside the supports cannot be reconstructed
        a = np.diag([1.0, 0.0]).astype(complex)
        y = unit(2, 1, 1)
        with pytest.raises(FactorizationHypothesisError):
            factor_through(y, a, a)


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
