import math

import mpmath
import numpy as np
import pytest

from nclp import gaugeopt, serialize, vecnorm
from nclp.counterexample import witness_w
from nclp.cpmaps import amplify_apply, build_counterexample_maps
from nclp.errors import InvalidInputError
from nclp.schatten import conjugate, lp_norm, pow2_normalize, schatten_norm
from nclp.selfcheck import brute_force_upper
from nclp.vecnorm import (DEFAULT_OPTS, FAST_OPTS, FactorWitness,
                          Side, VecElem, alpha_certify, alpha_upper,
                          beta_certify, diagonal_closed_form,
                          evaluate_upper_at, opposite_transform,
                          random_element)

from conftest import random_complex


def unit(k, i, j):
    m = np.zeros((k, k), dtype=np.complex128)
    m[i, j] = 1.0
    return m


def witness(k):
    return VecElem(np.stack([unit(k, n, 0) for n in range(k)]))


def dual_pool(y, p, w_ell=None):
    """``_auto_dual_pool`` as ``_pairing_lower`` calls it: on ``y`` at unit
    scale, with the ELL_ROW factor at p >= 2."""
    s = w_ell.s if w_ell is not None and p >= 2.0 else None
    return vecnorm._auto_dual_pool(VecElem(pow2_normalize(y.coords)[0]), p, s)


class TestAlphaUpper:
    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 1.5])
    def test_diagonal_closed_form(self, rng, p):
        lams = random_complex(rng, 4)
        val, _ = alpha_upper(VecElem.diagonal(lams), p, Side.ELL_ROW)
        cf = diagonal_closed_form(lams, p)
        assert cf - 1e-12 <= val <= cf * (1 + 1e-3)

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_witness_is_one(self, k):
        val, _ = alpha_upper(witness(k), 3.0, Side.ELL_ROW)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_scalar_euclidean(self):
        y = VecElem(np.array([[[1.0]], [[1.0]]], dtype=complex))
        val, _ = alpha_upper(y, 3.0, Side.ELL_ROW)
        assert val == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_zero_element(self):
        val, wit = alpha_upper(VecElem.zeros(3, 2), 3.0, Side.ELL_ROW)
        assert val == 0.0 and wit is not None

    def test_budget_exhaustion_still_valid(self, rng):
        y = VecElem(random_complex(rng, 3, 3, 3))
        starved = 3
        for p in (3.0, 1.5):  # the one-sided and the two-sided gauge
            v_low, wit = alpha_upper(y, p, Side.ELL_ROW, starved)
            v_ref, _ = alpha_upper(y, p, Side.ELL_ROW)
            assert v_low >= v_ref - 1e-9  # still an upper bound, just looser
            assert not wit.converged

    def test_product_bound_with_witness(self, rng):
        # y = z d: the witness s = d^*d realizes |z|_row * |d|_p
        k, n, p = 3, 3, 3.0
        z = VecElem(random_complex(rng, n, k, k))
        d = random_complex(rng, k, k)
        y = VecElem(z.coords @ d)
        wit = FactorWitness("one_sided", s=d.conj().T @ d)
        val = evaluate_upper_at(y, wit, p)
        assert val <= _row_norm(z) * schatten_norm(d, p) + 1e-9

    def test_merged_factor_bound(self, rng):
        # coordinates sum_j z_{nj} d_j stay below |(sum d^*d)^{1/2}|_p |zz*|^{1/2}
        k, n, j_count, p = 3, 2, 3, 3.0
        ds = [random_complex(rng, k, k) for _ in range(j_count)]
        zs = random_complex(rng, n, j_count, k, k)
        coords = np.einsum("njab,jbc->nac", zs, np.stack(ds))
        y = VecElem(coords)
        gram = sum(d.conj().T @ d for d in ds)
        zrow = VecElem(zs.reshape(n * j_count, k, k))
        bound = schatten_norm(_psd_sqrt(gram), p) * _row_norm(zrow)
        wit = FactorWitness("one_sided", s=gram)
        assert evaluate_upper_at(y, wit, p) <= bound + 1e-9
        cert = alpha_certify(y, p, Side.ELL_ROW, FAST_OPTS)
        assert cert.lower <= bound + 1e-9


def _row_norm(z):
    """|sum z_n z_n^*|^{1/2}: the spectral norm of the row [z_1 ... z_N]."""
    return np.linalg.norm(np.hstack(z.coords), 2)


def _psd_sqrt(m):
    vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    return (vecs * np.sqrt(np.clip(vals, 0, None))) @ vecs.conj().T


class TestAlphaCertify:
    def test_flat_diagonal_pair(self):
        cert = alpha_certify(VecElem.diagonal([1.0, 1.0]), 3.0, Side.ELL_ROW)
        want = 2.0 ** (1.0 / 3.0)
        assert cert.upper == pytest.approx(want, rel=1e-2)
        assert cert.lower == pytest.approx(want, rel=1e-2)
        assert cert.lower <= cert.upper * (1 + 1e-9)

    def test_zero(self):
        for side in (Side.ELL_ROW, Side.R_COL):
            cert = alpha_certify(VecElem.zeros(2, 2), 3.0, side)
            assert cert.upper == 0.0 and cert.lower == 0.0
            assert cert.factor_witness.transposed == (side == Side.R_COL)

    @pytest.mark.parametrize("side", [Side.ELL_ROW, Side.R_COL])
    def test_soundness_fuzz(self, rng, side):
        for _ in range(15):
            y = random_element(int(rng.integers(1, 4)), int(rng.integers(1, 4)), rng)
            p = float(rng.choice([1.4, 2.0, 3.0]))
            cert = alpha_certify(y, p, side, FAST_OPTS)
            assert cert.lower <= cert.upper * (1 + 1e-9)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_r_side_witness_frames(self, rng, p):
        y = VecElem(random_complex(rng, 2, 3, 3))
        cert = alpha_certify(y, p, Side.R_COL, FAST_OPTS)
        wit = cert.factor_witness
        assert wit.transposed
        assert cert.dual_witness is None and cert.dual_norm_bound == 0.0
        # rho lives in the transposed frame, like s and r
        coords = opposite_transform(y).coords
        assert gaugeopt.minimax_lower(coords, wit.rho, p) == cert.lower

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_witness_reproduces_upper(self, rng, p):
        y = VecElem(random_complex(rng, 2, 3, 3))
        for side in (Side.ELL_ROW, Side.R_COL):
            val, wit = alpha_upper(y, p, side, FAST_OPTS)
            assert evaluate_upper_at(y, wit, p) == pytest.approx(val, rel=1e-12)


class TestColumnFrame:
    """``R_COL`` is ``ELL_ROW`` of the coordinatewise transpose, taken once."""

    ELEMENTS = {
        "zero": lambda: VecElem.zeros(2, 3),
        "full": lambda: random_element(3, 2, np.random.default_rng(21)),
        "rank-deficient": lambda: random_element(3, 3, np.random.default_rng(22),
                                                 degenerate=True),
    }

    @pytest.mark.parametrize("kind", ELEMENTS)
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_column_certificate_is_the_row_one_of_the_transpose(self, kind, p):
        y = self.ELEMENTS[kind]()
        yt = opposite_transform(y)
        col = serialize.certificate_to_json(alpha_certify(y, p, Side.R_COL, FAST_OPTS))
        row = serialize.certificate_to_json(alpha_certify(yt, p, Side.ELL_ROW,
                                                          FAST_OPTS))
        assert col["factor_witness"]["transposed"] is True
        assert row["factor_witness"]["transposed"] is False
        col["factor_witness"]["transposed"] = False
        assert serialize.dumps_canonical(col) == serialize.dumps_canonical(row)
        # the same witness scores the same value in either frame
        _, wit_col = alpha_upper(y, p, Side.R_COL, FAST_OPTS)
        _, wit_row = alpha_upper(yt, p, Side.ELL_ROW, FAST_OPTS)
        assert evaluate_upper_at(y, wit_col, p) == evaluate_upper_at(yt, wit_row, p)

    @staticmethod
    def _count_transposes(monkeypatch):
        calls = []
        flip = vecnorm.opposite_transform

        def counted(z):
            calls.append(z)
            return flip(z)

        monkeypatch.setattr(vecnorm, "opposite_transform", counted)
        return calls

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_one_transpose_per_column_certificate(self, monkeypatch, p):
        y = self.ELEMENTS["full"]()
        calls = self._count_transposes(monkeypatch)
        alpha_certify(y, p, Side.R_COL, FAST_OPTS)
        assert len(calls) == 1

    @pytest.mark.parametrize("p", [1.3, 3.0])
    def test_one_transpose_per_dual_candidate(self, monkeypatch, p):
        y = random_element(3, 3, np.random.default_rng(23))
        _, w_ell = alpha_upper(y, p, Side.ELL_ROW, FAST_OPTS)
        pool = dual_pool(y, p, w_ell)
        calls = self._count_transposes(monkeypatch)
        vecnorm._pairing_lower(y, p, w_ell, FAST_OPTS)
        assert 0 < len(calls) <= len(pool)


class TestBetaCertify:
    @pytest.mark.parametrize("p", [1.3, 2.0, 3.0])
    def test_dyadic_scale_leaves_the_dual_route_unchanged(self, p):
        # the pool and every pairing are formed at unit scale, once
        rng = np.random.default_rng(int(10 * p))
        y = random_element(3, 3, rng)
        y.coords[0] = np.outer(random_complex(rng, 3), random_complex(rng, 3))
        cert = beta_certify(y, p, FAST_OPTS)
        for e in (-600, 600):
            scaled = beta_certify(y.scaled(2.0 ** e), p, FAST_OPTS)
            assert scaled.lower == math.ldexp(cert.lower, e)
            assert scaled.dual_norm_bound == cert.dual_norm_bound
            assert scaled.dual_witness.coords.tobytes() == \
                cert.dual_witness.coords.tobytes()

    def test_upper_below_trivial_splits(self, rng):
        for _ in range(5):
            y = random_element(3, 3, rng)
            p = 3.0
            u_ell, _ = alpha_upper(y, p, Side.ELL_ROW)
            u_col, _ = alpha_upper(y, p, Side.R_COL)
            cert = beta_certify(y, p)
            assert cert.upper <= min(u_ell, u_col) + 1e-9
            assert cert.lower <= cert.upper * (1 + 1e-9)

    def test_diagonal_half_bound(self, rng):
        lams = random_complex(rng, 4)
        p = 3.0
        cert = beta_certify(VecElem.diagonal(lams), p)
        cf = diagonal_closed_form(lams, p)
        assert cert.lower >= 0.5 * cf - 1e-10

    def test_diagonal_matched_value(self, rng):
        lams = random_complex(rng, 4)
        p = 3.0
        cert = beta_certify(VecElem.diagonal(lams), p)
        want = diagonal_closed_form(lams, p) / 2.0 ** (1.0 / conjugate(p))
        assert cert.lower == pytest.approx(want, rel=1e-10)

    def test_zero(self):
        cert = beta_certify(VecElem.zeros(2, 2), 3.0)
        assert cert.upper == 0.0 and cert.lower == 0.0

    @pytest.mark.parametrize("opts", [FAST_OPTS, DEFAULT_OPTS], ids=["fast", "default"])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("p", [1.3, 1.6, 2.0, 2.5, 3.0, 4.0])
    def test_diagonal_bracket_is_exact(self, rng, opts, k, p):
        # both norms equal the l^p norm here, so the line split at t = 1/2
        # attains the p-sum 2^{1/p - 1} |lam|_p at either preset
        lams = random_complex(rng, k)
        cert = beta_certify(VecElem.diagonal(lams), p, opts)
        want = 2.0 ** (1.0 / p - 1.0) * diagonal_closed_form(lams, p)
        assert cert.upper == pytest.approx(want, rel=1e-11, abs=0.0)
        assert cert.lower == pytest.approx(want, rel=1e-11, abs=0.0)


class TestLineSplit:
    """The upper bound of ``beta_certify`` at the exact minimiser of the
    scalar line split ``y0 = t y``."""

    @pytest.mark.parametrize("k, n", [(2, 2), (3, 3), (2, 3)])
    @pytest.mark.parametrize("p", [1.3, 1.6, 2.0, 2.5, 3.0, 4.0])
    def test_at_most_the_grid_and_both_endpoints(self, rng, k, n, p):
        # the 33-point grid that the minimiser replaced, endpoints included
        for degenerate in (False, True):
            y = random_element(k, n, rng, degenerate=degenerate)
            u_ell, _ = alpha_upper(y, p, Side.ELL_ROW)
            u_col, _ = alpha_upper(y, p, Side.R_COL)
            grid = [lp_norm((t * u_ell, (1.0 - t) * u_col), p)
                    for t in np.linspace(0.0, 1.0, 33).tolist()]
            cert = beta_certify(y, p)
            # the value at t* is rounded up; the endpoints are exact
            rounded_up = 1.0 + vecnorm._SPLIT_SLACK
            assert cert.upper <= min(grid) * rounded_up
            assert cert.upper <= min(u_ell, u_col)
            wit = cert.factor_witness
            split = lp_norm((wit.ell_value, wit.col_value), p)
            interior = wit.ell_value > 0.0 and wit.col_value > 0.0
            assert cert.upper == (split * rounded_up if interior else split)
            # the minimum in closed form, (a^{-p'} + b^{-p'})^{-1/p'}
            pd = conjugate(p)
            exact = (u_ell ** -pd + u_col ** -pd) ** (-1.0 / pd)
            assert cert.upper == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("p", [1.3, 2.0, 3.0, 4.0])
    def test_half_is_exact_on_diagonal_elements(self, rng, p):
        y = VecElem.diagonal(random_complex(rng, 4))
        cert = beta_certify(y, p)
        wit = cert.factor_witness
        assert wit.ell_value == wit.col_value
        assert np.array_equal(wit.y0.coords, y.scaled(0.5).coords)

    def test_no_negative_zero_near_p_one(self):
        # at p = 1.0001, (min / max)^{p'} underflows and the split lands on an
        # endpoint; at t = 0, y.scaled(0.0) would write -0.0 over the -1 entries
        coords = np.zeros((3, 3, 3), dtype=np.complex128)
        for n in range(3):
            coords[n, n, 0] = -1.0
            coords[n, 0, n] = -0.5
        for y in (VecElem(coords), opposite_transform(VecElem(coords))):
            wit = beta_certify(y, 1.0001).factor_witness
            assert 0.0 in (wit.ell_value, wit.col_value)
            for part in (wit.y0.coords.real, wit.y0.coords.imag):
                assert not np.any(np.signbit(part) & (part == 0.0))


def pow2_scaled(y, shift):
    """``y * 2^shift`` with no overflow of ``2^shift`` itself."""
    c = y.coords
    return VecElem(np.ldexp(c.real, shift) + 1j * np.ldexp(c.imag, shift))


#: every certificate of an element, by name
CERTIFIERS = {
    "alpha_ell": lambda y, p, opts: alpha_certify(y, p, Side.ELL_ROW, opts),
    "alpha_col": lambda y, p, opts: alpha_certify(y, p, Side.R_COL, opts),
    "beta": lambda y, p, opts: beta_certify(y, p, opts),
}


class TestExtremeScales:
    """Brackets stay finite and sound far from unit scale; a power-of-two
    scale is exact, so there the bracket is the unit-scale one times it."""

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("scale", [2.0 ** 500, 2.0 ** -500, 1e160, 1e-160,
                                       1e300, 1e-300])
    def test_brackets(self, p, scale):
        y = random_element(3, 3, np.random.default_rng(4))
        dyadic = math.frexp(scale)[0] == 0.5
        for name, certify in CERTIFIERS.items():
            cert = certify(y.scaled(scale), p, FAST_OPTS)
            assert math.isfinite(cert.upper) and math.isfinite(cert.lower), name
            assert 0.0 < cert.lower <= cert.upper, name
            if dyadic:
                ref = certify(y, p, FAST_OPTS)
                assert cert.upper == pytest.approx(ref.upper * scale, rel=1e-12), name
                assert cert.lower == pytest.approx(ref.lower * scale, rel=1e-12), name

    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    def test_beta_default_opts(self, scale):
        y = random_element(3, 3, np.random.default_rng(4)).scaled(scale)
        cert = beta_certify(y, 3.0, DEFAULT_OPTS)
        assert 0.0 < cert.lower <= cert.upper < math.inf

    @staticmethod
    def _at_max(top):
        """random_element(3, 3, rng(4)) rescaled so that max |y| = top."""
        y = random_element(3, 3, np.random.default_rng(4))
        return y.scaled(top / float(np.max(np.abs(y.coords))))

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("top", [1e-310, 2.0 ** 1022])
    def test_ends_of_the_range(self, p, top):
        """Subnormal entries and a largest entry of 2^1022: the bracket is
        that of the same stored element moved to unit scale by an exact
        power of two, moved back."""
        y = self._at_max(top)
        shift = -math.frexp(top)[1]
        ref_y = pow2_scaled(y, shift)  # exact, also for subnormal entries
        assert np.array_equal(pow2_scaled(ref_y, -shift).coords, y.coords)
        for name, certify in CERTIFIERS.items():
            cert = certify(y, p, FAST_OPTS)
            ref = certify(ref_y, p, FAST_OPTS)
            assert math.isfinite(cert.upper) and math.isfinite(cert.lower), name
            assert 0.0 < cert.lower <= cert.upper, name
            assert cert.upper == pytest.approx(math.ldexp(ref.upper, -shift),
                                               rel=1e-12), name
            assert cert.lower == pytest.approx(math.ldexp(ref.lower, -shift),
                                               rel=1e-12), name

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_top_of_the_range(self, p):
        """At max |y| = 2^1023 the norm may not be representable: a finite
        sound bracket or InvalidInputError, never inf or OverflowError."""
        y = self._at_max(2.0 ** 1023)
        for name, certify in CERTIFIERS.items():
            try:
                cert = certify(y, p, FAST_OPTS)
            except InvalidInputError:
                continue
            assert math.isfinite(cert.upper) and math.isfinite(cert.lower), name
            assert 0.0 < cert.lower <= cert.upper, name

    def test_largest_parts(self):
        """Both parts near the float64 maximum: |y| itself overflows."""
        y = VecElem(np.full((1, 1, 1), 1.5e308 + 1.5e308j))
        with pytest.raises(InvalidInputError):
            alpha_certify(y, 3.0, Side.ELL_ROW, FAST_OPTS)
        small = y.scaled(2.0 ** -4)
        cert = alpha_certify(small, 3.0, Side.ELL_ROW, FAST_OPTS)
        assert 0.0 < cert.lower <= cert.upper < math.inf
        assert cert.upper == pytest.approx(abs(small.coords[0, 0, 0]), rel=1e-12)


class TestProperties:
    """Stricter than the matching suites of
    ``selfcheck.criterion_property_suites``, which check these on 500 cases."""

    def test_homogeneity_dyadic(self, rng):
        y = random_element(3, 2, rng)
        v, _ = alpha_upper(y, 3.0, Side.ELL_ROW, FAST_OPTS)
        for t in (0.25, 2.0, 32.0):
            vt, _ = alpha_upper(y.scaled(t), 3.0, Side.ELL_ROW, FAST_OPTS)
            assert vt == pytest.approx(t * v, rel=1e-12)

    def test_p2_branch_agreement(self, rng):
        # at p = 2 the one-sided witness scored by the two-sided evaluator
        # at r = I keeps its value
        for _ in range(5):
            y = random_element(3, 3, rng)
            v1, wit = alpha_upper(y, 2.0, Side.ELL_ROW, FAST_OPTS)
            two = FactorWitness("two_sided", s=wit.s,
                                r=np.eye(3, dtype=np.complex128))
            assert evaluate_upper_at(y, two, 2.0) == pytest.approx(v1, rel=1e-12)

    @pytest.mark.parametrize("side", [Side.ELL_ROW, Side.R_COL])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_subadditivity(self, rng, side, p):
        # the solved upper bounds alone, with no witness built for the sum
        for k, n in ((1, 2), (2, 3), (3, 2)):
            y1, y2 = random_element(k, n, rng), random_element(k, n, rng)
            v1, _ = alpha_upper(y1, p, side, FAST_OPTS)
            v2, _ = alpha_upper(y2, p, side, FAST_OPTS)
            v12, _ = alpha_upper(y1 + y2, p, side, FAST_OPTS)
            assert v12 <= v1 + v2 + 1e-9


def _pools(y, p):
    """The dual pool of ``beta_certify`` and the transposed pool it dropped."""
    _, w_ell = alpha_upper(y, p, Side.ELL_ROW, FAST_OPTS)
    first = dual_pool(y, p, w_ell)
    dropped = [opposite_transform(c) for c in dual_pool(opposite_transform(y), p)]
    return first, dropped


PRUNE_PS = [1.3, 1.6, 2.0, 2.5, 3.0, 4.0]


class TestBetaPruning:
    """``beta_certify`` solves a dual candidate only while its certified
    potential can still beat the best ratio; that changes no bit of its
    dual route (``_pairing_lower``), compared here with an unpruned pass
    (every floor 0, so every potential is infinite)."""

    @staticmethod
    def _assert_unpruned_bits(monkeypatch, y, p, opts):
        _, w_ell = alpha_upper(y, p, Side.ELL_ROW, opts)
        pruned = vecnorm._pairing_lower(y, p, w_ell, opts)
        with monkeypatch.context() as m:
            m.setattr(vecnorm, "_dual_floor", lambda cand, p_dual: 0.0)
            full = vecnorm._pairing_lower(y, p, w_ell, opts)
        (lower, wit, den), (lower_f, wit_f, den_f) = pruned, full
        assert lower == lower_f and den == den_f
        assert (wit is None) == (wit_f is None)
        if wit is not None:
            assert wit.coords.tobytes() == wit_f.coords.tobytes()

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("p", PRUNE_PS)
    def test_bit_equal_to_unpruned_fast(self, monkeypatch, k, p):
        rng = np.random.default_rng(100 * k + int(10 * p))
        for degenerate in (False, True):
            y = random_element(k, k, rng, degenerate=degenerate)
            self._assert_unpruned_bits(monkeypatch, y, p, FAST_OPTS)

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("p", PRUNE_PS)
    def test_bit_equal_to_unpruned_default(self, monkeypatch, k, p):
        # one element per cell (long descents), rank-deficient at every
        # other exponent
        rng = np.random.default_rng(200 * k + int(10 * p))
        y = random_element(k, k, rng, degenerate=PRUNE_PS.index(p) % 2 == 1)
        self._assert_unpruned_bits(monkeypatch, y, p, DEFAULT_OPTS)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_bit_equal_on_the_pipeline_image(self, monkeypatch, p):
        k = 18
        image = amplify_apply(build_counterexample_maps(k, p)[-1], witness_w(k))
        self._assert_unpruned_bits(monkeypatch, image, p, DEFAULT_OPTS)

    def test_beta_certify_takes_the_dual_route(self):
        y = random_element(3, 3, np.random.default_rng(7))
        cert = beta_certify(y, 1.3, FAST_OPTS)
        _, w_ell = alpha_upper(y, 1.3, Side.ELL_ROW, FAST_OPTS)
        lower, wit, den = vecnorm._pairing_lower(y, 1.3, w_ell, FAST_OPTS)
        assert (cert.lower, cert.dual_norm_bound) == (lower, den)
        assert cert.dual_witness.coords.tobytes() == wit.coords.tobytes()

    # p' near 2 from below and very large: powers of the Gram density that
    # underflow in full
    @pytest.mark.parametrize("p", PRUNE_PS + [1.0001, 2.0001])
    def test_floor_below_dual_upper(self, p):
        p_dual = conjugate(p)
        rng = np.random.default_rng(int(10 * p))
        for k in (1, 2, 3):
            for degenerate in (False, True):
                y = random_element(k, k, rng, degenerate=degenerate)
                for cand in _pools(y, p)[0]:
                    for side in (cand, opposite_transform(cand)):
                        floor = vecnorm._dual_floor(side, p_dual)
                        upper = vecnorm.certified_dual_upper(side, p_dual, FAST_OPTS)
                        assert 0.0 <= floor <= upper

    def test_fewer_dual_descents(self, monkeypatch):
        y = random_element(3, 3, np.random.default_rng(7))
        calls = []
        solve = vecnorm.certified_dual_upper

        def counted(*args):
            calls.append(args[0])
            return solve(*args)

        monkeypatch.setattr(vecnorm, "certified_dual_upper", counted)
        _, w_ell = alpha_upper(y, 1.3, Side.ELL_ROW, FAST_OPTS)
        vecnorm._pairing_lower(y, 1.3, w_ell, FAST_OPTS)
        n_pruned, calls[:] = len(calls), []
        monkeypatch.setattr(vecnorm, "_dual_floor", lambda cand, p_dual: 0.0)
        vecnorm._pairing_lower(y, 1.3, w_ell, FAST_OPTS)
        assert 0 < n_pruned < len(calls)

    @pytest.mark.parametrize("p", PRUNE_PS)
    def test_transposed_pool_was_redundant(self, p):
        """Why the pool of the transposed element is not built: each of its
        candidates, transposed back, is a candidate of the first pool."""
        rng = np.random.default_rng(int(10 * p) + 1)
        for k in (1, 2, 3):
            for degenerate in (False, True):
                first, dropped = _pools(random_element(k, k, rng,
                                                       degenerate=degenerate), p)
                for cand in dropped:
                    dist = min(float(np.max(np.abs(cand.coords - c.coords)))
                               for c in first)
                    assert dist <= 1e-12


class TestSelfTransposedCandidate:
    """On a near-diagonal element the pool's matched diagonal candidate wins
    the dual route.  It is its own transpose, so its one closed-form dual
    bound serves both sides."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_one_dual_bound_for_both_sides(self, monkeypatch, k, p):
        rng = np.random.default_rng(10 * k + int(p))
        y = VecElem.diagonal(rng.uniform(0.5, 2.0, k)) \
            + random_element(k, k, rng).scaled(1e-2)
        valued = []
        solve = vecnorm.certified_dual_upper

        def counted(yp, p_dual, opts):
            valued.append(yp.coords.tobytes())
            return solve(yp, p_dual, opts)

        monkeypatch.setattr(vecnorm, "certified_dual_upper", counted)
        cert = beta_certify(y, p, FAST_OPTS)
        wit = cert.dual_witness
        assert gaugeopt._diagonal_coordinates(wit.coords)
        assert valued.count(wit.coords.tobytes()) == 1
        p_dual = conjugate(p)
        d = solve(wit, p_dual, FAST_OPTS)
        assert d == gaugeopt.diagonal_upper(wit.coords, p_dual)
        assert cert.dual_norm_bound == lp_norm((d, d), p_dual)
        assert cert.lower <= cert.upper


def test_matched_diagonal_witness_wins_off_square():
    """A near-diagonal element with N != k: the pool's diagonal candidate,
    ``_diagonal_beta``'s matched witness on every coordinate's diagonal,
    wins the dual route, well above the 4.0622 that the other candidates
    reach."""
    k, n, p = 3, 5, 1.5
    rng = np.random.default_rng(0)
    d = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    y = VecElem(d[:, :, None] * np.eye(k)) + random_element(k, n, rng).scaled(1e-2)
    cert = beta_certify(y, p, FAST_OPTS)
    assert gaugeopt._diagonal_coordinates(cert.dual_witness.coords)
    assert cert.lower == pytest.approx(4.158342551867478, rel=1e-12)
    assert cert.lower <= cert.upper


class TestNoInvertedBracket:
    """Both bounds of a k = n = 1 element, and the p-sum of any diagonal
    coordinates, are exact up to rounding, so each is rounded outward."""

    def test_k1_beta_brackets(self):
        # 704 of these 1,000 came out with lower > upper, by up to 8.9e-16
        # relative, before the bounds were rounded outward
        ps = (1.3, 1.6, 2.0, 2.5, 3.0, 4.0)
        rng = np.random.default_rng(123)
        inverted = []
        for i in range(1000):
            p = ps[i % len(ps)]
            cert = beta_certify(random_element(1, 1, rng), p, FAST_OPTS)
            if cert.lower > cert.upper:
                inverted.append((i, p, cert.lower, cert.upper))
        assert inverted == []

    def test_diagonal_coordinate_beta_brackets(self):
        # the closed form of the p-sum at k, N <= 4, a third of the entries 0
        ps = (1.1, 1.3, 1.6, 2.0, 2.5, 3.0, 4.0, 7.0)
        rng = np.random.default_rng(124)
        inverted = []
        for i in range(1000):
            p = ps[i % len(ps)]
            k, n = (int(v) for v in rng.integers(1, 5, size=2))
            diag = random_complex(rng, n, k) * (rng.random((n, k)) > 1 / 3)
            coords = np.zeros((n, k, k), dtype=np.complex128)
            coords[:, np.arange(k), np.arange(k)] = diag
            cert = beta_certify(VecElem(coords), p, FAST_OPTS)
            if cert.lower > cert.upper:
                inverted.append((i, p, cert.lower, cert.upper))
        assert inverted == []


class TestSubnormalBrackets:
    """Brackets whose value is subnormal contain the exact norm: the scaling
    back by ``2^e`` rounds there, and every bound steps one ulp outward."""

    TINY = 2.0 ** -1074

    @staticmethod
    def _contains(cert, exact):
        return mpmath.mpf(cert.lower) <= exact <= mpmath.mpf(cert.upper)

    @pytest.mark.parametrize("p", [1.5, 3.0, 7.0])
    def test_k1_alpha_grid(self, p):
        # at the parent 2,598 of these 2,784 brackets (all three p) missed
        missed = []
        for m1 in range(1, 200, 7):
            for m2 in range(0, 200, 13):
                y = VecElem(np.array([m1, m2], dtype=np.complex128).reshape(2, 1, 1)
                            * self.TINY)
                with mpmath.workdps(50):
                    # k = 1: both sides are the Euclidean norm of the pair
                    exact = mpmath.sqrt(m1 ** 2 + m2 ** 2) * mpmath.mpf(2) ** -1074
                    for side in (Side.ELL_ROW, Side.R_COL):
                        if not self._contains(alpha_certify(y, p, side), exact):
                            missed.append((m1, m2, side))
        assert missed == []

    @pytest.mark.parametrize("p", [1.5, 3.0, 7.0])
    def test_k2_non_diagonal_element(self, p):
        """``y_n = diag(d_n) P`` with the swap P: not diagonal, so both
        certificates take the generic route, and its norms are those of the
        diagonal ``diag(d_n)`` (the unitary P leaves them unchanged)."""
        d = np.array([[62, 9], [15, 4]])
        swap = np.array([[0, 1], [1, 0]])
        y = VecElem(np.stack([np.diag(dn) @ swap for dn in d]).astype(np.complex128)
                    * self.TINY)
        with mpmath.workdps(50):
            c = [mpmath.mpf(int(v)) * mpmath.mpf(2) ** -2148
                 for v in (d ** 2).sum(axis=0)]
            q = mpmath.mpf(p)
            alpha = mpmath.fsum(ci ** (q / 2) for ci in c) ** (1 / q)
            beta = alpha * mpmath.mpf(2) ** (1 / q - 1)
            for side in (Side.ELL_ROW, Side.R_COL):
                assert self._contains(alpha_certify(y, p, side), alpha), side
            assert self._contains(beta_certify(y, p), beta)


def mp_minimax_value(coords, rho, p):
    """(|c|_beta / |rho|_t)^{1/2} at 50 digits from the stored floats."""
    beta, t = gaugeopt._dual_exponents(p)
    with mpmath.workdps(50):
        rm = mpmath.matrix(rho.tolist())
        c = mpmath.zeros(coords.shape[2])
        for yn in coords:
            ym = mpmath.matrix(yn.tolist())
            c += ym.H * rm * ym
        cvals = mpmath.eighe(c, eigvals_only=True)
        rvals = mpmath.eighe(rm, eigvals_only=True)
        num = mpmath.fsum(max(mpmath.re(v), 0) ** beta for v in cvals) ** (1 / beta)
        den = mpmath.fsum(abs(mpmath.re(v)) ** t for v in rvals) ** (1 / t)
        return mpmath.sqrt(num / den)


def certificate_frame(y, cert):
    return opposite_transform(y).coords if cert.factor_witness.transposed else y.coords


class TestMinimaxLower:
    """The alpha lower bound is the minimax dual at the certificate's rho."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("side", list(Side), ids=lambda s: s.name)
    def test_below_exact_value_of_own_rho(self, p, side):
        rng = np.random.default_rng(int(10 * p) + (side == Side.R_COL))
        for k in (1, 2, 3):
            for degenerate in (False, True):
                y = random_element(k, int(rng.integers(1, 4)), rng,
                                   degenerate=degenerate)
                cert = alpha_certify(y, p, side, FAST_OPTS)
                exact = mp_minimax_value(certificate_frame(y, cert),
                                         cert.factor_witness.rho, p)
                assert mpmath.mpf(cert.lower) <= exact
                assert cert.lower <= cert.upper

    def test_below_searched_factorizations(self):
        # the elements of the brute-force-oracle criterion; a shorter search
        # still returns the value of an explicit factorization
        rng = np.random.default_rng(9)
        for i in range(5):
            y = random_element(2, 2, rng)
            cert = alpha_certify(y, 3.0, Side.ELL_ROW)
            brute = brute_force_upper(y, 3.0, base_samples=4000,
                                      polish_steps=400, seed=19 + i)
            assert cert.lower <= brute

    @pytest.mark.parametrize("p", [1.3, 1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("side", list(Side), ids=lambda s: s.name)
    def test_diagonal_element_exact(self, p, side):
        lams = random_complex(np.random.default_rng(4), 5)
        cert = alpha_certify(VecElem.diagonal(lams), p, side, FAST_OPTS)
        assert cert.lower == pytest.approx(diagonal_closed_form(lams, p), rel=1e-12)
        assert cert.lower <= cert.upper

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("side", list(Side), ids=lambda s: s.name)
    def test_single_coordinate_is_schatten_norm(self, p, side):
        rng = np.random.default_rng(7)
        for k in (2, 3, 4):
            y = VecElem(random_complex(rng, 1, k, k))
            cert = alpha_certify(y, p, side, DEFAULT_OPTS)
            assert cert.lower == pytest.approx(schatten_norm(y.coords[0], p), rel=1e-9)

    def test_rank_deficient_below_upper(self):
        # exact zero eigenvalues of C(rho) come out of eigvalsh as +-1e-16
        # and would pass through the concave power; the allowance removes them
        rng = np.random.default_rng(11)
        for i in range(60):
            k = int(rng.integers(2, 5))
            y = random_element(k, int(rng.integers(1, 4)), rng, degenerate=True)
            p = float(rng.choice([1.3, 1.6, 2.0, 2.5, 3.0, 4.0]))
            side = Side.ELL_ROW if i % 2 == 0 else Side.R_COL
            cert = alpha_certify(y, p, side, FAST_OPTS)
            assert cert.lower <= cert.upper, (i, k, p, side)

    def test_any_rho_is_sound(self):
        rng = np.random.default_rng(5)
        y = random_element(3, 2, rng)
        for p in (1.5, 2.0, 3.0):
            upper, _ = alpha_upper(y, p, Side.ELL_ROW, DEFAULT_OPTS)
            for _ in range(10):
                g = random_complex(rng, 3, 3)
                rho = g + g.conj().T  # indefinite on purpose
                assert gaugeopt.minimax_lower(y.coords, rho, p) <= upper

    def test_zero_element(self):
        assert gaugeopt.minimax_lower(np.zeros((2, 3, 3)), np.eye(3), 3.0) == 0.0
