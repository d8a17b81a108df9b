import numpy as np
import pytest

from nclp.cpmaps import KrausMap, apply
from nclp.errors import InvalidInputError, InvalidSpecError
from nclp.schatten import schatten_norm
from nclp.vecnorm import FAST_OPTS, random_element
from nclp.yeadon import (BlockIsometry, YeadonSpec, build_isometry, jordan_split,
                         random_valid_weights, rigid_bound_report,
                         rigid_compose, tensor_contraction_report,
                         unit_weights, validate_spec)

from conftest import random_complex


@pytest.fixture
def mixed_spec(rng):
    rw, aw = random_valid_weights(1, 1, 3.0, rng)
    return YeadonSpec(n=2, rep_weights=rw, antirep_weights=aw)


class TestUnitWeights:
    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0])
    def test_scaled_raw_weights_validate(self, rng, p):
        raw = rng.uniform(1e-3, 50.0, size=5)
        w = unit_weights(raw, p)
        assert np.allclose(w / raw, w[0] / raw[0], rtol=1e-14, atol=0.0)
        validate_spec(YeadonSpec(n=2, rep_weights=tuple(w[:2]),
                                 antirep_weights=tuple(w[2:])), p)

    def test_renormalised_at_conjugate_exponent(self, rng):
        p = 3.0
        rw, aw = random_valid_weights(2, 1, p, rng)
        pd = p / (p - 1.0)
        w = unit_weights(rw + aw, pd)
        validate_spec(YeadonSpec(n=2, rep_weights=tuple(w[:2]),
                                 antirep_weights=tuple(w[2:])), pd)


class TestSpecValidation:
    def test_weight_sum_enforced(self):
        with pytest.raises(InvalidSpecError):
            validate_spec(YeadonSpec(n=2, rep_weights=(0.9, 0.9)), 3.0)

    def test_positive_weights(self):
        with pytest.raises(InvalidSpecError):
            validate_spec(YeadonSpec(n=2, rep_weights=(1.0,),
                                     antirep_weights=(0.0,)), 3.0)

    def test_w_must_be_unitary(self, rng):
        spec = YeadonSpec(n=2, rep_weights=(1.0,), w=np.ones((2, 2)))
        with pytest.raises(InvalidSpecError):
            validate_spec(spec, 3.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_weights_rejected(self, bad):
        with pytest.raises(InvalidSpecError, match="finite"):
            validate_spec(YeadonSpec(n=2, rep_weights=(bad,)), 3.0)
        with pytest.raises(InvalidSpecError, match="finite"):
            build_isometry(YeadonSpec(n=2, rep_weights=(0.5,),
                                      antirep_weights=(bad,)), 3.0)

    @pytest.mark.parametrize("p", [3.0, 2000.0])
    def test_huge_weight_rejected_without_overflow(self, p):
        with pytest.raises(InvalidSpecError, match="differs from 1"):
            validate_spec(YeadonSpec(n=2, rep_weights=(1e200,)), p)
        with pytest.raises(InvalidSpecError, match="differs from 1"):
            validate_spec(YeadonSpec(n=2, rep_weights=(1.5,)), p)

    def test_near_miss_rejected(self):
        w = (1.0 - 1e-6) ** (1 / 3.0)
        with pytest.raises(InvalidSpecError):
            validate_spec(YeadonSpec(n=2, rep_weights=(w,)), 3.0)


class TestIsometry:
    def test_single_rep_identity(self, rng):
        iso = build_isometry(YeadonSpec(n=3, rep_weights=(1.0,)), 3.0)
        a = random_complex(rng, 3, 3)
        assert np.allclose(iso(a), a)

    def test_single_antirep_transpose(self, rng):
        iso = build_isometry(YeadonSpec(n=3, antirep_weights=(1.0,)), 3.0)
        a = random_complex(rng, 3, 3)
        assert np.allclose(iso(a), a.T)
        assert schatten_norm(iso(a), 3.0) == pytest.approx(
            schatten_norm(a, 3.0), rel=1e-12)

    @pytest.mark.parametrize("shape", [(1, 0), (0, 1), (1, 1), (2, 1)])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_norm_preserved(self, rng, shape, p):
        rw, aw = random_valid_weights(*shape, p, rng)
        iso = build_isometry(YeadonSpec(n=2, rep_weights=rw,
                                        antirep_weights=aw), p)
        for _ in range(50):
            a = random_complex(rng, 2, 2)
            assert abs(schatten_norm(iso(a), p)
                       - schatten_norm(a, p)) < 1e-10

    def test_unitary_w_applied(self, rng, mixed_spec):
        m = mixed_spec.target_size
        q, _ = np.linalg.qr(random_complex(rng, m, m))
        spec_w = YeadonSpec(n=2, rep_weights=mixed_spec.rep_weights,
                            antirep_weights=mixed_spec.antirep_weights, w=q)
        iso_plain = build_isometry(mixed_spec, 3.0)
        iso_w = build_isometry(spec_w, 3.0)
        a = random_complex(rng, 2, 2)
        assert np.allclose(iso_w(a), q @ iso_plain(a))
        assert schatten_norm(iso_w(a), 3.0) == pytest.approx(
            schatten_norm(a, 3.0), rel=1e-10)

    def test_block_form(self, rng, mixed_spec):
        # T(a) = B J(a) with B = blockdiag(w_b I_n), J(a) = blockdiag(a, a^T), W = I
        iso = build_isometry(mixed_spec, 3.0)
        a = random_complex(rng, 2, 2)
        w_rep, w_anti = mixed_spec.weights()
        want = np.zeros((4, 4), dtype=np.complex128)
        want[:2, :2], want[2:, 2:] = w_rep * a, w_anti * a.T
        assert np.allclose(iso(a), want)

    def test_trace_compatibility(self, rng, mixed_spec):
        iso = build_isometry(mixed_spec, 3.0)
        a = random_complex(rng, 2, 2)
        b = np.diag(np.repeat(mixed_spec.weights(), 2))
        # tr(B^{p-1} T(a)) = tr(B^p J(a)) = sum_b w_b^p tr(a) = tr(a) at p = 3
        assert abs(np.trace(b @ b @ iso(a)) - np.trace(a)) < 1e-10


    @pytest.mark.parametrize("mask", [None, "rep", "antirep"])
    @pytest.mark.parametrize("unitary", [False, True], ids=["no-W", "W"])
    def test_amplify_is_the_stack_of_calls(self, rng, mask, unitary):
        # one pass over the whole stack, bit for bit the per-coordinate map
        rw, aw = random_valid_weights(2, 1, 3.0, rng)
        w = np.linalg.qr(random_complex(rng, 9, 9))[0] if unitary else None
        iso = BlockIsometry(YeadonSpec(n=3, rep_weights=rw, antirep_weights=aw,
                                       w=w), 3.0, mask=mask)
        y = random_element(3, 4, rng)
        want = np.stack([iso(coord) for coord in y.coords])
        assert np.array_equal(iso.amplify(y).coords, want)
        with pytest.raises(InvalidInputError):
            iso.amplify(random_element(2, 4, rng))


class TestJordanSplit:
    def test_pure_rep_kills_antirep_part(self, rng):
        spec = YeadonSpec(n=2, rep_weights=(1.0,))
        t1, t2 = jordan_split(spec, 3.0)
        a = random_complex(rng, 2, 2)
        assert np.any(t1(a))
        assert not np.any(t2(a))

    def test_pure_antirep(self, rng):
        spec = YeadonSpec(n=2, antirep_weights=(1.0,))
        t1, t2 = jordan_split(spec, 3.0)
        a = random_complex(rng, 2, 2)
        assert not np.any(t1(a))
        assert np.any(t2(a))

    def test_split_is_exact(self, rng, mixed_spec):
        t = build_isometry(mixed_spec, 3.0)
        t1, t2 = jordan_split(mixed_spec, 3.0)
        a = random_complex(rng, 2, 2)
        assert np.array_equal(t(a), t1(a) + t2(a))

    def test_parts_are_contractions(self, rng, mixed_spec):
        p = 3.0
        t1, t2 = jordan_split(mixed_spec, p)
        for part in (t1, t2):
            for _ in range(25):
                a = random_complex(rng, 2, 2)
                assert schatten_norm(part(a), p) <= \
                    schatten_norm(a, p) * (1 + 1e-9)


class TestReports:
    def test_contraction_reports_clean(self, mixed_spec):
        p = 3.0
        t1, t2 = jordan_split(mixed_spec, p)
        rep = tensor_contraction_report(t1, "rep", p, samples=6, seed=0,
                                        opts=FAST_OPTS)
        assert rep.passed and len(rep.rows) == 6
        rep = tensor_contraction_report(t2, "antirep", p, samples=6, seed=0,
                                        opts=FAST_OPTS)
        assert rep.passed

    def test_identity_part_matches_input(self):
        # T = id: the image is the input, so lower <= upper holds with the
        # certificates landing on the same element
        spec = YeadonSpec(n=2, rep_weights=(1.0,))
        t1, _ = jordan_split(spec, 3.0)
        rep = tensor_contraction_report(t1, "rep", 3.0, samples=4, seed=1,
                                        opts=FAST_OPTS)
        assert rep.passed
        for row in rep.rows:
            assert row.image_lower <= row.input_upper * (1 + 1e-9)

    def test_zero_map_trivially_passes(self, mixed_spec):
        spec = YeadonSpec(n=2, rep_weights=(1.0,))
        _, t2 = jordan_split(spec, 3.0)  # antirep part of a pure-rep spec
        rep = tensor_contraction_report(t2, "antirep", 3.0, samples=3, seed=2,
                                        opts=FAST_OPTS)
        assert rep.passed
        assert all(row.image_lower == 0.0 for row in rep.rows)

    def test_which_validated(self, mixed_spec):
        t1, _ = jordan_split(mixed_spec, 3.0)
        with pytest.raises(InvalidInputError):
            tensor_contraction_report(t1, "diagonal", 3.0, samples=1)


class TestRigidCompose:
    def test_identity_pair(self, rng):
        spec = YeadonSpec(n=2, rep_weights=(1.0,))
        u = rigid_compose(spec, spec, 3.0)
        x = random_complex(rng, 2, 2)
        assert np.allclose(apply(u, x), x, atol=1e-14)

    def test_transpose_pair(self, rng):
        spec = YeadonSpec(n=2, antirep_weights=(1.0,))
        u = rigid_compose(spec, spec, 3.0)
        x = random_complex(rng, 2, 2)
        assert np.allclose(apply(u, x), x, atol=1e-14)

    def test_mixed_blockwise_scalar(self, rng):
        p = 3.0
        pd = p / (p - 1.0)
        rw, aw = random_valid_weights(1, 1, p, rng)
        rw2, aw2 = random_valid_weights(1, 1, pd, rng)
        t_spec = YeadonSpec(n=2, rep_weights=rw, antirep_weights=aw)
        s_spec = YeadonSpec(n=2, rep_weights=rw2, antirep_weights=aw2)
        u = rigid_compose(t_spec, s_spec, p)
        x = random_complex(rng, 2, 2)
        want = (rw[0] * rw2[0] + aw[0] * aw2[0]) * x
        assert np.allclose(apply(u, x), want, atol=1e-13)

    def test_mismatched_types_rejected(self):
        rep = YeadonSpec(n=2, rep_weights=(1.0,))
        anti = YeadonSpec(n=2, antirep_weights=(1.0,))
        with pytest.raises(InvalidInputError):
            rigid_compose(rep, anti, 3.0)

    def test_size_mismatch_rejected(self):
        a = YeadonSpec(n=2, rep_weights=(1.0,))
        b = YeadonSpec(n=3, rep_weights=(1.0,))
        with pytest.raises(InvalidInputError):
            rigid_compose(a, b, 3.0)

    def test_block_preserving_unitary_w(self, rng):
        # W unitary inside each block keeps the composite two-sided
        p = 3.0
        pd = p / (p - 1.0)
        rw, aw = random_valid_weights(1, 1, p, rng)
        q1, _ = np.linalg.qr(random_complex(rng, 2, 2))
        q2, _ = np.linalg.qr(random_complex(rng, 2, 2))
        w = np.zeros((4, 4), dtype=complex)
        w[:2, :2], w[2:, 2:] = q1, q2
        t_spec = YeadonSpec(n=2, rep_weights=rw, antirep_weights=aw, w=w)
        rw2, aw2 = random_valid_weights(1, 1, pd, rng)
        s_spec = YeadonSpec(n=2, rep_weights=rw2, antirep_weights=aw2)
        u = rigid_compose(t_spec, s_spec, p)
        x = random_complex(rng, 2, 2)
        want = rw[0] * rw2[0] * q1 @ x + aw[0] * aw2[0] * (q2 @ x.T).T
        assert np.allclose(apply(u, x), want, atol=1e-13)


class TestRigidBoundReport:
    def test_identity_passes(self):
        spec = YeadonSpec(n=2, rep_weights=(1.0,))
        u = rigid_compose(spec, spec, 3.0)
        rep = rigid_bound_report(u, 3.0, samples=5, seed=3, opts=FAST_OPTS)
        assert rep.passed and len(rep.rows) == 5

    def test_composed_pair_passes(self, rng):
        p = 3.0
        pd = p / (p - 1.0)
        rw, aw = random_valid_weights(1, 1, p, rng)
        rw2, aw2 = random_valid_weights(1, 1, pd, rng)
        u = rigid_compose(YeadonSpec(n=2, rep_weights=rw, antirep_weights=aw),
                          YeadonSpec(n=2, rep_weights=rw2, antirep_weights=aw2),
                          p)
        rep = rigid_bound_report(u, p, samples=8, seed=4, opts=FAST_OPTS)
        assert rep.passed

    def test_violation_is_reported(self):
        # a map far from contractive must trip the factor-4 check on every
        # sample (the true threshold scale is out of numeric reach, so the
        # reporting path is exercised with an inflated map instead); the
        # certified p-sum lower bound of a random element is above a quarter
        # of its row upper bound, so x -> 16 x breaks the bound about twice
        k, p = 3, 3.0
        s = 4.0 * np.eye(k)
        u = KrausMap.from_terms([(s, s)])  # x -> 16 x
        rep = rigid_bound_report(u, p, samples=2, seed=0, opts=FAST_OPTS)
        assert not rep.passed
        assert rep.violations == [0, 1]
        assert all(row.image_lower > 1.5 * 4.0 * row.input_upper
                   for row in rep.rows)
