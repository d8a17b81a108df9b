import numpy as np
import pytest

from nclp import counterexample, cpmaps, serialize
from nclp.counterexample import (closed_form_images, contraction_upper_bound,
                                 diagonal_coefficients, lower_bound_formula,
                                 threshold_k, verify_pipeline, witness_w)
from nclp.cpmaps import (KrausMap, amplify_apply, build_counterexample_maps,
                         choi, sampled_contraction_ratio)
from nclp.errors import InvalidInputError
from nclp.schatten import conjugate
from nclp.vecnorm import Side, VecElem, alpha_certify, diagonal_closed_form

from conftest import full_sandwich, identity_map


class TestWitness:
    def test_k1(self):
        w = witness_w(1)
        assert w.coords.shape == (1, 1, 1)
        assert w.coords[0, 0, 0] == 1.0

    def test_k3_layout(self):
        w = witness_w(3)
        for n in range(3):
            want = np.zeros((3, 3), dtype=complex)
            want[n, 0] = 1.0
            assert np.array_equal(w.coords[n], want)

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_certificate_is_one(self, p):
        cert = alpha_certify(witness_w(4), p, Side.ELL_ROW)
        assert cert.upper == pytest.approx(1.0, abs=1e-9)
        assert cert.lower == pytest.approx(1.0, abs=1e-9)


class TestClosedFormImages:
    def test_k1_everything_is_one(self):
        for img in closed_form_images(1, 2.2):
            assert img.coords.shape == (1, 1, 1)
            assert img.coords[0, 0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_matches_amplified_maps(self, k, p):
        maps = build_counterexample_maps(k, p)
        w = witness_w(k)
        for umap, img in zip(maps[:4], closed_form_images(k, p)):
            err = np.abs(amplify_apply(umap, w).coords - img.coords).max()
            assert err <= 1e-14

    def test_projected_diagonal_coefficients(self):
        k, p = 5, 3.0
        images = closed_form_images(k, p)
        total = sum(img.coords for img in images) / 4.0
        lams = diagonal_coefficients(k, p)
        idx = np.arange(k)
        assert np.allclose(total[idx, idx, idx], lams, atol=1e-15)
        assert lams[0] == pytest.approx(
            0.25 * (2 * k ** (-1 / (2 * p)) + 1 + k ** (-1 / p)))
        assert lams[2] == pytest.approx(0.25 * k ** (-1 / (2 * p)))


class TestLowerBoundFormula:
    @pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 7.0])
    def test_k1_is_half(self, p):
        assert lower_bound_formula(1, p) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_divergence(self, p):
        assert lower_bound_formula(10 ** 6, p) > lower_bound_formula(10 ** 3, p)
        assert lower_bound_formula(10 ** 14, p) > 4.0

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_eventually_monotone_grid(self, p):
        # the formula dips first (until k ~ 61 at p=3, ~275 at p=4), then grows
        grid = np.unique(np.geomspace(300, 10 ** 7, 40).astype(np.int64))
        vals = [lower_bound_formula(int(k), p) for k in grid]
        assert all(b >= a * (1 - 1e-12) for a, b in zip(vals, vals[1:]))
        early = [lower_bound_formula(k, p) for k in range(1, 30)]
        assert min(early) < early[0]  # the dip is real

    @pytest.mark.parametrize("k", [1, 2, 4, 7])
    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_coefficient_route_identity(self, k, p):
        via_lams = diagonal_closed_form(diagonal_coefficients(k, p), p) / 2.0
        assert abs(lower_bound_formula(k, p) - via_lams) <= 1e-14

    @pytest.mark.parametrize("k", [1, 2, 7, 10 ** 6])
    @pytest.mark.parametrize("p", [600.0, 5000.0])
    def test_large_exponents(self, k, p):
        # head^p overflows here; the formula factors head out
        via_lams = diagonal_closed_form(diagonal_coefficients(k, p), p) / 2.0
        assert lower_bound_formula(k, p) == pytest.approx(via_lams, rel=1e-14)

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidInputError):
            lower_bound_formula(0, 3.0)


class TestThreshold:
    def test_low_bound_returns_one(self):
        assert threshold_k(3.0, 0.4) == 1

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_crossing_property(self, p):
        kk = threshold_k(p, 4.0)
        assert lower_bound_formula(kk, p) > 4.0 >= lower_bound_formula(kk - 1, p)

    def test_order_of_magnitude_at_p3(self):
        kk = threshold_k(3.0, 4.0)
        # dominated by (k-1)/sqrt(k) > 32^3, i.e. k near 32768^2
        assert 0.9e9 < kk < 1.2e9

    def test_bound_validation(self):
        with pytest.raises(InvalidInputError):
            threshold_k(3.0, -1.0)


class TestVerifyPipeline:
    def test_small_case(self):
        rep = verify_pipeline(2, 3.0)
        assert rep.closed_form_match
        assert rep.witness_norm_ok
        assert rep.dominance_ok
        assert rep.cp_ok and rep.contraction_ok
        assert rep.numeric_lb >= rep.formula_lb - 1e-12
        assert not rep.threshold_pass  # small k stays far below 4

    def test_scalar_case(self):
        p = 3.0
        rep = verify_pipeline(1, p)
        assert rep.formula_lb == pytest.approx(0.5)
        want = 2.0 ** (-1.0 / conjugate(p))
        assert rep.numeric_lb == pytest.approx(want, rel=1e-9)
        assert rep.all_checks_ok

    def test_k44(self):
        rep = verify_pipeline(4, 4.0)
        assert rep.all_checks_ok

    def test_numeric_cap(self):
        with pytest.raises(InvalidInputError):
            verify_pipeline(33, 3.0)
        rep = verify_pipeline(33, 3.0, k_cap=33)
        assert rep.closed_form_match

    def test_k48_passes_every_check(self):
        assert verify_pipeline(48, 3.0, k_cap=48).all_checks_ok

    @pytest.mark.parametrize("k", [2, 9, 18])
    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_report_matches_dense_route(self, monkeypatch, k, p):
        """Only choi_min_eig moves when the dense CP test and the full
        per-term products are patched back in."""
        fast = serialize.report_to_json(verify_pipeline(k, p, k_cap=k))

        def dense_min_eig(m):
            c = choi(m)
            return float(np.linalg.eigvalsh(0.5 * (c + c.conj().T))[0])

        monkeypatch.setattr(cpmaps, "_sandwich", full_sandwich)
        monkeypatch.setattr(counterexample, "choi_min_eigenvalue", dense_min_eig)
        monkeypatch.setattr(counterexample, "is_completely_positive",
                            lambda m: dense_min_eig(m) >= -1e-12)
        dense = serialize.report_to_json(verify_pipeline(k, p, k_cap=k))
        assert fast["choi_min_eig"] == 0.0
        assert abs(dense["choi_min_eig"]) <= 1e-14
        del fast["choi_min_eig"], dense["choi_min_eig"]
        assert serialize.dumps_canonical(fast) == serialize.dumps_canonical(dense)


BOUND_PS = (1.2, 1.5, 2.0, 2.5, 3.0, 4.0, 8.0)


def _e11(k):
    x = np.zeros((k, k), dtype=np.complex128)
    x[0, 0] = 1.0
    return x


class TestContractionUpperBound:
    @pytest.mark.parametrize("k", range(1, 13))
    @pytest.mark.parametrize("p", BOUND_PS)
    def test_dominates_samples(self, k, p):
        *_, u = build_counterexample_maps(k, p)
        upper = contraction_upper_bound(k, p)
        assert upper <= 1.0 + 1e-9
        assert sampled_contraction_ratio(u, p, 500, seed=k) <= upper
        assert sampled_contraction_ratio(u, p, 500, seed=k,
                                         probes=[_e11(k), np.eye(k)]) <= upper

    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    @pytest.mark.parametrize("p", BOUND_PS)
    def test_corner_bounds_attained(self, k, p):
        u1, u2, u3, u4, _ = build_counterexample_maps(k, p)
        c = 2.0 * contraction_upper_bound(k, p) - 1.0
        if p >= 2.0:
            col = row = _e11(k)
        else:
            col = np.zeros((k, k))
            col[:, 0] = 1.0
            row = col.T
        for umap, x in ((u1, col), (u2, row)):
            ratio = sampled_contraction_ratio(umap, p, 0, probes=[x])
            assert ratio == pytest.approx(c, rel=1e-13)
        for umap in (u3, u4):
            ratio = sampled_contraction_ratio(umap, p, 0, probes=[_e11(k)])
            assert ratio == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 3, 18])
    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_rounds_up_against_mpmath(self, k, p):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            mp_p = mpmath.mpf(p)
            g = max(mpmath.mpf(0), 1 / mp_p - mpmath.mpf(1) / 2) - 1 / (2 * mp_p)
            exact = (1 + mpmath.mpf(k) ** g) / 2
            upper = mpmath.mpf(contraction_upper_bound(k, p))
            assert upper >= exact
            assert (upper - exact) / exact <= mpmath.mpf("1e-14")

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            contraction_upper_bound(0, 3.0)
        with pytest.raises(InvalidInputError):
            contraction_upper_bound(2, 1.0)


class TestContractionReport:
    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
    def test_k1_passes_every_check(self, p):
        rep = verify_pipeline(1, p)
        assert rep.all_checks_ok and not rep.diagnostics
        assert rep.contraction_ratio == pytest.approx(1.0, abs=1e-15)
        assert 1.0 <= rep.contraction_upper <= 1.0 + 1e-9

    # contraction_ratio as reported with 200 random trials besides the probes
    RATIOS_WITH_TRIALS = {
        (2, 1.5): "0x1.b3474171c9ec3p-1", (2, 2.5): "0x1.c3c0bc4ca6f28p-1",
        (2, 3.0): "0x1.cb53903ea52fep-1", (2, 4.0): "0x1.d6b5b7c757638p-1",
        (4, 1.5): "0x1.7a4705086e5a8p-1", (4, 2.5): "0x1.928154b4377ffp-1",
        (4, 3.0): "0x1.9ee406b006409p-1", (4, 4.0): "0x1.b264fcf1afabcp-1",
        (9, 1.5): "0x1.49ca08389fc51p-1", (9, 2.5): "0x1.642203d656426p-1",
        (9, 3.0): "0x1.73979a800e4d9p-1", (9, 4.0): "0x1.8d5f74e034f72p-1",
        (18, 1.5): "0x1.2ba19360029f8p-1", (18, 2.5): "0x1.443c58b4476cbp-1",
        (18, 3.0): "0x1.54c26c588e578p-1", (18, 4.0): "0x1.71c6d2297ef14p-1",
    }

    @pytest.mark.parametrize("k, p", sorted(RATIOS_WITH_TRIALS))
    def test_probes_give_the_sampled_maximum(self, k, p):
        e11 = np.zeros((k, k), dtype=np.complex128)
        e11[0, 0] = 1.0
        u = build_counterexample_maps(k, p)[-1]
        ratio = sampled_contraction_ratio(u, p, 0, probes=[e11, np.eye(k)])
        assert ratio.hex() == self.RATIOS_WITH_TRIALS[(k, p)]
        assert ratio <= contraction_upper_bound(k, p)
        if p >= 2.0:  # the pipeline reports that ratio (it rejects p < 2)
            rep = verify_pipeline(k, p, k_cap=k)
            assert rep.contraction_ratio == ratio
            assert rep.contraction_ok

    @pytest.mark.parametrize("k", [1, 2, 18])
    def test_rejects_p_below_two(self, k):
        with pytest.raises(InvalidInputError, match="p >= 2"):
            verify_pipeline(k, 1.5, k_cap=k)

    def test_bound_below_sample_fails(self, monkeypatch):
        monkeypatch.setattr(counterexample, "contraction_upper_bound",
                            lambda k, p: 0.5)
        rep = verify_pipeline(2, 3.0)
        assert not rep.contraction_ok and not rep.all_checks_ok
        assert rep.contraction_upper == 0.5
        assert any("exceeds the certified bound" in d for d in rep.diagnostics)

    def test_bound_above_one_fails(self, monkeypatch):
        monkeypatch.setattr(counterexample, "contraction_upper_bound",
                            lambda k, p: 1.0 + 1e-6)
        rep = verify_pipeline(2, 3.0)
        assert not rep.contraction_ok
        assert any("certified contraction bound" in d for d in rep.diagnostics)

    def test_random_trials_still_run(self):
        base = verify_pipeline(3, 3.0)
        rep = verify_pipeline(3, 3.0, contraction_trials=50, seed=3)
        assert base.contraction_ratio <= rep.contraction_ratio
        assert rep.contraction_ratio <= rep.contraction_upper
        assert rep.contraction_upper == base.contraction_upper
        assert rep.all_checks_ok

    def test_report_json_brackets_the_norm(self):
        doc = serialize.report_to_json(verify_pipeline(2, 3.0))
        keys = list(doc)
        assert keys[keys.index("contraction_ratio") + 1] == "contraction_upper"
        assert doc["contraction_ratio"] <= doc["contraction_upper"] <= 1.0


class TestPipelineDiagnostics:
    """Each failed check of ``verify_pipeline`` clears its flag and says why."""

    @staticmethod
    def _assert_failed(rep, flag, message):
        assert not getattr(rep, flag) and not rep.all_checks_ok
        assert any(message in d for d in rep.diagnostics)

    def test_closed_form_mismatch(self, monkeypatch):
        exact = counterexample.closed_form_images

        def shifted(k, p):
            im1, *rest = exact(k, p)
            return (VecElem(im1.coords + 1e-9), *rest)

        monkeypatch.setattr(counterexample, "closed_form_images", shifted)
        rep = verify_pipeline(2, 3.0)
        self._assert_failed(rep, "closed_form_match", "closed form mismatch for u1")
        assert any("average image differs" in d for d in rep.diagnostics)
        assert rep.witness_norm_ok and rep.dominance_ok and rep.cp_ok

    def test_witness_off_one(self, monkeypatch):
        certify = counterexample.alpha_certify

        def loose(y, p, side):
            cert = certify(y, p, side)
            cert.upper *= 1.0 + 1e-6
            return cert

        monkeypatch.setattr(counterexample, "alpha_certify", loose)
        rep = verify_pipeline(2, 3.0)
        self._assert_failed(rep, "witness_norm_ok", "witness certificate [")
        assert rep.upper_w > 1.0 + 1e-9

    def test_numeric_bound_below_formula(self, monkeypatch):
        monkeypatch.setattr(counterexample, "lower_bound_formula", lambda k, p: 10.0)
        rep = verify_pipeline(2, 3.0)
        self._assert_failed(rep, "dominance_ok", "fell below formula 10.0")

    def test_not_completely_positive(self, monkeypatch):
        monkeypatch.setattr(counterexample, "is_completely_positive", lambda m: False)
        rep = verify_pipeline(2, 3.0)
        self._assert_failed(rep, "cp_ok", "Choi matrix has eigenvalue")
        assert rep.contraction_ok


class TestProbeOnlySampling:
    def test_zero_trials_with_probes(self):
        m = identity_map(3)
        assert sampled_contraction_ratio(m, 3.0, 0, probes=[np.eye(3)]) == 1.0

    def test_nothing_to_sample_raises(self):
        m = identity_map(3)
        with pytest.raises(InvalidInputError):
            sampled_contraction_ratio(m, 3.0, 0)
        with pytest.raises(InvalidInputError):
            sampled_contraction_ratio(m, 3.0, -1, probes=[np.eye(3)])
