import numpy as np
import pytest

import nclp.vecnorm as vn
from nclp import gaugeopt
from nclp.counterexample import witness_w
from nclp.cpmaps import amplify_apply, build_counterexample_maps
from nclp.schatten import psd_power
from nclp.vecnorm import (DEFAULT_OPTS, FAST_OPTS, Side, VecElem,
                          alpha_certify, beta_certify, certified_dual_upper,
                          random_element)

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

    def test_alpha_solves_each_witness_once(self, dual_inputs, monkeypatch):
        pools = []
        lower_ell = vn._alpha_lower_ell

        def recording(y, p_dual, pool, opts):
            pools.append([c.coords.tobytes() for c in pool if not c.is_diagonal()])
            return lower_ell(y, p_dual, pool, opts)

        monkeypatch.setattr(vn, "_alpha_lower_ell", recording)
        alpha_certify(witness_w(4), 3.0, Side.ELL_ROW, DEFAULT_OPTS)
        # two non-diagonal pool entries coincide here, so one descent is saved
        (pool,) = pools
        assert len(set(pool)) < len(pool)
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
#: as computed before the GEMM descent kernels: (upper, lower)
GOLDEN = {
    (1.5, Side.ELL_ROW): (15.439807799691112, 13.15665415564238),
    (1.5, Side.R_COL): (15.39110019083922, 13.15473710070455),
    (3.0, Side.ELL_ROW): (10.334773325506507, 8.578000910869086),
    (3.0, Side.R_COL): (10.022488106702498, 8.54514103462701),
    (4.0, Side.ELL_ROW): (9.187004998604785, 7.930041000887533),
    (4.0, Side.R_COL): (8.886949127506071, 7.608803898901602),
}

#: cases in which every descent (the upper solve and each dual solve) ends
#: on its stall criterion; in the others some descent ends on a failed line
#: search, which rounding decides and which can move a bracket by percents,
#: so there only a sound bracket no looser than the recorded one is required
STALL_ENDED = {(1.5, Side.R_COL), (3.0, Side.ELL_ROW)}


@pytest.mark.parametrize("p, side", sorted(GOLDEN, key=lambda c: (c[0], c[1].value)),
                         ids=lambda v: getattr(v, "name", str(v)))
def test_golden_brackets(p, side):
    upper, lower = GOLDEN[(p, side)]
    cert = alpha_certify(random_element(5, 5, np.random.default_rng(0)), p,
                         side, DEFAULT_OPTS)
    assert cert.lower <= cert.upper * (1 + 1e-9)
    assert cert.upper <= upper * (1 + 1e-9)
    assert cert.lower >= lower * (1 - 1e-9)
    if (p, side) in STALL_ENDED:
        assert cert.upper == pytest.approx(upper, rel=1e-9)
        assert cert.lower == pytest.approx(lower, rel=1e-9)
