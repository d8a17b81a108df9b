import math

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from nclp.counterexample import closed_form_images, witness_w
from nclp.cpmaps import (KrausMap, _sandwich, amplify_apply, apply,
                         build_counterexample_maps, choi, choi_min_eigenvalue,
                         is_completely_positive, sampled_contraction_ratio)
from nclp.errors import InvalidInputError
from nclp.vecnorm import VecElem

from conftest import full_sandwich, identity_map, random_complex


def unit(k, i, j):
    m = np.zeros((k, k), dtype=np.complex128)
    m[i, j] = 1.0
    return m


def witness(k):
    return VecElem(np.stack([unit(k, n, 0) for n in range(k)]))


def transpose_map(k):
    return KrausMap.from_terms(
        [(unit(k, j, i), unit(k, i, j)) for i in range(k) for j in range(k)])


class TestApply:
    def test_identity(self, rng):
        x = random_complex(rng, 3, 3)
        assert np.allclose(apply(identity_map(3), x), x)

    def test_corner_map_u4(self, rng):
        k, p = 4, 3.0
        *_, u4, _ = build_counterexample_maps(k, p)
        x = random_complex(rng, k, k)
        assert np.allclose(apply(u4, x), k ** (-1 / p) * x[0, 0] * np.eye(k),
                           atol=1e-14)

    def test_diagonal_map_u3(self, rng):
        k = 4
        _, _, u3, _, _ = build_counterexample_maps(k, 3.0)
        x = random_complex(rng, k, k)
        assert np.allclose(apply(u3, x), np.diag(np.diag(x)), atol=1e-14)

    def test_shape_mismatch(self, rng):
        with pytest.raises(InvalidInputError):
            apply(identity_map(3), random_complex(rng, 2, 2))

    def test_linearity(self, rng):
        m = KrausMap.from_terms([(random_complex(rng, 3, 3),
                                  random_complex(rng, 3, 3))
                                 for _ in range(2)])
        x, y = random_complex(rng, 3, 3), random_complex(rng, 3, 3)
        a, b = 1.3 - 0.2j, -0.7j
        assert np.allclose(apply(m, a * x + b * y),
                           a * apply(m, x) + b * apply(m, y), atol=1e-12)


def random_map(rng, terms, k):
    """A map with independent coefficient stacks, so in general not CP."""
    return KrausMap.from_terms([(random_complex(rng, k, k), random_complex(rng, k, k))
                                for _ in range(terms)])


def term_sum(m, x):
    """sum_t a_t^* x b_t entry by entry in plain Python, the kernel's reference."""
    k = m.k
    out = np.zeros((k, k), dtype=np.complex128)
    for a, b in zip(m.a, m.b):
        for i in range(k):
            for c in range(k):
                out[i, c] += sum(a[j, i].conjugate() * x[j, l] * b[l, c]
                                 for j in range(k) for l in range(k))
    return out


def einsum_amplify(m, coords):
    """The three-operand contraction the matmul kernel replaced."""
    return np.einsum("tji,njl,tlk->nik", m.a.conj(), coords, m.b)


class TestKernel:
    @pytest.mark.parametrize("terms", [1, 3, 7])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_apply_matches_term_sum(self, rng, terms, k):
        m = random_map(rng, terms, k)
        x = random_complex(rng, k, k)
        got, want = apply(m, x), term_sum(m, x)
        scale = sum(np.abs(a).T @ np.abs(x) @ np.abs(b) for a, b in zip(m.a, m.b)).max()
        assert np.abs(got - want).max() <= 1e-13 * scale

    @pytest.mark.parametrize("terms", [1, 3, 7, 18])
    @pytest.mark.parametrize("k", [1, 3, 18])
    def test_amplify_is_coordinatewise_apply(self, rng, terms, k):
        """Every coordinate goes through the same two matrix products for any
        number of coordinates, so the amplified map agrees bit for bit."""
        n = 5
        m = random_map(rng, terms, k)
        y = VecElem(random_complex(rng, n, k, k))
        img = amplify_apply(m, y)
        assert img.coords.shape == (n, k, k)
        for i in range(n):
            assert np.array_equal(img.coords[i], apply(m, y.coords[i]))

    @pytest.mark.parametrize("k", [1, 2, 5, 18])
    def test_column_support_exact_cases(self, rng, k):
        """Exact products give the same bits in any summation order: the zero
        argument, and the witness under every counterexample map."""
        m = random_map(rng, 3, k)
        x = np.zeros((4, k, k), dtype=np.complex128)
        assert np.array_equal(_sandwich(m, x), full_sandwich(m, x))
        w = witness_w(k).coords
        for p in (2.5, 3.0, 4.0):
            for umap in build_counterexample_maps(k, p):
                assert np.array_equal(_sandwich(umap, w), full_sandwich(umap, w))

    @pytest.mark.parametrize("terms", [1, 3, 7, 18])
    @pytest.mark.parametrize("k", [1, 2, 5, 18])
    def test_accuracy_against_extended_precision(self, rng, terms, k):
        """Dense and masked arguments against the sum in extended precision:
        every entry is within the rounding bound of the cpmaps docstring,
        ``(k + terms |J| + 2) eps`` times ``sum_t |a_t|^T |x| |b_t|``."""
        eps = np.finfo(float).eps
        for trial in range(6):
            m = random_map(rng, terms, k)
            x = random_complex(rng, 4, k, k) if trial % 2 else random_complex(rng, k, k)
            if trial >= 2:
                x[..., rng.random(k) < 0.5] = 0.0
                x[..., rng.random(k) < 0.5, :] = 0.0
            width = np.count_nonzero(np.any(x, axis=tuple(range(x.ndim - 1))))
            a, b = m.a.astype(np.clongdouble), m.b.astype(np.clongdouble)
            exact = sum(a_t.conj().T @ x.astype(np.clongdouble) @ b_t
                        for a_t, b_t in zip(a, b))
            scale = sum(np.abs(a_t).T @ np.abs(x) @ np.abs(b_t)
                        for a_t, b_t in zip(m.a, m.b))
            err = np.abs(_sandwich(m, x) - exact).astype(float)
            assert np.all(err <= (k + terms * width + 2) * eps * scale)

    @pytest.mark.parametrize("k", [1, 2, 5, 18])
    def test_column_support_masks(self, rng, k):
        """Complex arguments with zero rows and columns: the kernel and the
        full per-term reference round and sum in different orders; both
        results sit within about k eps of the exact sums."""
        eps = np.finfo(float).eps
        for _ in range(20):
            m = random_map(rng, 3, k)
            for x in (random_complex(rng, 4, k, k), witness_w(k).coords.copy()):
                x[..., rng.random(k) < 0.5] = 0.0
                x[..., rng.random(k) < 0.5, :] = 0.0
                got, want = _sandwich(m, x), full_sandwich(m, x)
                scale = sum(np.abs(a).T @ np.abs(x) @ np.abs(b)
                            for a, b in zip(m.a, m.b))
                assert np.all(np.abs(got - want) <= 4 * k * eps * scale)

    @pytest.mark.parametrize("terms", [1, 3, 7])
    def test_choi_matches_outer_sum(self, rng, terms):
        k = 3
        m = random_map(rng, terms, k)
        want = sum(np.outer(a.reshape(-1).conj(), b.reshape(-1)) for a, b in zip(m.a, m.b))
        assert np.abs(choi(m) - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_witness_images_at_k18(self, p):
        k = 18
        maps = build_counterexample_maps(k, p)
        w = witness_w(k)
        images = [c.coords for c in closed_form_images(k, p)]
        images.append(sum(images) / 4.0)
        for i, (m, want) in enumerate(zip(maps, images)):
            got = amplify_apply(m, w).coords
            assert np.array_equal(got, einsum_amplify(m, w.coords))
            if i < 3:
                assert np.array_equal(got, want)
            else:
                # u4 and u carry k^{-1/p} as (k^{-1/(2p)})^2, which may differ
                # from the closed form's power in the last bit
                assert np.abs(got - want).max() <= np.finfo(float).eps * np.abs(want).max()


class TestChoi:
    def test_identity_is_psd_rank_one_gram(self):
        c = choi(identity_map(3))
        want = sum(np.kron(unit(3, i, j), unit(3, i, j))
                   for i in range(3) for j in range(3))
        assert np.allclose(c, want)
        assert is_completely_positive(identity_map(3))

    def test_transpose_not_cp(self):
        t = transpose_map(3)
        assert choi_min_eigenvalue(t) == pytest.approx(-1.0, abs=1e-12)
        assert not is_completely_positive(t)

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
    def test_non_hermitian_choi_at_any_scale(self, scale):
        # x -> (1 + 1e-3 i) scale^2 x sends E11 to a non-Hermitian matrix:
        # its Choi matrix is 2e-3 away from Hermitian, relative to its norm
        eye = np.eye(2, dtype=np.complex128)
        m = KrausMap.from_terms([(scale * eye, scale * (1.0 + 1e-3j) * eye)])
        c = choi(m)
        rel = np.linalg.norm(c - c.conj().T) / np.linalg.norm(c)
        assert rel == pytest.approx(2e-3 / abs(1.0 + 1e-3j), rel=1e-9)
        assert not is_completely_positive(m)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_average_map_is_cp(self, p):
        *_, u = build_counterexample_maps(4, p)
        assert is_completely_positive(u)
        assert choi_min_eigenvalue(u) >= -1e-12

    def test_matched_terms_always_cp(self, rng):
        mats = [random_complex(rng, 3, 3) for _ in range(3)]
        m = KrausMap.from_terms([(a, a) for a in mats])
        assert is_completely_positive(m)

    @pytest.mark.parametrize("k", [2, 5, 18])
    def test_equal_stacks_need_no_eigensolve(self, rng, monkeypatch, k):
        """Equal stacks (also held in separate arrays) are a Gram; with fewer
        than k^2 terms its least eigenvalue is exactly 0."""
        a = random_complex(rng, k, k, k)
        m = KrausMap(k=k, a=a, b=a.copy())

        def no_eigensolve(*args, **kwargs):
            raise AssertionError("eigensolve called")

        # numpy's LAPACK gufuncs, which every Hermitian eigensolve reaches
        for gufunc in ("eigh_lo", "eigvalsh_lo"):
            monkeypatch.setattr(_umath_linalg, gufunc, no_eigensolve)
        assert is_completely_positive(m)
        assert choi_min_eigenvalue(m) == 0.0
        *_, u = build_counterexample_maps(k, 3.0)
        assert is_completely_positive(u)
        assert choi_min_eigenvalue(u) == 0.0

    @pytest.mark.parametrize("k, terms", [(1, 1), (1, 3), (2, 4), (2, 7), (3, 12)])
    def test_full_rank_gram_matches_dense(self, rng, k, terms):
        mats = [random_complex(rng, k, k) for _ in range(terms)]
        m = KrausMap.from_terms([(a, a) for a in mats])
        lam = np.linalg.eigvalsh(choi(m))
        assert abs(choi_min_eigenvalue(m) - lam[0]) <= 1e-12 * np.abs(lam).max()
        assert is_completely_positive(m)

    def test_non_star_preserving_rejected(self, rng):
        m = KrausMap.from_terms([(np.eye(2), 1j * np.eye(2))])
        assert not is_completely_positive(m)
        assert choi_min_eigenvalue(m) == pytest.approx(0.0, abs=1e-12)


class TestSectionFiveMaps:
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("p", [2.5, 3.0])
    def test_average_consistency(self, rng, k, p):
        u1, u2, u3, u4, u = build_counterexample_maps(k, p)
        x = random_complex(rng, k, k)
        avg = (apply(u1, x) + apply(u2, x) + apply(u3, x) + apply(u4, x)) / 4
        scale = max(np.abs(avg).max(), 1e-300)
        assert np.abs(apply(u, x) - avg).max() / scale < 1e-14

    def test_u1_structure(self):
        k, p = 4, 3.0
        u1, *_ = build_counterexample_maps(k, p)
        for i in range(k):
            img = apply(u1, unit(k, i, 0))
            assert np.allclose(img, k ** (-1 / (2 * p)) * unit(k, i, i),
                               atol=1e-15)
        for j in range(1, k):
            assert not np.any(apply(u1, unit(k, 0, j)))

    def test_u_on_corner_unit(self):
        k, p = 5, 3.0
        *_, u = build_counterexample_maps(k, p)
        want = 0.25 * ((2 * k ** (-1 / (2 * p)) + 1) * unit(k, 0, 0)
                       + k ** (-1 / p) * np.eye(k))
        assert np.allclose(apply(u, unit(k, 0, 0)), want, atol=1e-15)


class TestAmplify:
    def test_identity(self, rng):
        y = VecElem(random_complex(rng, 2, 3, 3))
        assert np.allclose(amplify_apply(identity_map(3), y).coords,
                           y.coords)

    def test_diagonal_projection_image(self):
        k = 4
        _, _, u3, _, _ = build_counterexample_maps(k, 3.0)
        img = amplify_apply(u3, witness(k))
        want = np.zeros((k, k, k), dtype=complex)
        want[0, 0, 0] = 1.0
        assert np.allclose(img.coords, want)

    def test_scaled_shift_image(self):
        k, p = 4, 3.0
        u1, *_ = build_counterexample_maps(k, p)
        img = amplify_apply(u1, witness(k))
        want = np.zeros((k, k, k), dtype=complex)
        for i in range(k):
            want[i, i, i] = k ** (-1 / (2 * p))
        assert np.allclose(img.coords, want)

    def test_size_mismatch(self, rng):
        with pytest.raises(InvalidInputError):
            amplify_apply(identity_map(2), VecElem(random_complex(rng, 2, 3, 3)))


class TestContractionRatio:
    def test_identity_is_one(self):
        assert sampled_contraction_ratio(identity_map(3), 3.0, 50) == \
            pytest.approx(1.0, abs=1e-12)

    def test_homogeneity(self):
        s = np.sqrt(2.0) * np.eye(3)
        doubled = KrausMap.from_terms([(s, s)])
        assert sampled_contraction_ratio(doubled, 3.0, 50) == \
            pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("which", [2, 3])
    def test_corner_maps_attain_one(self, which):
        k, p = 4, 3.0
        maps = build_counterexample_maps(k, p)
        ratio = sampled_contraction_ratio(maps[which], p, 200,
                                          probes=[unit(k, 0, 0)])
        assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_average_map_contraction(self):
        k, p = 4, 3.0
        *_, u = build_counterexample_maps(k, p)
        assert sampled_contraction_ratio(u, p, 500) <= 1.0 + 1e-9

    def test_trials_validated(self):
        with pytest.raises(InvalidInputError):
            sampled_contraction_ratio(identity_map(2), 3.0, 0)

    def test_rejects_p_inf(self):
        with pytest.raises(InvalidInputError):
            sampled_contraction_ratio(identity_map(2), math.inf, 1,
                                      probes=[np.eye(2)])

