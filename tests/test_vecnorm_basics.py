import math

import numpy as np
import pytest

from nclp import gaugeopt, vecnorm
from nclp.errors import InvalidInputError
from nclp.schatten import dual_witness, pow2_normalize
from nclp.vecnorm import (VecElem, diagonal_closed_form, opposite_transform,
                          pairing, project_diagonal, random_element)

from conftest import random_complex


def unit(k, i, j):
    m = np.zeros((k, k), dtype=np.complex128)
    m[i, j] = 1.0
    return m


def witness(k):
    return VecElem(np.stack([unit(k, n, 0) for n in range(k)]))


class TestVecElem:
    def test_shape_validation(self):
        with pytest.raises(InvalidInputError):
            VecElem(np.zeros((2, 2, 3)))
        with pytest.raises(InvalidInputError):
            VecElem(np.full((1, 2, 2), np.inf))

    def test_diagonal_layout(self):
        y = VecElem.diagonal([2.0, 3.0])
        assert y.coords[0][0, 0] == 2.0
        assert y.coords[1][1, 1] == 3.0
        assert gaugeopt._diagonal_coordinates(y.coords)
        assert np.array_equal(project_diagonal(y).coords, y.coords)

    def test_arithmetic(self, rng):
        a = VecElem(random_complex(rng, 2, 3, 3))
        b = VecElem(random_complex(rng, 2, 3, 3))
        assert np.allclose((a + b).coords, a.coords + b.coords)
        assert np.allclose((a - b).coords, a.coords - b.coords)
        assert np.allclose(a.scaled(2.5).coords, 2.5 * a.coords)


class TestPairing:
    def test_witness_against_transposed_units(self):
        k = 4
        y2 = VecElem(np.stack([unit(k, 0, n) for n in range(k)]))
        assert pairing(witness(k), y2) == pytest.approx(k)

    def test_zero(self):
        y = witness(3)
        assert pairing(y, VecElem.zeros(3, 3)) == 0

    def test_coordinatewise_oracle(self, rng):
        y = VecElem(random_complex(rng, 3, 2, 2))
        y2 = VecElem(random_complex(rng, 3, 2, 2))
        want = sum(np.trace(y.coords[n] @ y2.coords[n]) for n in range(3))
        assert pairing(y, y2) == pytest.approx(want, abs=1e-13)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            pairing(witness(2), witness(3))


class TestProjectDiagonal:
    def test_idempotent_on_range(self, rng):
        y = VecElem.diagonal(random_complex(rng, 3))
        assert np.allclose(project_diagonal(y).coords, y.coords)

    def test_kills_off_diagonal_basis(self):
        y = VecElem.zeros(3, 3)  # e_1 (x) e_2 (x) e_1
        y.coords[1, 0, 0] = 1.0
        assert not np.any(project_diagonal(y).coords)

    def test_witness_projects_to_first_diagonal(self):
        k = 4
        got = project_diagonal(witness(k))
        want = np.zeros((k, k, k), dtype=complex)
        want[0, 0, 0] = 1.0
        assert np.allclose(got.coords, want)

    def test_idempotent(self, rng):
        y = VecElem(random_complex(rng, 3, 3, 3))
        once = project_diagonal(y)
        assert np.allclose(project_diagonal(once).coords, once.coords)

    def test_requires_square(self):
        with pytest.raises(InvalidInputError):
            project_diagonal(VecElem.zeros(2, 3))


class TestDiagonalClosedForm:
    def test_unit_vector(self):
        assert diagonal_closed_form([1.0, 0.0, 0.0], 2.5) == pytest.approx(1.0)

    @pytest.mark.parametrize("k", [1, 3, 6])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_all_ones(self, k, p):
        assert diagonal_closed_form([1.0] * k, p) == pytest.approx(
            k ** (1.0 / p), rel=1e-14)

    def test_scalar_arithmetic(self, rng):
        lams = random_complex(rng, 5)
        p = 2.7
        want = float(np.sum(np.abs(lams) ** p)) ** (1 / p)
        assert diagonal_closed_form(lams, p) == pytest.approx(want, rel=1e-13)


class TestOppositeTransform:
    def test_symmetric_fixed_point(self, rng):
        g = random_complex(rng, 2, 3, 3)
        sym = VecElem(g + np.transpose(g, (0, 2, 1)))
        assert np.allclose(opposite_transform(sym).coords, sym.coords)

    def test_matrix_units(self):
        k = 3
        got = opposite_transform(witness(k))
        want = np.stack([unit(k, 0, n) for n in range(k)])
        assert np.allclose(got.coords, want)

    def test_involution(self, rng):
        y = VecElem(random_complex(rng, 2, 3, 3))
        assert np.allclose(opposite_transform(opposite_transform(y)).coords,
                           y.coords)


class TestAutoDualPool:
    """The dual candidates of ``beta_certify`` for an element at unit scale
    (``_pairing_lower`` divides it by a power of two once): the
    Schatten-duality and adjoint patterns, the direction of
    ``_diagonal_beta``'s matched dual witness on the diagonals of every
    coordinate, for any N, and the subgradient pattern when the one-sided
    factor ``s`` is given."""

    @staticmethod
    def element(rng, k=3, n=3):
        y = random_element(k, n, rng)
        y.coords[0] = np.outer(random_complex(rng, k), random_complex(rng, k))
        return VecElem(pow2_normalize(y.coords)[0])

    @pytest.mark.parametrize("p", [1.3, 2.0, 3.0])
    def test_unit_candidates_led_by_the_schatten_pattern(self, rng, p):
        y = self.element(rng)
        pool = vecnorm._auto_dual_pool(y, p, None)
        assert len(pool) == 3
        for cand in pool:
            assert np.linalg.norm(cand.coords) == pytest.approx(1.0, abs=1e-14)
        power = np.stack([dual_witness(c, p) for c in y.coords])
        assert np.allclose(pool[0].coords, power / np.linalg.norm(power),
                           rtol=0.0, atol=1e-12)
        adj = np.transpose(y.coords, (0, 2, 1)).conj()
        assert np.allclose(pool[1].coords, adj / np.linalg.norm(adj),
                           rtol=0.0, atol=1e-14)
        for cand in pool:
            z = pairing(y, cand)
            assert z.real > 0.0 and abs(z.imag) <= 1e-12 * z.real
        assert gaugeopt._diagonal_coordinates(pool[2].coords)

    @pytest.mark.parametrize("p", [1.3, 2.0, 3.0])
    @pytest.mark.parametrize("k, n", [(3, 3), (2, 5), (4, 1)])
    def test_diagonal_candidate_is_the_matched_witness(self, rng, p, k, n):
        y = self.element(rng, k, n)
        diagonal_part = VecElem(y.coords * np.eye(k))
        want = vecnorm._diagonal_beta(diagonal_part, p).dual_witness.coords
        got = vecnorm._auto_dual_pool(y, p, None)[2].coords
        assert np.array_equal(got, want / np.linalg.norm(want))
        # the diagonal pairing sees only the diagonal part of y
        assert pairing(y, VecElem(got)) == pytest.approx(
            pairing(diagonal_part, VecElem(got)), rel=1e-13)

    def test_no_diagonal_candidate_without_diagonals(self):
        y = witness(3)
        y.coords[:, 0, 0] = 0.0  # e_i (x) e_i (x) e_1 off the diagonals
        assert len(vecnorm._auto_dual_pool(y, 3.0, None)) == 2

    def test_subgradient_candidate_from_the_factor(self, rng):
        y = self.element(rng)
        s = vecnorm.alpha_upper(y, 3.0)[1].s
        pool = vecnorm._auto_dual_pool(y, 3.0, None)
        with_s = vecnorm._auto_dual_pool(y, 3.0, s)
        assert len(with_s) == 4
        assert [c.coords.tobytes() for c in with_s[:3]] == \
            [c.coords.tobytes() for c in pool]
        assert np.linalg.norm(with_s[3].coords) == pytest.approx(1.0, abs=1e-14)
