"""Linear maps on the k x k Schatten class in two-sided coefficient form.

A :class:`KrausMap` acts as ``x -> sum_i a_i^* x b_i``.  Complete
positivity is equivalent, in finite dimension, to positivity of the Choi
matrix ``C = sum_t conj(vec a_t) vec(b_t)^T`` (row-major vectorization).
When the two stacks are equal, ``C = V^H V`` for the (terms x k^2) matrix
``V`` whose rows are ``vec(a_t)``: a Gram matrix, positive semidefinite by
construction.  Such a map is certified completely positive with no
eigensolve (an O(m k^2) equality test), and with m < k^2 terms ``C`` has
rank below k^2, so its least eigenvalue is exactly 0.  Only unequal stacks,
and the least eigenvalue of equal stacks with m >= k^2 terms, pay the
O(k^6) ``eigvalsh`` of the k^2 x k^2 Choi matrix.

The module also builds the concrete family of maps behind the dilation
counterexample: the scaled shift ``u1``, its pairing adjoint ``u2``, the
diagonal projection ``u3``, the corner-to-identity rank-one map ``u4``, and
their completely positive average ``u``.

Maps are applied on the argument's column support ``J``, the columns where
some coordinate of ``x`` is nonzero, in two matrix products per coordinate
with no loop over the m terms.  The first multiplies the (m k x k) stack of
every ``a_t^*`` by ``x[:, J]``; the second multiplies the result, regrouped
to k x (m |J|), by the (m |J| x k) stack of every ``b_t[J, :]``, so the sum
over the terms runs inside the inner dimension of that product.  Applying
an m-term map to n stacked k x k coordinates costs O(n m k^2 |J|) time, and
its intermediate holds n m k |J| entries; on the counterexample's witness
(|J| = 1, m = k terms, n = k coordinates) that is the size of the output.
The products are batched per coordinate, never over all n at once, so every
coordinate sees the same matrix shapes for any n: ``amplify_apply`` agrees
bit for bit with ``apply`` on each coordinate.

Rounding.  In the standard model of complex arithmetic (u = eps/2; a
product is off by at most 2 sqrt(2) u of its modulus, a sum by at most u),
an inner product of length d is off by at most (d + 2) u times the sum of
the moduli of its terms, to first order.  The two products have inner
dimensions k and m |J|, and the first one's error reaches the output through
``|b_t|``, so every entry is off from the exact sum by at most
``(k + m |J| + 4) u + O(u^2) <= (k + m |J| + 2) eps`` times the same entry
of ``sum_t |a_t|^T |x| |b_t|``; on random arguments the error stays near
eps times that scale.  The dropped columns of ``a_t^* x`` are exact zeros.
When every product is exact and each output entry has one nonzero product,
as on the counterexample's witness, the result is exact, bit for bit in any
summation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .schatten import as_matrix, check_exponent, eigvalsh, schatten_norm
from .vecnorm import VecElem


@dataclass
class KrausMap:
    """x -> sum_i a_i^* x b_i with coefficient stacks of shape (m, k, k)."""

    k: int
    a: np.ndarray
    b: np.ndarray

    @classmethod
    def from_terms(cls, terms) -> "KrausMap":
        mats_a = []
        mats_b = []
        for a_i, b_i in terms:
            mats_a.append(as_matrix(a_i))
            mats_b.append(as_matrix(b_i))
        if not mats_a:
            raise InvalidInputError("a KrausMap needs at least one term")
        k = mats_a[0].shape[0]
        for m in mats_a + mats_b:
            if m.shape != (k, k):
                raise InvalidInputError("all coefficients must be k x k")
        return cls(k=k, a=np.stack(mats_a), b=np.stack(mats_b))

    def __len__(self) -> int:
        return self.a.shape[0]


def _sandwich(m: KrausMap, x: np.ndarray) -> np.ndarray:
    """sum_t a_t^* @ x @ b_t for x of shape (..., k, k) on the column support
    J of x: per coordinate, the (m k x k) stack of every a_t^* times x[:, J],
    regrouped to k x (m |J|), times the (m |J| x k) stack of every b_t[J, :].

    The intermediate holds n m k |J| entries for n coordinates.  Both
    products are batched per coordinate, so each coordinate's bits do not
    depend on n; the rounding bound is in the module docstring."""
    k, terms = m.k, len(m)
    shape = x.shape
    x = x.reshape(-1, k, k)
    n = x.shape[0]
    cols = np.flatnonzero(np.any(x, axis=(0, 1)))
    b = m.b
    if cols.size < k:
        x = x[..., cols]
        b = b[:, cols, :]
    width = cols.size
    a_star = m.a.conj().transpose(0, 2, 1).reshape(terms * k, k)
    y = (a_star @ x).reshape(n, terms, k, width).transpose(0, 2, 1, 3)
    out = y.reshape(n, k, terms * width) @ b.reshape(terms * width, k)
    return out.reshape(shape)


def apply(m: KrausMap, x) -> np.ndarray:
    x = as_matrix(x)
    if x.shape != (m.k, m.k):
        raise InvalidInputError(f"expected a {m.k} x {m.k} argument, got {x.shape}")
    return _sandwich(m, x)


def choi(m: KrausMap) -> np.ndarray:
    """Block matrix C = sum_{ij} E_ij (x) u(E_ij), assembled as sum of outers.

    With terms (a, b) the blocks collapse to C = sum_t conj(vec a_t) vec(b_t)^T
    in row-major vectorization, so C is Hermitian iff the map is *-preserving.
    """
    va = m.a.reshape(len(m), -1).conj()
    vb = m.b.reshape(len(m), -1)
    return va.T @ vb


def is_completely_positive(m: KrausMap) -> bool:
    """Choi-positivity test at a tolerance of 1e-10 times the Choi scale.

    Equal stacks are completely positive by the Gram argument and need no
    eigensolve.  Otherwise the scale is the spectral norm of the Hermitian
    part of the Choi matrix, whose one ``eigvalsh`` also gives the sign test.
    """
    if np.array_equal(m.a, m.b):
        return True
    c = choi(m)
    lam = eigvalsh(0.5 * (c + c.conj().T))
    scale = float(np.abs(lam).max()) if lam.size else 0.0
    tol = 1e-10 * max(scale, 1.0)
    if float(np.linalg.norm(c - c.conj().T)) > tol:
        return False  # not even *-preserving
    return bool(lam[0] >= -tol)


def choi_min_eigenvalue(m: KrausMap) -> float:
    """Least eigenvalue of the (Hermitian part of the) Choi matrix.

    For equal stacks with fewer than k^2 terms the Gram ``V^H V`` is rank
    deficient, so the value is exactly 0.0 and no eigensolve runs.
    """
    if np.array_equal(m.a, m.b) and len(m) < m.k * m.k:
        return 0.0
    c = choi(m)
    return float(eigvalsh(0.5 * (c + c.conj().T))[0])


def build_counterexample_maps(k: int, p: float):
    """The four corner maps and their completely positive average.

    Coefficients: ``a_i = E_ii`` and ``b_i = k^{-1/(2p)} E_1i``.  Returns
    ``(u1, u2, u3, u4, u)`` where

    * ``u1(x) = sum a_i^* x b_i`` (scaled first-column-to-diagonal shift),
    * ``u2(x) = sum b_i^* x a_i`` (its pairing adjoint),
    * ``u3(x) = sum a_i^* x a_i`` (diagonal projection),
    * ``u4(x) = sum b_i^* x b_i`` (x -> k^{-1/p} x_11 I),
    * ``u = (u1 + u2 + u3 + u4)/4 = (1/4) sum (a_i+b_i)^* x (a_i+b_i)``.
    """
    if k < 1:
        raise InvalidInputError("k must be at least 1")
    check_exponent(p)
    coef = float(k) ** (-1.0 / (2.0 * p))
    a = np.zeros((k, k, k), dtype=np.complex128)
    b = np.zeros((k, k, k), dtype=np.complex128)
    for i in range(k):
        a[i, i, i] = 1.0
        b[i, 0, i] = coef
    u1 = KrausMap(k=k, a=a, b=b)
    u2 = KrausMap(k=k, a=b, b=a)
    u3 = KrausMap(k=k, a=a, b=a)
    u4 = KrausMap(k=k, a=b, b=b)
    avg = 0.5 * (a + b)
    u = KrausMap(k=k, a=avg, b=avg)
    return u1, u2, u3, u4, u


def amplify_apply(m: KrausMap, y: VecElem) -> VecElem:
    """Coordinatewise action of ``m (x) I`` on a vector-valued element."""
    if y.k != m.k:
        raise InvalidInputError(f"size mismatch: map is {m.k}, element is {y.k}")
    return VecElem(_sandwich(m, y.coords))


def sampled_contraction_ratio(m: KrausMap, p: float, trials: int,
                              seed: int = 0, probes=()) -> float:
    """Lower bound on the p -> p operator norm by given (plus random) probes.

    ``trials`` may be 0 when ``probes`` is nonempty; with neither there is
    nothing to sample.
    """
    check_exponent(p)
    mats = [as_matrix(x) for x in probes]
    if trials < 0 or not (trials or mats):
        raise InvalidInputError("need trials >= 1, or trials == 0 with probes")
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        mats.append(rng.standard_normal((m.k, m.k))
                    + 1j * rng.standard_normal((m.k, m.k)))
    best = 0.0
    for x in mats:
        denom = schatten_norm(x, p)
        if denom > 0.0:
            best = max(best, schatten_norm(apply(m, x), p) / denom)
    return best
