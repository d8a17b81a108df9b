"""Core Schatten-class machinery on dense complex matrices.

All matrices are plain ``numpy.ndarray`` objects with ``complex128`` entries;
real inputs are promoted on the way in.  The trace is the non-normalized
matrix trace, so ``schatten_norm(I_k, p) == k**(1/p)``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError

#: Relative eigenvalue threshold below which directions count as kernel.
DEFAULT_RANK_TOL = 1e-10

#: Hermitian inputs may deviate from their adjoint by this much (relative);
#: anything beyond is an error, anything below is silently symmetrized.
HERMITIAN_ATOL = 1e-8


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-D complex matrix and validate its entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise InvalidInputError("matrix entries must be finite")
    return m


def check_exponent(p: float, allow_inf: bool = False) -> float:
    """Validate a norm exponent ``p > 1`` (``inf`` optional)."""
    p = float(p)
    if math.isinf(p):
        if allow_inf:
            return p
        raise InvalidInputError("exponent p = inf not allowed here")
    if math.isnan(p) or p <= 1.0:
        raise InvalidInputError(f"exponent must satisfy p > 1, got {p}")
    return p


def conjugate(p: float) -> float:
    """Conjugate exponent p/(p-1); restricted to p in (1, inf)."""
    p = check_exponent(p, allow_inf=False)
    return p / (p - 1.0)


def schatten_norm(a, p: float) -> float:
    """Schatten p-norm: the l^p norm of the singular values.

    ``p = inf`` gives the operator (largest-singular-value) norm.  Any
    ``p >= 1`` is accepted since the norm itself needs no duality.
    """
    m = as_matrix(a)
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise InvalidInputError(f"schatten_norm needs p >= 1, got {p}")
    sv = np.linalg.svd(m, compute_uv=False)
    if math.isinf(p):
        return float(sv[0]) if sv.size else 0.0
    return lp_norm(sv, p)


def lp_norm(a: np.ndarray, p: float) -> float:
    """l^p norm of a nonnegative array, ``top * (sum (a/top)^p)^{1/p}``.

    Scaling out the largest entry ``top`` keeps the powers well conditioned.
    """
    top = float(a.max()) if a.size else 0.0
    if top == 0.0:
        return 0.0
    return top * float(np.sum((a / top) ** p)) ** (1.0 / p)


#: largest binary exponent taken in one division; 2^±1000 and its
#: reciprocal are normal floats, so each division is exact on normal entries
_POW2_STEP = 1000


def pow2_normalize(a):
    """``(a / 2^e, e)`` with ``e`` the binary exponent of ``max |a|``.

    The entries of the result have modulus below 1 with the largest at least
    1/2.  Dividing by a power of two is exact, except for parts more than
    2^1021 below the largest, which may round to subnormals.  Unlike
    ``a / 2.0 ** e`` it works over the whole float64 range: ``2^e`` need not
    be representable, subnormal entries are moved up without loss, and a
    modulus that overflows although both parts are finite is handled.
    Within ``|e| <= 1000`` it is that one division, bit for bit.  A zero
    array gives ``e = 0``.
    """
    a = np.asarray(a, dtype=np.complex128)
    e = 0
    top = float(np.max(np.abs(a))) if a.size else 0.0
    if math.isinf(top):  # finite parts whose modulus overflows
        a, e = a / 4.0, 2
        top = float(np.max(np.abs(a)))
    if top == 0.0:
        return a, e
    shift = math.frexp(top)[1]
    head = max(-_POW2_STEP, min(_POW2_STEP, shift))
    a = a / 2.0 ** head  # also at head = 0, as the one division would be
    if shift != head:
        a = a / 2.0 ** (shift - head)
    return a, e + shift


def pow2_restore(value: float, e: int) -> float:
    """``value * 2^e`` for a value computed from ``pow2_normalize`` output.

    Raises ``InvalidInputError`` when the result is not a finite float64, so
    a norm too large to represent never comes back as ``inf``.
    """
    try:
        out = math.ldexp(value, e)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise InvalidInputError("the norm exceeds the float64 range")
    return out


def trace_pairing(a, c) -> complex:
    """Trace pairing tr(a c) for a (k x m) against c (m x k)."""
    a = as_matrix(a)
    c = as_matrix(c)
    if a.shape[1] != c.shape[0] or a.shape[0] != c.shape[1]:
        raise InvalidInputError(f"shape mismatch in pairing: {a.shape} vs {c.shape}")
    return complex(np.einsum("ij,ji->", a, c))


def psd_power(b, power: float) -> np.ndarray:
    """Spectral power of a PSD matrix, restricted to its support.

    Symmetrizes ``(b + b^*)/2`` first; asymmetry beyond ``HERMITIAN_ATOL``
    relative to the matrix scale is an error.  Negative powers invert only
    eigenvalues above the relative threshold, which makes
    ``psd_power(b, -1.0)`` the pseudo-inverse.
    """
    b = as_matrix(b)
    if b.shape[0] != b.shape[1]:
        raise InvalidInputError(f"psd_power input must be square, got {b.shape}")
    scale = max(1.0, float(np.linalg.norm(b)))
    asym = float(np.linalg.norm(b - b.conj().T))
    if asym > HERMITIAN_ATOL * scale:
        raise InvalidInputError(f"psd_power input is not Hermitian (asymmetry "
                                f"{asym:.3e} of scale {scale:.3e})")
    vals, vecs = np.linalg.eigh(0.5 * (b + b.conj().T))
    lam_max = float(vals[-1]) if vals.size else 0.0
    out = np.zeros(vals.shape)
    if lam_max > 0.0:
        keep = vals >= DEFAULT_RANK_TOL * lam_max
        out[keep] = np.clip(vals[keep], 0.0, None) ** power
    return (vecs * out) @ vecs.conj().T


def dual_witness(a, p: float) -> np.ndarray:
    """Norm-attaining dual element: tr(a c) / ||c||_{p'} == ||a||_p.

    Built from the SVD ``a = U S V^*`` as ``c = V S^{p-1} U^*`` (top singular
    pair only when ``p = inf``).
    """
    m = as_matrix(a)
    p = float(p)
    u, sv, vh = np.linalg.svd(m, full_matrices=False)
    if sv.size == 0 or sv[0] == 0.0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=np.complex128)
    if math.isinf(p):
        return np.outer(vh[0].conj(), u[:, 0].conj())
    scaled = np.where(sv >= DEFAULT_RANK_TOL * sv[0], (sv / sv[0]) ** (p - 1.0), 0.0)
    return (vh.conj().T * scaled) @ u.conj().T
