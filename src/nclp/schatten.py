"""Core Schatten-class machinery on dense complex matrices.

All matrices are plain ``numpy.ndarray`` objects with ``complex128`` entries;
real inputs are promoted on the way in.  The trace is the non-normalized
matrix trace, so ``schatten_norm(I_k, p) == k**(1/p)``.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

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


def check_exponent(p: float) -> float:
    """Validate a finite norm exponent ``p > 1``."""
    p = float(p)
    if not 1.0 < p < math.inf:  # also False for NaN
        raise InvalidInputError(f"exponent must satisfy 1 < p < inf, got {p}")
    return p


def check_size(*shape: int) -> None:
    """Refuse a complex array of ``shape`` that numpy could not index.

    numpy's own test ("array is too big", with zero dimensions skipped), on
    Python integers and before anything is allocated: an outside size past
    the index range, 2^63 and above included, is invalid input.
    """
    if math.prod(max(d, 1) for d in shape) * 16 > np.iinfo(np.intp).max:
        raise InvalidInputError(f"the sizes are too large: an array of shape {shape}")


def conjugate(p: float) -> float:
    """Conjugate exponent p/(p-1); restricted to p in (1, inf)."""
    p = check_exponent(p)
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
    return lp_norm(np.linalg.svd(m, compute_uv=False), p)


def lp_norm(values, p: float) -> float:
    """``top * (sum (v / top)^p)^{1/p}`` over the positive entries ``v``.

    The one place where powers of a spectrum are summed.  ``values`` is a
    sequence or array of floats, ``top`` its largest entry; entries at or
    below 0 count as 0, so the rounding noise of a PSD spectrum may be passed
    unclipped.  Scaling out ``top`` keeps every power in [0, 1]: entries near
    1e+-300 neither overflow nor lose the sum, and ``lp_norm((a, 0.0), p)``
    is ``a`` exactly.  ``p = inf`` gives ``top``, an empty or zero input 0,
    and any ``p > 0`` is allowed, ``p < 1`` giving the quasi-norm.  The sum
    runs on Python floats: the inputs are short spectra.
    """
    if isinstance(values, np.ndarray):
        values = values.tolist()
    top = max(values, default=0.0)
    if top <= 0.0:
        return 0.0
    if math.isinf(p):
        return top
    return top * sum([(v / top) ** p for v in values if v > 0.0]) ** (1.0 / p)


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


def pow2_restore_outward(value: float, e: int, toward: float) -> float:
    """``pow2_restore(value, e)`` for a bound: moved one ulp toward ``toward``
    (``math.inf`` for an upper bound, ``0.0`` for a lower one) when the
    scaling rounded.  It rounds only where the result is subnormal, so a
    bound in the normal range comes back unchanged.
    """
    out = pow2_restore(value, e)
    return out if math.ldexp(out, -e) == value else math.nextafter(out, toward)


def eigh(h: np.ndarray):
    """``(w, v)``: ascending eigenvalues and eigenvectors of a Hermitian matrix.

    The one route of every Hermitian eigensolve in the package.  ``h`` is a
    complex128 array (float64 takes LAPACK's real loop, as in numpy) of which
    only the lower triangle is read, as by ``np.linalg.eigh`` at its default
    ``UPLO='L'``.  One call to the LAPACK gufunc that ``np.linalg.eigh``
    calls, so the bits are the same, without the wrapper's type and
    ``errstate`` set-up (timed in the ``gaugeopt`` module docstring).  The
    gufunc is looked up at each call, so tests can count its calls.  A 0 x 0
    matrix passes.  NaN eigenvalues raise ``LinAlgError``: a failed solve
    leaves them (numpy's default error state warns of it first), and so
    does a matrix with an infinite entry, on which ``np.linalg.eigh``
    returns them without an error.
    """
    w, v = _umath_linalg.eigh_lo(h)
    if w.size and w[0] != w[0]:  # NaN; np.isnan(w).any() costs 10 times more
        raise LinAlgError("Eigenvalues did not converge")
    return w, v


def eigvalsh(h: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues of a Hermitian matrix, as ``eigh`` gives them."""
    w = _umath_linalg.eigvalsh_lo(h)
    if w.size and w[0] != w[0]:
        raise LinAlgError("Eigenvalues did not converge")
    return w


def psd_spectrum(b):
    """``(vals, vecs, keep)``: the eigendecomposition of a PSD matrix and its support.

    Symmetrizes ``(b + b^*)/2`` first; asymmetry beyond ``HERMITIAN_ATOL``
    relative to the matrix scale is an error.  ``keep`` marks the positive
    eigenvalues at or above ``DEFAULT_RANK_TOL`` times the largest one.
    """
    b = as_matrix(b)
    if b.shape[0] != b.shape[1]:
        raise InvalidInputError(f"psd_power input must be square, got {b.shape}")
    scale = max(1.0, float(np.linalg.norm(b)))
    asym = float(np.linalg.norm(b - b.conj().T))
    if asym > HERMITIAN_ATOL * scale:
        raise InvalidInputError(f"psd_power input is not Hermitian (asymmetry "
                                f"{asym:.3e} of scale {scale:.3e})")
    vals, vecs = eigh(0.5 * (b + b.conj().T))
    cut = DEFAULT_RANK_TOL * float(vals[-1]) if vals.size else 0.0
    return vals, vecs, (vals > 0.0) & (vals >= cut)


def spectral_power(vals, vecs, keep, power: float) -> np.ndarray:
    """``vecs diag(vals^power) vecs^*`` with the eigenvalues off ``keep`` set to 0."""
    out = np.zeros(vals.shape)
    out[keep] = vals[keep] ** power
    return (vecs * out) @ vecs.conj().T


def psd_power(b, power: float) -> np.ndarray:
    """Spectral power of a PSD matrix, restricted to its support.

    The support and the Hermitian check are those of ``psd_spectrum``.
    Negative powers invert only eigenvalues above the relative threshold,
    which makes ``psd_power(b, -1.0)`` the pseudo-inverse.
    """
    return spectral_power(*psd_spectrum(b), power)


def dual_witness(a, p: float) -> np.ndarray:
    """Norm-attaining dual element: tr(a c) / ||c||_{p'} == ||a||_p.

    Built from the SVD ``a = U S V^*`` as ``c = V S^{p-1} U^*``, with ``S``
    scaled to top entry 1: at ``p = inf`` the power keeps only the top
    singular pairs.
    """
    m = as_matrix(a)
    p = float(p)
    u, sv, vh = np.linalg.svd(m, full_matrices=False)
    if sv.size == 0 or sv[0] == 0.0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=np.complex128)
    scaled = np.where(sv >= DEFAULT_RANK_TOL * sv[0], (sv / sv[0]) ** (p - 1.0), 0.0)
    return (vh.conj().T * scaled) @ u.conj().T
