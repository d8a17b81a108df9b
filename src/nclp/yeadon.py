"""Isometries between matrix p-classes in structured form T(a) = W B J(a).

``J`` is a finite block-diagonal direct sum of copies of the identity
representation (``a``) and the transpose anti-representation (``a^T``), the
general shape of a one-to-one normal Jordan homomorphism between matrix
algebras up to unitary equivalence.  ``B`` is the positive block-diagonal
weight matrix, ``W`` a unitary on the target.  With trace compatibility
``sum s_r^p + sum t_r^p = 1`` the map is a p-norm isometry.

``jordan_split`` separates the representation and anti-representation parts
``T = T1 + T2`` (right multiplication by the central block masks), and the
report helpers verify the tensor-contraction behavior of the two parts and
the factor-4 bound satisfied by any composition of adjoint isometry pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import cpmaps
from .cpmaps import KrausMap
from .errors import InvalidInputError, InvalidSpecError
from .schatten import as_matrix, check_exponent, conjugate, lp_norm
from .vecnorm import (DEFAULT_OPTS, Side, VecElem, alpha_certify, alpha_upper,
                      beta_certify, random_element)

WEIGHT_SUM_TOL = 1e-12
#: the bound on ``|u (x) I|`` from the row norm into the p-sum norm that a
#: rigid factorization of a contraction ``u`` would give
RIGID_FACTOR = 4.0


@dataclass
class YeadonSpec:
    """Block data for T(a) = W B J(a) on an n x n source algebra.

    ``rep_weights`` and ``antirep_weights`` are the positive block weights for
    identity-representation and transpose-anti-representation blocks; the
    target size is n times the number of blocks.  ``w`` is an optional
    unitary on the target (the support of B is everything, so a partial
    isometry with full initial support is unitary); None means identity.
    """

    n: int
    rep_weights: tuple = ()
    antirep_weights: tuple = ()
    w: np.ndarray | None = None

    @property
    def num_blocks(self) -> int:
        return len(self.rep_weights) + len(self.antirep_weights)

    @property
    def target_size(self) -> int:
        return self.n * self.num_blocks

    def block_types(self):
        return ["rep"] * len(self.rep_weights) + ["antirep"] * len(self.antirep_weights)

    def weights(self):
        return [float(x) for x in self.rep_weights] + \
            [float(x) for x in self.antirep_weights]


def validate_spec(spec: YeadonSpec, p: float) -> None:
    check_exponent(p)
    if spec.n < 1:
        raise InvalidSpecError("source size must be >= 1")
    if spec.num_blocks == 0:
        raise InvalidSpecError("at least one block is required")
    ws = spec.weights()
    if not all(0.0 < w < math.inf for w in ws):  # also False for NaN
        raise InvalidSpecError("block weights must be finite and strictly positive")
    # sum w^p from the norm, which is finite where a power of a weight overflows
    norm = lp_norm(ws, p)
    total = math.inf if p * math.log(norm) > 700.0 else norm ** p
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise InvalidSpecError(
            f"weight normalization sum w^p = {total!r} differs from 1 "
            f"beyond {WEIGHT_SUM_TOL}; specs are rejected, not renormalized")
    if spec.w is not None:
        w = as_matrix(spec.w)
        m = spec.target_size
        if w.shape != (m, m):
            raise InvalidSpecError(f"W must be {m} x {m}, got {w.shape}")
        if float(np.linalg.norm(w.conj().T @ w - np.eye(m))) > 1e-10 * m:
            raise InvalidSpecError("W^*W must equal the support of B (identity here)")


def unit_weights(raw, p: float) -> np.ndarray:
    """Positive weights scaled to sum of p-th powers 1.

    The first scaling divides by the l^p norm; the second repairs its
    residual rounding so that validation at ``WEIGHT_SUM_TOL`` passes.
    """
    w = np.asarray(raw, dtype=float)
    w = w / lp_norm(w, p)
    return w / lp_norm(w, p)


def random_valid_weights(n_rep: int, n_anti: int, p: float,
                         rng: np.random.Generator):
    """Strictly positive weights with sum of p-th powers exactly 1."""
    w = unit_weights(rng.uniform(0.2, 1.0, size=n_rep + n_anti), p)
    return tuple(w[:n_rep]), tuple(w[n_rep:])


@dataclass
class BlockIsometry:
    """Callable form of T(a) = W B J(a), optionally masked to one block type."""

    spec: YeadonSpec
    p: float
    mask: str | None = None  # None, "rep", "antirep"
    _w: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        validate_spec(self.spec, self.p)
        if self.spec.w is not None:
            self._w = as_matrix(self.spec.w)

    @property
    def source_size(self) -> int:
        return self.spec.n

    @property
    def target_size(self) -> int:
        return self.spec.target_size

    def _blocks(self, a: np.ndarray):
        for btype, weight in zip(self.spec.block_types(), self.spec.weights()):
            live = self.mask is None or self.mask == btype
            if not live:
                yield np.zeros_like(a)
            elif btype == "rep":
                yield weight * a
            else:
                yield weight * a.T

    def __call__(self, a) -> np.ndarray:
        a = as_matrix(a)
        n = self.spec.n
        if a.shape != (n, n):
            raise InvalidInputError(f"expected {n} x {n} argument, got {a.shape}")
        m = self.target_size
        out = np.zeros((m, m), dtype=np.complex128)
        for idx, blk in enumerate(self._blocks(a)):
            out[idx * n:(idx + 1) * n, idx * n:(idx + 1) * n] = blk
        if self._w is not None:
            out = self._w @ out
        return out

    def amplify(self, y: VecElem) -> VecElem:
        return VecElem(np.stack([self(coord) for coord in y.coords]))


def build_isometry(spec: YeadonSpec, p: float) -> BlockIsometry:
    """Validated isometry T with ||T(a)||_p = ||a||_p."""
    return BlockIsometry(spec=spec, p=p)


def jordan_split(spec: YeadonSpec, p: float):
    """(T1, T2): representation and anti-representation parts, T = T1 + T2."""
    t1 = BlockIsometry(spec=spec, p=p, mask="rep")
    t2 = BlockIsometry(spec=spec, p=p, mask="antirep")
    return t1, t2


@dataclass
class ReportRow:
    sample: int
    image_lower: float
    input_upper: float
    slack: float
    ok: bool


@dataclass
class BoundReport:
    """Rows of ``lower(image) <= factor * upper(input, ELL_ROW) + 1e-9``."""

    p: float
    rows: list
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations


def _bound_report(elements, p: float, factor: float, image_lower,
                  opts: int) -> BoundReport:
    """One row per element ``y``: ``image_lower(y)`` against ``factor`` times
    the certified row upper bound of ``y``; a negative slack is a violation."""
    rows = []
    for idx, y in enumerate(elements):
        upper_in, _ = alpha_upper(y, p, Side.ELL_ROW, opts)
        lower = image_lower(y)
        slack = factor * upper_in + 1e-9 - lower
        rows.append(ReportRow(idx, lower, upper_in, slack, slack >= 0.0))
    return BoundReport(p=p, rows=rows,
                       violations=[row.sample for row in rows if not row.ok])


def tensor_contraction_report(t_part: BlockIsometry, which: str, p: float,
                              samples: int, seed: int = 0, n_hilbert: int = 3,
                              opts: int = DEFAULT_OPTS) -> BoundReport:
    """Check image/input certificate ordering for one split part.

    The representation part is contractive from row-valued to row-valued
    elements, the anti-representation part lands in the column-valued norm;
    each sampled element must satisfy
    ``lower(image, image_side) <= upper(input, ELL_ROW) + 1e-9``.
    """
    if which not in ("rep", "antirep"):
        raise InvalidInputError("which must be 'rep' or 'antirep'")
    image_side = Side.ELL_ROW if which == "rep" else Side.R_COL
    rng = np.random.default_rng(seed)
    elements = [random_element(t_part.source_size, n_hilbert, rng)
                for _ in range(samples)]
    return _bound_report(
        elements, p, 1.0,
        lambda y: alpha_certify(t_part.amplify(y), p, image_side, opts).lower,
        opts)


def _superop_matrices(t_iso: BlockIsometry, s_iso: BlockIsometry):
    """Composite S^* T split into two-sided and transpose-type parts.

    Returns (kraus_terms, transpose_norm): the (a_i, b_i) pairs of the
    two-sided part and the Frobenius norm of the transpose-type remainder.
    tr(u(x) c) = tr(T(x) S(c)) expands over block pairs (i, j) into
    H x G / H x^T G style terms with G = V_i^* W_S V_j and H = V_j^* W_T V_i.
    """
    n = t_iso.source_size
    types_t = t_iso.spec.block_types()
    types_s = s_iso.spec.block_types()
    weights_t = t_iso.spec.weights()
    weights_s = s_iso.spec.weights()
    m = t_iso.target_size
    wt = t_iso._w if t_iso._w is not None else np.eye(m, dtype=np.complex128)
    ws = s_iso._w if s_iso._w is not None else np.eye(m, dtype=np.complex128)

    terms = []
    tnorm = 0.0
    for i in range(len(types_t)):
        for j in range(len(types_s)):
            g = ws[i * n:(i + 1) * n, j * n:(j + 1) * n]
            h = wt[j * n:(j + 1) * n, i * n:(i + 1) * n]
            coef = weights_t[i] * weights_s[j]
            norm_g, norm_h = float(np.linalg.norm(g)), float(np.linalg.norm(h))
            if norm_g * norm_h == 0.0:
                continue
            ti, sj = types_t[i], types_s[j]
            if ti == "rep" and sj == "rep":
                # x -> coef * H x G
                terms.append((coef * h.conj().T, g))
            elif ti == "antirep" and sj == "antirep":
                # x -> coef * G^T x H^T
                terms.append((coef * g.conj(), h.T))
            else:
                # x -> coef * H x^T G or coef * G^T x^T H^T: transpose-type
                tnorm += abs(coef) * norm_h * norm_g
    return terms, tnorm


def rigid_compose(t_spec: YeadonSpec, s_spec: YeadonSpec, p: float) -> KrausMap:
    """Composite u = S^* T of an isometry pair (T at p, S at p').

    Requires equal source and target sizes.  Cross terms between
    representation and anti-representation blocks act by transposition and
    cannot be written in two-sided coefficient form; such combinations are
    rejected.
    """
    p = check_exponent(p)
    t_iso = build_isometry(t_spec, p)
    s_iso = build_isometry(s_spec, conjugate(p))
    if t_iso.source_size != s_iso.source_size:
        raise InvalidInputError("source sizes differ")
    if t_iso.target_size != s_iso.target_size:
        raise InvalidInputError("target sizes differ")
    terms, tnorm = _superop_matrices(t_iso, s_iso)
    if tnorm > 1e-12:
        raise InvalidInputError(
            "composite has transpose-type components (mixed block types); "
            "it is not expressible as x -> sum a_i^* x b_i")
    if not terms:
        raise InvalidInputError("composite is zero; no usable terms")
    return KrausMap.from_terms(terms)


def rigid_bound_report(u: KrausMap, p: float, samples: int, seed: int = 0,
                       n_hilbert: int = 3,
                       opts: int = DEFAULT_OPTS) -> BoundReport:
    """Necessary condition for a rigid factorization: the factor-4 bound.

    For each of ``samples`` random elements y, the certified p-sum lower
    bound of ``(u (x) I) y`` must stay below ``RIGID_FACTOR`` = 4 times the
    certified row upper bound of y, plus 1e-9; a violation certifies that no
    rigid factorization of u exists.
    """
    rng = np.random.default_rng(seed)
    elements = [random_element(u.k, n_hilbert, rng) for _ in range(samples)]
    # cpmaps.amplify_apply is looked up per call, where a tracer may wrap it
    return _bound_report(
        elements, p, RIGID_FACTOR,
        lambda y: beta_certify(cpmaps.amplify_apply(u, y), p, opts).lower, opts)
