"""Certified norms for row/column-valued elements over a matrix algebra.

An element ``y = sum_n y_n (x) e_n`` with k x k coordinate matrices carries
two factorization norms, selected by :class:`Side`:

* ``ELL_ROW``: factor ``y = c z d`` with the middle factor measured in the
  row norm ``|sum_n z_n z_n^*|_inf^{1/2}``; outer exponents ``(inf, p)`` for
  p >= 2 and ``(q, 2)`` with ``1/q = 1/p - 1/2`` for p < 2.
* ``R_COL``: the mirrored variant with the column norm on the middle factor;
  computed here as ``ELL_ROW`` of the coordinatewise transpose, which is an
  exact identity for these norms.  The transpose is taken once per
  certificate (and once per dual candidate of ``beta_certify`` without
  diagonal coordinates), and the witness records it in ``transposed``.

``alpha_certify`` returns rigorous two-sided bounds: the upper bound is the
value of an explicit feasible factorization found by the gauge solver
(:mod:`nclp.gaugeopt`), the lower bound is the minimax dual of that same
gauge problem at the solver's own dual density ``rho``: one ascent serves
both gauges (p >= 2 and p < 2) and stops once the two bounds meet.
``beta_certify`` treats the p-sum of the two norms (infimum over splittings
``y = y0 + y1``).  Its upper bound is the best split on the scalar line
``y0 = t y``: with ``alpha_upper``'s two values ``a = u_ell`` and ``b =
u_col``, homogeneity gives the split's value ``|(t a, (1 - t) b)|_p`` at
every t with no further solve.  Its derivative vanishes at the minimiser
``t* = b^{p'} / (a^{p'} + b^{p'})`` (``p' = p / (p - 1)``), where the value
is ``(a^{-p'} + b^{-p'})^{-1/p'}``.  The endpoints t = 1 and t = 0 are the
two trivial splits.  Its lower bound is by pairing:
``|<y, c>| / U(c)`` for a pool of dual candidates ``c``, where ``U(c)`` is
the p'-sum of the certified upper bounds on the two dual norms of ``c``,
each a solve, or the closed form when ``c`` has diagonal coordinates
(``certified_dual_upper``).  An element whose coordinates are all diagonal
takes neither route: its p-sum has a closed form (below).

Pool (``_auto_dual_pool``).  Up to four unit directions, in this order: the
coordinatewise Schatten-duality pattern ``V S^{p-1} U^*`` of ``y_n = U S
V^*``, the coordinatewise adjoint ``y_n^*``, the matched diagonal witness of
the closed form below, built on the diagonals ``d_n`` of every coordinate
(``_matched_diagonal_dual``, for any N; it pairs only with the diagonal
part of ``y``, which it matches exactly), and at p >= 2 the subgradient
``s^{(p-2)/2} y_n^* V`` of the one-sided factor ``s`` of the ELL_ROW solve,
``V`` averaging the top eigenspace of ``M(s)``.  A pattern that vanishes
(no diagonal, say) is left out.  On near-diagonal elements the diagonal
witness usually wins.

Rounding.  The split's value at ``t*`` is rounded up by ``_SPLIT_SLACK``:
``t* a`` and ``(1 - t*) b`` carry ``2u`` (``u = eps / 2``), and ``lp_norm``
of two terms at most ``4u + (3 + ln 2) u / p`` by the count of
``gaugeopt``'s module docstring, below the ``11u`` that ``1 + 6 eps`` leaves
after its own rounding; the endpoints are the certified values themselves.
The winning quotient ``|<y, c>| / U(c)`` is rounded down by
``_QUOTIENT_SLACK`` = 4 eps, which covers the modulus (one ulp), the
division and the product (``u`` each) and the rounding of a pairing that is
one complex product (``sqrt(5) u``).  The rounding of a longer pairing sum
is not charged.

Diagonal coordinates (k = 1 included).  Write ``d_n`` for the diagonal of
``y_n`` and ``c_i = sum_n |(d_n)_i|^2``.  The p-sum is exactly ``2^{1/p -
1} |c^{1/2}|_p``, and ``beta_certify`` returns it with no eigensolve, SVD,
gauge solve or ``certified_dual_upper`` call (``_diagonal_beta``).
Above: both norms of ``y`` are ``|c^{1/2}|_p`` (the closed form of
``gaugeopt``; the transpose of diagonal coordinates is themselves), so the
split ``y0 = y / 2``, the line split at ``t* = 1/2``, has the value
``|(1/2, 1/2)|_p |c^{1/2}|_p = 2^{1/p - 1} |c^{1/2}|_p``.  Below: for any
split ``y = y0 + y1`` and any ``c'``, Hoelder on each side and then on the
pair of sides gives ``|<y, c'>| <= |(|y0|_R, |y1|_C)|_p |(D_R(c'),
D_C(c'))|_{p'}`` with the two dual norms ``D`` of ``c'``, which is the
argument behind every pairing ratio here.  Take the matched ``c'_n =
diag(conj(d_n) c^{p/2 - 1})``, zero where ``c_i = 0``.  Then ``<y, c'> =
sum_i c_i c_i^{p/2 - 1} = sum_i c_i^{p/2}``.  ``c'`` has diagonal
coordinates with weights ``c_i^{p - 1}``, so both its dual norms are
``(sum_i c_i^{(p - 1) p' / 2})^{1/p'} = (sum_i c_i^{p/2})^{1/p'}``, and the
ratio is ``2^{-1/p'} (sum_i c_i^{p/2})^{1/p} = 2^{1/p - 1} |c^{1/2}|_p``:
the two bounds meet.  The same ``c'``, formed from the diagonals of any
element, is the pool's diagonal candidate: it pairs only with the diagonal
part, so its ratio is, up to rounding, ``2^{1/p - 1} |c^{1/2}|_p``, the
p-sum of that part, which by the Hoelder argument above bounds the p-sum of
the whole element from below.  Both bounds are computed from one ``x =
lp_norm(sqrt(c), p)``, within ``(N/2 + 2k + 6) u`` of ``|c^{1/2}|_p`` (the
count of ``gaugeopt``'s module docstring), which ``S =
gaugeopt._diagonal_slack`` = ``(ceil(N/2) + k + 8) eps`` covers.  The upper
bound is the line split's value ``lp_norm((h, h), p)`` at each side's ``h =
x (1 + S) / 2`` (a half of ``gaugeopt._diagonal_value``), rounded up by
``_SPLIT_SLACK`` as above.
The lower bound is ``x (2^{1/p} / 2) (1 - S - _HALF_POWER_SLACK)``:
``2^{1/p}`` is within ``(2 + ln 2) u`` (the rounding of ``1/p`` moves it by
``u ln(2) / p``, the power by one ulp), halving is exact and the product
adds ``u``, so the value before the last product is within ``(N/2 + 2k +
10) u`` of ``2^{1/p - 1} |c^{1/2}|_p``; ``1 - S - 2 eps`` is exact and takes
off ``(2 ceil(N/2) + 2k + 20) u``, which leaves ``(N + 2k + 19) u`` after
the rounding of that product.  The witnesses are ``y0 = y / 2``, both sides
valued ``h``, and ``c'`` times ``c_max^{1 - p/2}`` (so that no power
overflows: every entry is at most ``c_max^{1/2}``), whose
``dual_norm_bound`` is the p'-sum of its two ``gaugeopt.diagonal_upper``
values.  Scaling back by ``2^e`` is exact unless a bound is subnormal;
there ``schatten.pow2_restore_outward`` moves it one ulp outward, past the
half ulp of rounding.  Both bounds are exact up to rounding, and without the
outward rounding most k = n = 1 brackets came out inverted by an ulp or two.

Pruning.  Each candidate also gets a floor ``L(c)``, the p'-sum of the
minimax lower bounds of its two dual norms at a density in closed form
(``_dual_floor``, no solve).  Since ``L(c) <= true p'-sum <= U(c)``, the
potential ``|<y, c>| / L(c)`` bounds the candidate's ratio from above.  The
candidates are solved by decreasing potential, and a candidate whose
potential is below the best ratio so far (less a relative ``1e-9`` for
rounding) cannot win and is not solved.  The winner is the largest ratio,
and among equal ratios the candidate first in pool order, exactly as if all
had been solved, so the lower bound, the dual witness and its bound are the
same bits.  A floor that came out too high could only drop a candidate that
would have won, giving a lower (still sound) bound; it can never make a
bracket unsound.  A candidate with diagonal coordinates is its own
transpose and is always valued: its potential is ``inf``, and its one dual
bound, a closed form (``gaugeopt.diagonal_upper``) cheaper than a floor,
serves both sides.  Every other candidate and its transpose are valued once
each.

Scale.  The certificates divide the element by an exact power of two near
its largest entry first (``schatten.pow2_normalize``) and scale back at the
end, one ulp outward where that step rounds, which it does only for a
subnormal bound (``schatten.pow2_restore_outward``).  The line split is
valued at unit scale too, and the dual route divides once, for its pool
and every pairing (``_pairing_lower``).  So entries anywhere in the float64
range work, subnormal ones included; a bound whose value exceeds that range
raises ``InvalidInputError`` instead of coming back as ``inf``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import gaugeopt
from .errors import InvalidInputError
from .schatten import (check_exponent, conjugate, dual_witness, eigh, lp_norm,
                       pow2_normalize, pow2_restore_outward, psd_power)


class Side(enum.Enum):
    """Which factorization norm to use for the Hilbertian leg."""

    ELL_ROW = "ell_row"
    R_COL = "r_col"


class VecElem:
    """A length-N vector of k x k complex matrices, y = sum_n y_n (x) e_n.

    Under the tensor identification e_i (x) e_j (x) e_m <-> E_im (x) e_j the
    coordinate with index j holds the matrix acting on the outer two legs.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        arr = np.asarray(coords, dtype=np.complex128)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise InvalidInputError(
                f"VecElem needs an (N, k, k) stack of square matrices, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise InvalidInputError("VecElem entries must be finite")
        # one memory layout, so equal values take equal rounding paths
        self.coords = np.ascontiguousarray(arr)

    @property
    def k(self) -> int:
        return self.coords.shape[1]

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @classmethod
    def zeros(cls, k: int, n: int) -> "VecElem":
        return cls(np.zeros((n, k, k), dtype=np.complex128))

    @classmethod
    def diagonal(cls, lams) -> "VecElem":
        """The element sum_i lam_i e_i (x) e_i (x) e_i (coordinate i = lam_i E_ii)."""
        lams = np.asarray(lams, dtype=np.complex128).ravel()
        k = lams.size
        coords = np.zeros((k, k, k), dtype=np.complex128)
        for i, lam in enumerate(lams):
            coords[i, i, i] = lam
        return cls(coords)

    def scaled(self, t) -> "VecElem":
        return VecElem(self.coords * t)

    def __add__(self, other: "VecElem") -> "VecElem":
        self._check_match(other)
        return VecElem(self.coords + other.coords)

    def __sub__(self, other: "VecElem") -> "VecElem":
        self._check_match(other)
        return VecElem(self.coords - other.coords)

    def _check_match(self, other: "VecElem") -> None:
        if self.coords.shape != other.coords.shape:
            raise InvalidInputError(
                f"shape mismatch: {self.coords.shape} vs {other.coords.shape}"
            )

    def is_zero(self) -> bool:
        return not np.any(self.coords)

    def diagonal_coefficients(self) -> np.ndarray:
        if self.k != self.n:
            raise InvalidInputError("diagonal coefficients need k == N")
        idx = np.arange(self.k)
        return self.coords[idx, idx, idx].copy()

    def __repr__(self) -> str:  # pragma: no cover
        return f"VecElem(k={self.k}, n={self.n})"


def pairing(y: VecElem, y2: VecElem) -> complex:
    """Coordinatewise trace pairing sum_n tr(y_n y2_n)."""
    y._check_match(y2)
    return complex(np.einsum("nij,nji->", y.coords, y2.coords))


def opposite_transform(y: VecElem) -> VecElem:
    """Coordinatewise transpose; exchanges the two Side norms isometrically."""
    return VecElem(np.transpose(y.coords, (0, 2, 1)).copy())


def project_diagonal(y: VecElem) -> VecElem:
    """Keep only the e_i (x) e_i (x) e_i components (needs k == N); idempotent."""
    if y.k != y.n:
        raise InvalidInputError("project_diagonal needs k == N")
    return VecElem.diagonal(y.diagonal_coefficients())


def diagonal_closed_form(lams, p: float) -> float:
    """Exact norm of the diagonal element: the l^p norm of its coefficients.

    This value is attained on both sides by the explicit factorization
    z_i = phase(lam_i) E_ii, d = diag(|lam|).  Certificates use
    ``gaugeopt.diagonal_upper``, the same value for any diagonal coordinates,
    rounded up.
    """
    check_exponent(p)
    return lp_norm(np.abs(np.asarray(lams, dtype=np.complex128).ravel()), p)


# ---------------------------------------------------------------------------
# certified bounds
# ---------------------------------------------------------------------------

#: the iteration budget of each gauge solve, which every ``opts`` parameter
#: takes; the command line runs every solve at this default
DEFAULT_OPTS = gaugeopt.MAX_ITERS

#: a cheap budget for fuzz suites; bounds stay valid, just less tight
FAST_OPTS = 240


@dataclass
class FactorWitness:
    """Feasible factorization datum behind an upper bound.

    For the one-sided branch (p >= 2) ``s`` is the factor: the factorization
    is ``y_n = (y_n s^{-1/2}) s^{1/2}``.  The two-sided branch carries the
    pair ``(r, s)``.  ``transposed`` records that the witness lives in the
    transposed frame (R_COL input).  ``rho`` is the dual density behind the
    lower bound of ``alpha_certify``, in the same frame
    (``gaugeopt.minimax_lower``): both solvers return it with ``s``; it is
    None elsewhere.
    """

    branch: str
    s: np.ndarray
    r: np.ndarray | None = None
    transposed: bool = False
    iterations: int = 0
    converged: bool = True
    rho: np.ndarray | None = None


@dataclass
class NormCertificate:
    """Certified bracket [lower, upper] with the witnesses that produced it.

    ``factor_witness`` is a :class:`FactorWitness` for the alpha norms and a
    :class:`BetaWitness` (a feasible splitting) for the p-sum norm.  The
    alpha lower bound comes from the witness's own ``rho``, so there
    ``dual_witness`` is None and ``dual_norm_bound`` is 0; the p-sum lower
    bound pairs against ``dual_witness``, whose dual norm is at most
    ``dual_norm_bound``.
    """

    upper: float
    lower: float
    factor_witness: "FactorWitness | BetaWitness | None"
    dual_witness: VecElem | None
    iterations: int
    converged: bool
    dual_norm_bound: float = 0.0


def evaluate_upper_at(y: VecElem, witness: FactorWitness, p: float) -> float:
    """Certified objective value of ``y`` at a given witness (sound always)."""
    coords = opposite_transform(y).coords if witness.transposed else y.coords
    if witness.branch == "one_sided":
        return gaugeopt.evaluate_one_sided(coords, witness.s, p)
    return gaugeopt.evaluate_two_sided(coords, witness.r, witness.s, p)


def alpha_upper(y: VecElem, p: float, side: Side = Side.ELL_ROW,
                opts: int = DEFAULT_OPTS):
    """Certified upper bound on the factorization norm.

    Returns ``(value, FactorWitness)``.  The value is the certified value of
    the returned witness (``evaluate_upper_at``), except for diagonal
    coordinates: there it is the exact norm rounded up
    (``gaugeopt.diagonal_upper``), which the witness attains up to its
    regularization, about 1e-12 relative, and the p-norm of the coordinates
    below its support cut.  Non-convergence only means the bound may be
    loose.
    ``R_COL`` is solved as ``ELL_ROW`` of the coordinatewise transpose, which
    is taken once here; the witness records it in ``transposed``.
    """
    p = check_exponent(p)
    transposed = side == Side.R_COL
    y = opposite_transform(y) if transposed else y
    if y.is_zero():
        return 0.0, FactorWitness("one_sided", s=np.eye(y.k, dtype=np.complex128),
                                  transposed=transposed)
    # y / max|y| in two exact-then-one-rounded steps, which cannot overflow
    yn, e = pow2_normalize(y.coords)
    scale = float(np.max(np.abs(yn)))

    solve = gaugeopt.minimize_gauge if p >= 2.0 else gaugeopt.minimize_two_sided
    res = solve(yn / scale, p, max_iters=opts)
    # both solvers return the certified value of their witness and its density
    wit = FactorWitness("one_sided" if p >= 2.0 else "two_sided", s=res.s,
                        r=res.r, transposed=transposed, iterations=res.iterations,
                        converged=res.converged, rho=res.rho)
    return pow2_restore_outward(res.value * scale, e, math.inf), wit


def certified_dual_upper(yp: VecElem, p_dual: float,
                         opts: int) -> float:
    """Upper bound on the norm of a dual witness at the conjugate exponent.

    A witness with diagonal coordinates takes the closed form of its norm,
    rounded up (``gaugeopt.diagonal_upper``), with no solve; everything else
    runs the optimizer.  The ELL_ROW frame is assumed; callers transpose
    beforehand.
    """
    if gaugeopt._diagonal_coordinates(yp.coords):
        return gaugeopt.diagonal_upper(yp.coords, p_dual)
    return alpha_upper(yp, p_dual, Side.ELL_ROW, opts)[0]


def _matched_diagonal_dual(c: np.ndarray, d: np.ndarray, p: float) -> np.ndarray:
    """The matched dual ``diag(conj(d_n) c^{p/2 - 1})`` of diagonals ``d``
    with ``c_i = sum_n |(d_n)_i|^2`` (``gaugeopt._diagonal_weights``), times
    ``c_max^{1 - p/2}`` and zero where ``c_i = 0``, so that no power
    overflows (module docstring).  It pairs with any element of diagonals
    ``d`` to ``c_max^{1 - p/2} sum_i c_i^{p/2}``.
    """
    ratio = c / float(c.max())
    pos = ratio > 0.0
    w = np.zeros(c.size)
    w[pos] = ratio[pos] ** (0.5 * p - 1.0)
    return (d.conj() * w)[:, :, None] * np.eye(c.size)


def _auto_dual_pool(y: VecElem, p: float, s: np.ndarray | None) -> list:
    """Dual witness candidates in the ELL_ROW frame, for ``beta_certify``.

    One frame serves both sides: ``beta_certify`` scores each candidate
    against both dual norms, the R_COL one by transposing the candidate.
    The pool of the transposed element, transposed back, would add nothing:
    in exact arithmetic each of its candidates is one of these (the Schatten
    pattern of ``y_n^T`` is the transpose of that of ``y_n``, the adjoint
    pattern has the same entries, and the diagonal pattern is the same), and
    re-solving the rounding-level copies only repeated descents.

    ``y`` comes at unit scale: ``_pairing_lower`` divides it by a power of
    two (exactly) near its largest entry.  Every candidate is a unit
    direction, and each power is taken of magnitudes scaled to at most 1, so
    no norm below overflows or underflows.  ``s`` is the factor of the
    one-sided ELL_ROW solve of ``y`` (p >= 2), from which the subgradient
    candidate is built; None below p = 2, where there is none.
    """
    pool: list[VecElem] = []

    def add(cand: np.ndarray) -> None:
        if np.any(cand):
            pool.append(VecElem(cand / np.linalg.norm(cand)))

    coords = y.coords
    # coordinatewise Schatten-duality pattern: y_n = U S V^* -> V S^{p-1} U^*
    add(np.stack([dual_witness(c, p) for c in coords]))
    # coordinatewise adjoint pattern (pairs to |y|_F^2 > 0)
    adj = np.transpose(coords, (0, 2, 1)).conj()
    add(adj)
    # the matched diagonal pattern of ``_diagonal_beta`` on the diagonals of
    # every coordinate (pairs to a positive multiple of sum_i c_i^{p/2})
    c, _, d = gaugeopt._diagonal_weights(coords)
    if np.any(c):
        add(_matched_diagonal_dual(c, d, p))
    # subgradient pattern from the solved one-sided witness:
    # y'_n = s^{(p-2)/2} y_n^* V with V averaging the top eigenspace of M(s)
    if s is not None:
        z = coords @ psd_power(s, -0.5)
        m = np.einsum("nij,nkj->ik", z, z.conj())
        lam, u = eigh(0.5 * (m + m.conj().T))
        top = float(lam[-1])
        if top > 0.0:
            sel = lam >= (1.0 - 1e-6) * top
            v = u[:, sel] @ u[:, sel].conj().T / int(np.sum(sel))
            add(psd_power(s, 0.5 * (p - 2.0)) @ adj @ v)
    return pool


def alpha_certify(y: VecElem, p: float, side: Side = Side.ELL_ROW,
                  opts: int = DEFAULT_OPTS) -> NormCertificate:
    """Two-sided certificate for the factorization norm on the chosen side.

    The upper bound is ``alpha_upper``'s; the lower bound is the minimax dual
    of the gauge problem that solve just solved (``gaugeopt.minimax_lower``),
    evaluated at the density ``rho`` that the returned witness records: the
    solve's own, which ends once the two bounds are within
    ``gaugeopt.GAP_TOL`` (p >= 2) or ``gaugeopt.DESCENT_GAP_TOL`` (p < 2),
    or with ``converged = False`` at the budget or a failed step search.
    ``converged`` also needs the certified bracket closed to twice that
    tolerance: the solve tests its gap on the right support only, and the
    certificate charges what the support drops at its coordinate-wise p-norm.
    ``R_COL`` transposes ``y`` once; both bounds come from that transpose.
    """
    p = check_exponent(p)
    y = opposite_transform(y) if side == Side.R_COL else y
    upper, wit = alpha_upper(y, p, Side.ELL_ROW, opts)
    wit.transposed = side == Side.R_COL
    lower = gaugeopt.minimax_lower(y.coords, wit.rho, p)
    tol = gaugeopt.GAP_TOL if p >= 2.0 else gaugeopt.DESCENT_GAP_TOL
    return NormCertificate(upper=upper, lower=lower, factor_witness=wit,
                           dual_witness=None, iterations=wit.iterations,
                           converged=wit.converged and upper - lower <= 2 * tol * upper)


# ---------------------------------------------------------------------------
# p-sum of the two sides
# ---------------------------------------------------------------------------

@dataclass
class BetaWitness:
    """Feasible splitting y = y0 + y1 with certified upper bounds of its parts.

    ``ell_value`` bounds the ELL_ROW norm of ``y0``, ``col_value`` the R_COL
    norm of ``y1 = y - y0``.
    """

    y0: VecElem
    ell_value: float
    col_value: float


#: relative slack on the pruning test of ``beta_certify``, above the rounding
#: of a floor, a dual upper bound and their p'-sums
_PRUNE_MARGIN = 1e-9
#: relative rounding allowances of the line split's value (up), of the
#: pairing quotient (down) and of ``2^{1/p} / 2`` with its product (down, the
#: diagonal lower bound), from the module docstring
_SPLIT_SLACK = 6 * gaugeopt._EPS
_QUOTIENT_SLACK = 4 * gaugeopt._EPS
_HALF_POWER_SLACK = 2 * gaugeopt._EPS


def _dual_floor(cand: VecElem, p_dual: float) -> float:
    """Certified lower bound on the ELL_ROW dual norm of a candidate, no solve.

    The minimax dual of the candidate's own gauge at the density
    ``gaugeopt.gram_density`` with ``e = p'`` for ``p' >= 2``, and with ``e =
    q - 2`` below, the density ``G(I)^{q/2 - 1}`` that attains ``|G(I)|_{q/2}``
    (module docstring of ``gaugeopt``).
    """
    e = p_dual if p_dual >= 2.0 else gaugeopt.q_from_p(p_dual) - 2.0
    return gaugeopt.minimax_lower(cand.coords, gaugeopt.gram_density(cand.coords, e),
                                  p_dual)


def _pairing_potential(cand: VecElem, cand_t: VecElem, num: float,
                       p_dual: float) -> float:
    """Upper bound on the ratio ``num / den`` that ``beta_certify`` can get.

    ``den`` is the p'-sum of the two certified dual upper bounds, of the
    candidate and of its transpose ``cand_t``, which are at least the two
    floors (``_dual_floor``).
    """
    floor = lp_norm((_dual_floor(cand, p_dual), _dual_floor(cand_t, p_dual)), p_dual)
    return num / floor if floor > 0.0 else math.inf


def beta_certify(y: VecElem, p: float,
                 opts: int = DEFAULT_OPTS) -> NormCertificate:
    """Certificate for the p-sum norm inf over y = y0 + y1 of the pair.

    Diagonal coordinates (k = 1 included) take the closed form of the
    module docstring: ``2^{1/p - 1} |c^{1/2}|_p`` rounded outward, the split
    ``y0 = y / 2`` and the matched dual witness, with no solve and
    ``iterations = 0``.  Otherwise:
    Upper bound: the best split on the scalar line y0 = t y, at the exact
    minimiser ``t*`` of its value (module docstring), which follows from the
    two ``alpha_upper`` solves by homogeneity; ``iterations`` counts those
    two solves.  The endpoints t = 1 and t = 0 are the trivial splits and
    win ties, so rounding at ``t*`` cannot lose to them.  The value at
    ``t*`` is rounded up.
    Lower bound: pairing ratios with the p'-sum of the two dual norm bounds
    in the denominator, over the pool of ``_auto_dual_pool``; the best ratio
    is rounded down.
    Candidates are solved by decreasing certified potential, and only while
    the potential can still beat the best ratio (module docstring): a
    skipped candidate's ratio is below the best, so the winner (the largest
    ratio, the first in pool order among equal ones) is the one an unpruned
    pass would pick.
    A candidate with diagonal coordinates is its own transpose, and its one
    closed-form dual bound serves both sides; every other candidate and its
    transpose are valued once each.
    """
    p = check_exponent(p)
    if y.is_zero():
        return NormCertificate(0.0, 0.0, None, None, 0, True)
    if gaugeopt._diagonal_coordinates(y.coords):
        return _diagonal_beta(y, p)
    u_ell, w_ell = alpha_upper(y, p, Side.ELL_ROW, opts)
    u_col, w_col = alpha_upper(y, p, Side.R_COL, opts)
    iters = w_ell.iterations + w_col.iterations
    conv = w_ell.converged and w_col.converged

    # scalar line split y0 = t y: at t = 1 and t = 0 ``lp_norm`` returns its
    # nonzero argument unchanged, so the endpoints are the trivial splits;
    # they come first, and argmin keeps the first of equal values.  t* is
    # formed from (min / max)^{p'} <= 1, which cannot overflow near p = 1.
    # Norms below 1/2 are moved up to [1/2, 1) by the exact 2^-e first, so
    # that no product rounds at subnormal granularity
    e = min(0, math.frexp(max(u_ell, u_col))[1])
    a, b = math.ldexp(u_ell, -e), math.ldexp(u_col, -e)
    r = (min(a, b) / max(a, b)) ** conjugate(p)
    ts = (1.0, 0.0, r / (1.0 + r) if a >= b else 1.0 / (1.0 + r))
    vals = [lp_norm((t * a, (1.0 - t) * b), p) for t in ts]
    vals[2] *= 1.0 + _SPLIT_SLACK  # rounded up; the endpoints are exact
    best = int(np.argmin(vals))
    t = ts[best]
    # y.scaled(0.0) would write -0.0
    y0 = VecElem.zeros(y.k, y.n) if t == 0.0 else y.scaled(t)
    upper = pow2_restore_outward(vals[best], e, math.inf)
    beta_wit = BetaWitness(y0, pow2_restore_outward(t * a, e, math.inf),
                           pow2_restore_outward((1.0 - t) * b, e, math.inf))

    lower, dual_wit, dual_den = _pairing_lower(y, p, w_ell, opts)
    return NormCertificate(upper=upper, lower=lower, factor_witness=beta_wit,
                           dual_witness=dual_wit, iterations=iters,
                           converged=conv, dual_norm_bound=dual_den)


def _diagonal_beta(y: VecElem, p: float) -> NormCertificate:
    """``beta_certify`` of nonzero diagonal coordinates: both bounds from one
    ``|c^{1/2}|_p``, the exact p-sum ``2^{1/p - 1} |c^{1/2}|_p`` rounded
    outward (module docstring).  No eigensolve, SVD, gauge solve or dual
    solve runs.
    """
    c, e, d = gaugeopt._diagonal_weights(y.coords)
    norm = lp_norm(np.sqrt(c), p)  # at the scale 2^-e, as everything below
    slack = gaugeopt._diagonal_slack(y.n, y.k)
    # the line split at t* = 1/2: each side's norm is ``_diagonal_value``
    half = 0.5 * (norm * (1.0 + slack))
    upper = lp_norm((half, half), p) * (1.0 + _SPLIT_SLACK)
    lower = norm * (0.5 * 2.0 ** (1.0 / p)) * (1.0 - slack - _HALF_POWER_SLACK)
    dual = _matched_diagonal_dual(c, d, p)
    p_dual = conjugate(p)
    # the transpose of diagonal coordinates is themselves: both dual norms agree
    dual_norm = gaugeopt.diagonal_upper(dual, p_dual)
    half = pow2_restore_outward(half, e, math.inf)
    return NormCertificate(upper=pow2_restore_outward(upper, e, math.inf),
                           lower=pow2_restore_outward(lower, e, 0.0),
                           factor_witness=BetaWitness(y.scaled(0.5), half, half),
                           dual_witness=VecElem(dual), iterations=0, converged=True,
                           dual_norm_bound=lp_norm((dual_norm, dual_norm), p_dual))


def _pairing_lower(y: VecElem, p: float, w_ell: FactorWitness,
                   opts: int):
    """The dual route of ``beta_certify``: split the pairing across the two
    sides and apply Hoelder, over the pool of ``_auto_dual_pool``.

    ``y`` is divided by a power of two near its largest entry, exactly,
    once: the pool is built and every pairing taken at that unit scale, so
    nothing under- or overflows, and the lower bound is scaled back at the
    end.  ``w_ell`` is ``y``'s ELL_ROW witness from ``alpha_upper``; its
    factor ``s`` seeds the pool's subgradient candidate at p >= 2.
    Returns ``(lower, dual_witness or None, dual_norm_bound)``.  Candidates
    are solved by decreasing potential while one can still win (module
    docstring).  The winner has the largest ratio and, among equal ratios,
    comes first in pool order, as if every candidate had been solved; its
    ratio is rounded down once chosen.  A candidate with diagonal
    coordinates is its own transpose: it gets potential ``inf`` and one
    closed-form ``certified_dual_upper`` value, which serves both sides.
    Every other candidate is transposed once, and it and its transpose are
    valued once each, for the floor and for the dual bound.
    """
    p_dual = conjugate(p)
    coords, e = pow2_normalize(y.coords)
    y_unit = VecElem(coords)
    scored = []
    for cand in _auto_dual_pool(y_unit, p, w_ell.s if p >= 2.0 else None):
        num = abs(pairing(y_unit, cand))
        if num == 0.0:
            continue
        if gaugeopt._diagonal_coordinates(cand.coords):
            scored.append((cand, None, num, math.inf))
        else:
            cand_t = opposite_transform(cand)
            scored.append((cand, cand_t, num,
                           _pairing_potential(cand, cand_t, num, p_dual)))
    lower, dual_wit, dual_den, win = 0.0, None, 0.0, 0
    for idx in sorted(range(len(scored)), key=lambda i: -scored[i][3]):
        cand, cand_t, num, potential = scored[idx]
        if potential < lower * (1.0 - _PRUNE_MARGIN):
            break
        up = certified_dual_upper(cand, p_dual, opts)
        up_t = up if cand_t is None else certified_dual_upper(cand_t, p_dual, opts)
        den = lp_norm((up, up_t), p_dual)
        # the largest ratio; among equal ratios, the first in pool order
        if (num / den, -idx) > (lower, -win):
            lower, dual_wit, dual_den, win = num / den, cand, den, idx
    return (pow2_restore_outward(lower * (1.0 - _QUOTIENT_SLACK), e, 0.0),
            dual_wit, dual_den)


def random_element(k: int, n: int, rng: np.random.Generator,
                   degenerate: bool = False) -> VecElem:
    """Seeded random element; optionally with a shared one-sided kernel."""
    coords = (rng.standard_normal((n, k, k))
              + 1j * rng.standard_normal((n, k, k))) * (1.0 / math.sqrt(2.0))
    if degenerate and k > 1:
        cut = np.eye(k, dtype=np.complex128)
        drop = int(rng.integers(1, k))
        cut[drop, drop] = 0.0
        if rng.integers(2):
            coords = coords @ cut
        else:
            coords = cut @ coords
    return VecElem(coords)
