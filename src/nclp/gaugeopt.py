"""Solvers for the factorization gauges behind the vector-valued norms.

One-sided problem: given coordinates ``A_1..A_N`` stacked as an ``(N, k, r)``
complex array and an exponent ``e >= 2``, minimize over positive definite ``s``

    F(s) = lmax(M(s))^{1/2} * tr(s^{e/2})^{1/e},  M(s) = sum_n A_n s^{-1} A_n^*.

Every ``s`` yields the feasible factorization ``A_n = (A_n s^{-1/2}) s^{1/2}``,
so F(s) is a certified upper bound at any point; optimality only sharpens
it.  ``s -> lmax(M(s))`` is convex and F is degree-0 homogeneous, so it is
minimized on the manifold ``tr(s^{e/2}) = 1``.

Two-sided problem (outer exponents ``(q, 2)`` with ``1/q = 1/p - 1/2``, used
for p < 2): the left factor has the closed-form optimum ``r = G(s) = sum_n
A_n s^{-1} A_n^*``, which reduces the problem to the smooth convex objective
``tr(G(s)^{q/2})^{2/q}`` on the manifold ``tr s = 1`` (see
``minimize_two_sided``).  At p = 2 the left exponent is infinite, the optimal
left factor is the support identity, and the problem collapses to the
one-sided core exactly.

Both solves first restrict to the right support of the coordinates
(``_restrict``) and end by building the witness from the best point found,
``s`` or the pair ``(r, s)``, and returning it with its certified value
(``evaluate_one_sided``, ``evaluate_two_sided``).

The one-sided solve (``minimize_gauge``) is a primal-dual ascent on the dual
density ``rho`` (the lower bounds below).  Write ``a = e/2``, ``beta =
a/(a+1)``, ``C(rho) = sum_n A_n^* rho A_n`` and ``g(rho) = |C(rho)|_beta``.
``g`` is concave on densities, being a minimum of maps linear in ``rho``
(``g(rho) = min tr(s^{-1} C(rho))`` over ``tr(s^a) <= 1``), and its gradient
is ``M`` at the inner optimum: with ``T = tr C^beta``, so that ``g =
T^{1/beta}``, and ``s = C^{1/(a+1)}`` (unnormalized), ``C^{beta - 1} =
s^{-1}`` gives ``dT = beta tr(C^{beta-1} dC) = beta tr(drho M(s))``, and
``T^{1/beta - 1} = T^{1/a} = g^{1-beta}``, so ``dg = g^{1-beta} tr(drho
M(s))``; normalizing ``s`` to ``tr(s^a) = 1`` multiplies ``M(s)`` by exactly
``g^{1-beta}``, so ``grad g = M(s)`` there, and ``tr(rho M(s)) = g``.  Each
iterate thus gives both bounds: ``lmax(M(s))^{1/2}`` above and ``g^{1/2}``
below.  Start from ``rho = I/k``; the upper point is the best of the
identity, the support Gram and every iterate's ``s``.  Stop with ``converged
= True`` as soon as the best upper value is within ``1 + GAP_TOL`` of the
lower one, and with ``converged = False`` at ``max_iters`` or when a step
search fails.  Otherwise take an entropic mirror step (Beck and Teboulle,
2003) on ``h = log rho`` (``rho = exp(h) / tr exp(h)``) with Nesterov
momentum and adaptive restart (Beck and Teboulle, FISTA, 2009; O'Donoghue
and Candes, 2015):

    h_t = h + eta D + theta (h - h_prev),  D = M / tr(rho M) - I,
    theta = (j - 1) / (j + 2),

with ``eta = min(5 / spread, 1.03 eta_prev)`` for the eigenvalue spread of
``M / tr(rho M)``.  The cap is longer than the ``2 / spread`` of a quadratic
with that spread: once ``rho`` has found its low-rank support, the spread is
set by eigenvalues of ``M`` in directions ``rho`` has left (0.35 to 0.8 of
the top one), which do not limit a step on the support.  The slow growth
keeps ``eta`` near the last length that raised ``g`` after a halving; faster
growth (1.2, 1.5) with the same cap made more trials fail and more ``fuzz``
ascents end on their budget.  Both constants were chosen on the
``perfbench`` ``fuzz`` and ``certify`` workloads at seeds 3, 4 and 7 to 12,
where they cut the dual evaluations by 24 % against ``min(2 / spread, 1.5
eta_prev)``.  The step is centered: ``exp(h + cI)`` normalizes to the
density of ``h``, so ``D`` gives the iterates of the plain step ``M / tr(rho
M)`` in exact arithmetic, but ``tr(rho D) = 0`` keeps ``h`` from drifting
by about ``eta I`` per step.  Uncentered, momentum compounds that drift: on
a 2 x 2 element it lifts both eigenvalues of ``h`` to about 270 in 240
steps, so their difference, which alone sets ``rho``, keeps about 8 bits
fewer, and the gap stalls above ``GAP_TOL``.  Momentum
matters because the optimal density has low rank and ``M``'s spread stays
set by directions ``rho`` has already left: ``eta`` is capped by them, and
without momentum the error inside the active subspace decays slowly.  A
trial is accepted when ``g`` does not fall.  A failing trial with momentum
is retried at the same ``eta`` without it (``theta = 0`` and ``j = 1``, the
restart); a failing trial without momentum halves ``eta``.  At most
``_TRIALS`` = 40 trials are made per iteration.  Any ``rho`` gives a sound
lower bound and any ``s`` a sound upper one, so momentum and the step
length change only the path, never soundness.  The lower value that steers the ascent lowers each
eigenvalue of ``C(rho)`` first by about the rounding allowance of
``minimax_lower`` (``((N + 1) k + 4 r + 4) eps tr C``): rounding noise on
eigenvalues near zero would otherwise lift their roots, by up to 1e-8 at
``beta = 1/2``, and close a gap that the certificate cannot show.  An
iteration forms M(s) and takes its ``eigvalsh``, whose top eigenvalue is
the upper value; a trial step takes one ``eigh`` of ``h_t``, forms ``C(rho)``
(``_grad_gram``) and takes its ``eigh``, whose eigenvectors are those of the
next ``s`` and whose sorted spectrum gives the lower value directly.  On
``random_element(k, k)`` at p in {2.5, 3, 4} an iteration makes 1.02 trials
(1.01 before the step rule above).  The matrices are k x k and r x r, so on
small elements the cost is numpy's per-call overhead rather than
arithmetic, and each call the loop can skip counts: at ``t = 1`` there is
no power ``1/t``, and the first iteration and a restart add no momentum.

The two-sided solve (``minimize_two_sided``) is the same ascent on its own
dual (the lower bounds below): maximize ``f(rho) = (tr C(rho)^{1/2})^2``
over PSD ``rho`` with ``|rho|_t <= 1``, ``t = (q/2)' = p/(2p - 2) >= 1``.
This is ``g`` at ``e = 2`` on another ball, so write ``rho = u^{1/t}`` with
``u`` a density, which puts ``rho`` on the sphere ``|rho|_t = 1``.  ``f`` is
concave (as ``g`` is) and nondecreasing in the Loewner order (``C`` is a
positive map), and ``x -> x^{1/t}`` is operator concave for ``t >= 1``
(Loewner-Heinz; Bhatia, Matrix Analysis, 1997, ch. V), so ``u ->
f(u^{1/t})`` is concave on densities.  At ``rho = u^{1/t}`` the inner
optimum is the one-sided one at ``e = 2``: ``s ~ C(rho)^{1/2}``, ``tr s =
1``, with the lower value ``tr C(rho)^{1/2}`` and the upper value
``|M(s)|_{q/2}^{1/2}`` (``_tr_power_term(eig M(s), q)``, which reads
``lmax^{1/2}`` at ``q = inf``).  The gradient in ``u`` is that in ``rho``,
``M(s)``, pulled back through the derivative of ``x^{1/t}`` (the
Daleckii-Krein formula, ibid.): ``Q (L o Q^* M Q) Q^*`` with ``Q`` an
eigenbasis of ``u`` and the divided differences ``L_ij = (u_i^{1/t} -
u_j^{1/t}) / (u_i - u_j)``, the derivative ``u_i^{1/t - 1} / t`` where two
eigenvalues coincide (``_pullback``, which forms them from the
log-spectrum that ``h`` gives).  ``x^{1/t}`` is homogeneous of degree
``1/t``, so ``tr(u grad) = tr(rho M) / t``, and the centered step divides
by that.  At ``t = 1`` ``L`` is all ones and the step is the one-sided one,
so one driver, ``_ascend(ak, support_gram, e, q, t, tol, max_iters)``,
serves both: ``minimize_gauge`` at ``(e, inf, 1, GAP_TOL)`` and
``minimize_two_sided`` at ``(2, q, t, DESCENT_GAP_TOL)``.  For ``t > 1`` an
iteration also forms the pulled-back gradient and takes its ``eigvalsh``,
whose spread sets ``eta``.  More of these trials fail: an iteration makes
1.38 of them on ``random_element(k, k)`` at p in {1.2, 1.5, 1.8} (1.93
before the step rule above).

Closed forms (``iterations = 0``; the support restriction, the
regularization margin and the final evaluation are the same as after a
solve).  Diagonal coordinates, for both solvers (the commutative case, which covers
the amplified images that ``verify_pipeline`` certifies): write ``c_i =
sum_n |(A_n)_ii|^2``.  A diagonal unitary D commutes with every A_n, so
``M(D s D^*) = D M(s) D^*`` and both objectives are invariant under ``s -> D
s D^*``.  Both reduce to a convex function of ``s`` (``lmax(M(s))``, and
``tr(G(s)^{q/2})^{2/q}`` for the two-sided form) on the convex set
``tr(s^{e/2}) <= 1`` (``e = 2`` for the two-sided form), so the torus average
of ``D s D^*``, which is ``diag(s)``, is no worse; it stays in the set
because ``tr(diag(s)^{e/2}) <= tr(s^{e/2})`` for ``e/2 >= 1`` (the diagonal
is majorized by the spectrum, Schur-Horn).  Among diagonal ``s = diag(t)``
the one-sided objective is ``max_i c_i / t_i`` on ``sum_i t_i^{e/2} = 1``,
minimized by ``t ~ c``, where every eigenvalue of M(s) is equal: the value
is ``|c^{1/2}|_e``.  The reduced two-sided objective is ``|(c_i /
t_i)_i|_{q/2}`` on ``sum_i t_i = 1``, minimized by ``t ~ c^{p/2}``; then ``r
= G(s) = diag(c^{1 - p/2})`` and the value is ``|c^{1/2}|_p`` (Hoelder's
equality case).  One coordinate ``A`` is the diagonal case after the
unitaries of its singular value decomposition (``A -> U A V^*``, ``s -> V^*
s V``), with ``c`` the eigenvalues of ``A^* A``: the value is ``|A|_e``
(``s = A^* A``), or ``|A|_p`` at ``s = (A^* A)^{p/2}`` for the two-sided
form.  A right support of rank one leaves nothing to descend.
In both one-sided cases the density ``rho ~ (sum_n A_n A_n^*)^a``
(``gram_density``) attains the bound: it gives ``C(rho) ~ diag(c^{a+1})``,
or ``(A^* A)^{a+1}``, and ``g = |c^{1/2}|_e^2``, or ``|A|_e^2``, since
``(a+1) beta = a``.

``evaluate_one_sided`` / ``evaluate_two_sided`` score an arbitrary witness:
they reconstruct the coordinates from it and add the p-norm of the residual
coordinates to the objective, which keeps the returned number a sound upper
bound even when the witness only approximately reproduces the element.

Lower bounds come from the minimax dual of the same problems
(``minimax_lower``).  Write ``a = e/2 >= 1`` and
``C(rho) = sum_n A_n^* rho A_n`` with spectrum ``c``.  Two facts make every
PSD ``rho`` give a sound bound; the minimax theorem is needed only to see
that the best ``rho`` closes the gap.

1. The factorization norm equals ``inf_s F(s)`` over positive definite
   ``s``.  Every ``s`` is a feasible factorization (above).  Conversely,
   given ``A_n = c z_n d``, take ``s = d^* d + eps``: since ``d s^{-1} d^* <=
   1``, ``M(s) <= c (sum z_n z_n^*) c^*``, whose top eigenvalue is at most
   ``|c|_inf^2 |sum z_n z_n^*|`` (``c`` is absorbed into ``z``), and
   ``tr(s^a)^{1/e} -> |d|_e`` as ``eps -> 0``.  The two-sided form is the
   same with ``|G(s)|_{q/2} <= |sum z_n z_n^*| |c|_q^2`` and ``tr s ->
   |d|_2^2``.
2. Weak duality (max-min <= min-max).  For a density ``rho`` and ``tr(s^a)
   <= 1``: ``lmax(M(s)) >= tr(rho M(s)) = tr(s^{-1} C(rho))``.  In an
   eigenbasis of ``C(rho)``, ``tr(s^{-1} C) = sum_i c_i (s^{-1})_ii >=
   sum_i c_i / s_ii`` (Cauchy-Schwarz), ``sum_i s_ii^a <= tr(s^a) <= 1``
   (Schur-Horn, ``a >= 1``), and Hoelder with exponents ``(a+1)/a`` and
   ``a+1`` gives ``sum_i c_i / s_ii >= |c|_beta`` with ``beta = a/(a+1)``
   and ``|c|_beta = (sum_i c_i^beta)^{1/beta}``.  So ``F(s)^2 >= |c|_beta``
   for every ``s``.  Two-sided: ``|G(s)|_{q/2} >= tr(rho G(s))`` for ``rho
   >= 0`` in the unit ball of ``S^{(q/2)'}`` (Hoelder), and the same chain
   with ``a = 1`` gives ``|G(s)|_{q/2} tr s >= (tr C(rho)^{1/2})^2``.

Hence the norm is at least ``(|c|_beta / |rho|_t)^{1/2}`` for every PSD
``rho``, with ``(beta, t) = (p/(p+2), 1)`` for p >= 2 and ``(1/2, (q/2)')``
for p < 2; both read ``tr C(rho)^{1/2} / (tr rho)^{1/2}`` at p = 2.  Both
objectives are convex in ``s`` and linear in ``rho`` over a compact convex
set, so by Sion's theorem the best ``rho`` attains the norm; the inner
minimum is attained at ``s ~ C(rho)^{1/(a+1)}``, which commutes with
``C(rho)``.  Each solve returns its own ``rho``: the ascent's last one
(``u^{1/t}`` for p < 2), or the closed forms' density.

Rounding allowance in ``minimax_lower``, so that the bound stays below the
exact value for the stored ``rho``.  The coordinates are scaled by a power of
two, which is exact (``schatten.pow2_normalize``, over the whole float64
range); a bound beyond that range raises ``InvalidInputError``.  A Hermitian
eigensolver returns each eigenvalue within ``p(n) eps |H|_2`` of an exact one
(backward stability, LAPACK Users' Guide section 4.7); we charge ``4 n eps
|H|_F``.  For ``rho`` this gives ``eps_rho`` and the shift ``mu = max(0,
eps_rho - min computed eigenvalue)``, so ``rho + mu I`` is PSD and ``|rho +
mu I|_t <= |computed eigenvalues + eps_rho + mu|_t``.  ``C(rho)`` is formed
as two GEMMs, ``Y^* (rho Y)``, whose entrywise
error is at most ``gamma_m`` times the envelope ``sum_n |A_n|^T |rho| |A_n|``
with ``m = (N+1) k + 4`` (both inner lengths and the symmetrization) and
``gamma_m = m eps / (1 - m eps)``; by Weyl's inequality every eigenvalue
moves by at most that matrix's Frobenius norm.  Every computed eigenvalue of
``C(rho)`` is lowered by the sum of both terms and clipped at 0, which keeps
it below the exact one, and below that of ``C(rho + mu I) >= C(rho)``; the
bound is increasing in each ``c_i``.  The power sums, the quotient and the
square root are charged a relative ``(2k + 16) eps``.  Without the
allowance, exact zero eigenvalues of ``C(rho)`` come out as +-1e-16, and the
square root at ``beta = 1/2`` lifts them to 1e-8: enough to put the lower
bound above the upper one on rank-deficient elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .schatten import (DEFAULT_RANK_TOL, lp_norm, pow2_normalize, pow2_restore,
                       psd_power)
# not called here since _residual_correction sums one stacked SVD, but the
# tracer of perfbench/tracing.py patches this name on gaugeopt
from .schatten import schatten_norm  # noqa: F401

_EIG_FLOOR = 1e-9  # relative floor on witness eigenvalues, kept above the rank cut
#: relative gap between the two bounds of the one-sided ascent that ends it
GAP_TOL = 1e-8
#: the same for the two-sided gauge; not ``GAP_TOL``, which stops it early
#: enough to raise the p = 1.5 uppers of ``test_golden_brackets`` by 6e-9,
#: past the 1e-9 that test allows
DESCENT_GAP_TOL = 1e-10
_EPS = float(np.finfo(np.float64).eps)


@dataclass
class GaugeResult:
    value: float
    s: np.ndarray
    iterations: int
    converged: bool
    r: np.ndarray | None = None  # the left factor, two-sided gauge only
    rho: np.ndarray | None = None  # the dual density behind the lower bound


def _herm(x: np.ndarray) -> np.ndarray:
    """The Hermitian part of a matrix."""
    return 0.5 * (x + x.conj().T)


def _spectral(s: np.ndarray):
    vals, vecs = np.linalg.eigh(_herm(s))
    return np.maximum(vals, 0.0), vecs


def _normalize(vals: np.ndarray, e: float) -> np.ndarray:
    """Clip a spectrum to the relative floor and normalize sum(vals^{e/2}) = 1.

    A zero spectrum becomes flat.
    """
    vmax = vals[-1]
    vals = np.ones_like(vals) if vmax <= 0.0 else np.maximum(vals, _EIG_FLOOR * vmax)
    return vals / float((vals ** (e / 2.0)).sum()) ** (2.0 / e)


def _project(s: np.ndarray, e: float):
    """Clip to the PD cone (relative floor) and normalize tr(s^{e/2}) = 1."""
    vals, vecs = _spectral(s)
    return _normalize(vals, e), vecs


def _k_major(A: np.ndarray) -> np.ndarray:
    """Contiguous (k, N, r) copy of (N, k, r) coordinates for the GEMM kernels."""
    return np.ascontiguousarray(np.transpose(A, (1, 0, 2)))


def _restrict(A: np.ndarray):
    """The right support of (N, k, r) coordinates, shared by every solve.

    Returns ``(ub, ak, scale, support_gram, kept)``: ``ub`` holds the
    eigenvectors of the Gram ``sum_n A_n^* A_n`` above the rank cut, ``ak``
    the k-major copy (``_k_major``) of ``A @ ub`` divided by its Frobenius
    norm ``scale``, ``support_gram`` the Gram on the support divided by its
    top eigenvalue, and ``kept`` the Gram eigenvalues on the support.
    """
    r = A.shape[2]
    a2 = A.reshape(-1, r)
    gram = _herm(a2.conj().T @ a2)
    gvals, gvecs = _spectral(gram)
    gmax = float(gvals[-1])
    keep = gvals >= DEFAULT_RANK_TOL * gmax
    ub = gvecs[:, keep]
    ab = A @ ub
    scale = math.sqrt(float(np.einsum("nij,nij->", ab, ab.conj()).real))
    support_gram = ub.conj().T @ gram @ ub / gmax
    return ub, _k_major(ab / scale), scale, support_gram, gvals[keep]


def _m_matrix(ak: np.ndarray, svals: np.ndarray, svecs: np.ndarray) -> np.ndarray:
    """M(s) = sum_n A_n s^{-1} A_n^* in PSD form, as two GEMMs.

    ``ak`` is the k-major copy of the coordinates (see ``_k_major``): the rows
    of ``ak @ s^{-1/2}`` regroup into ``B = [A_1 s^{-1/2}, ..., A_N s^{-1/2}]``
    and ``M = B B^*``.  ``s`` is given by its spectrum and eigenvectors.
    """
    k, _, r = ak.shape
    b = (ak.reshape(-1, r) @ (svecs * svals ** -0.5)).reshape(k, -1)
    return _herm(b @ b.conj().T)


def _grad_gram(ak: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_n A_n^* v v^* A_n as X^* X with X the stacked rows of v^* A_n."""
    k, _, r = ak.shape
    x = (v.conj().T @ ak.reshape(k, -1)).reshape(-1, r)
    return x.conj().T @ x


def _eigvals(m: np.ndarray) -> np.ndarray:
    return np.maximum(np.linalg.eigvalsh(m), 0.0)


def _diagonal_coordinates(A: np.ndarray) -> bool:
    """Every (square) coordinate is zero off its diagonal, tested exactly."""
    _, k, r = A.shape
    return k == r and not np.any(A[:, ~np.eye(k, dtype=bool)])


def q_from_p(p: float) -> float:
    """Outer left exponent of the two-sided form: 1/q = 1/p - 1/2."""
    inv = 1.0 / p - 0.5
    return math.inf if inv <= 1e-15 else 1.0 / inv


def _tr_power_term(vals: np.ndarray, e: float) -> float:
    """tr(s^{e/2})^{1/e} from the spectrum, scaled for large exponents."""
    vals = np.maximum(vals, 0.0)
    if vals.size == 0:
        return 0.0
    top = float(vals.max())
    if top == 0.0:
        return 0.0
    if math.isinf(e):
        return math.sqrt(top)
    return math.sqrt(top) * float(((vals / top) ** (e / 2.0)).sum()) ** (1.0 / e)


_TRIALS = 40  # step halvings before a step search fails


def _dual_point(ak: np.ndarray, h: np.ndarray, e: float, t: float):
    """The one-sided dual at ``rho = u^{1/t}``, ``u = exp(h) / tr exp(h)``.

    Returns ``(rho, lower, svals, svecs, log_u, uvecs)``: ``lower =
    |C(rho)|_beta^{1/2}`` less the rounding allowance (module docstring), the
    spectrum and eigenvectors of the inner optimum ``s ~ C(rho)^{1/(a+1)}``
    with ``tr(s^a) = 1`` (floored like every witness), and the log-spectrum
    and eigenvectors of ``u``.
    """
    a = 0.5 * e
    k, n_coords, r = ak.shape
    hv, hq = np.linalg.eigh(h)
    w = np.exp(hv - hv[-1])
    total = float(w.sum())
    u = w / total
    v = hq * np.sqrt(u if t == 1.0 else u ** (1.0 / t))
    cv, cq = _spectral(_grad_gram(ak, v))
    slack = ((n_coords + 1) * k + 4 * r + 4) * _EPS
    # _tr_power_term at 2 beta, inlined: the lowered, clipped spectrum stays
    # sorted, so its top is its last entry
    low = np.maximum(cv - slack * float(cv.sum()), 0.0)
    top = float(low[-1])
    lower = 0.0
    if top > 0.0:
        two_beta = 2.0 * a / (a + 1.0)
        lower = (math.sqrt(top)
                 * float(((low / top) ** (two_beta / 2.0)).sum()) ** (1.0 / two_beta))
    return (v @ v.conj().T, lower, _normalize(cv ** (1.0 / (a + 1.0)), e), cq,
            hv - hv[-1] - math.log(total), hq)


def _pullback(m: np.ndarray, log_u: np.ndarray, uvecs: np.ndarray, t: float):
    """The gradient in ``u`` of ``f(u^{1/t})`` from ``m``, the one in ``rho``.

    ``Q (L o Q^* m Q) Q^*`` (Daleckii-Krein) with the divided differences of
    ``x^{1/t}`` formed from the log-spectrum: for ``u_i >= u_j``, ``L_ij =
    u_i^{1/t - 1} expm1(d / t) / expm1(d)`` with ``d = log(u_j / u_i)``, and
    ``u_i^{1/t - 1} / t`` at ``d = 0``.
    """
    d = -np.abs(log_u[:, None] - log_u[None, :])
    ratio = np.divide(np.expm1(d / t), np.expm1(d), out=np.full_like(d, 1.0 / t),
                      where=d < 0.0)
    div = np.exp((1.0 / t - 1.0) * np.maximum.outer(log_u, log_u)) * ratio
    uvecs_h = uvecs.conj().T
    return uvecs @ (div * (uvecs_h @ m @ uvecs)) @ uvecs_h


def _ascend(ak: np.ndarray, support_gram: np.ndarray, e: float, q: float,
            t: float, tol: float, max_iters: int):
    """Entropic mirror ascent of the dual at ``rho = u^{1/t}`` (module docstring).

    Each iteration steps ``h = log u`` along the centered gradient ``D =
    grad / tr(u grad) - I``, ``grad`` being ``M`` pulled back to ``u``
    (``M`` itself at ``t = 1``), plus the momentum ``theta (h - h_prev)``,
    ``theta = (j - 1) / (j + 2)``, at ``eta = min(5 / spread, 1.03
    eta_prev)``.  A trial that lowers the dual first drops the momentum
    (restart to ``j = 1``), then halves ``eta``; at most ``_TRIALS`` trials
    per iteration.  The upper value of ``s`` is ``_tr_power_term(eig M(s),
    q)``, which is ``lmax(M(s))^{1/2}`` at ``q = inf``.

    Returns ``(svals, svecs, rho, iterations, converged)``: the best upper
    point seen, the last ``rho``, and whether the gap closed to ``tol``.
    """
    k, _, rb = ak.shape
    best = math.inf
    for cand in (np.eye(rb, dtype=np.complex128), support_gram):
        sv, sq = _project(cand, e)
        val = _tr_power_term(_eigvals(_m_matrix(ak, sv, sq)), q)
        if val < best:
            best, best_pair = val, (sv, sq)
    h = h_prev = np.zeros((k, k), dtype=np.complex128)
    eye = np.eye(k)
    rho, lower, sv, sq, log_u, uq = _dual_point(ak, h, e, t)
    eta = math.inf
    iters = 0
    j = 1  # momentum counter, reset to 1 by a restart
    one_sided = math.isinf(q)
    while True:
        m = _m_matrix(ak, sv, sq)
        lam = _eigvals(m)
        # lam is sorted and clipped: at q = inf the upper value is lmax^{1/2}
        val = math.sqrt(lam[-1]) if one_sided else _tr_power_term(lam, q)
        if val < best:
            best, best_pair = val, (sv, sq)
        if best <= (1.0 + tol) * lower:
            return (*best_pair, rho, iters, True)
        if iters >= max_iters:
            break
        iters += 1
        grad, spec = m, lam
        if t > 1.0:
            grad = _pullback(m, log_u, uq, t)
            spec = np.linalg.eigvalsh(grad)
        # x^{1/t} is homogeneous of degree 1/t: tr(u grad) = tr(rho M) / t
        tr_u_grad = float(np.vdot(rho, m).real) / t
        if not (tr_u_grad > 0.0 and spec[-1] > spec[0]):
            break  # no ascent direction
        spread = float(spec[-1] - spec[0]) / tr_u_grad
        eta = min(5.0 / spread, 1.03 * eta)
        d = grad / tr_u_grad - eye  # centered: tr(u d) = 0
        if j > 1:
            momentum = (j - 1) / (j + 2) * (h - h_prev)
        for _ in range(_TRIALS):
            h_t = h + eta * d
            if j > 1:
                h_t += momentum
            trial = _dual_point(ak, h_t, e, t)
            if trial[1] >= lower:
                break
            if j > 1:
                j = 1  # adaptive restart: drop the momentum first
            else:
                eta *= 0.5
        else:
            break  # no step raises the dual
        h_prev, h = h, h_t
        j += 1
        rho, lower, sv, sq, log_u, uq = trial
    return (*best_pair, rho, iters, False)


def gram_density(A: np.ndarray, e: float) -> np.ndarray:
    """The density ``(sum_n A_n A_n^*)^{e/2} / tr`` on the k-space of A.

    It attains the one-sided dual for one coordinate and for diagonal ones
    (module docstring), and is a cheap density for any other.  Diagonal
    coordinates take it from ``c`` directly.
    """
    if _diagonal_coordinates(A):
        c = np.sum(np.abs(np.diagonal(A, axis1=1, axis2=2)) ** 2, axis=0)
        w = (c / float(c.max())) ** (0.5 * e)
        return np.diag(w / float(np.sum(w))).astype(np.complex128)
    gram = np.einsum("nij,nkj->ik", A, A.conj())
    rho = psd_power(gram / float(np.trace(gram).real), 0.5 * e)
    if not np.any(rho):  # every power underflowed: large e, flat spectrum
        rho = psd_power(gram / float(np.linalg.eigvalsh(gram)[-1]), 0.5 * e)
    return rho / float(np.trace(rho).real)


def minimize_gauge(A: np.ndarray, e: float, max_iters: int = 5000) -> GaugeResult:
    """Solve the one-sided gauge (``e >= 2``) in the coordinates of A.

    ``A`` has shape (N, k, r).  The returned witness ``s`` lives on the
    r-space, is zero off the right support of the coordinates and full-rank
    (regularized) on it, and ``value`` is its certified value
    (``evaluate_one_sided``).  ``rho`` is the dual density on the k-space
    that ``minimax_lower`` turns into the matching lower bound.  For one
    coordinate and for diagonal ones both take a closed form and
    ``iterations`` is 0 (module docstring); otherwise the ascent runs.
    ``converged`` is False only when the budget or a failed step search
    ended the ascent before its gap closed to ``GAP_TOL``.
    """
    if e < 2.0:
        raise ValueError(f"the one-sided gauge needs e >= 2, got {e}")
    A = np.asarray(A, dtype=np.complex128)
    n_coords, k, r = A.shape
    if r == 0 or n_coords == 0 or not np.any(A):
        return GaugeResult(0.0, np.eye(max(r, 1), dtype=np.complex128), 0, True)
    ub, ak, _, support_gram, _ = _restrict(A)
    if n_coords == 1 or _diagonal_coordinates(A):
        sv, sq = _project(support_gram, e)
        rho, iters, converged = gram_density(A, e), 0, True
    else:
        sv, sq, rho, iters, converged = _ascend(ak, support_gram, e, math.inf, 1.0,
                                                GAP_TOL, max_iters)
    sv = sv + 1e-12 * float(np.sum(sv)) / ub.shape[1]  # regularized inversion margin
    s_out = ub @ ((sq * sv) @ sq.conj().T) @ ub.conj().T
    return GaugeResult(value=evaluate_one_sided(A, s_out, e), s=s_out,
                       iterations=iters, converged=converged, rho=rho)


def _residual_correction(resid_coords: np.ndarray, p: float) -> float:
    """Sound bound on the gauge of leftover coordinates: sum of p-norms.

    One SVD of the whole stack; a zero coordinate adds 0.
    """
    if not np.all(np.isfinite(resid_coords)):
        raise InvalidInputError("residual coordinates must be finite")
    total = 0.0
    for sv in np.linalg.svd(resid_coords, compute_uv=False):
        total += lp_norm(sv, p)
    return total


def _witness_terms(y: np.ndarray, s_full: np.ndarray, p: float,
                   r_full: np.ndarray | None = None):
    """What both certified evaluations share, at the witness ``s`` (and ``r``).

    Reconstructs ``z_n = r^{-1/2} y_n s^{-1/2}`` (no left factor when ``r``
    is None) and returns ``(lmax(sum z_n z_n^*)^{1/2}, spectrum of s,
    residual charge)``, the charge being the coordinate-wise p-norms of
    ``r^{1/2} z_n s^{1/2} - y_n``, the part the witness does not reproduce.
    """
    s_ih = psd_power(s_full, -0.5)
    s_h = psd_power(s_full, 0.5)
    if r_full is None:
        z = y @ s_ih
        rebuilt = z @ s_h
    else:
        z = psd_power(r_full, -0.5) @ y @ s_ih
        rebuilt = psd_power(r_full, 0.5) @ z @ s_h
    m = np.einsum("nij,nkj->ik", z, z.conj())
    top = math.sqrt(max(float(np.linalg.eigvalsh(_herm(m))[-1]), 0.0))
    return (top, np.linalg.eigvalsh(_herm(s_full)),
            _residual_correction(rebuilt - y, p))


def evaluate_one_sided(coords: np.ndarray, s_full: np.ndarray, p: float) -> float:
    """Certified value of the one-sided gauge at a given witness ``s``.

    Always a valid upper bound: the part of the coordinates the witness does
    not reproduce is charged at its coordinate-wise p-norm.
    """
    y = np.asarray(coords, dtype=np.complex128)
    if not np.any(y):
        return 0.0
    top, svals, charge = _witness_terms(y, s_full, p)
    return top * _tr_power_term(svals, p) + charge


def evaluate_two_sided(coords: np.ndarray, r_full: np.ndarray,
                       s_full: np.ndarray, p: float) -> float:
    """Certified value of the two-sided gauge at a witness pair (r, s)."""
    y = np.asarray(coords, dtype=np.complex128)
    if not np.any(y):
        return 0.0
    top, svals, charge = _witness_terms(y, s_full, p, r_full)
    rvals = np.linalg.eigvalsh(_herm(r_full))
    return (_tr_power_term(rvals, q_from_p(p)) * top * _tr_power_term(svals, 2.0)
            + charge)


def minimize_two_sided(coords: np.ndarray, p: float,
                       max_iters: int = 5000) -> GaugeResult:
    """Minimize the two-sided gauge (p <= 2) after eliminating the left factor.

    For fixed ``s`` the optimal left factor has the closed form
    ``r = G(s) = sum_n y_n s^{-1} y_n^*`` (any feasible ``r`` must dominate
    ``G``, and the trace power is monotone), which collapses the problem to

        minimize  tr(G(s)^{q/2})^{2/q} * tr(s)   over  s > 0,

    a smooth convex objective.  A naive alternation between the two factors
    stalls: the scaling freedom between outer factors makes every point a
    fixed point, so the reduced form is both faster and correct.  The ascent
    (module docstring) solves it through its dual at ``rho = u^{1/t}``.

    One coordinate, diagonal ones and a support of rank one take the closed
    form ``s = diag(c)^{p/2}`` and ``iterations`` is 0 (module docstring),
    with ``rho ~ G(s)^{q/2 - 1}``.  ``value`` is the certified value of the
    witness (``evaluate_two_sided``) and ``rho`` the density behind the lower
    bound (``minimax_lower``).  ``converged`` is False only when the budget
    or a failed step search ended the ascent before its gap closed to
    ``DESCENT_GAP_TOL``.  At p = 2 the problem is the one-sided gauge at ``e
    = 2`` (``minimize_gauge``), with ``r`` the identity.
    """
    y = np.asarray(coords, dtype=np.complex128)
    n_coords, k, kr = y.shape
    ident_r = np.eye(k, dtype=np.complex128)
    if not np.any(y):
        return GaugeResult(0.0, np.eye(kr, dtype=np.complex128), 0, True, r=ident_r)
    q = q_from_p(p)
    if math.isinf(q):
        # p = 2: the left factor is absorbed, identical to the one-sided core
        res = minimize_gauge(y, 2.0, max_iters=max_iters)
        res.r = ident_r
        return res

    _, t = _dual_exponents(p)
    ub, ak, scale, support_gram, kept = _restrict(y)
    rb = ub.shape[1]
    if rb == 1 or n_coords == 1 or _diagonal_coordinates(y):
        # in its own eigenbasis the Gram is diag(kept) on the support
        sv, sq = _project(np.diag(kept ** (0.5 * p)).astype(np.complex128), 2.0)
        lam, u = _spectral(_m_matrix(ak, sv, sq))
        w = (lam / max(float(lam[-1]), 1e-300)) ** (0.5 * q - 1.0)
        rho, iters, converged = (u * w) @ u.conj().T, 0, True
    else:
        sv, sq, rho, iters, converged = _ascend(ak, support_gram, 2.0, q, t,
                                                DESCENT_GAP_TOL, max_iters)
    sv = sv + 1e-12 * float(np.sum(sv)) / rb  # regularized inversion margin
    s_full = scale * (ub @ ((sq * sv) @ sq.conj().T) @ ub.conj().T)
    yk = _k_major(y)
    b = (yk.reshape(-1, kr) @ psd_power(s_full, -1.0)).reshape(k, -1)
    r_full = _herm(b @ yk.reshape(k, -1).conj().T)
    return GaugeResult(value=evaluate_two_sided(y, r_full, s_full, p), s=s_full,
                       iterations=iters, converged=converged, r=r_full, rho=rho)


# ---------------------------------------------------------------------------
# the minimax dual: certified lower bounds
# ---------------------------------------------------------------------------


def _dual_exponents(p: float):
    """(beta, t): the bound is ``(|c|_beta / |rho|_t)^{1/2}``.

    ``beta = a/(a+1)`` with ``a = p/2`` and ``t = 1`` (density matrices) for
    p >= 2; ``beta = 1/2`` and ``t = (q/2)' = p/(2p - 2)`` for p < 2.  Both
    meet at p = 2.
    """
    if p >= 2.0:
        return p / (p + 2.0), 1.0
    return 0.5, p / (2.0 * p - 2.0)


def minimax_lower(coords: np.ndarray, rho: np.ndarray, p: float) -> float:
    """Certified lower bound on the factorization norm from a dual matrix.

    ``coords`` is an (N, k, r) stack and ``rho`` a Hermitian k x k matrix;
    the bound is ``(|c|_beta / |rho|_t)^{1/2}`` with ``c`` the spectrum of
    ``C(rho) = sum_n y_n^* rho y_n`` (see ``_dual_exponents`` and the module
    docstring), after the rounding allowance that keeps it below the exact
    value for the stored ``rho``.  Any ``rho`` gives a valid bound; a
    ``rho`` that is not PSD is shifted to ``rho + mu I`` first.
    """
    y, e = pow2_normalize(coords)  # a power of two: the rescaling is exact
    n_coords, k, r = y.shape
    if not np.any(y):
        return 0.0
    rho = _herm(np.asarray(rho, dtype=np.complex128))
    beta, t = _dual_exponents(p)

    lam_rho = np.linalg.eigvalsh(rho)
    eps_rho = 4.0 * k * _EPS * float(np.linalg.norm(rho))
    mu = max(0.0, eps_rho - float(lam_rho[0]))  # rho + mu I is PSD

    rows = y.reshape(-1, r)
    c = _herm(rows.conj().T @ (rho @ y).reshape(-1, r))
    envelope = np.abs(rows).T @ (np.abs(rho) @ np.abs(y)).reshape(-1, r)
    m = (n_coords + 1) * k + 4
    delta = (m * _EPS / (1.0 - m * _EPS) * float(np.linalg.norm(envelope))
             + 4.0 * r * _EPS * float(np.linalg.norm(c)))
    cv = np.clip(np.linalg.eigvalsh(c) - delta, 0.0, None)

    num = _tr_power_term(cv, 2.0 * beta)
    den = _tr_power_term(lam_rho + eps_rho + mu, 2.0 * t)
    if num == 0.0 or den == 0.0:
        return 0.0
    return pow2_restore(num / den * (1.0 - (2 * k + 16) * _EPS), e)
