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
(``evaluate_one_sided``, ``evaluate_two_sided``).  Diagonal coordinates skip
all of this: their value and witness are closed forms (below).

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
below.  Start from ``rho = I/k``; the upper point is the best of every
iterate's ``s``, the first one's included.  Stop with ``converged = True``
as soon as the best upper value is within ``1 + GAP_TOL`` of the lower one,
and with ``converged = False`` at ``max_iters`` or when a step search
fails.  Otherwise take an entropic mirror step (Beck and Teboulle,
2003) on ``h = log rho`` (``rho = exp(h) / tr exp(h)``) with Nesterov
momentum and adaptive restart (Beck and Teboulle, FISTA, 2009; O'Donoghue
and Candes, 2015):

    h_t = h + eta D + theta (h - h_prev),  D = M / tr(rho M) - I,
    theta = (j - 1) / (j + 2),

with ``eta = min(4 / top, 1.03 eta_prev)``, ``top = lmax(M) / tr(rho M) -
1`` the top eigenvalue of ``D``, and growth alone when ``top <= 0``.  The
cap looks only at the top of ``D`` because ``tr(rho D) = 0``: directions
``rho`` has emptied carry negative ``D`` (at the optimum ``M <= tr(rho M)``
off the support of ``rho``), so a long step there only empties them
faster, and what a step can overshoot is the growth of the directions at
the top.  The spread of ``D``, which capped ``eta`` before (``min(5 /
spread, 1.03 eta_prev)``), is set once ``rho`` has found its low-rank
support by eigenvalues of ``M`` in directions ``rho`` has left; on
``random_element(5, 5, default_rng(0))`` at p = 3, ``rho`` reaches rank 2
within about 25 dual evaluations (its other eigenvalues below 1e-30), at a
gap of 1e-5, and the spread cap then took about 80 more iterations to close
it to 1e-8 (the top cap: 77 iterations in all, against 104).  The slow
growth keeps ``eta`` near the last length that raised ``g`` after a
halving; faster growth (1.2, 1.5) made more trials fail and more ``fuzz``
ascents end on their budget.  The constant 4 was chosen from {3, 4, 5, 6, 8, 10} on the
``perfbench`` ``fuzz`` and ``certify`` workloads at seeds 3, 4 and 7 to 12,
where it cuts the one-sided dual evaluations by 17 % against the spread
cap, and confirmed at seeds 5 and 6 (-19 %) and on ``random_element(k,
k)``, k = 2..8, seeds 20 to 29 (-25 %, and no ascent of 700 ends on a
240-iteration budget, against 21).  The step is centered: ``exp(h + cI)``
normalizes to the density of ``h``, so ``D`` gives the iterates of the
plain step ``M / tr(rho M)`` in exact arithmetic, but ``tr(rho D) = 0``
keeps ``h`` from drifting by about ``eta I`` per step.  Uncentered,
momentum compounds that drift: on a 2 x 2 element it lifts both
eigenvalues of ``h`` to about 270 in 240 steps, so their difference, which
alone sets ``rho``, keeps about 8 bits fewer, and the gap stalls above
``GAP_TOL``.  Momentum matters because the optimal density has low rank:
without it the error inside the active subspace decays slowly.  A trial is
accepted when ``g`` does not fall.  A failing trial with momentum is
retried at the same ``eta`` without it (``theta = 0`` and ``j = 1``, the
restart); a failing trial without momentum halves ``eta``.  At most
``_TRIALS`` = 40 trials are made per iteration.  Any ``rho`` gives a sound
lower bound and any ``s`` a sound upper one, so momentum and the step
length change only the path, never soundness.  The lower value that steers
the ascent lowers each eigenvalue of ``C(rho)`` first by about the rounding
allowance of ``minimax_lower`` (``((N + 1) k + 4 r + 4) eps tr C``):
rounding noise on eigenvalues near zero would otherwise lift their roots,
by up to 1e-8 at ``beta = 1/2``, and close a gap that the certificate
cannot show.

A one-sided iteration makes three LAPACK calls, each through the kernel
``schatten.eigh`` / ``eigvalsh``, and otherwise scalar work: it
forms ``M(s)`` and takes its ``eigvalsh``, whose top eigenvalue is the upper
value, and a trial step takes one ``eigh`` of ``h_t`` and one of ``C(rho)``
(formed by ``_grad_gram``), whose eigenvectors are those of the next ``s``
and whose sorted spectrum gives the lower value.  ``tr(rho M(s))``, which
scales the step, is read off the two spectra as ``sum_i c_i / s_i`` (``s``
shares the eigenvectors of ``C(rho)``, so this is ``tr(s^{-1} C(rho))``);
the density ``rho = v v^*`` is formed only when the ascent returns.  Neither
``M`` nor ``C`` is symmetrized, since ``eigh`` reads one triangle; the work
on the spectra, of length r, is done on Python floats; and the centered step
is built in place, ``h + (eta / tr(rho M)) M`` less ``eta`` on the diagonal.
On ``random_element(k, k)`` at p in {2.5, 3, 4} an iteration makes 1.04
trials at k = 3 and 1.08 at k = 5..8 (1.02 under the spread cap).  The
matrices are k x k and r x r, so on small elements the cost is per-call
overhead rather than arithmetic.  The kernel calls numpy's LAPACK gufunc
without the ``np.linalg`` wrapper's set-up, for the same bits: with one BLAS
thread on a Xeon at k = 3 / 5 / 8 its ``eigh`` takes 3.5 / 5.6 / 10.8 us
against 7.0 / 9.0 / 14.2 us for ``np.linalg.eigh``, and its ``eigvalsh``
2.2 / 3.5 / 6.2 us against 5.1 / 6.4 / 9.2 us.  Each call the loop can skip
counts: at ``t = 1`` there is no power ``1/t``, and the first iteration and
a restart add no momentum.

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
``|M(s)|_{q/2}^{1/2}`` (``lp_norm(eig M(s), q/2)^{1/2}``, which reads
``lmax^{1/2}`` at ``q = inf``).  The gradient in ``u`` is that in ``rho``,
``M(s)``, pulled back through the derivative of ``x^{1/t}`` (the
Daleckii-Krein formula, ibid.): ``Q (L o Q^* M Q) Q^*`` with ``Q`` an
eigenbasis of ``u`` and the divided differences ``L_ij = (u_i^{1/t} -
u_j^{1/t}) / (u_i - u_j)``, the derivative ``u_i^{1/t - 1} / t`` where two
eigenvalues coincide (``_pullback``, which forms them from the
log-spectrum that ``h`` gives).  ``x^{1/t}`` is homogeneous of degree
``1/t``, so ``tr(u grad) = tr(rho M) / t``, and the centered step divides
by that.  At ``t = 1`` ``L`` is all ones and the step is the one-sided one,
so one driver, ``_ascend(ak, e, q, t, tol, max_iters)``, serves both:
``minimize_gauge`` at ``(e, inf, 1, GAP_TOL)`` and ``minimize_two_sided``
at ``(2, q, t, DESCENT_GAP_TOL)``.  For ``t > 1`` an
iteration also forms the pulled-back gradient and takes its ``eigvalsh``,
whose spread caps ``eta`` as ``min(5 / spread, 1.03 eta_prev)``: capping
by its top instead raised the two-sided iterations on the tuning seeds
above from 8,989 to 9,649 (constant 4) and 10,400 (constant 5).  More of
these trials fail: an iteration makes 1.38 of them on ``random_element(k,
k)`` at p in {1.2, 1.5, 1.8}.

Closed forms (``iterations = 0``).  Diagonal coordinates, for both solvers
(the commutative case, which covers every element that ``verify_pipeline``
certifies after its witness): write ``c_i = sum_n |(A_n)_ii|^2``.  A diagonal
unitary D commutes with every A_n, so ``M(D s D^*) = D M(s) D^*`` and both
objectives are invariant under ``s -> D s D^*``.  Both reduce to a convex
function of ``s`` (``lmax(M(s))``, and ``tr(G(s)^{q/2})^{2/q}`` for the
two-sided form) on the convex set ``tr(s^{e/2}) <= 1`` (``e = 2`` for the
two-sided form), so the torus average of ``D s D^*``, which is ``diag(s)``,
is no worse; it stays in the set because ``tr(diag(s)^{e/2}) <=
tr(s^{e/2})`` for ``e/2 >= 1`` (the diagonal is majorized by the spectrum,
Schur-Horn).  Among diagonal ``s = diag(t)`` the one-sided objective is
``max_i c_i / t_i`` on ``sum_i t_i^{e/2} = 1``, minimized by ``t ~ c``,
where every eigenvalue of M(s) is equal: the value is ``|c^{1/2}|_e``.  The
reduced two-sided objective is ``|(c_i / t_i)_i|_{q/2}`` on ``sum_i t_i =
1``, minimized by ``t ~ c^{p/2}``; then ``r = G(s) = diag(c^{1 - p/2})`` (up
to scale) and the value is ``|c^{1/2}|_p`` (Hoelder's equality case).  So
the norm of diagonal coordinates is exactly ``|c^{1/2}|_p`` (``p = e`` for
the one-sided form), and ``_diagonal_solve`` returns that number rounded up
by the allowance below, with no eigensolve, no SVD and no evaluation of the
witness.  The witness is built from ``c`` as a solve would leave it: the
support cut at ``DEFAULT_RANK_TOL`` of the largest ``c_i``, the floor
``_EIG_FLOOR`` and the regularization margin, ``s ~ diag(c)`` with
``tr(s^{e/2}) = 1``, or ``s ~ diag(c)^{p/2}`` scaled to the Frobenius norm
of the kept coordinates with ``r = G(s) = diag(c / s)``.  Its own value
exceeds the closed form by that regularization, about 1e-12 relative, plus
the p-norm of the coordinates the cut drops.  The density is ``rho ~
diag(c)^{e/2}``, which gives ``C(rho) ~ diag(c^{a+1})`` and ``g =
|c^{1/2}|_e^2`` since ``(a+1) beta = a``; for the two-sided form ``rho ~
G(s)^{q/2 - 1}``, which attains ``|G(s)|_{q/2}`` (Hoelder).  Either is a
matrix like any other to ``minimax_lower``, which checks the closed form by
an independent route.

Rounding allowance of the diagonal value.  Write ``u = eps / 2``.  The
diagonals are first divided by a power of two (``pow2_normalize``, exact) to
a largest modulus in [1/2, 1), so ``c_max >= 1/4`` and no square overflows.
``c_i`` is summed from the ``2N`` squares of the real and imaginary parts,
all nonnegative: its relative error is at most ``(N + 1) u`` (to first
order, here and below).  Squares that underflow belong to terms with ``c_i <
2^-990 c_max`` (or change others by less than ``2N 2^-1075``, below ``2N
2^-85`` of any ``c_i >= 2^-990``), whose share of ``sum_i c_i^{p/2}`` is
below ``2^-490`` for every p > 1: far below ``u``.  ``sqrt`` halves the
relative error of ``c_i`` and adds ``u``.  ``lp_norm`` then forms ``x_i /
x_max`` (``u``), its p-th power (``pow``, at most one ulp, ``2u``), their
sum (``(k - 1) u``: nonnegative terms, and at least 1, so powers that
underflow lose less than ``k 2^-1074`` of it), the power ``1/p`` of that
sum (``2u``, and ``u ln(k) / p`` for the rounding of ``1/p``) and the
product with ``x_max`` (``u``).  The relative errors of the terms, which
the p-th power multiplies by ``p``, are divided by ``p`` again by the power
``1/p``: each term's ``(1 + u)^p (1 + 2u)`` becomes ``(1 + u) (1 +
2u)^{1/p}``, at every p (CI runs p = 600), since nothing there overflows.
So the computed value is within ``((N + 1) / 2 + 5) u + (k + 1 + ln k) u /
p <= (N / 2 + 2k + 6) u`` of ``|c^{1/2}|_p`` (``p > 1``, ``ln k <= k -
1``).  ``vecnorm.alpha_upper``, which divides ``y`` by ``max |y|`` before
the solve and multiplies the value back, adds ``2u``.  The value is
multiplied by ``1 + (ceil(N/2) + k + 8) eps``, which is ``1 + (2 ceil(N/2) +
2k + 16) u`` exactly (a whole number of ``eps``) and leaves at least
``(N + 2k + 15) u`` after its own rounding: more than those ``(N/2 + 2k +
8) u`` with room for the second-order terms.  Rounding outward matters at
k = 1, where the lower bound is exact up to rounding too: without it
``beta_certify`` returned ``lower > upper`` on most k = n = 1 elements.
One coordinate is the diagonal case after the unitaries of its singular
value decomposition (``A -> U A V^*``, ``s -> V^* s V``), with ``c`` the
eigenvalues of ``A^* A``: the value is ``|A|_e`` (``s = A^* A``), or
``|A|_p`` at ``s = (A^* A)^{p/2}`` for the two-sided form.  A right support
of rank one leaves nothing to descend.  These two closed forms still run
the support restriction and the final evaluation of a solve; the two-sided
form takes ``s ~ diag(kept)^{p/2}`` in the Gram eigenbasis that the
restriction already holds (``kept`` its eigenvalues on the support), so no
diagonal matrix is decomposed again; for one
coordinate the density ``rho ~ (A A^*)^a`` (``gram_density``) attains the
one-sided bound, since ``C(rho) ~ (A^* A)^{a+1}``.

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
for p < 2 (``t = 1`` where ``q_from_p`` reads ``q = inf``, just below 2);
both read ``tr C(rho)^{1/2} / (tr rho)^{1/2}`` at p = 2.  Both
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
from .schatten import (DEFAULT_RANK_TOL, eigh, eigvalsh, lp_norm,
                       pow2_normalize, pow2_restore_outward, psd_power,
                       psd_spectrum, spectral_power)
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
#: default iteration budget of each ascent
MAX_ITERS = 5000
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
    vals, vecs = eigh(_herm(s))
    return np.maximum(vals, 0.0), vecs


def _normalize(vals: list, e: float) -> list:
    """Clip an ascending spectrum to the relative floor and normalize
    sum(vals^{e/2}) = 1, on Python floats.  A zero spectrum becomes flat.
    """
    if vals[-1] > 0.0:
        floor = _EIG_FLOOR * vals[-1]
        vals = [x if x > floor else floor for x in vals]
    else:
        vals = [1.0] * len(vals)
    norm = lp_norm(vals, 0.5 * e)
    return [x / norm for x in vals]


def _project(s: np.ndarray, e: float):
    """Clip to the PD cone (relative floor) and normalize tr(s^{e/2}) = 1."""
    vals, vecs = _spectral(s)
    return np.array(_normalize(vals.tolist(), e)), vecs


def _k_major(A: np.ndarray) -> np.ndarray:
    """Contiguous (k, N, r) copy of (N, k, r) coordinates for the GEMM kernels."""
    return np.ascontiguousarray(np.transpose(A, (1, 0, 2)))


def _restrict(A: np.ndarray):
    """The right support of (N, k, r) coordinates, shared by every solve.

    Returns ``(ub, ak, scale, gram, kept)``: ``ub`` holds the eigenvectors
    of the Gram ``gram = sum_n A_n^* A_n`` above the rank cut, ``ak`` the
    k-major copy (``_k_major``) of ``A @ ub`` divided by its Frobenius norm
    ``scale``, and ``kept`` the Gram eigenvalues on the support, ascending.
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
    return ub, _k_major(ab / scale), scale, gram, gvals[keep]


def _m_matrix(ak: np.ndarray, svals: np.ndarray, svecs: np.ndarray) -> np.ndarray:
    """M(s) = sum_n A_n s^{-1} A_n^* in PSD form, as two GEMMs.

    ``ak`` is the k-major copy of the coordinates (see ``_k_major``): the rows
    of ``ak @ s^{-1/2}`` regroup into ``B = [A_1 s^{-1/2}, ..., A_N s^{-1/2}]``
    and ``M = B B^*``.  ``s`` is given by its spectrum and eigenvectors.
    ``M`` is Hermitian up to rounding and not symmetrized: ``eigh`` reads one
    triangle.
    """
    k, _, r = ak.shape
    b = (ak.reshape(-1, r) @ (svecs * svals ** -0.5)).reshape(k, -1)
    return b @ b.conj().T


def _grad_gram(ak: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_n A_n^* v v^* A_n as X^* X with X the stacked rows of v^* A_n."""
    k, _, r = ak.shape
    x = (v.conj().T @ ak.reshape(k, -1)).reshape(-1, r)
    return x.conj().T @ x


def _diagonal_coordinates(A: np.ndarray) -> bool:
    """Every (square) coordinate is zero off its diagonal, tested exactly."""
    _, k, r = A.shape
    return k == r and not np.any(A[:, ~np.eye(k, dtype=bool)])


def _diagonal_weights(A: np.ndarray):
    """``(c, e, d)``: ``c_i = sum_n |(A_n)_ii|^2`` for the coordinates ``A /
    2^e``, whose diagonals are the rows of ``d``.

    The diagonals are scaled by an exact power of two to a largest modulus
    in [1/2, 1) (``pow2_normalize``), so no square overflows.
    """
    d, e = pow2_normalize(np.diagonal(A, axis1=1, axis2=2))
    return np.sum(d.real ** 2 + d.imag ** 2, axis=0), e, d


def _diagonal_slack(n_coords: int, k: int) -> float:
    """The relative rounding allowance of ``lp_norm(sqrt(c), p)`` for ``N =
    n_coords`` coordinates of size k (module docstring)."""
    return ((n_coords + 1) // 2 + k + 8) * _EPS


def _diagonal_value(c: np.ndarray, e: int, n_coords: int, p: float) -> float:
    """``|c^{1/2}|_p 2^e`` rounded up by the allowance of the module docstring."""
    slack = _diagonal_slack(n_coords, c.size)
    return pow2_restore_outward(lp_norm(np.sqrt(c), p) * (1.0 + slack), e,
                                math.inf)


def diagonal_upper(A: np.ndarray, p: float) -> float:
    """Certified upper bound on the gauge of diagonal (N, k, k) coordinates.

    Their norm at exponent p is exactly ``|c^{1/2}|_p`` with ``c_i = sum_n
    |(A_n)_ii|^2``, on either branch (module docstring); this is that value
    rounded up, with no LAPACK call.
    """
    c, e, _ = _diagonal_weights(A)
    return _diagonal_value(c, e, A.shape[0], p)


def _diagonal_density(x: np.ndarray, power: float) -> np.ndarray:
    """The density ``diag(x)^power / tr`` of a nonnegative vector ``x``."""
    w = (x / float(x.max())) ** power
    return np.diag(w / float(np.sum(w))).astype(np.complex128)


def _diagonal_solve(A: np.ndarray, p: float, two_sided: bool) -> GaugeResult:
    """The closed form of both solvers for diagonal coordinates, at ``e = p``.

    Returns the exact value rounded up (``_diagonal_value``) and the witness
    and density of the module docstring, built from ``c`` with the support
    cut, floor and margin of a solve: one-sided ``s ~ diag(c)``, two-sided
    ``s ~ diag(c)^{p/2}`` times the Frobenius norm of the kept coordinates
    and ``r = G(s) = diag(c / s)``.  No LAPACK call; the witness is not
    evaluated.
    """
    c, e, _ = _diagonal_weights(A)
    top = float(c.max())
    keep = c >= DEFAULT_RANK_TOL * top
    ratio = c[keep] / top
    sv = np.maximum(ratio ** (0.5 * p) if two_sided else ratio, _EIG_FLOOR)
    sv /= lp_norm(sv, 1.0 if two_sided else 0.5 * p)
    sv += 1e-12 * float(np.sum(sv)) / sv.size  # regularized inversion margin
    value = _diagonal_value(c, e, A.shape[0], p)
    s = np.zeros(c.size)
    if not two_sided:
        s[keep] = sv
        return GaugeResult(value, np.diag(s).astype(np.complex128), 0, True,
                           rho=_diagonal_density(c, 0.5 * p))
    s[keep] = sv * math.sqrt(float(np.sum(c[keep])))
    g = np.zeros(c.size)
    g[keep] = c[keep] / s[keep]  # G(s) at the scale of A / 2^e
    return GaugeResult(value, np.diag(np.ldexp(s, e)).astype(np.complex128), 0, True,
                       r=np.diag(np.ldexp(g, e)).astype(np.complex128),
                       rho=_diagonal_density(g, 0.5 * q_from_p(p) - 1.0))


def q_from_p(p: float) -> float:
    """Outer left exponent of the two-sided form: 1/q = 1/p - 1/2."""
    inv = 1.0 / p - 0.5
    return math.inf if inv <= 1e-15 else 1.0 / inv


_TRIALS = 40  # step halvings before a step search fails


def _dual_point(ak: np.ndarray, h: np.ndarray, e: float, t: float):
    """The one-sided dual at ``rho = u^{1/t}``, ``u = exp(h) / tr exp(h)``.

    Returns ``(v, lower, svals, svecs, log_u, uvecs, tr_rho_m)``: the factor
    ``v`` of ``rho = v v^*``, ``lower = |C(rho)|_beta^{1/2}`` less the
    rounding allowance (module docstring), the spectrum and eigenvectors of
    the inner optimum ``s ~ C(rho)^{1/(a+1)}`` with ``tr(s^a) = 1`` (floored
    and normalized by ``_normalize``), the log-spectrum of ``u`` (None at
    ``t = 1``, where ``_pullback`` does not run) and its eigenvectors, and
    ``tr(rho M(s)) = tr(s^{-1} C(rho)) = sum_i c_i / s_i``, read off the two
    spectra since ``s`` shares the eigenvectors of ``C(rho)``.  The work on
    the spectra, of length r, is done on Python floats.
    """
    a = 0.5 * e
    k, n_coords, r = ak.shape
    hv, hq = eigh(h)
    w = np.exp(hv - hv[-1])
    total = float(w.sum())
    u = w / total
    v = hq * np.sqrt(u if t == 1.0 else u ** (1.0 / t))
    cv, cq = eigh(_grad_gram(ak, v))  # eigh reads one triangle
    c = [x if x > 0.0 else 0.0 for x in cv.tolist()]
    slack = ((n_coords + 1) * k + 4 * r + 4) * _EPS * sum(c)
    # |.|_beta of the lowered spectrum; lp_norm drops what falls below 0
    lower = math.sqrt(lp_norm([x - slack for x in c], a / (a + 1.0)))
    s = _normalize([x ** (1.0 / (a + 1.0)) for x in c], e)
    log_u = None if t == 1.0 else hv - (hv[-1] + math.log(total))
    return v, lower, np.array(s), cq, log_u, hq, sum([x / y for x, y in zip(c, s)])


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


def _ascend(ak: np.ndarray, e: float, q: float, t: float, tol: float,
            max_iters: int):
    """Entropic mirror ascent of the dual at ``rho = u^{1/t}`` (module docstring).

    Each iteration steps ``h = log u`` along the centered gradient ``D =
    grad / tr(u grad) - I``, ``grad`` being ``M`` pulled back to ``u``
    (``M`` itself at ``t = 1``), plus the momentum ``theta (h - h_prev)``,
    ``theta = (j - 1) / (j + 2)``, at ``eta = min(4 / top, 1.03 eta_prev)``
    with ``top`` the top eigenvalue of ``D`` at ``t = 1`` (growth alone when
    it is not positive), and ``eta = min(5 / spread, 1.03 eta_prev)`` with
    the spread of ``D`` for ``t > 1``.  A trial that lowers the dual first
    drops the momentum (restart to ``j = 1``), then halves ``eta``; at most
    ``_TRIALS`` trials per iteration.  The upper value of ``s`` is
    ``lp_norm(eig M(s), q/2)^{1/2}``, which is ``lmax(M(s))^{1/2}`` at ``q =
    inf``.  ``tr(u grad) = tr(rho M) / t`` comes from ``_dual_point``, and
    ``rho`` is formed from its factor only on return.

    Returns ``(svals, svecs, rho, iterations, converged)``: the best upper
    point of the iterates, the first dual point's ``s`` included, the last
    ``rho``, and whether the gap closed to ``tol``.
    """
    k = ak.shape[0]
    best = math.inf
    h = h_prev = np.zeros((k, k), dtype=np.complex128)
    v, lower, sv, sq, log_u, uq, tr_rho_m = _dual_point(ak, h, e, t)
    eta = math.inf
    iters = 0
    j = 1  # momentum counter, reset to 1 by a restart
    while True:
        m = _m_matrix(ak, sv, sq)
        lam = eigvalsh(m)
        val = math.sqrt(lp_norm(lam, 0.5 * q))  # lmax^{1/2} at q = inf
        if val < best:
            best, best_pair = val, (sv, sq)
        if best <= (1.0 + tol) * lower:
            return (*best_pair, v @ v.conj().T, iters, True)
        if iters >= max_iters:
            break
        iters += 1
        grad, spec = m, lam
        if t > 1.0:
            grad = _pullback(m, log_u, uq, t)
            spec = eigvalsh(grad)
        # x^{1/t} is homogeneous of degree 1/t: tr(u grad) = tr(rho M) / t
        tr_u_grad = tr_rho_m / t
        lo, hi = float(spec[0]), float(spec[-1])
        if not (tr_u_grad > 0.0 and hi > lo):
            break  # no ascent direction
        # eta is capped by the top of D at t = 1 (module docstring), by its
        # spread otherwise; growth alone sets it when the top is not positive
        if t == 1.0:
            reach, width = 4.0, hi / tr_u_grad - 1.0
        else:
            reach, width = 5.0, (hi - lo) / tr_u_grad
        eta = min(reach / width, 1.03 * eta) if width > 0.0 else 1.03 * eta
        if math.isinf(eta):
            break  # D <= 0 at the full-rank start: no ascent direction
        if j > 1:
            momentum = (j - 1) / (j + 2) * (h - h_prev)
        for _ in range(_TRIALS):
            # h + eta D with D = grad / tr(u grad) - I, centered: tr(u D) = 0
            h_t = h + (eta / tr_u_grad) * grad
            h_t.flat[::k + 1] -= eta
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
        v, lower, sv, sq, log_u, uq, tr_rho_m = trial
    return (*best_pair, v @ v.conj().T, iters, False)


def gram_density(A: np.ndarray, e: float) -> np.ndarray:
    """The density ``(sum_n A_n A_n^*)^{e/2} / tr`` on the k-space of A.

    It attains the one-sided dual for one coordinate (module docstring), and
    is a cheap density for any other.
    """
    gram = np.einsum("nij,nkj->ik", A, A.conj())
    rho = psd_power(gram / float(np.trace(gram).real), 0.5 * e)
    if not np.any(rho):  # every power underflowed: large e, flat spectrum
        rho = psd_power(gram / float(eigvalsh(gram)[-1]), 0.5 * e)
    return rho / float(np.trace(rho).real)


def minimize_gauge(A: np.ndarray, e: float, max_iters: int = MAX_ITERS) -> GaugeResult:
    """Solve the one-sided gauge (``e >= 2``) in the coordinates of A.

    ``A`` has shape (N, k, r).  The returned witness ``s`` lives on the
    r-space, is zero off the right support of the coordinates and full-rank
    (regularized) on it, and ``value`` is its certified value
    (``evaluate_one_sided``).  ``rho`` is the dual density on the k-space
    that ``minimax_lower`` turns into the matching lower bound.  For one
    coordinate and for diagonal ones both take a closed form and
    ``iterations`` is 0 (module docstring); otherwise the ascent runs.
    Diagonal coordinates return their exact value rounded up
    (``_diagonal_solve``) instead of the value of the witness.
    ``converged`` is False only when the budget or a failed step search
    ended the ascent before its gap closed to ``GAP_TOL``.
    """
    if e < 2.0:
        raise ValueError(f"the one-sided gauge needs e >= 2, got {e}")
    A = np.asarray(A, dtype=np.complex128)
    n_coords, k, r = A.shape
    if not np.any(A):
        return GaugeResult(0.0, np.eye(max(r, 1), dtype=np.complex128), 0, True)
    if _diagonal_coordinates(A):
        return _diagonal_solve(A, e, two_sided=False)
    ub, ak, _, gram, kept = _restrict(A)
    if n_coords == 1:
        # s = A^* A on the support, in the scale of its top eigenvalue
        sv, sq = _project(ub.conj().T @ gram @ ub / float(kept[-1]), e)
        rho, iters, converged = gram_density(A, e), 0, True
    else:
        sv, sq, rho, iters, converged = _ascend(ak, e, math.inf, 1.0, GAP_TOL,
                                                max_iters)
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


def _roots(b: np.ndarray):
    """``(b^{1/2}, b^{-1/2}, spectrum of b)`` from one eigendecomposition.

    Both roots live on the support that ``psd_power`` keeps.
    """
    spec = psd_spectrum(b)
    return spectral_power(*spec, 0.5), spectral_power(*spec, -0.5), spec[0]


def _witness_value(y: np.ndarray, s_full: np.ndarray, e: float, p: float,
                   r_full: np.ndarray | None = None) -> float:
    """What both certified evaluations compute, at the witness ``s`` (and ``r``).

    Reconstructs ``z_n = r^{-1/2} y_n s^{-1/2}`` (no left factor when ``r``
    is None) and returns ``lmax(sum z_n z_n^*)^{1/2} tr(s^{e/2})^{1/e}``,
    times ``tr(r^{q/2})^{1/q}`` with ``r``, plus the residual charge: the
    coordinate-wise p-norms of ``r^{1/2} z_n s^{1/2} - y_n``, the part the
    witness does not reproduce.  Each factor is decomposed once (``_roots``).
    """
    y = np.asarray(y, dtype=np.complex128)
    if not np.any(y):
        return 0.0
    s_h, s_ih, svals = _roots(s_full)
    value = math.sqrt(lp_norm(svals, 0.5 * e))
    if r_full is None:
        z = y @ s_ih
        rebuilt = z @ s_h
    else:
        r_h, r_ih, rvals = _roots(r_full)
        value *= math.sqrt(lp_norm(rvals, 0.5 * q_from_p(p)))
        z = r_ih @ y @ s_ih
        rebuilt = r_h @ z @ s_h
    zk = _k_major(z).reshape(z.shape[1], -1)
    top = math.sqrt(lp_norm(eigvalsh(zk @ zk.conj().T), math.inf))
    return top * value + _residual_correction(rebuilt - y, p)


def evaluate_one_sided(coords: np.ndarray, s_full: np.ndarray, p: float) -> float:
    """Certified value of the one-sided gauge at a given witness ``s``.

    Always a valid upper bound: the part of the coordinates the witness does
    not reproduce is charged at its coordinate-wise p-norm.
    """
    return _witness_value(coords, s_full, p, p)


def evaluate_two_sided(coords: np.ndarray, r_full: np.ndarray,
                       s_full: np.ndarray, p: float) -> float:
    """Certified value of the two-sided gauge at a witness pair (r, s)."""
    return _witness_value(coords, s_full, 2.0, p, r_full)


def minimize_two_sided(coords: np.ndarray, p: float,
                       max_iters: int = MAX_ITERS) -> GaugeResult:
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
    witness (``evaluate_two_sided``), or for diagonal coordinates their
    exact value rounded up (``_diagonal_solve``), and ``rho`` the density
    behind the lower bound (``minimax_lower``).  ``converged`` is False only
    when the budget or a failed step search ended the ascent before its gap
    closed to ``DESCENT_GAP_TOL``.  At p = 2, and just below it, where
    ``q_from_p`` reads ``q = inf``, the ascent takes the upper value
    ``lmax(M(s))^{1/2}`` and ``t = 1`` (``_dual_exponents``): it is the
    one-sided ascent at ``e = 2`` (``minimize_gauge``), run to
    ``DESCENT_GAP_TOL``, with ``r = G(s)``.  ``vecnorm.alpha_upper`` sends every p >= 2 to
    ``minimize_gauge`` instead.
    """
    y = np.asarray(coords, dtype=np.complex128)
    n_coords, k, kr = y.shape
    if not np.any(y):
        return GaugeResult(0.0, np.eye(kr, dtype=np.complex128), 0, True,
                           r=np.eye(k, dtype=np.complex128))
    if _diagonal_coordinates(y):
        return _diagonal_solve(y, p, two_sided=True)
    q = q_from_p(p)
    _, t = _dual_exponents(p)
    ub, ak, scale, _, kept = _restrict(y)
    rb = ub.shape[1]
    if rb == 1 or n_coords == 1:
        # in its own eigenbasis the Gram is diag(kept) on the support
        sv = np.array(_normalize((kept ** (0.5 * p)).tolist(), 2.0))
        sq = np.eye(rb, dtype=np.complex128)
        lam, u = _spectral(_m_matrix(ak, sv, sq))
        w = (lam / max(float(lam[-1]), 1e-300)) ** (0.5 * q - 1.0)
        rho, iters, converged = (u * w) @ u.conj().T, 0, True
    else:
        sv, sq, rho, iters, converged = _ascend(ak, 2.0, q, t, DESCENT_GAP_TOL,
                                                max_iters)
    sv = sv + 1e-12 * float(np.sum(sv)) / rb  # regularized inversion margin
    s_full = scale * (ub @ ((sq * sv) @ sq.conj().T) @ ub.conj().T)
    # r = G(s) from the spectral form of s: every kept eigenvalue is floored
    # far above the rank cut, so this is sum_n y_n s^+ y_n^*
    r_full = _herm(_m_matrix(_k_major(y), scale * sv, ub @ sq))
    return GaugeResult(value=evaluate_two_sided(y, r_full, s_full, p), s=s_full,
                       iterations=iters, converged=converged, r=r_full, rho=rho)


# ---------------------------------------------------------------------------
# the minimax dual: certified lower bounds
# ---------------------------------------------------------------------------


def _dual_exponents(p: float):
    """(beta, t): the bound is ``(|c|_beta / |rho|_t)^{1/2}``.

    ``beta = a/(a+1)`` with ``a = p/2`` and ``t = 1`` (density matrices) for
    p >= 2; ``beta = 1/2`` and ``t = (q/2)' = p/(2p - 2)`` for p < 2.  Both
    meet at p = 2.  ``t = 1`` wherever ``q_from_p`` reads ``q = inf``, also
    just below p = 2: ``|rho|_1 >= |rho|_t`` for ``t >= 1``, so the bound
    stays sound, and the two-sided ascent there is the one-sided one.
    """
    if p >= 2.0:
        return p / (p + 2.0), 1.0
    return 0.5, 1.0 if math.isinf(q_from_p(p)) else p / (2.0 * p - 2.0)


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

    lam_rho = eigvalsh(rho)
    eps_rho = 4.0 * k * _EPS * float(np.linalg.norm(rho))
    mu = max(0.0, eps_rho - float(lam_rho[0]))  # rho + mu I is PSD

    rows = y.reshape(-1, r)
    c = _herm(rows.conj().T @ (rho @ y).reshape(-1, r))
    envelope = np.abs(rows).T @ (np.abs(rho) @ np.abs(y)).reshape(-1, r)
    m = (n_coords + 1) * k + 4
    delta = (m * _EPS / (1.0 - m * _EPS) * float(np.linalg.norm(envelope))
             + 4.0 * r * _EPS * float(np.linalg.norm(c)))

    # lp_norm counts the eigenvalues that the lowering pushes below 0 as 0
    num = lp_norm(eigvalsh(c) - delta, beta)
    den = lp_norm(lam_rho + eps_rho + mu, t)
    if num == 0.0 or den == 0.0:
        return 0.0
    return pow2_restore_outward(math.sqrt(num / den) * (1.0 - (2 * k + 16) * _EPS),
                                e, 0.0)
