"""End-to-end construction of a completely positive contraction that beats
the factor-4 bound required of rigidly factorisable maps.

The witness element ``w = sum_i e_i (x) e_i (x) e_1`` has row norm exactly 1.
Pushing it through the amplified map ``u (x) I`` and projecting onto the
diagonal triple-tensor coordinates leaves the coefficient vector

    lam_1 = (2 k^{-1/(2p)} + 1 + k^{-1/p}) / 4,    lam_i = k^{-1/(2p)} / 4,

whose l^p norm grows like k^{1/p - 1/(2p)}.  Since diagonal pairing only
sees the diagonal part, a matched diagonal dual witness turns this into a
certified lower bound on ||u (x) I|| in the p-sum norm, which diverges in k
while rigid factorisations would cap it at 4.

That u is a contraction is certified, not sampled: by the triangle
inequality over the four corner maps, ||u||_{p->p} <= (1 + c) / 2 with
c = k^{-1/(2p)} k^{max(0, 1/p - 1/2)} <= 1 (see ``contraction_upper_bound``).
Fixed probes (and optional random ones) give a lower bound, so each report
carries the bracket [sampled, certified].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cpmaps import (amplify_apply, build_counterexample_maps,
                     choi_min_eigenvalue, is_completely_positive,
                     sampled_contraction_ratio)
from .errors import InvalidInputError
from .schatten import check_exponent, check_size
from .vecnorm import Side, VecElem, alpha_certify, beta_certify
from .yeadon import RIGID_FACTOR

#: largest k for which the optimizer-backed checks run by default
NUMERIC_K_CAP = 32


def check_pipeline_exponent(p: float) -> float:
    """Validate ``p`` for the pipeline, which needs ``p >= 2``.

    The witness ``w`` has norm 1 only there; for p < 2 its norm is
    ``k^{1/p - 1/2}`` (the two-sided branch), so the chain does not apply.
    """
    p = check_exponent(p)
    if p < 2.0:
        raise InvalidInputError(
            f"the counterexample pipeline needs p >= 2, got p = {p!r} "
            f"(for p < 2 the witness norm is k^(1/p - 1/2), not 1)")
    return p


def witness_w(k: int) -> VecElem:
    """w = sum_i e_i (x) e_i (x) e_1: coordinate n is the matrix unit E_{n1}."""
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    coords = np.zeros((k, k, k), dtype=np.complex128)
    coords[np.arange(k), np.arange(k), 0] = 1.0
    return VecElem(coords)


def closed_form_images(k: int, p: float):
    """Exact images of the witness under the four amplified corner maps.

    Returns (im1, im2, im3, im4) with
      im1 = k^{-1/(2p)} sum_i e_i (x) e_i (x) e_i
      im2 = k^{-1/(2p)} e_1 (x) e_1 (x) e_1
      im3 = e_1 (x) e_1 (x) e_1
      im4 = k^{-1/p} sum_i e_i (x) e_1 (x) e_i   (coordinate 1 = k^{-1/p} I)
    """
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    check_exponent(p)
    half = float(k) ** (-1.0 / (2.0 * p))
    full = float(k) ** (-1.0 / p)
    e1 = np.zeros(k)
    e1[0] = 1.0
    c4 = np.zeros((k, k, k), dtype=np.complex128)
    c4[0] = full * np.eye(k)
    return (VecElem.diagonal([half] * k), VecElem.diagonal(half * e1),
            VecElem.diagonal(e1), VecElem(c4))


def contraction_upper_bound(k: int, p: float) -> float:
    """Certified upper bound (1 + c) / 2 on ||u||_{p->p}, rounded upward.

    Triangle inequality over u = (u1 + u2 + u3 + u4) / 4:

    * u1 and u2 send the first column or row of x to the diagonal, scaled
      by k^{-1/(2p)}; the l^p norm of a column is at most
      k^{max(0, 1/p - 1/2)} times its l^2 norm, which is at most ||x||_p.
      So ||u1||, ||u2|| <= c = k^{-1/(2p)} k^{max(0, 1/p - 1/2)}, attained
      at E11 for p >= 2 and at the all-ones first column (row) for p < 2.
    * u3 is the diagonal projection, ||u3|| <= 1.
    * u4(x) = k^{-1/p} x11 I has norm |x11| <= ||x||_p, so ||u4|| <= 1.

    The exponent of c is formed with at most half an ulp of error (exact
    subtraction for p < 2), which k^g amplifies by ln k; with the rounding
    of k, pow (at most one ulp) and the sum, the relative error is below
    (2 + ln(k) / 2) eps, and the margin charged is (8 + ln k) eps.
    """
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    p = check_exponent(p)
    kf = float(k)
    g = -0.5 / p if p >= 2.0 else 0.5 / p - 0.5
    bound = 0.5 * (1.0 + kf ** g)
    margin = (8.0 + math.log(kf)) * np.finfo(float).eps
    return float(np.nextafter(bound * (1.0 + margin), np.inf))


def diagonal_coefficients(k: int, p: float) -> np.ndarray:
    """The diagonal coefficient vector of P (u (x) I) w."""
    half = float(k) ** (-1.0 / (2.0 * p))
    full = float(k) ** (-1.0 / p)
    lams = np.full(k, 0.25 * half)
    lams[0] = 0.25 * (2.0 * half + 1.0 + full)
    return lams


def lower_bound_formula(k: int, p: float) -> float:
    """Certified divergent lower bound on ||u (x) I|| in the p-sum norm.

    Equals ((2 k^{-1/(2p)} + 1 + k^{-1/p})^p + (k-1) k^{-1/2})^{1/p} / 8,
    which is half the l^p norm of the diagonal coefficient vector.  The
    first term ``head^p`` is factored out: ``head >= 1``, so ``head^{-p}``
    at most underflows, where ``head^p`` overflows at large p.
    """
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    p = check_exponent(p)
    kf = float(k)
    head = 2.0 * kf ** (-1.0 / (2.0 * p)) + 1.0 + kf ** (-1.0 / p)
    return 0.125 * head * (1.0 + (kf - 1.0) * kf ** -0.5 * head ** -p) ** (1.0 / p)


def threshold_k(p: float, bound: float) -> int:
    """Smallest crossing point K with formula(K) > bound >= formula(K-1).

    Found by doubling to bracket the crossing and integer bisection; the
    bracket is checked for monotone growth on a log grid first, since the
    formula dips below its k = 1 value before the divergence takes over.
    """
    p = check_exponent(p)
    if bound <= 0.0:
        raise InvalidInputError("bound must be positive")
    if lower_bound_formula(1, p) > bound:
        return 1
    k_hi = 1
    for _ in range(600):
        k_hi *= 2
        if lower_bound_formula(k_hi, p) > bound:
            break
    else:
        raise InvalidInputError("bound not exceeded within the doubling range")
    # sanity: the formula grows on a log grid approaching the crossing
    grid = np.unique(np.geomspace(max(k_hi // 64, 1), k_hi, 24).astype(np.int64))
    vals = [lower_bound_formula(int(g), p) for g in grid]
    for lo, hi in zip(vals, vals[1:]):
        if hi < lo * (1.0 - 1e-12):
            raise ArithmeticError("formula is not monotone near the crossing")
    k_lo = k_hi // 2
    while k_hi - k_lo > 1:
        mid = (k_lo + k_hi) // 2
        if lower_bound_formula(mid, p) > bound:
            k_hi = mid
        else:
            k_lo = mid
    return k_hi


@dataclass
class CounterexampleReport:
    k: int
    p: float
    upper_w: float
    lower_w: float
    formula_lb: float
    numeric_lb: float
    closed_form_match: bool
    witness_norm_ok: bool
    dominance_ok: bool
    cp_ok: bool
    choi_min_eig: float
    contraction_ratio: float
    contraction_upper: float
    contraction_ok: bool
    threshold_pass: bool
    diagnostics: list = field(default_factory=list)

    @property
    def all_checks_ok(self) -> bool:
        return (self.closed_form_match and self.witness_norm_ok
                and self.dominance_ok and self.cp_ok and self.contraction_ok)


def verify_pipeline(k: int, p: float, contraction_trials: int = 0, seed: int = 0,
                    k_cap: int = NUMERIC_K_CAP) -> CounterexampleReport:
    """Run every numeric check of the counterexample chain at one (k, p).

    Checks: (i) the amplified images match the closed forms to 1e-14;
    (ii) both bounds of the witness certificate lie within 1e-9 of 1;
    (iii) the certified numeric lower bound dominates the closed formula,
    less 1e-12; (iv) the map is completely positive, certified by
    ``is_completely_positive`` (u has equal Kraus stacks, so its Choi matrix
    is a Gram matrix), and a contraction: ``contraction_upper_bound`` is at
    most 1 + 1e-9, and no sampled ratio exceeds it by more than a relative
    1e-12.  The sampled ratio comes from the probes E11 and I, plus
    ``contraction_trials`` random probes drawn from ``seed`` (none by
    default, and none from the CLI); it is a lower bound that reports how
    tight the certified bound is, and can only catch a wrong bound, never
    prove one.  ``p < 2`` is invalid input (``check_pipeline_exponent``).
    Both certificates run at the default iteration budget, and no budget
    binds: the witness has a right support of rank one, where the ascent
    closes its gap at its start point, and the image's coordinates are
    diagonal matrices, which take the closed form.
    """
    p = check_pipeline_exponent(p)
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if k > k_cap:
        raise InvalidInputError(
            f"numeric verification is capped at k <= {k_cap} (formula "
            f"evaluation has no cap; raise k_cap explicitly to override)")
    check_size(k, k, k)
    diagnostics = []
    u1, u2, u3, u4, u = build_counterexample_maps(k, p)
    w = witness_w(k)

    # (i) closed-form images
    images = closed_form_images(k, p)
    closed_ok = True
    for name, umap, img in zip(("u1", "u2", "u3", "u4"), (u1, u2, u3, u4), images):
        err = float(np.max(np.abs(amplify_apply(umap, w).coords - img.coords)))
        if err > 1e-14:
            closed_ok = False
            diagnostics.append(f"closed form mismatch for {name}: {err:.3e}")
    total = VecElem((images[0].coords + images[1].coords
                     + images[2].coords + images[3].coords) / 4.0)
    image = amplify_apply(u, w)
    err = float(np.max(np.abs(image.coords - total.coords)))
    if err > 1e-14:
        closed_ok = False
        diagnostics.append(f"average image differs from closed forms: {err:.3e}")

    # (ii) witness norm certificate
    cert_w = alpha_certify(w, p, Side.ELL_ROW)
    witness_ok = (abs(cert_w.upper - 1.0) <= 1e-9
                  and abs(cert_w.lower - 1.0) <= 1e-9)
    if not witness_ok:
        diagnostics.append(
            f"witness certificate [{cert_w.lower!r}, {cert_w.upper!r}] is off 1")

    # (iii) certified numeric lower bound vs the closed formula
    cert_beta = beta_certify(image, p)
    formula = lower_bound_formula(k, p)
    numeric_lb = cert_beta.lower
    dominance_ok = numeric_lb >= formula - 1e-12
    if not dominance_ok:
        diagnostics.append(
            f"numeric lower bound {numeric_lb!r} fell below formula {formula!r}")

    # (iv) complete positivity and contraction
    choi_min = choi_min_eigenvalue(u)
    cp_ok = is_completely_positive(u)
    if not cp_ok:
        diagnostics.append(f"Choi matrix has eigenvalue {choi_min:.3e}")
    e11 = np.zeros((k, k), dtype=np.complex128)
    e11[0, 0] = 1.0
    ratio = sampled_contraction_ratio(u, p, contraction_trials, seed=seed,
                                      probes=[e11, np.eye(k)])
    upper = contraction_upper_bound(k, p)
    contraction_ok = upper <= 1.0 + 1e-9
    if not contraction_ok:
        diagnostics.append(f"certified contraction bound {upper!r} exceeds 1")
    if ratio > upper * (1.0 + 1e-12):
        contraction_ok = False
        diagnostics.append(f"sampled contraction ratio {ratio!r} exceeds the "
                           f"certified bound {upper!r}")

    return CounterexampleReport(
        k=k, p=p, upper_w=cert_w.upper, lower_w=cert_w.lower,
        formula_lb=formula, numeric_lb=numeric_lb,
        closed_form_match=closed_ok, witness_norm_ok=witness_ok,
        dominance_ok=dominance_ok, cp_ok=cp_ok, choi_min_eig=choi_min,
        contraction_ratio=ratio, contraction_upper=upper,
        contraction_ok=contraction_ok,
        threshold_pass=(numeric_lb > RIGID_FACTOR or formula > RIGID_FACTOR),
        diagnostics=diagnostics)
