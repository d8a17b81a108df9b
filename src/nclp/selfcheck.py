"""Runnable acceptance checks.

Each criterion is a function returning ``(passed, detail)``; ``run_checks``
executes a selection and reports one line per criterion.  The CLI `selftest`
command and the test suite both call into this module so there is a single
source of truth for the gate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import counterexample as cx
from .cpmaps import (amplify_apply, build_counterexample_maps,
                     is_completely_positive, sampled_contraction_ratio)
from .errors import InvalidInputError
from .schatten import schatten_norm
from .vecnorm import (FAST_OPTS, FactorWitness, Side, VecElem, alpha_certify,
                      alpha_upper, beta_certify, diagonal_closed_form,
                      evaluate_upper_at, opposite_transform, pairing,
                      project_diagonal, random_element)
from .yeadon import (RIGID_FACTOR, YeadonSpec, build_isometry, jordan_split,
                     random_valid_weights, rigid_bound_report, rigid_compose,
                     tensor_contraction_report)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def criterion_schatten_exactness(seed: int = 0):
    msgs = []
    for k in range(1, 9):
        for p in (1.5, 2.0, 3.0, 4.0):
            err = abs(schatten_norm(np.eye(k), p) - k ** (1.0 / p))
            if err > 1e-12:
                msgs.append(f"identity norm off by {err:.2e} at k={k}, p={p}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        s = float(rng.uniform(1.0, 4.0))
        theta = float(rng.uniform(0.05, 0.95))
        p, q = s / theta, s / (1.0 - theta)
        k, m, l = (int(rng.integers(1, 9)) for _ in range(3))
        a = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
        c = rng.standard_normal((m, l)) + 1j * rng.standard_normal((m, l))
        gap = schatten_norm(a @ c, s) - schatten_norm(a, p) * schatten_norm(c, q)
        worst = max(worst, gap)
        if gap > 1e-10:
            msgs.append(f"Hoelder violated by {gap:.2e}")
            break
    detail = f"identity norms exact; worst Hoelder slack {worst:.2e}"
    return not msgs, detail if not msgs else "; ".join(msgs)


def diagonal_bracket(upper: float, lower: float, closed: float):
    """An alpha bracket of a diagonal element against its closed form.

    Returns ``(rel_u, err_l, problems)``: the relative excess of ``upper``
    over ``closed``, the distance of ``lower`` from it, and one message for
    each bound out of range.  ``upper`` may sit at most 1e-9 below ``closed``
    (rounding) and 1e-3 above it, relatively; ``lower`` at most 1e-9 from it.
    """
    rel_u = (upper - closed) / closed
    err_l = abs(lower - closed)
    problems = []
    if not -1e-9 <= rel_u <= 1e-3:
        problems.append(f"upper off closed form by {rel_u:.2e}")
    if err_l > 1e-9:
        problems.append(f"lower off closed form by {err_l:.2e}")
    return rel_u, err_l, problems


def criterion_diagonal_closed_form(seed: int = 1):
    """The alpha certificate against ``diagonal_closed_form``, and the p-sum
    certificate against ``2^{1/p - 1}`` times it."""
    msgs = []
    rng = np.random.default_rng(seed)
    worst_u = worst_l = worst_b = 0.0
    for k in range(2, 7):
        for p in (1.5, 2.5, 3.0, 4.0):
            for _ in range(10):
                lams = rng.standard_normal(k) + 1j * rng.standard_normal(k)
                y = VecElem.diagonal(lams)
                cert = alpha_certify(y, p, Side.ELL_ROW)
                cf = diagonal_closed_form(lams, p)
                rel_u, err_l, problems = diagonal_bracket(cert.upper, cert.lower, cf)
                worst_u = max(worst_u, rel_u)
                worst_l = max(worst_l, err_l)
                msgs += [f"{m} (k={k}, p={p})" for m in problems]
                beta = beta_certify(y, p)
                exact = 2.0 ** (1.0 / p - 1.0) * cf
                width = (beta.upper - beta.lower) / exact
                worst_b = max(worst_b, width)
                if not (beta.lower <= exact <= beta.upper and width <= 1e-12):
                    msgs.append(f"beta bracket [{beta.lower!r}, {beta.upper!r}] "
                                f"misses {exact!r} or is wider than 1e-12 "
                                f"(k={k}, p={p})")
    detail = (f"worst upper excess {worst_u:.2e}, worst lower error {worst_l:.2e}, "
              f"worst beta width {worst_b:.2e}")
    return not msgs, detail if not msgs else "; ".join(msgs)


def criterion_witness_norm():
    msgs = []
    worst = 0.0
    for k in range(2, 7):
        for p in (3.0, 4.0):
            cert = alpha_certify(cx.witness_w(k), p, Side.ELL_ROW)
            err = max(abs(cert.upper - 1.0), abs(cert.lower - 1.0))
            worst = max(worst, err)
            if err > 1e-9:
                msgs.append(f"witness certificate off 1 by {err:.2e} (k={k}, p={p})")
    return not msgs, (f"worst deviation from 1: {worst:.2e}"
                      if not msgs else "; ".join(msgs))


def criterion_closed_form_agreement():
    msgs = []
    worst = 0.0
    for k in range(1, 9):
        for p in (2.5, 3.0, 4.0):
            _, _, _, _, u = build_counterexample_maps(k, p)
            w = cx.witness_w(k)
            images = cx.closed_form_images(k, p)
            total = sum(img.coords for img in images) / 4.0
            err = float(np.max(np.abs(amplify_apply(u, w).coords - total)))
            worst = max(worst, err)
            if err > 1e-14:
                msgs.append(f"amplified image off closed forms by {err:.2e} "
                            f"(k={k}, p={p})")
    return not msgs, (f"worst deviation {worst:.2e}" if not msgs
                      else "; ".join(msgs))


def criterion_counterexample_chain():
    msgs = []
    for p in (3.0, 4.0):
        for k in range(2, 7):
            rep = cx.verify_pipeline(k, p)
            if not rep.dominance_ok:
                msgs.append(f"numeric_lb {rep.numeric_lb!r} < formula "
                            f"{rep.formula_lb!r} (k={k}, p={p})")
            kf = float(k)
            display = 0.125 * ((2.0 * kf ** (-1.0 / (2.0 * p)) + 1.0
                                + kf ** (-1.0 / p)) ** p
                               + (kf - 1.0) * kf ** -0.5) ** (1.0 / p)
            if abs(rep.formula_lb - display) > 1e-14:
                msgs.append(f"formula deviates from display value (k={k}, p={p})")
            lam_route = diagonal_closed_form(cx.diagonal_coefficients(k, p), p) / 2.0
            if abs(rep.formula_lb - lam_route) > 1e-13:
                msgs.append("formula differs from the coefficient-vector route")
        if not (cx.lower_bound_formula(10 ** 6, p)
                > cx.lower_bound_formula(10 ** 3, p)):
            msgs.append(f"no divergence between k=1e3 and k=1e6 at p={p}")
    return not msgs, ("chain dominance, display identity, and divergence hold"
                      if not msgs else "; ".join(msgs))


def criterion_threshold():
    msgs = []
    found = []
    for p in (3.0, 4.0):
        kk = cx.threshold_k(p, RIGID_FACTOR)
        found.append(f"p={p}: K={kk}")
        if not (cx.lower_bound_formula(kk, p) > RIGID_FACTOR
                >= cx.lower_bound_formula(kk - 1, p)):
            msgs.append(f"crossing property fails at K={kk}, p={p}")
        for j in range(max(kk - 5, 1), kk + 5):
            val = cx.lower_bound_formula(j, p)
            if (j < kk) != (val <= RIGID_FACTOR):
                msgs.append(f"10-point cross-check fails at k={j}, p={p}")
    return not msgs, ("; ".join(found) if not msgs else "; ".join(msgs))


def criterion_cp_and_contraction():
    msgs = []
    for k in range(2, 7):
        for p in (2.5, 3.0, 4.0):
            _, _, _, _, u = build_counterexample_maps(k, p)
            if not is_completely_positive(u):
                msgs.append(f"u is not completely positive (k={k}, p={p})")
            e11 = np.zeros((k, k), dtype=np.complex128)
            e11[0, 0] = 1.0
            ratio = sampled_contraction_ratio(u, p, 500, seed=k,
                                              probes=[e11, np.eye(k)])
            upper = cx.contraction_upper_bound(k, p)
            if not ratio <= upper <= 1.0 + 1e-9:
                msgs.append(f"contraction bracket [{ratio!r}, {upper!r}] "
                            f"(k={k}, p={p})")
    return not msgs, ("Choi PSD and sampled <= certified contraction bound "
                      "<= 1 hold on the grid" if not msgs else "; ".join(msgs))


def criterion_yeadon_suite(seed: int = 3):
    msgs = []
    rng = np.random.default_rng(seed)
    p = 3.0
    for n_rep, n_anti in ((1, 0), (0, 1), (1, 1), (2, 1)):
        rw, aw = random_valid_weights(n_rep, n_anti, p, rng)
        spec = YeadonSpec(n=2, rep_weights=rw, antirep_weights=aw)
        iso = build_isometry(spec, p)
        for _ in range(100):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            err = abs(schatten_norm(iso(a), p) - schatten_norm(a, p))
            if err > 1e-10:
                msgs.append(f"isometry off by {err:.2e} at shape "
                            f"({n_rep},{n_anti})")
                break
    rw, aw = random_valid_weights(1, 1, p, rng)
    spec = YeadonSpec(n=2, rep_weights=rw, antirep_weights=aw)
    t1, t2 = jordan_split(spec, p)
    rep1 = tensor_contraction_report(t1, "rep", p, samples=20, seed=seed,
                                     n_hilbert=3, opts=FAST_OPTS)
    rep2 = tensor_contraction_report(t2, "antirep", p, samples=20, seed=seed,
                                     n_hilbert=3, opts=FAST_OPTS)
    if not rep1.passed:
        msgs.append(f"rep-part contraction violated at {rep1.violations}")
    if not rep2.passed:
        msgs.append(f"antirep-part contraction violated at {rep2.violations}")
    pd = p / (p - 1.0)
    rw2, aw2 = random_valid_weights(1, 1, pd, rng)
    u = rigid_compose(spec, YeadonSpec(n=2, rep_weights=rw2,
                                       antirep_weights=aw2), p)
    rb = rigid_bound_report(u, p, samples=20, seed=seed + 1, n_hilbert=3,
                            opts=FAST_OPTS)
    if not rb.passed:
        msgs.append(f"factor-4 bound violated at {rb.violations}")
    return not msgs, ("isometry, split contraction, and factor-4 reports clean"
                      if not msgs else "; ".join(msgs))


def _fuzz_element(rng, k=None, n=None):
    k = k if k is not None else int(rng.integers(1, 4))
    n = n if n is not None else int(rng.integers(1, 4))
    return random_element(k, n, rng, degenerate=bool(rng.integers(4) == 0))


def _fuzz_p(rng):
    return float(rng.choice([1.3, 1.6, 2.0, 2.5, 3.0, 4.0]))


def criterion_property_suites(seed: int = 5, cases: int = 500):
    msgs = []
    opts = FAST_OPTS

    # pairing contraction
    rng = np.random.default_rng(seed)
    for i in range(cases):
        k, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        y = random_element(k, n, rng)
        y2 = random_element(k, n, rng)
        p = _fuzz_p(rng)
        pd = p / (p - 1.0)
        side = Side.ELL_ROW if i % 2 == 0 else Side.R_COL
        lhs = abs(pairing(y, y2))
        rhs = alpha_upper(y, p, side, opts)[0] * alpha_upper(y2, pd, side, opts)[0]
        if lhs > rhs + 1e-9:
            msgs.append(f"pairing contraction violated by {lhs - rhs:.2e} "
                        f"(case {i})")
            break

    # certificate soundness
    rng = np.random.default_rng(seed + 1)
    for i in range(cases):
        y = _fuzz_element(rng)
        p = _fuzz_p(rng)
        mode = i % 3
        if mode == 2 and y.k == y.n:
            cert = beta_certify(y, p, opts)
        else:
            cert = alpha_certify(y, p, Side.ELL_ROW if mode == 0 else Side.R_COL,
                                 opts)
        if cert.lower > cert.upper * (1.0 + 1e-9):
            msgs.append(f"certificate unsound: lower {cert.lower!r} > upper "
                        f"{cert.upper!r} (case {i})")
            break

    # subadditivity of the solved upper bounds, homogeneity via dyadic scales
    rng = np.random.default_rng(seed + 2)
    for i in range(cases):
        k, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        p = _fuzz_p(rng)
        side = Side.ELL_ROW if i % 2 == 0 else Side.R_COL
        y1, y2 = random_element(k, n, rng), random_element(k, n, rng)
        v1, _ = alpha_upper(y1, p, side, opts)
        v2, _ = alpha_upper(y2, p, side, opts)
        v12, _ = alpha_upper(y1 + y2, p, side, opts)
        if v12 > v1 + v2 + 1e-9:
            msgs.append(f"subadditivity violated by {v12 - v1 - v2:.2e} "
                        f"(case {i})")
            break
        t = 2.0 ** int(rng.integers(-6, 7))
        vt, _ = alpha_upper(y1.scaled(t), p, side, opts)
        if abs(vt - t * v1) > 1e-10 * max(t * v1, 1e-30):
            msgs.append(f"homogeneity violated: {vt!r} vs {t * v1!r} (case {i})")
            break

    # branch agreement at p = 2: the one-sided witness, scored by the
    # two-sided evaluator at r = I, keeps its value
    rng = np.random.default_rng(seed + 3)
    for i in range(cases):
        y = _fuzz_element(rng)
        v1, wit = alpha_upper(y, 2.0, Side.ELL_ROW, opts)
        two = FactorWitness("two_sided", s=wit.s,
                            r=np.eye(y.k, dtype=np.complex128))
        v2 = evaluate_upper_at(y, two, 2.0)
        if abs(v1 - v2) > 1e-6 * max(v1, 1e-30):
            msgs.append(f"p=2 branches disagree: {v1!r} vs {v2!r} (case {i})")
            break

    # opposite-transform interval overlap
    rng = np.random.default_rng(seed + 4)
    for i in range(cases):
        y = _fuzz_element(rng)
        p = _fuzz_p(rng)
        cert_r = alpha_certify(y, p, Side.R_COL, opts)
        cert_l = alpha_certify(opposite_transform(y), p, Side.ELL_ROW, opts)
        if max(cert_r.lower, cert_l.lower) > \
                min(cert_r.upper, cert_l.upper) * (1.0 + 1e-9):
            msgs.append(f"opposite-side intervals disjoint (case {i})")
            break

    # diagonal-projection contraction at certificate level
    rng = np.random.default_rng(seed + 5)
    for i in range(cases):
        k = int(rng.integers(1, 4))
        y = random_element(k, k, rng)
        p = _fuzz_p(rng)
        mode = i % 3
        py = project_diagonal(y)
        if mode == 2:
            low = beta_certify(py, p, opts).lower
            up = beta_certify(y, p, opts).upper
        else:
            side = Side.ELL_ROW if mode == 0 else Side.R_COL
            low = alpha_certify(py, p, side, opts).lower
            up = alpha_upper(y, p, side, opts)[0]
        if low > up + 1e-9:
            msgs.append(f"diagonal projection raised the certificate by "
                        f"{low - up:.2e} (case {i})")
            break

    # coordinate-deletion monotonicity with witness reuse
    rng = np.random.default_rng(seed + 6)
    for i in range(cases):
        y = _fuzz_element(rng)
        p = _fuzz_p(rng)
        side = Side.ELL_ROW if i % 2 == 0 else Side.R_COL
        v, wit = alpha_upper(y, p, side, opts)
        cut = y.coords.copy()
        cut[int(rng.integers(0, y.n))] = 0.0
        v0 = min(alpha_upper(VecElem(cut), p, side, opts)[0],
                 evaluate_upper_at(VecElem(cut), wit, p))
        if v0 > v + 1e-9:
            msgs.append(f"zeroing a coordinate raised the bound by "
                        f"{v0 - v:.2e} (case {i})")
            break

    return not msgs, (f"7 property suites passed ({cases} cases each)"
                      if not msgs else "; ".join(msgs))


def _brute_factor_value(coords, c, d, p):
    z = np.linalg.solve(c, coords) @ np.linalg.inv(d)
    m = np.einsum("nij,nkj->ik", z, z.conj())
    zn = math.sqrt(max(float(np.linalg.eigvalsh(m)[-1]), 0.0))
    cn = float(np.linalg.svd(c, compute_uv=False)[0])
    sv = np.linalg.svd(d, compute_uv=False)
    return cn * zn * float(np.sum(sv ** p)) ** (1.0 / p)


def brute_force_upper(y: VecElem, p: float, base_samples: int = 100_000,
                      polish_steps: int = 4000, seed: int = 0) -> float:
    """Random search over raw factorizations y = c z d (outer factors PSD
    without loss of generality), followed by an annealed random-walk polish.
    Independent of the descent solver: every value is the objective of an
    explicit factorization.
    """
    rng = np.random.default_rng(seed)
    k = y.k
    coords = y.coords
    best_val = math.inf
    best_cd = (np.eye(k, dtype=np.complex128), np.eye(k, dtype=np.complex128))
    scales = (0.25, 0.5, 1.0)
    chunk = 2000
    done = 0
    while done < base_samples:
        b = min(chunk, base_samples - done)
        done += b
        sc = scales[(done // chunk) % len(scales)]
        gc = rng.standard_normal((b, k, k)) + 1j * rng.standard_normal((b, k, k))
        gd = rng.standard_normal((b, k, k)) + 1j * rng.standard_normal((b, k, k))
        hc = 0.5 * (gc + np.transpose(gc, (0, 2, 1)).conj())
        hd = 0.5 * (gd + np.transpose(gd, (0, 2, 1)).conj())
        wc, vc = np.linalg.eigh(hc)
        wd, vd = np.linalg.eigh(hd)
        c = (vc * np.exp(sc * wc)[:, None, :]) @ np.transpose(vc, (0, 2, 1)).conj()
        d = (vd * np.exp(sc * wd)[:, None, :]) @ np.transpose(vd, (0, 2, 1)).conj()
        ci = np.linalg.inv(c)
        di = np.linalg.inv(d)
        z = np.einsum("bij,njl,blm->bnim", ci, coords, di)
        mm = np.einsum("bnij,bnkj->bik", z, z.conj())
        lam = np.linalg.eigvalsh(mm)[:, -1]
        cmax = np.exp(sc * wc).max(axis=1)
        dnorm = np.sum(np.exp(sc * wd) ** p, axis=1) ** (1.0 / p)
        vals = cmax * np.sqrt(np.clip(lam, 0.0, None)) * dnorm
        idx = int(np.argmin(vals))
        if float(vals[idx]) < best_val:
            best_val = float(vals[idx])
            best_cd = (c[idx], d[idx])
    c, d = best_cd
    eps = 0.3
    for _ in range(polish_steps):
        gc = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        gd = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        hc = 0.5 * (gc + gc.conj().T)
        hd = 0.5 * (gd + gd.conj().T)
        wc, vc = np.linalg.eigh(hc)
        wd, vd = np.linalg.eigh(hd)
        pc = (vc * np.exp(eps * wc)) @ vc.conj().T
        pdm = (vd * np.exp(eps * wd)) @ vd.conj().T
        c2 = pc @ c @ pc
        d2 = pdm @ d @ pdm
        val = _brute_factor_value(coords, c2, d2, p)
        if val < best_val:
            best_val, c, d = val, c2, d2
        eps = max(eps * 0.999, 1e-3)
    return best_val


def criterion_brute_force_oracle(seed: int = 9):
    msgs = []
    rng = np.random.default_rng(seed)
    p = 3.0
    ratios = []
    for i in range(5):
        y = random_element(2, 2, rng)
        cert = alpha_certify(y, p, Side.ELL_ROW)
        opt = cert.upper
        brute = brute_force_upper(y, p, seed=seed + 10 + i)
        ratios.append(opt / brute)
        if opt > brute + 1e-9:
            msgs.append(f"optimizer above the searched factorization "
                        f"({opt!r} > {brute!r}, element {i})")
        if cert.lower > brute:
            msgs.append(f"certified lower bound above the searched "
                        f"factorization ({cert.lower!r} > {brute!r}, element {i})")
        if opt < 0.98 * brute:
            msgs.append(f"optimizer more than 2% below the search "
                        f"({opt!r} vs {brute!r}, element {i})")
    return not msgs, (f"optimizer/search ratios: "
                      + ", ".join(f"{r:.5f}" for r in ratios)
                      if not msgs else "; ".join(msgs))


CRITERIA = (
    ("schatten-exactness", criterion_schatten_exactness),
    ("diagonal-closed-form", criterion_diagonal_closed_form),
    ("witness-norm", criterion_witness_norm),
    ("closed-form-agreement", criterion_closed_form_agreement),
    ("counterexample-chain", criterion_counterexample_chain),
    ("threshold", criterion_threshold),
    ("cp-and-contraction", criterion_cp_and_contraction),
    ("yeadon-suite", criterion_yeadon_suite),
    ("property-suites", criterion_property_suites),
    ("brute-force-oracle", criterion_brute_force_oracle),
)


def run_checks(names=None, printer=print):
    results = []
    selected = dict(CRITERIA)
    order = [n for n, _ in CRITERIA if names is None or n in names]
    if names is not None:
        unknown = set(names) - set(selected)
        if unknown:
            raise InvalidInputError(f"unknown criteria: {sorted(unknown)}")
    for name in order:
        start = time.perf_counter()
        passed, detail = selected[name]()
        elapsed = time.perf_counter() - start
        results.append(CheckResult(name, passed, detail, elapsed))
        if printer is not None:
            status = "PASS" if passed else "FAIL"
            printer(f"[{status}] {name} ({elapsed:.1f}s): {detail}")
    return results
