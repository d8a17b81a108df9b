"""The benchmark workloads: seeded item lists, their checks and their JSON.

A workload is a sequence of blocks of items built from the workload seed.
Every block has the same mix of sizes, exponents and kinds with fresh
random entries, and the runner takes blocks in order while its time lasts.
Each item returns the object the program produced; ``check`` lists what is
wrong with it, and ``to_json`` gives the canonical form that the digest and
the traced/untraced comparison read.

Why these three (see README.md for the layer each one exercises):

* ``pipeline`` - ``verify_pipeline`` at k = 18, where CP-map application
  dominates; the only workload that reaches most of ``cpmaps``.
* ``fuzz`` - the acceptance suite's traffic: many tiny certificates at
  ``FAST_OPTS`` on both branches plus a few Yeadon report rows, where
  per-call and per-iteration Python overhead dominates.
* ``certify`` - few certificates on k = n = 5..8 at ``DEFAULT_OPTS`` with
  long descents, where per-iteration linear algebra dominates.

The seed is the only source of randomness in the timed items: block b
draws from ``default_rng([seed, b])``.  The warm-up items are the same for
every seed, so the set-up time does not depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import nclp
from nclp import serialize
from nclp.vecnorm import DEFAULT_OPTS, FAST_OPTS, Side, random_element

PIPELINE_K = 18
PIPELINE_PS = (2.5, 3.0, 4.0)
FUZZ_PS = (1.3, 1.6, 2.0, 2.5, 3.0, 4.0)
FUZZ_SIZES = (1, 2, 3)
YEADON_P = 3.0
YEADON_SAMPLES = 2
CERTIFY_KS = (5, 6, 7, 8)
CERTIFY_PS = (1.5, 3.0, 4.0)

#: slack allowed when comparing a lower bound with its upper bound; gaps
#: below it are reported as it, so rounding-level brackets read as one value
SOUND_RTOL = 1e-9
WITNESS_TOL = 1e-9


class CertificateLog:
    """Collects every certificate the program hands out while installed.

    Wraps ``alpha_certify`` and ``beta_certify`` under each name they are
    looked up by; only the outermost call of a nest is recorded.
    """

    def __init__(self):
        self.certs = []
        self._depth = 0

    def install(self, patcher) -> None:
        for attr in ("alpha_certify", "beta_certify"):
            wrapped = self._wrap(getattr(nclp.vecnorm, attr))
            for owner in (nclp.vecnorm, nclp.counterexample, nclp.yeadon):
                patcher.replace(owner, attr, wrapped)

    def _wrap(self, fn):
        def record(*args, **kwargs):
            self._depth += 1
            try:
                cert = fn(*args, **kwargs)
            finally:
                self._depth -= 1
            if self._depth == 0:
                self.certs.append(cert)
            return cert

        return record

    def take(self) -> list:
        certs, self.certs = self.certs, []
        return certs


def certificate_problems(cert) -> list:
    upper, lower = float(cert.upper), float(cert.lower)
    if not (math.isfinite(upper) and math.isfinite(lower)):
        return [f"non-finite bracket [{lower!r}, {upper!r}]"]
    if lower > upper * (1.0 + SOUND_RTOL):
        return [f"unsound bracket [{lower!r}, {upper!r}]"]
    return []


def relative_gap(cert) -> float:
    gap = (cert.upper - cert.lower) / cert.upper if cert.upper > 0.0 else 0.0
    return max(gap, SOUND_RTOL)


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    to_json: Callable[[object], object]


@dataclass
class Workload:
    """``block(b)`` gives the items of block b; every block has the same mix."""

    block: Callable[[int], list]
    warm_items: list
    lapack_sizes: tuple


def _block_rng(seed: int, block: int):
    return np.random.default_rng([seed, block])


# -- pipeline ---------------------------------------------------------------

def _pipeline_item(k: int, p: float, contraction_seed: int) -> Item:
    def run():
        return nclp.counterexample.verify_pipeline(k, p, k_cap=k,
                                                   seed=contraction_seed)

    def check(rep):
        problems = [] if rep.all_checks_ok else [f"checks failed: {rep.diagnostics}"]
        if abs(rep.upper_w - 1.0) > WITNESS_TOL or abs(rep.lower_w - 1.0) > WITNESS_TOL:
            problems.append(f"witness bracket [{rep.lower_w!r}, {rep.upper_w!r}] is off 1")
        return problems

    return Item(f"pipeline k={k} p={p} seed={contraction_seed}", run, check,
                serialize.report_to_json)


def build_pipeline(seed: int, smoke: bool = False) -> Workload:
    k = 3 if smoke else PIPELINE_K

    def block(b):
        seeds = _block_rng(seed, b).integers(0, 2**31, size=len(PIPELINE_PS))
        return [_pipeline_item(k, p, int(s)) for p, s in zip(PIPELINE_PS, seeds)]

    warm = [_pipeline_item(2, 3.0, 0)]
    return Workload(block, warm, tuple(range(1, k + 1)) + (k * k,))


# -- certificates (fuzz, certify) -------------------------------------------

def _certificate_item(y, p: float, kind: str, opts) -> Item:
    if kind == "beta":
        def run():
            return nclp.vecnorm.beta_certify(y, p, opts)
    else:
        side = Side.ELL_ROW if kind == "alpha_row" else Side.R_COL

        def run():
            return nclp.vecnorm.alpha_certify(y, p, side, opts)

    return Item(f"{kind} k={y.k} n={y.n} p={p}", run, lambda cert: [],
                serialize.certificate_to_json)


def _yeadon_items(rng, opts, samples: int = YEADON_SAMPLES) -> list:
    p = YEADON_P
    rw, aw = nclp.yeadon.random_valid_weights(1, 1, p, rng)
    spec = nclp.yeadon.YeadonSpec(n=2, rep_weights=rw, antirep_weights=aw)
    prw, paw = nclp.yeadon.random_valid_weights(1, 1, p / (p - 1.0), rng)
    partner = nclp.yeadon.YeadonSpec(n=2, rep_weights=prw, antirep_weights=paw)
    report_seed = int(rng.integers(0, 2**31))
    parts = dict(zip(("rep", "antirep"), nclp.yeadon.jordan_split(spec, p)))

    def contraction(which):
        def run():
            return nclp.yeadon.tensor_contraction_report(
                parts[which], which, p, samples=samples, seed=report_seed,
                opts=opts)
        return Item(f"yeadon {which} contraction", run, _report_problems,
                    _report_json)

    def rigid():
        u = nclp.yeadon.rigid_compose(spec, partner, p)
        return nclp.yeadon.rigid_bound_report(u, p, samples=samples,
                                              seed=report_seed + 1, opts=opts)

    return [contraction("rep"), contraction("antirep"),
            Item("yeadon rigid bound", rigid, _report_problems, _report_json)]


def _report_problems(rep) -> list:
    return [] if rep.passed else [f"report violations at rows {rep.violations}"]


def _report_json(rep) -> dict:
    return {"p": float(rep.p), "violations": list(rep.violations),
            "rows": [[r.sample, float(r.image_lower), float(r.input_upper),
                      float(r.slack), bool(r.ok)] for r in rep.rows]}


def _fuzz_cells(sizes, ps):
    """(k, n, p, kind): both alpha sides everywhere, beta where k == n."""
    cells = []
    for k in sizes:
        for n in sizes:
            for p in ps:
                kinds = ("alpha_row", "alpha_col") + (("beta",) if k == n else ())
                cells += [(k, n, p, kind) for kind in kinds]
    return cells


def build_fuzz(seed: int, smoke: bool = False) -> Workload:
    sizes, ps = ((1, 2), (1.6, 3.0)) if smoke else (FUZZ_SIZES, FUZZ_PS)
    cells = _fuzz_cells(sizes, ps)
    samples = 1 if smoke else YEADON_SAMPLES

    def block(b):
        """One fresh element per cell, a quarter of them rank-deficient."""
        rng = _block_rng(seed, b)
        degenerate = set(rng.permutation(len(cells))[:len(cells) // 4].tolist())
        items = [_certificate_item(random_element(k, n, rng, degenerate=idx in degenerate),
                                   p, kind, FAST_OPTS)
                 for idx, (k, n, p, kind) in enumerate(cells)]
        return items + _yeadon_items(rng, FAST_OPTS, samples)

    warm_rng = np.random.default_rng(0)
    warm_y = random_element(2, 2, warm_rng)
    warm = ([_certificate_item(warm_y, 1.6, "alpha_row", FAST_OPTS),
             _certificate_item(warm_y, 3.0, "alpha_col", FAST_OPTS),
             _certificate_item(warm_y, 3.0, "beta", FAST_OPTS)]
            + _yeadon_items(warm_rng, FAST_OPTS, samples=1)[1:])
    return Workload(block, warm, (1, 2, 3, 4))


def _certify_cells(ks):
    """(k, p, kind): alpha at every p with alternating sides, and a beta at
    the smallest and the largest k.  Beta at p = 1.5 (3 to 9 s per call) is
    left out so that no single item dominates a block's time."""
    cells = []
    for i, k in enumerate(ks):
        for j, p in enumerate(CERTIFY_PS):
            cells.append((k, p, "alpha_row" if (i + j) % 2 == 0 else "alpha_col"))
    cells += [(ks[0], 3.0, "beta"), (ks[-1], 4.0, "beta")]
    return cells


def build_certify(seed: int, smoke: bool = False) -> Workload:
    ks = (2, 3) if smoke else CERTIFY_KS
    cells = _certify_cells(ks)

    def block(b):
        rng = _block_rng(seed, b)
        return [_certificate_item(random_element(k, k, rng), p, kind, DEFAULT_OPTS)
                for k, p, kind in cells]

    warm_y = random_element(2, 2, np.random.default_rng(0))
    warm = [_certificate_item(warm_y, p, kind, DEFAULT_OPTS)
            for p, kind in ((1.5, "alpha_row"), (3.0, "beta"))]
    return Workload(block, warm, tuple(range(1, max(ks) + 1)))


BUILDERS = {"pipeline": build_pipeline, "fuzz": build_fuzz, "certify": build_certify}


def warm_lapack(sizes) -> None:
    """First calls of each LAPACK/BLAS routine the items use, at every size."""
    rng = np.random.default_rng(0)
    for n in sizes:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = a @ a.conj().T
        np.linalg.eigh(h)
        np.linalg.eigvalsh(h)
        np.linalg.svd(a)
        np.linalg.svd(a, compute_uv=False)
