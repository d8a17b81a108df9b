"""Set-up, the block loop and the end-to-end metrics of one benchmark run.

Imported by ``run.py`` once the BLAS thread variables are set and ``src/`` is
on the path.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time

import numpy as np

import nclp
import workloads
from tracing import Patcher

#: blocks every run completes; the digest and the gap metrics cover them,
#: so they are fixed by the seed
MIN_BLOCKS = 2

#: the end-to-end metrics of the contract line; the rest go to the document
CONTRACT_E2E = ("setup_s", "items_per_s", "item_p50_ms", "rel_gap_mean",
                "rel_gap_max", "peak_rss_mb")

#: seconds one iteration of the reference kernel takes at nominal machine
#: speed, about its time on an idle 2-vCPU Xeon VM; timings are scaled to it
NOMINAL_ITERATION_S = 0.2e-3
#: item time between two probe slices, and kernel iterations per slice
PROBE_INTERVAL_S = 0.5
PROBE_SLICE = 100


class SpeedProbe:
    """Measures how fast the shared machine runs while items run.

    For every ``PROBE_INTERVAL_S`` of item time it runs one fixed slice of a
    reference kernel that never calls nclp, so the machine is sampled in
    proportion to where item time was spent.  Slices have a fixed size, so
    a program that gets faster is sampled less often, not differently.  The
    kernel mixes what the workloads spend their time in: small Hermitian
    eigensolves, matrix products, a three-operand ``einsum`` and interpreter
    arithmetic.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        self._herm = a @ a.conj().T
        self._x = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
        self._c = rng.standard_normal((8, 8, 8)) + 0j
        self.seconds = 0.0
        self.iterations = 0
        self._due = 0.0

    def after_item(self, item_s: float) -> None:
        self._due += item_s
        while self._due >= PROBE_INTERVAL_S:
            self._due -= PROBE_INTERVAL_S
            self.run_slice()

    def run_slice(self) -> None:
        start = time.perf_counter()
        for _ in range(PROBE_SLICE):
            np.linalg.eigh(self._herm)
            self._x @ self._x
            np.einsum("tji,jl,tlk->ik", self._c, self._c[0], self._c)
            total = 0
            for j in range(60):
                total += j * j
        self.seconds += time.perf_counter() - start
        self.iterations += PROBE_SLICE

    def slowdown(self) -> float:
        """Kernel time per iteration over its nominal time (one slice at least)."""
        if not self.iterations:
            self.run_slice()
        return self.seconds / self.iterations / NOMINAL_ITERATION_S


def machine_slowdown(slices: int = 15) -> float:
    probe = SpeedProbe()
    for _ in range(slices):
        probe.run_slice()
    return probe.slowdown()


def set_up(workload_name: str, seed: int, smoke: bool):
    """Builds the inputs from the seed and warms up.

    Returns the workload, the certificate log and the patcher that installed
    it, which the caller restores.
    """
    workload = workloads.BUILDERS[workload_name](seed, smoke)
    workloads.warm_lapack(workload.lapack_sizes)
    patcher = Patcher()
    log = workloads.CertificateLog()
    log.install(patcher)
    for item in workload.warm_items:
        item.run()
    log.take()
    return workload, log, patcher


class Runner:
    """Runs blocks of items and keeps what they produced."""

    def __init__(self, workload, log):
        self.workload = workload
        self.log = log
        self.first_texts = []      # canonical JSON of every item, first blocks
        self.first_certs = []      # certificates of every item, first blocks
        self.latencies = []        # seconds per item, untraced blocks
        self.scaled_latencies = []  # the same at nominal machine speed
        self.busy = {False: [], True: []}  # summed item time per block
        self.slowdowns = []        # machine slowdown per untraced block
        self.attempted = 0
        self.failed = 0
        self.failures = []         # what went wrong, per failed item run

    def run_block(self, items, probe=None):
        """Runs every item once; returns (latencies, texts, certificates).

        The text of an item that failed is None.  A probe is told each item
        time, so it can sample the machine between items.
        """
        dumps = nclp.serialize.dumps_canonical
        latencies, texts, certs_by_item = [], [], []
        for item in items:
            self.attempted += 1
            self.log.take()
            start = time.perf_counter()
            try:
                result = item.run()
            except Exception as exc:  # an item that raises is a counted failure
                self.log.take()
                self._fail(item, [f"raised {type(exc).__name__}: {exc}"])
                texts.append(None)
                certs_by_item.append([])
                continue
            latencies.append(time.perf_counter() - start)
            if probe is not None:
                probe.after_item(latencies[-1])
            certs = self.log.take()
            problems = list(item.check(result))
            for cert in certs:
                problems += workloads.certificate_problems(cert)
            text = dumps({"item": item.to_json(result),
                          "certificates": [nclp.serialize.certificate_to_json(c)
                                           for c in certs]})
            if problems:
                self._fail(item, problems)
                text = None
            texts.append(text)
            certs_by_item.append(certs)
        return latencies, texts, certs_by_item

    def _fail(self, item, problems) -> None:
        self.failed += 1
        self.failures.append({"item": item.label, "problems": problems})

    def run(self, seconds: float, tracer=None) -> None:
        """Blocks 0, 1, ...: ``MIN_BLOCKS``, then more while the time left fits one.

        With a tracer each block runs untraced and then traced, and the two
        runs must produce the same output.
        """
        start = time.perf_counter()
        block = 0
        while True:
            items = self.workload.block(block)
            probe = SpeedProbe()
            latencies, texts, certs = self.run_block(items, probe)
            self.slowdowns.append(probe.slowdown())
            self.latencies += latencies
            self.scaled_latencies += [t / self.slowdowns[-1] for t in latencies]
            self.busy[False].append(sum(latencies))
            if block < MIN_BLOCKS:
                self.first_texts += texts
                self.first_certs += certs
            if tracer is not None:
                tracer.install(nclp)
                try:
                    traced_latencies, traced_texts, _ = self.run_block(items)
                finally:
                    tracer.uninstall()
                self.busy[True].append(sum(traced_latencies))
                for item, text, traced_text in zip(items, texts, traced_texts):
                    if None not in (text, traced_text) and text != traced_text:
                        self._fail(item, ["traced output differs from untraced output"])
            block += 1
            elapsed = time.perf_counter() - start
            if block >= MIN_BLOCKS and elapsed * (block + 1) / block > seconds:
                return

    def digest(self) -> str:
        h = hashlib.sha256()
        for text in self.first_texts:
            h.update((text or "<failed>").encode())
            h.update(b"\n")
        return h.hexdigest()


def _percentile(values, q: int):
    """q-th percentile when at least ten samples lie beyond it, else None."""
    if len(values) * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(runner: Runner, setup_s: float, setup_wall_s: float) -> dict:
    """Timings at nominal machine speed, with the wall-clock values beside
    them in the result document."""
    certs = [c for item_certs in runner.first_certs for c in item_certs]
    gaps = [workloads.relative_gap(c) for c in certs] or [0.0]
    items = runner.first_certs
    unconverged = sum(1 for item_certs in items
                      if any(not c.converged for c in item_certs))
    lat, wall = runner.scaled_latencies, runner.latencies
    p90 = _percentile(lat, 90)
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (len(lat) / sum(lat) if lat else 0.0, "1/s"),
        "item_p50_ms": (1e3 * statistics.median(lat) if lat else 0.0, "ms"),
        "rel_gap_mean": (statistics.fmean(gaps), "1"),
        "rel_gap_max": (max(gaps), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
        # reported in the result document only (see README.md)
        "item_p90_ms": (None if p90 is None else 1e3 * p90, "ms"),
        "item_samples": (len(lat), "count"),
        "setup_s_wall": (setup_wall_s, "s"),
        "items_per_s_wall": (len(wall) / sum(wall) if wall else 0.0, "1/s"),
        "item_p50_ms_wall": (1e3 * statistics.median(wall) if wall else 0.0, "ms"),
        "unconverged_frac": (unconverged / len(items), "1"),
        "fail_frac": (runner.failed / runner.attempted, "1"),
    }

