"""Benchmark for nclp: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is the result the benchmark contract asks for:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).  The line
before it is the full result document: environment, output digest and the
metrics that are not in the contract's list.  ``--out PATH`` also writes that
document to a file.  The exit code is 1 when any item fails its checks.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: fresh processes whose set-up is timed besides this one
SETUP_CHILDREN = 4
#: BLAS threads when the caller sets none: one caller on small matrices, where
#: a second thread measured slower and noisier
DEFAULT_BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _limit_blas_threads() -> None:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, DEFAULT_BLAS_THREADS)
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            value = str(nproc)
        os.environ[var] = value


def _import_nclp() -> None:
    if not (SRC / "nclp" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'nclp'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import nclp
    if Path(nclp.__file__).resolve().parent != SRC / "nclp":
        sys.exit(f"error: imported nclp from {nclp.__file__}, not from {SRC}")


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            revision = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "git_revision": revision, "seed": seed}


def _child_setup(workload: str, seed: int, smoke: bool) -> tuple:
    """(set-up seconds, machine slowdown right after it) of a fresh process."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"] + (["--smoke"] if smoke else []),
        capture_output=True, text=True, timeout=170, check=True, cwd=ROOT)
    return tuple(json.loads(out.stdout.strip().splitlines()[-1]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("pipeline", "fuzz", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the result document here")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the self-tests; numbers not comparable")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    _limit_blas_threads()
    _import_nclp()
    import measure
    from tracing import Tracer, layer_metrics

    workload, log, patcher = measure.set_up(args.workload, args.seed, args.smoke)
    own_setup = (time.perf_counter() - SETUP_START, measure.machine_slowdown())
    if args.setup_only:
        patcher.restore()
        print(json.dumps(own_setup))
        return 0
    try:
        children = 0 if args.trace else SETUP_CHILDREN
        setup_samples = [own_setup] + [
            _child_setup(args.workload, args.seed, args.smoke) for _ in range(children)]
        tracer = Tracer() if args.trace else None
        runner = measure.Runner(workload, log)
        runner.run(args.seconds, tracer)
    finally:
        patcher.restore()

    e2e = measure.end_to_end(runner, statistics.median(s / f for s, f in setup_samples),
                             statistics.median(s for s, _ in setup_samples))
    if args.trace:
        metrics = layer_metrics(tracer.stats, len(runner.busy[True]))
        overhead = sum(runner.busy[True]) / sum(runner.busy[False]) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "1")
    else:
        metrics = {name: e2e[name] for name in measure.CONTRACT_E2E}
    correct = runner.failed == 0
    document = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(args.seed),
        "blocks": {"untraced_busy_s": runner.busy[False],
                   "traced_busy_s": runner.busy[True]},
        "setup_samples_s": [s for s, _ in setup_samples],
        "machine_slowdown": {"blocks": runner.slowdowns,
                             "setups": [f for _, f in setup_samples]},
        "digest": runner.digest(),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "failures": runner.failures[:20],
    }
    if args.trace:
        document["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    text = json.dumps(document, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
