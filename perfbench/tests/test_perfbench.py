"""Self-tests of the benchmark: patching, tracing neutrality, metric coverage.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import nclp  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: metrics the result document carries besides the contract's end-to-end list
DOCUMENT_ONLY = {"item_p90_ms", "item_samples", "unconverged_frac", "fail_frac",
                 "setup_s_wall", "items_per_s_wall", "item_p50_ms_wall"}


def _namespaces():
    mods = [getattr(nclp, name) for name in ("cpmaps", "gaugeopt", "vecnorm",
                                             "schatten", "yeadon",
                                             "counterexample", "serialize")]
    return mods + [nclp.yeadon.BlockIsometry]


def _snapshot():
    return {(id(ns), key): value for ns in _namespaces()
            for key, value in vars(ns).items() if callable(value)}


def test_wrappers_patch_caller_names_and_restore_everything():
    before = _snapshot()
    patcher = tracing.Patcher()
    tracer = tracing.Tracer()
    tracer.install(nclp)
    workloads.CertificateLog().install(patcher)
    try:
        # each caller's own lookup name is wrapped, not only the definition
        assert nclp.counterexample.amplify_apply is nclp.cpmaps.amplify_apply
        assert nclp.counterexample.amplify_apply is not before[
            (id(nclp.counterexample), "amplify_apply")]
        assert nclp.yeadon.alpha_certify is nclp.vecnorm.alpha_certify
        assert nclp.gaugeopt.schatten_norm is nclp.schatten.schatten_norm
        changed = [key for key, value in _snapshot().items()
                   if before[key] is not value]
        assert len(changed) >= 20
    finally:
        patcher.restore()
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.install(nclp)
    try:
        y = nclp.vecnorm.random_element(2, 2, np.random.default_rng(0))
        nclp.vecnorm.alpha_certify(y, 3.0, nclp.Side.R_COL, nclp.vecnorm.FAST_OPTS)
    finally:
        tracer.uninstall()
    stats = tracer.stats
    certify = stats["vecnorm.alpha_certify"]
    assert certify.calls == 1  # the R_COL recursion stays inside one span
    assert 0.0 <= certify.self_s < certify.total_s
    total_self = sum(st.self_s for st in stats.values())
    assert total_self == pytest.approx(certify.total_s, rel=1e-6)


def _run(workload, trace, cwd=ROOT, extra=()):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.fixture(scope="module")
def smoke_runs():
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(workload, trace, extra=("--smoke",))
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            runs[workload, trace] = (json.loads(lines[-2]), json.loads(lines[-1]))
    return runs


def test_smoke_run_emits_every_metric(smoke_runs):
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in WORKLOADS:
        for trace, expected in ((0, e2e), (1, layers)):
            document, result = smoke_runs[workload, trace]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected
            assert set(document["end_to_end"]) == set(e2e) | DOCUMENT_ONLY
            assert {"python", "numpy", "blas", "threads", "nproc", "cpu",
                    "git_revision", "seed"} <= set(document["environment"])


def test_tracing_does_not_change_outputs(smoke_runs):
    for workload in WORKLOADS:
        untraced, _ = smoke_runs[workload, 0]
        traced, _ = smoke_runs[workload, 1]
        assert untraced["digest"] == traced["digest"]


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("fuzz", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
