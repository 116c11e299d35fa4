"""Smoke test of the benchmark's own code (not part of the package's suite).

    python3 -m pytest perfbench/test_smoke.py -q

Takes about half a minute: besides the unit checks it runs every workload
for one second, untraced, and one workload traced.
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from conic_approx import ExtremalTarget, SqrtPairTarget, enumerate_minimal, seed_triple  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_oracle_agrees_with_the_scan():
    seq = seed_triple(2, 3)
    ys, _ = oracle.replay(seq.ys, seq.ts, 16)
    cases = [
        (SqrtPairTarget(2, 5), lambda p: (oracle.sqrt_fixed(2, p), oracle.sqrt_fixed(5, p))),
        (ExtremalTarget(2, 3), lambda p: oracle.ratio_fixed(ys, p)),
    ]
    for target, fixed in cases:
        want, _ = oracle.reference_records(fixed, 5000)
        got = enumerate_minimal(target, 5000)
        assert [(r.X, r.x[1], r.x[2]) for r in got] == [r[:3] for r in want]


def test_rounds_are_seeded_and_balanced():
    strata, pool = (1, 2, 3), ["a", "b", "c", "d"]
    first = list(islice(workloads.rounds(random.Random(7), strata, pool), 12))
    assert first == list(islice(workloads.rounds(random.Random(7), strata, pool), 12))
    assert first != list(islice(workloads.rounds(random.Random(8), strata, pool), 12))
    assert Counter(s for s, _ in first) == {1: 4, 2: 4, 3: 4}
    for s in strata:
        assert sorted(e for t, e in first if t == s) == pool


@pytest.mark.parametrize("name", ["construct", "scan"])
def test_checks_reject_a_wrong_output(name, tmp_path):
    w = workloads.WORKLOADS[name](1, tmp_path)
    p = w.warmup_op()
    w.prepare(p)
    res = w.call(p, tracing.NullTracer(), 0)
    w.check(p, res)
    if name == "construct":
        seq = res[0]
        y = seq.ys[-1]
        seq.ys[-1] = (y[0] + 1, y[1], y[2])
    else:
        del res[2][1]
    with pytest.raises(oracle.WrongOutput):
        w.check(p, res)


@pytest.mark.parametrize("name", ["construct", "scan", "pipeline"])
def test_untraced_run_prints_the_end_to_end_metrics(name):
    done = bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1 and out["failed"] == 0
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_prints_the_per_layer_metrics():
    done = bench("--workload", "pipeline", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    details = json.loads((HERE / "out" / "pipeline-seed3-trace1.json").read_text())
    assert details["spans"] and {"name", "start", "end", "parent", "op"} <= set(details["spans"][0])
    assert [d["params"][0] for d in details["deep_probe"]] == list(workloads.Pipeline.deep)


def test_without_the_source_tree_it_fails_and_prints_no_result():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        done = bench("--workload", "construct", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
