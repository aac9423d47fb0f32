"""Toy-size runs of every workload print every declared metric."""

import json
import shutil
import subprocess
import sys

import pytest
from conftest import BENCH

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run(*args, cwd=BENCH.parent):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    spans = BENCH / "out" / f"spans-{workload}.npz"
    if trace:
        spans.unlink(missing_ok=True)
    proc = run("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name in result["metrics"]:
        assert name in proc.stdout.split("\n", 2)[2]  # also in the readable lines
    if trace:
        assert spans.stat().st_size > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_timeout_counts_as_failed():
    proc = run("--workload", "circuit10", "--timeout", "0.5")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = run("--workload", "protocol9", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
