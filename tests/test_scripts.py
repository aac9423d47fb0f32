"""The benchmark script runs end to end at a toy size."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_run_benchmark_writes_one_trace_per_variant(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(ROOT / "scripts" / "run_benchmark.py"),
           "--n", "5", "--max-iters", "2", "--out-dir", str(tmp_path)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    traces = sorted(p.name for p in tmp_path.iterdir())
    assert traces == ["binary-insertion.csv", "bubble.csv", "qaoa-basis.csv", "qaoa-uniform.csv"]
    for name in traces:
        rows = (tmp_path / name).read_text().splitlines()
        assert rows[0].startswith("iteration,objective,ratio,theta_1")
        assert len(rows) == 4  # header, the start and two iterations
