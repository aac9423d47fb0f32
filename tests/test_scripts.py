"""The benchmark script runs end to end at a toy size, and the A/B pair
script summarises canned results."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def load_ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "scripts" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(wall, ratio, correct=True):
    """The last line `perfbench/run.py` prints, with two metrics."""
    return json.dumps({"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
                       "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                   "final_ratio_mean": {"value": ratio, "unit": "ratio"}}})


def test_ab_pairs_summary_of_canned_runs():
    ab = load_ab_pairs()
    head = "# workload circuit10 seed 0 trace 0 passes=3\nwall_s  2.0 s\n"
    base = [ab.parse(head + result_line(w, 0.5)) for w in (2.0, 2.2, 2.4, 2.6)]
    change = [ab.parse(head + result_line(w, r, correct=(i != 2)))
              for i, (w, r) in enumerate(((1.9, 0.6), (2.3, 0.5), (2.0, 0.4), (2.6, 0.5)))]
    pairs = list(zip(base, change))
    rows = {r["metric"]: r for r in ab.summarize(pairs, {"wall_s": "lower", "peak_rss_mb": "lower",
                                                         "final_ratio_mean": "higher"})}
    # no run reports peak_rss_mb, so it has no row
    assert set(rows) == {"wall_s", "final_ratio_mean"}
    wall = rows["wall_s"]
    assert (wall["won"], wall["tied"], wall["lost"], wall["pairs"]) == (2, 1, 1, 4)
    assert wall["base"] == pytest.approx(2.3) and wall["change"] == pytest.approx(2.15)
    assert wall["base_iqr"] == pytest.approx(0.3)  # quartiles 2.15 and 2.45
    assert wall["ratio"] == pytest.approx(2.15 / 2.3)
    ratio = rows["final_ratio_mean"]  # higher is better
    assert (ratio["won"], ratio["tied"], ratio["lost"]) == (1, 2, 1)
    assert ratio["base_iqr"] == 0
    assert ab.failures(pairs) == ["change pair 2"]
    table = ab.render(ab.summarize(pairs, {"wall_s": "lower"}), ab.failures(pairs))
    assert "2/1/1 of 4" in table and table.endswith("failed runs: change pair 2")
    with pytest.raises(ValueError):
        ab.parse("")


@pytest.mark.parametrize("returncode, failed", [(0, []), (1, ["change pair 0"])])
def test_ab_pairs_counts_a_non_zero_exit_as_a_failed_run(monkeypatch, tmp_path, returncode, failed):
    # a run that prints a correct result line and then exits non-zero is
    # a failed run, not a good one
    ab = load_ab_pairs()

    def fake_run(cmd, cwd, **kwargs):
        code = returncode if Path(cwd).name == "change" else 0
        return subprocess.CompletedProcess(cmd, code, stdout=result_line(2.0, 0.5), stderr="boom")

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    pairs = [(ab.run_once(tmp_path / "base", "sweep7"), ab.run_once(tmp_path / "change", "sweep7"))]
    assert ab.failures(pairs) == failed
    if returncode:
        assert pairs[0][1]["error"] == "exit status 1: boom"


@pytest.mark.parametrize("code, correct, status", [
    (0, True, 0),  # every run good
    (0, False, 1),  # the change's runs failed an operation
    (1, True, 1),  # the change's runs exited non-zero
])
def test_ab_pairs_exits_1_when_a_run_failed(monkeypatch, tmp_path, capsys, code, correct, status):
    # two canned pairs: a scripted comparison must not pass over a failed run
    ab = load_ab_pairs()

    def fake_run(cmd, cwd, **kwargs):
        change = Path(cwd).name == "change"
        return subprocess.CompletedProcess(cmd, code if change else 0, stderr="boom",
                                           stdout=result_line(2.0, 0.5, correct or not change))

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    argv = ["--base", str(tmp_path / "base"), "--change", str(tmp_path / "change"),
            "--workload", "sweep7", "--pairs", "2"]
    assert ab.main(argv) == status
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == ("failed runs: none" if status == 0 else "failed runs: change pair 0, change pair 1")
