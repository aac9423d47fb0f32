"""The benchmark script runs end to end at a toy size, and the A/B pair
and bit-identity scripts summarise canned results."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(wall, ratio, correct=True):
    """The last line `perfbench/run.py` prints, with two metrics."""
    return json.dumps({"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
                       "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                   "final_ratio_mean": {"value": ratio, "unit": "ratio"}}})


def metrics(bound=0.25, **better):
    """`end_to_end` entries of `BENCHMARK.json`, each with `bound`."""
    return [{"name": name, "better": direction, "bound": bound} for name, direction in better.items()]


def test_ab_pairs_summary_of_canned_runs():
    ab = load_script("ab_pairs")
    head = "# workload circuit10 seed 0 trace 0 passes=3\nwall_s  2.0 s\n"
    base = [ab.parse(head + result_line(w, 0.5)) for w in (2.0, 2.2, 2.4, 2.6)]
    change = [ab.parse(head + result_line(w, r, correct=(i != 2)))
              for i, (w, r) in enumerate(((1.9, 0.6), (2.3, 0.5), (2.0, 0.4), (2.6, 0.5)))]
    pairs = list(zip(base, change))
    rows = {r["metric"]: r for r in ab.summarize(pairs, metrics(
        wall_s="lower", peak_rss_mb="lower", final_ratio_mean="higher"))}
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
    table = ab.render(ab.summarize(pairs, metrics(wall_s="lower")), ab.failures(pairs))
    assert "2/1/1 of 4" in table and table.endswith("failed runs: change pair 2")
    with pytest.raises(ValueError):
        ab.parse("")


def test_ab_pairs_verdicts_against_the_bounds():
    # four pairs a metric; bound 0.25 for the seconds, 0.1 for the rest
    runs = {  # name: (better, bound, base runs, change runs, verdict)
        "wall_s": ("lower", 0.25, (2.0, 2.0, 2.1, 2.1), (2.7, 2.7, 2.8, 2.8), "worse"),
        "setup_s": ("lower", 0.25, (1.0, 1.0, 2.0, 2.0), (1.5, 1.5, 1.5, 1.5), "unresolved"),
        "peak_rss_mb": ("lower", 0.1, (40.0, 40.0, 40.1, 40.1), (40.5, 40.5, 40.6, 40.6), "ok"),
        # the base spread is wider than the bound, but every change run wins
        "final_ratio_mean": ("higher", 0.1, (0.4, 0.4, 0.6, 0.6), (0.7, 0.7, 0.8, 0.8), "ok"),
        "evaluations": ("lower", 0.1, (100, 100, 100, 100), (111, 111, 111, 111), "worse"),
    }

    def result(side, i):
        return {"correct": True, "metrics": {name: {"value": run[2 + side][i]}
                                             for name, run in runs.items()}}

    ab = load_script("ab_pairs")
    pairs = [(result(0, i), result(1, i)) for i in range(4)]
    specs = [{"name": name, "better": run[0], "bound": run[1]} for name, run in runs.items()]
    rows = ab.summarize(pairs, specs)
    assert {r["metric"]: r["verdict"] for r in rows} == {name: run[4] for name, run in runs.items()}
    table = ab.render(rows, []).splitlines()
    assert table[0].endswith("verdict") and table[2].endswith("unresolved")


@pytest.mark.parametrize("returncode, failed", [(0, []), (1, ["change pair 0"])])
def test_ab_pairs_counts_a_non_zero_exit_as_a_failed_run(monkeypatch, tmp_path, returncode, failed):
    # a run that prints a correct result line and then exits non-zero is
    # a failed run, not a good one
    ab = load_script("ab_pairs")

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
    ab = load_script("ab_pairs")

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


def test_same_bits_verdicts_on_canned_arrays():
    sb = load_script("same_bits")
    amps = np.array([0.5 + 0.25j, 0.0, 0.0, 0.125j])
    amps.view(np.float64)[2:5] = -0.0
    flipped = amps + 0.0  # +0.0 wherever the base has -0.0
    assert flipped.tobytes() != amps.tobytes()
    moved = amps.copy()
    moved[0] += 2 ** -50
    assert sb.compare_arrays(amps, amps.copy()) == "same"
    assert sb.compare_arrays(amps, flipped) == "same up to the sign of zero"
    assert sb.compare_arrays(amps, moved) == "differs: largest absolute difference 8.88e-16"
    assert sb.compare_arrays(amps, amps[:3]) == "differs: shape (4,) against (3,)"
    table = np.arange(6)
    assert sb.compare_arrays(table, table.copy()) == "same"
    assert sb.compare_arrays(table, table.astype(float)) == "differs: dtype int64 against float64"
    assert sb.compare_arrays(table, table[::-1].copy()) == "differs: largest absolute difference 5"


def test_same_bits_verdicts_on_canned_csvs():
    sb = load_script("same_bits")
    base = "iteration,objective,ratio,theta_1\n0,48.5,0.25,0.0\n1,47.25,0.5,0.125\n"
    assert sb.compare_csv(base, base) == "same"
    assert sb.compare_csv(base, base.replace("0.25,0.0", "0.25,-0.0")) == "same up to the sign of zero"
    moved = base.replace("47.25", "47.250000000000004")
    assert sb.compare_csv(base, moved) == "differs: largest absolute difference 7.11e-15, first at line 3"
    longer = base + "2,47.0,0.75,0.25\n"
    assert sb.compare_csv(base, longer) == "differs: largest absolute difference inf, first at line 4"
    text = base.replace("0,48.5", "0,nope")
    assert sb.compare_csv(base, text) == "differs: largest absolute difference inf, first at line 2"


@pytest.mark.parametrize("moved, status", [(False, 0), (True, 1)])
def test_same_bits_prints_a_verdict_per_artifact(monkeypatch, tmp_path, capsys, moved, status):
    # canned artifacts in place of each tree's subprocess: one amplitude
    # array whose zeros flip sign, and a trace CSV that differs or not
    sb = load_script("same_bits")

    def fake_tree(tree, out):
        out.mkdir(parents=True)
        amps = np.array([0.5, -0.0, 0.25]) if out.name == "base" else np.array([0.5, 0.0, 0.25])
        np.save(out / "001.npy", amps)
        trace = "iteration,objective\n0,2.5\n" if out.name == "base" or not moved else "iteration,objective\n0,2.75\n"
        (out / "002.csv").write_text(trace)
        return [("001.npy", "forward bubble n=5"), ("002.csv", "trace n=9 bubble")]

    monkeypatch.setattr(sb, "run_tree", fake_tree)
    assert sb.main(["--base", str(tmp_path / "base")]) == status
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "forward bubble n=5: same up to the sign of zero"
    assert lines[1] == ("trace n=9 bubble: differs: largest absolute difference 0.25, first at line 2"
                        if moved else "trace n=9 bubble: same")
    assert lines[2] == f"2 artifacts, {int(moved)} differ"
