import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from permcirc.cli import main
from permcirc.experiment import (
    RunSpec,
    _circuit,
    _ratio_fn,
    build_sequence,
    reach_report,
    run_experiment,
    top_k_rows,
    trace_csv,
    write_trace_csv,
)
from permcirc.feasible import (
    basis_state,
    expectation,
    expectation_gradient,
    run_exhaustive_circuit,
    run_steps,
)
from permcirc.limits import TooLarge
from permcirc.optimize import OptConfig, approximation_ratio, minimize
from permcirc.perms import identity
from permcirc.qaoa import QaoaConfig, default_layers, initial_state, qaoa_steps, run_qaoa
from permcirc.tsp import TourCost, load_instance, optimum, random_instance

FAST = OptConfig(max_iters=10, grad_window=3)
ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv):
    return main(list(argv))


def test_gen_instance_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run_cli("gen-instance", "--n", "9", "--seed", "7", "--out", str(a)) == 0
    assert run_cli("gen-instance", "--n", "9", "--seed", "7", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert load_instance(a).n == 9


def test_gen_instance_rejects_zero_lo(tmp_path):
    out = tmp_path / "x.txt"
    assert run_cli("gen-instance", "--n", "4", "--seed", "0", "--lo", "0",
                   "--out", str(out)) == 1


@pytest.mark.parametrize("argv, message", [
    ((), "the following arguments are required: --n"),
    (("--instance", "inst.txt", "--n", "4"), "unrecognized arguments: --instance inst.txt"),
])
def test_gen_instance_needs_n_and_takes_no_instance(argv, message, tmp_path, capsys):
    # a missing --n once ended in a TypeError from the city-count check,
    # and --instance was accepted and then ignored
    out = tmp_path / "x.txt"
    with pytest.raises(SystemExit) as exc:
        run_cli("gen-instance", *argv, "--out", str(out))
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: permcirc") and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_usage_error_exit_code(capsys):
    assert run_cli("run") == 1  # neither --instance nor --n
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--method", "nonsense", "--n", "5")
    assert exc.value.code == 1


def test_solve_exact_output(capsys):
    assert run_cli("solve-exact", "--n", "6", "--seed", "3", "--no-reduced") == 0
    out = capsys.readouterr().out.strip()
    cost_text, perm_text = out.split(" ", 1)
    inst = random_instance(6, seed=3)
    tour, cost = optimum(inst, reduced=False)
    assert float(cost_text) == pytest.approx(cost)
    assert perm_text == ",".join(str(v + 1) for v in tour)


def test_solve_exact_size_cap():
    assert run_cli("solve-exact", "--n", "15", "--seed", "0", "--no-reduced") == 3


@pytest.mark.parametrize("argv", [
    ("run", "--n", "12"),
    ("reach", "--n", "12"),
    ("solve-exact", "--n", "13"),
    ("gen-instance", "--n", "1000000"),
    ("run", "--n", "1000000"),
    ("run", "--n", "4", "--method", "qaoa", "--qaoa-layers", "200000"),
    ("run", "--n", "4", "--method", "qaoa", "--qaoa-layers", "100000000"),
])
def test_size_caps_refuse_at_once(argv, tmp_path, capsys):
    import time

    out = tmp_path / "out"
    began = time.perf_counter()
    flags = ("--out", str(out)) if argv[0] in ("run", "gen-instance") else ()
    assert run_cli(*argv, "--seed", "0", *flags) == 3
    assert time.perf_counter() - began < 1.0
    assert capsys.readouterr().err.startswith("permcirc: size cap: ")
    assert not out.exists()


def test_an_instance_file_above_the_cap_is_refused(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text("n 5000\ndirected 1\n")
    assert run_cli("solve-exact", "--instance", str(path)) == 3
    assert capsys.readouterr().err.startswith("permcirc: size cap: instance of 5000 cities needs ")


@pytest.mark.parametrize("argv", [
    ("solve-exact", "--n", "1"),
    ("run", "--n", "1"),
    ("run", "--n", "2", "--method", "bubble"),
    ("run", "--n", "2", "--method", "binary-insertion"),
    ("run", "--n", "2", "--method", "qaoa"),
    ("reach", "--n", "2"),
    # the weights are finite, but tour costs would overflow
    ("run", "--n", "4", "--lo", "1e308", "--hi", "1.7e308"),
    ("reach", "--n", "4", "--lo", "1e308", "--hi", "1.7e308"),
    ("solve-exact", "--n", "4", "--lo", "1e308", "--hi", "1.7e308"),
    ("gen-instance", "--n", "0"),
    ("gen-instance", "--n", "-3"),
    ("solve-exact", "--n", "-3", "--no-reduced"),
    ("run", "--n", "0"),
])
def test_degenerate_sizes_are_usage_errors(argv, tmp_path, capsys):
    path = tmp_path / "t.csv"
    out = ("--out", str(path)) if argv[0] in ("run", "gen-instance") else ()
    assert run_cli(*argv, *out) == 1
    err = capsys.readouterr().err
    assert err.startswith("permcirc: error:")
    assert "Traceback" not in err
    assert not path.exists()
    if "--lo" in argv:
        assert "weights too large" in err
    if int(argv[2]) < 1:
        assert err.startswith(f"permcirc: error: need at least 1 city, got {argv[2]}")


@pytest.mark.parametrize("argv, bounds", [
    (("gen-instance", "--n", "5", "--hi", "inf"), "lo=1.0, hi=inf"),
    (("run", "--n", "5", "--lo", "inf", "--hi", "inf"), "lo=inf, hi=inf"),
    (("solve-exact", "--n", "5", "--lo", "inf", "--hi", "inf"), "lo=inf, hi=inf"),
    (("reach", "--n", "5", "--hi", "nan"), "lo=1.0, hi=nan"),
])
def test_non_finite_weight_bounds_are_usage_errors(argv, bounds, tmp_path, capsys):
    path = tmp_path / "out"
    out = ("--out", str(path)) if argv[0] in ("run", "gen-instance") else ()
    assert run_cli(*argv, *out) == 1
    assert capsys.readouterr().err == f"permcirc: error: need finite 0 < lo <= hi, got {bounds}\n"
    assert not path.exists()


@pytest.mark.parametrize("flag, value, name", [
    ("--grad-threshold", "nan", "grad_threshold"),
    ("--grad-threshold", "inf", "grad_threshold"),
    ("--init-step", "nan", "init_step"),
    ("--init-step", "inf", "init_step"),
    ("--init-step", "-inf", "init_step"),
    ("--top-k", "-1", "--top-k"),
])
def test_run_refuses_bad_settings(flag, value, name, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert run_cli("run", "--n", "5", f"{flag}={value}", "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"permcirc: error: {name} must be")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("layers", ["0", "-1"])
def test_qaoa_layers_below_one_are_usage_errors(layers, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert run_cli("run", "--n", "5", "--method", "qaoa", "--qaoa-layers", layers,
                   "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err == "permcirc: error: layer count must be >= 1\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("method", ["bubble", "binary-insertion"])
@pytest.mark.parametrize("flag, value", [("--qaoa-layers", "2"), ("--qaoa-init", "uniform"),
                                         ("--qaoa-init", "basis")])
def test_qaoa_flags_require_the_qaoa_method(method, flag, value, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert run_cli("run", "--n", "5", "--method", method, flag, value, "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"permcirc: error: {flag} requires --method qaoa\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("where", ["missing/t.csv", "."])
def test_unwritable_trace_path_fails_before_the_run(where, tmp_path, monkeypatch, capsys):
    import permcirc.cli as cli

    def no_run(spec):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    assert run_cli("run", "--n", "9", "--seed", "7", "--method", "binary-insertion",
                   "--out", str(tmp_path / where)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("permcirc: error: ")
    assert captured.out == ""
    assert not (tmp_path / "missing").exists()


def test_solve_exact_one_city(capsys):
    assert run_cli("solve-exact", "--n", "1", "--no-reduced") == 0
    assert capsys.readouterr().out == "0.0 1\n"


def test_solve_exact_nine_cities_is_fast():
    import time

    began = time.perf_counter()
    assert run_cli("solve-exact", "--n", "9", "--seed", "1") == 0  # 40320 reduced tours
    assert time.perf_counter() - began < 1.0


def test_run_parameter_counts(tmp_path, capsys):
    table = [
        ("bubble", "28"),
        ("binary-insertion", "17"),
        ("qaoa", "8"),  # 2p with the matched default p = 4
    ]
    for method, expected in table:
        out = tmp_path / f"{method}.csv"
        code = run_cli(
            "run", "--n", "9", "--seed", "7", "--method", method,
            "--max-iters", "2", "--grad-window", "2", "--out", str(out),
        )
        assert code == 0
        stdout = capsys.readouterr().out
        line = next(ln for ln in stdout.splitlines() if ln.startswith("parameters"))
        assert line.split()[1] == expected
        lines = stdout.splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith("gradients"))
        assert 1 <= int(lines[at].split()[1]) <= 2
        reuses, skipped, swept, phased = (lines[at + i].split() for i in (1, 2, 3, 4))
        assert reuses[0] == "forward_reuses" and int(reuses[1]) >= 0
        assert skipped[0] == "steps_skipped" and skipped[2] == "of"
        assert 0 <= int(skipped[1]) <= int(skipped[3])
        assert swept[0] == "sweep_steps" and swept[2] == "of"
        assert 1 <= int(swept[1]) <= int(swept[3])
        assert phased[0] == "phase_builds" and phased[2] == "of"
        if method == "qaoa":
            # the zero start's four gammas share one array of factors
            assert 1 <= int(phased[1]) < int(phased[3]) <= int(skipped[3]) - int(skipped[1])
        else:
            assert phased[1] == phased[3] == "0"


def test_run_traces_are_byte_identical(tmp_path):
    args = [
        "run", "--n", "7", "--seed", "1", "--method", "binary-insertion",
        "--max-iters", "6", "--grad-window", "3", "--dump-params",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header.startswith("iteration,objective,ratio,theta_1")


def test_run_first_row_ratio_matches_independent_computation(tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli(
        "run", "--n", "8", "--seed", "5", "--method", "bubble",
        "--max-iters", "3", "--grad-window", "2", "--out", str(out),
    ) == 0
    first = out.read_text().splitlines()[1].split(",")
    inst = random_instance(8, seed=5)
    cost = TourCost(inst, reduced=True).vector()
    start_cost = expectation(basis_state(identity(7)), cost)
    _, opt_cost = optimum(inst, reduced=True)
    assert float(first[1]) == pytest.approx(start_cost, rel=1e-12)
    assert float(first[2]) == pytest.approx(
        approximation_ratio(start_cost, opt_cost), rel=1e-12
    )


def test_first_row_ratio_every_method():
    inst = random_instance(7, seed=2)
    cost = TourCost(inst, reduced=True).vector()
    _, opt_cost = optimum(inst, reduced=True)
    from permcirc.feasible import uniform_feasible_state

    starts = {
        "bubble": basis_state(identity(6)),
        "binary-insertion": basis_state(identity(6)),
        "qaoa": basis_state(identity(6)),
        "qaoa-uniform": uniform_feasible_state(6),
    }
    for name, initial in starts.items():
        method = "qaoa" if name.startswith("qaoa") else name
        qcfg = QaoaConfig(2, initial="uniform") if name == "qaoa-uniform" else None
        spec = RunSpec(inst, method=method, qaoa=qcfg, opt=FAST)
        trace, _ = run_experiment(spec)
        expected = approximation_ratio(expectation(initial, cost), opt_cost)
        assert trace.points[0].ratio == pytest.approx(expected, rel=1e-12), name


def test_run_top_k_rows(capsys, tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli(
        "run", "--n", "6", "--seed", "2", "--method", "qaoa",
        "--max-iters", "3", "--grad-window", "2",
        "--out", str(out), "--top-k", "4",
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    idx = lines.index("probability,permutation")
    rows = lines[idx + 1: idx + 5]
    probs = [float(r.split(",", 1)[0]) for r in rows]
    assert len(rows) == 4
    assert probs == sorted(probs, reverse=True)


def test_reach_target_and_optimum(tmp_path, capsys):
    # explicit target
    assert run_cli(
        "reach", "--n", "7", "--seed", "4", "--method", "binary-insertion",
        "--target", "2,1,3,4,6,5",
    ) == 0
    out = capsys.readouterr().out
    assert "fidelity  1.000000000" in out
    # default target is the optimum witness
    assert run_cli("reach", "--n", "7", "--seed", "4", "--method", "bubble") == 0
    out = capsys.readouterr().out
    inst = random_instance(7, seed=4)
    tour, _ = optimum(inst, reduced=True)
    assert f"target    {','.join(str(v + 1) for v in tour)}" in out
    assert "fidelity  1.000000000" in out


@pytest.mark.parametrize("target", ["1,2,3,5", "0,1,2,3"])
def test_reach_quotes_a_bad_target(target, capsys):
    assert run_cli("reach", "--n", "5", "--seed", "0", "--target", target) == 1
    captured = capsys.readouterr()
    assert captured.err == ("permcirc: error: not a permutation of 1..4 in one-line "
                            f"notation: '{target}'\n")
    assert captured.out == ""


def test_negative_random_init_is_refused_before_the_trace_opens(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert run_cli("run", "--n", "5", "--random-init", "-1", "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err == "permcirc: error: random-init seed must be >= 0, got -1\n"
    assert captured.out == ""
    assert not out.exists()
    with pytest.raises(ValueError, match="^random-init seed must be >= 0, got -3$"):
        RunSpec(random_instance(5, seed=0), random_init_seed=-3)
    RunSpec(random_instance(5, seed=0), random_init_seed=0)


def test_reach_rejects_qaoa():
    assert run_cli("reach", "--n", "6", "--seed", "0", "--method", "qaoa") == 1


def test_reach_target_equals_start(capsys):
    assert run_cli(
        "reach", "--n", "5", "--seed", "0", "--method", "bubble",
        "--target", "1,2,3,4",
    ) == 0
    out = capsys.readouterr().out
    assert "mask      000000" in out
    assert "fidelity  1.000000000" in out


def test_runspec_validation():
    inst = random_instance(5, seed=0)
    with pytest.raises(ValueError):
        RunSpec(inst, method="annealing")
    with pytest.raises(ValueError):
        RunSpec(inst, method="bubble", qaoa=QaoaConfig(2))
    with pytest.raises(ValueError, match="at least 3 cities with reduced=True"):
        RunSpec(random_instance(2, seed=0))
    with pytest.raises(ValueError, match="at least 2 cities with reduced=False"):
        RunSpec(random_instance(1, seed=0), reduced=False)
    RunSpec(random_instance(2, seed=0), reduced=False)
    with pytest.raises(ValueError, match="unknown ratio mode 'max_gap'; use opt-over-exp or max-gap"):
        RunSpec(inst, ratio_mode="max_gap")
    # the parameter count is refused before any step list exists
    RunSpec(inst, method="qaoa", qaoa=QaoaConfig(2048))
    with pytest.raises(TooLarge, match="^simplex of 4098 parameters needs "):
        RunSpec(inst, method="qaoa", qaoa=QaoaConfig(2049))


def test_run_experiment_summary_consistency():
    inst = random_instance(7, seed=6)
    spec = RunSpec(inst, method="binary-insertion", opt=FAST)
    trace, summary = run_experiment(spec)
    assert summary["parameters"] == len(trace.points[0].params)
    assert summary["final_ratio"] >= summary["initial_ratio"] - 1e-12
    assert summary["final_objective"] <= summary["initial_objective"] + 1e-12
    assert trace.points[0].ratio == pytest.approx(
        summary["optimal_cost"] / summary["initial_objective"]
    )
    assert summary["evaluations"] == trace.evaluations
    assert 1 <= summary["gradients"] == trace.gradients <= trace.iterations
    # one forward pass for each evaluation, each gradient and the final
    # state, each of one step per parameter here
    passes = summary["evaluations"] + summary["gradients"] + 1
    assert summary["forward_steps"] == passes * summary["parameters"]
    assert (summary["forward_reuses"] * summary["parameters"]
            <= summary["steps_skipped"] < summary["forward_steps"])
    assert summary["full_sweep_steps"] == summary["gradients"] * summary["parameters"]
    assert summary["gradients"] <= summary["sweep_steps"] <= summary["full_sweep_steps"]
    assert summary["phase_builds"] == summary["phase_steps"] == 0
    # QAOA at 3 layers: a pass from the initial state runs 3 phase steps,
    # and the zero start's three gammas share one array of factors
    spec = RunSpec(inst, method="qaoa", qaoa=QaoaConfig(3), opt=FAST)
    trace, summary = run_experiment(spec)
    passes = summary["evaluations"] + summary["gradients"] + 1
    assert 1 <= summary["phase_builds"] < summary["phase_steps"] <= 3 * passes
    assert summary["phase_steps"] <= summary["forward_steps"] - summary["steps_skipped"]


@pytest.mark.parametrize("method, initial, status", [
    ("bubble", None, "max-iters"),
    ("binary-insertion", None, "gradient-window"),
    ("qaoa", "basis", "max-iters"),
    ("qaoa", "uniform", "max-iters"),
])
def test_bounded_sweeps_leave_the_run_unchanged(method, initial, status):
    # run_experiment's stop rule cuts its sweeps short; minimize with the
    # full gradient must write the same trace
    inst = random_instance(7, seed=1)
    cfg = None if initial is None else QaoaConfig(default_layers(6), initial=initial)
    spec = RunSpec(inst, method=method, qaoa=cfg)
    trace, summary = run_experiment(spec)
    cost = TourCost(inst, reduced=True)
    circuit = _circuit(spec, cost.vector())
    full = minimize(circuit.value, np.zeros(len(circuit.periods)), spec.opt,
                    periods=circuit.periods, ratio_fn=_ratio_fn(spec, cost, optimum(inst, True)[1]),
                    gradient=circuit.gradient)
    assert trace_csv(trace, dump_params=True) == trace_csv(full, dump_params=True)
    assert trace.status == full.status == status
    assert (trace.evaluations, trace.gradients) == (full.evaluations, full.gradients)
    assert circuit.sweep_steps == summary["full_sweep_steps"]
    assert summary["sweep_steps"] < summary["full_sweep_steps"]


@pytest.mark.parametrize("initial", ["basis", "uniform"])
def test_held_phase_factors_leave_the_run_unchanged(initial):
    # 9 cities: degree-8 states of two blocks, whose held phase factors are
    # built block by block; minimize on fresh passes from the initial
    # state, with no Circuit, must write the same trace
    inst = random_instance(9, seed=7)
    spec = RunSpec(inst, method="qaoa", qaoa=QaoaConfig(default_layers(8), initial=initial),
                   opt=OptConfig(max_iters=5, grad_window=3), random_init_seed=2)
    trace, summary = run_experiment(spec)
    assert summary["phase_builds"] < summary["phase_steps"]
    cost = TourCost(inst, reduced=True)
    vec = cost.vector()
    steps, p = qaoa_steps(vec, spec.qaoa, 8), spec.qaoa.layers
    fresh = minimize(lambda x: expectation(run_steps(initial_state(spec.qaoa, 8), steps, x), vec),
                     trace.points[0].params, spec.opt, periods=[np.pi] * p + [None] * p,
                     ratio_fn=_ratio_fn(spec, cost, optimum(inst, True)[1]),
                     gradient=lambda x: expectation_gradient(initial_state(spec.qaoa, 8), steps, x, vec))
    assert trace_csv(trace, dump_params=True) == trace_csv(fresh, dump_params=True)
    assert (trace.evaluations, trace.gradients) == (fresh.evaluations, fresh.gradients)


@pytest.mark.parametrize("method, initial", [
    ("bubble", None), ("binary-insertion", None), ("qaoa", "basis"), ("qaoa", "uniform"),
])
def test_final_state_is_the_circuit_at_the_best_params(method, initial):
    inst = random_instance(6, seed=4)
    cfg = None if initial is None else QaoaConfig(2, initial=initial)
    trace, summary = run_experiment(RunSpec(inst, method=method, qaoa=cfg, opt=FAST,
                                            random_init_seed=1))
    x, start, cost = trace.best_params, identity(5), TourCost(inst, reduced=True)
    if cfg is None:
        expected = run_exhaustive_circuit(build_sequence(method, 5), x, start)
    else:
        expected = run_qaoa(cost, cfg, x[:2], x[2:], start)
    assert summary["final_state"].amps.tobytes() == expected.amps.tobytes()
    assert summary["final_objective"] == expectation(expected, cost.vector())


def test_run_experiment_random_init_and_ratio_mode():
    inst = random_instance(6, seed=9)
    spec = RunSpec(inst, method="bubble", opt=FAST, ratio_mode="max-gap",
                   random_init_seed=3)
    trace, summary = run_experiment(spec)
    assert 0.0 <= summary["final_ratio"] <= 1.0
    assert not np.allclose(trace.points[0].params, 0.0)


def test_reach_report_hits_optimum_with_probability_one():
    inst = random_instance(8, seed=12)
    spec = RunSpec(inst, method="bubble")
    report = reach_report(spec)
    assert report["fidelity"] == pytest.approx(1.0, abs=1e-10)
    probs = np.abs(report["state"].amps) ** 2
    tour, _ = optimum(inst, reduced=True)
    from permcirc.perms import rank

    assert probs[rank(tour)] == pytest.approx(1.0, abs=1e-10)


def test_write_trace_csv_format(tmp_path):
    inst = random_instance(5, seed=1)
    trace, _ = run_experiment(RunSpec(inst, method="bubble", opt=FAST))
    plain = tmp_path / "plain.csv"
    wide = tmp_path / "wide.csv"
    write_trace_csv(trace, plain)
    write_trace_csv(trace, wide, dump_params=True)
    head = plain.read_text().splitlines()
    assert head[0] == "iteration,objective,ratio"
    assert len(head) == len(trace.points) + 1
    assert wide.read_text().splitlines()[0].count("theta_") == len(
        trace.points[0].params
    )


def test_verify_quick_passes(capsys):
    import time

    began = time.perf_counter()
    assert run_cli("verify", "--level", "quick") == 0
    assert time.perf_counter() - began < 10.0
    out = capsys.readouterr().out
    assert out.endswith("17/17 checks passed (quick)\n")
    assert "PASS action-tables " in out
    assert "PASS bounded-gradient " in out
    assert "PASS blocked-runs " in out
    assert "PASS parallel-steps " in out


def test_verify_full_passes(capsys):
    assert run_cli("verify", "--level", "full") == 0
    out = capsys.readouterr().out
    assert out.endswith("22/22 checks passed (full)\n")
    assert "PASS action-tables " in out
    assert "PASS generating-property-n10 " in out
    assert "PASS circuit-reuse " in out


def test_verify_failure_exit_code(monkeypatch, capsys):
    import permcirc.checks as checks

    monkeypatch.setattr(
        checks, "run_checks",
        lambda level: [checks.CheckResult("rigged", False, "injected failure", 0.0)],
    )
    assert run_cli("verify", "--level", "quick") == 2
    assert "FAIL rigged" in capsys.readouterr().out


def test_the_cli_loads_the_checks_only_for_verify():
    # the checks and their oracles' scipy take most of the CLI's import
    # time; a fresh interpreter loads them for `verify` alone
    code = """
import sys
import permcirc.cli
assert "permcirc.checks" not in sys.modules and "scipy" not in sys.modules, sorted(sys.modules)
assert permcirc.cli.main(["verify", "--level", "quick"]) == 0
assert "permcirc.checks" in sys.modules
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("17/17 checks passed (quick)\n")


def test_top_k_rows_order():
    state = basis_state(identity(4))
    rows = top_k_rows(state, 3)
    assert rows[0][0] == pytest.approx(1.0)
    assert rows[0][1] == identity(4)
