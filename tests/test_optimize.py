import numpy as np
import pytest

from permcirc.optimize import (
    ObjectiveError,
    OptConfig,
    approximation_ratio,
    minimize,
    reduce_periodic,
)


def bowl(x):
    return float(np.sum((x - 0.3) ** 2))


def test_quadratic_bowl_recovery():
    trace = minimize(bowl, np.zeros(3), OptConfig())
    assert trace.status == "gradient-window"
    assert np.max(np.abs(trace.best_params - 0.3)) <= 1e-4
    assert trace.best_value <= bowl(np.zeros(3))


def test_termination_at_local_minimum():
    cfg = OptConfig(grad_window=10)
    trace = minimize(bowl, np.full(3, 0.3), cfg)
    assert trace.status == "gradient-window"
    assert trace.iterations <= cfg.grad_window + 5


def test_max_iters_termination():
    cfg = OptConfig(max_iters=7, grad_threshold=1e-12)
    trace = minimize(bowl, np.zeros(2), cfg)
    assert trace.status == "max-iters"
    assert trace.iterations == 7


def test_trace_is_deterministic():
    a = minimize(bowl, np.zeros(4), OptConfig())
    b = minimize(bowl, np.zeros(4), OptConfig())
    assert len(a.points) == len(b.points)
    for pa, pb in zip(a.points, b.points):
        assert pa.value == pb.value
        assert np.array_equal(pa.params, pb.params)


def test_best_curve_monotone():
    rng = np.random.default_rng(0)
    Q = rng.normal(size=(5, 5))
    Q = Q @ Q.T + np.eye(5)

    def rough(x):
        return float(x @ Q @ x + np.sin(5 * x).sum())

    trace = minimize(rough, np.full(5, 1.2), OptConfig(max_iters=120))
    values = [p.value for p in trace.points]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_periodic_reduction_bounds_every_evaluation():
    seen = []

    def probe(x):
        seen.append(np.array(x))
        return float(np.sum(np.cos(2 * x)))

    periods = [np.pi, np.pi, None]
    minimize(probe, np.array([5.0, -2.0, 9.0]), OptConfig(max_iters=30), periods=periods)
    for x in seen:
        assert 0 <= x[0] < np.pi
        assert 0 <= x[1] < np.pi
    assert reduce_periodic(np.array([5.0, -2.0]), [np.pi, np.pi])[1] >= 0


def test_ratio_fn_recorded():
    trace = minimize(
        lambda x: float(np.sum(x**2)) + 2.0,
        np.ones(2),
        OptConfig(max_iters=20),
        ratio_fn=lambda v: 2.0 / v,
    )
    assert trace.points[0].ratio == pytest.approx(2.0 / trace.points[0].value)
    ratios = [p.ratio for p in trace.points]
    assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_objective_error_context():
    def broken(x):
        raise RuntimeError("boom")

    with pytest.raises(ObjectiveError, match="initial point"):
        minimize(broken, np.zeros(2), OptConfig())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_objective_raises_with_context(bad):
    with pytest.raises(ObjectiveError, match="initial point"):
        minimize(lambda x: bad, np.zeros(2), OptConfig())

    def probe_3_breaks(x):
        # the incumbent stays at the origin through iteration 1, so only
        # its gradient probe 3 sees x[3] == step
        return bad if x[3] == 1e-6 else float(np.sum(x**2))

    with pytest.raises(ObjectiveError, match=r"returned .* at gradient probe 3"):
        minimize(probe_3_breaks, np.zeros(4), OptConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        OptConfig(max_iters=0)
    with pytest.raises(ValueError):
        OptConfig(grad_threshold=-1)


def test_approximation_ratio_modes():
    assert approximation_ratio(10.0, 10.0) == 1.0
    assert approximation_ratio(20.0, 10.0) == 0.5
    assert approximation_ratio(4.0, 2.0, "max-gap", c_min=2.0, c_max=6.0) == 0.5
    with pytest.raises(ValueError):
        approximation_ratio(-1.0, 2.0)
    with pytest.raises(ValueError):
        approximation_ratio(2.0, 0.0)
    with pytest.raises(ValueError):
        approximation_ratio(2.0, 1.0, "max-gap")
    with pytest.raises(ValueError):
        approximation_ratio(2.0, 1.0, "nonsense")
