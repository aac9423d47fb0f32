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


def bowl_gradient(x):
    return 2 * (x - 0.3)


def test_quadratic_bowl_recovery():
    trace = minimize(bowl, np.zeros(3), OptConfig(), gradient=bowl_gradient)
    assert trace.status == "gradient-window"
    assert np.max(np.abs(trace.best_params - 0.3)) <= 1e-4
    assert trace.best_value <= bowl(np.zeros(3))


def test_termination_at_local_minimum():
    cfg = OptConfig(grad_window=10)
    trace = minimize(bowl, np.full(3, 0.3), cfg, gradient=bowl_gradient)
    assert trace.status == "gradient-window"
    assert trace.iterations <= cfg.grad_window + 5


def test_max_iters_termination():
    cfg = OptConfig(max_iters=7, grad_threshold=1e-12)
    trace = minimize(bowl, np.zeros(2), cfg, gradient=bowl_gradient)
    assert trace.status == "max-iters"
    assert trace.iterations == 7


def test_trace_is_deterministic():
    a = minimize(bowl, np.zeros(4), OptConfig(), gradient=bowl_gradient)
    b = minimize(bowl, np.zeros(4), OptConfig(), gradient=bowl_gradient)
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

    def rough_gradient(x):
        return 2 * Q @ x + 5 * np.cos(5 * x)

    trace = minimize(rough, np.full(5, 1.2), OptConfig(max_iters=120), gradient=rough_gradient)
    values = [p.value for p in trace.points]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_periodic_reduction_bounds_every_evaluation():
    seen = []

    def probe(x):
        seen.append(np.array(x))
        return float(np.sum(np.cos(2 * x)))

    def probe_gradient(x):
        seen.append(np.array(x))
        return -2 * np.sin(2 * x)

    periods = [np.pi, np.pi, None]
    minimize(probe, np.array([5.0, -2.0, 9.0]), OptConfig(max_iters=30), periods=periods,
             gradient=probe_gradient)
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
        gradient=lambda x: 2 * x,
    )
    assert trace.points[0].ratio == pytest.approx(2.0 / trace.points[0].value)
    ratios = [p.ratio for p in trace.points]
    assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_objective_error_context():
    def broken(x):
        raise RuntimeError("boom")

    with pytest.raises(ObjectiveError, match="initial point"):
        minimize(broken, np.zeros(2), OptConfig(), gradient=bowl_gradient)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_objective_raises_with_context(bad):
    with pytest.raises(ObjectiveError, match="initial point"):
        minimize(lambda x: bad, np.zeros(2), OptConfig(), gradient=bowl_gradient)

    def step_1_breaks(x):
        # the initial point and the simplex vertices lie on the axes; the
        # model step of iteration 1 is the first point off them
        return bad if np.count_nonzero(x) > 1 else bowl(x)

    with pytest.raises(ObjectiveError, match=r"objective returned .* at iteration 1$"):
        minimize(step_1_breaks, np.zeros(4), OptConfig(), gradient=bowl_gradient)

    calls = []

    def third_read_breaks(x):
        # the incumbent moves at iterations 1, 3 and 4, so the stop rule
        # reads the gradient for the third time at iteration 4
        calls.append(1)
        return np.full(4, bad) if len(calls) == 3 else bowl_gradient(x)

    with pytest.raises(ObjectiveError, match=rf"^gradient returned {bad} at iteration 4$"):
        minimize(bowl, np.zeros(4), OptConfig(), gradient=third_read_breaks)


def test_gradient_failures_name_the_iteration():
    def broken(x):
        raise RuntimeError("boom")

    with pytest.raises(ObjectiveError, match="gradient failed at iteration 1: boom"):
        minimize(bowl, np.zeros(3), OptConfig(), gradient=broken)
    with pytest.raises(ObjectiveError, match=r"shape \(2,\) at iteration 1, expected \(3,\)"):
        minimize(bowl, np.zeros(3), OptConfig(), gradient=lambda x: x[:2])


def test_gradient_is_read_once_per_incumbent():
    values, reads = [], []

    def counted_bowl(x):
        values.append(1)
        return bowl(x)

    def counted_gradient(x):
        reads.append(np.array(x))
        return bowl_gradient(x)

    trace = minimize(counted_bowl, np.zeros(4), OptConfig(max_iters=40),
                     gradient=counted_gradient)
    moves = sum(not np.array_equal(a.params, b.params)
                for a, b in zip(trace.points[1:], trace.points[2:]))
    assert trace.gradients == len(reads) == moves + 1 < trace.iterations
    assert all(not np.array_equal(a, b) for a, b in zip(reads, reads[1:]))
    assert trace.evaluations == len(values)


def test_config_validation():
    with pytest.raises(ValueError, match="max_iters"):
        OptConfig(max_iters=0)
    with pytest.raises(ValueError, match="grad_window"):
        OptConfig(grad_window=0)
    for field in ("init_step", "grad_threshold"):
        for bad in (-1.0, 0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
                OptConfig(**{field: bad})


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
