"""Derivative-free minimisation with a linear-model trust region, in the
COBYLA family, plus the gradient-window termination rule.

The optimiser keeps a simplex of d+1 points, fits a linear model to the
objective over it, and steps steepest-descent on that model within the
trust radius; the radius halves after repeated non-improvement.  The
steps use objective values only.  The stop rule reads the caller's
gradient at the incumbent after every iteration (re-read only when the
incumbent moved), and the run stops once its norm stays below a
threshold for a window of consecutive iterations.  The rule reads only
that norm, so the gradient may be a partial vector, provided its norm is
below the threshold exactly when the full gradient's is.  Everything is
deterministic: the same configuration always produces the same trace.
"""

from dataclasses import dataclass, field
from math import pi

import numpy as np

from . import limits


@dataclass(frozen=True)
class OptConfig:
    max_iters: int = 500
    init_step: float = 0.1 * pi
    grad_threshold: float = 1e-4
    grad_window: int = 10

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.grad_window < 1:
            raise ValueError(f"grad_window must be >= 1, got {self.grad_window}")
        for name in ("init_step", "grad_threshold"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass
class TracePoint:
    iteration: int
    params: np.ndarray
    value: float
    ratio: float


@dataclass
class OptTrace:
    """Best-so-far record per iteration plus the terminal status, one of
    "gradient-window" or "max-iters".  `evaluations` counts objective
    calls and `gradients` gradient calls."""

    points: list[TracePoint] = field(default_factory=list)
    status: str = "max-iters"
    evaluations: int = 0
    gradients: int = 0

    @property
    def best_params(self) -> np.ndarray:
        return self.points[-1].params

    @property
    def best_value(self) -> float:
        return self.points[-1].value

    @property
    def iterations(self) -> int:
        return len(self.points) - 1


class ObjectiveError(RuntimeError):
    """Objective callback failed or returned a non-finite value; carries
    the iteration context."""


_MIN_RADIUS = 1e-7
_SHRINK_AFTER = 2


def reduce_periodic(x: np.ndarray, periods) -> np.ndarray:
    """Map each coordinate with a declared period into [0, period)."""
    if periods is None:
        return x
    out = np.array(x, dtype=float)
    for i, period in enumerate(periods):
        if period:
            out[i] = out[i] % period
    return out


def minimize(objective, x0, cfg: OptConfig, periods=None, ratio_fn=None, *,
             gradient) -> OptTrace:
    """Minimise a deterministic objective over R^d.

    `gradient` maps a point to the objective's gradient there; only the
    stop rule reads it, and only its norm against `cfg.grad_threshold`,
    so it may return a partial vector whose norm is below the threshold
    exactly when the full gradient's is.  `periods` optionally declares
    a period per coordinate (None entries are unconstrained); every
    evaluation of the objective and its gradient happens at the
    periodically reduced point, so neither sees values outside its
    declared range.  `ratio_fn` maps an objective value to the reported
    approximation ratio (NaN when absent).
    """
    x0 = np.asarray(x0, dtype=float)
    d = x0.size
    limits.check("parameters", d)
    trace = OptTrace()

    def evaluate(x, context):
        xr = reduce_periodic(x, periods)
        try:
            value = float(objective(xr))
        except Exception as e:
            raise ObjectiveError(f"objective failed at {context}: {e}") from e
        if not np.isfinite(value):
            raise ObjectiveError(f"objective returned {value} at {context}")
        trace.evaluations += 1
        return value

    def gradient_norm(x, iteration):
        xr = reduce_periodic(x, periods)
        context = f"iteration {iteration}"
        try:
            g = np.asarray(gradient(xr), dtype=float)
        except Exception as e:
            raise ObjectiveError(f"gradient failed at {context}: {e}") from e
        if g.shape != (d,):
            raise ObjectiveError(f"gradient returned shape {g.shape} at {context}, "
                                 f"expected ({d},)")
        bad = g[~np.isfinite(g)]
        if bad.size:
            raise ObjectiveError(f"gradient returned {bad[0]} at {context}")
        trace.gradients += 1
        return float(np.linalg.norm(g))

    def record(iteration, x, value):
        ratio = float(ratio_fn(value)) if ratio_fn is not None else float("nan")
        trace.points.append(
            TracePoint(iteration, reduce_periodic(x, periods), value, ratio)
        )

    x_best = x0.copy()
    f_best = evaluate(x_best, "initial point")
    record(0, x_best, f_best)

    rho = cfg.init_step

    def fresh_simplex():
        # a vertex can beat the incumbent (descent may be invisible to the
        # linear model at a stationary start); adopt it and keep the old
        # incumbent as a vertex so the offsets stay nonzero
        nonlocal x_best, f_best
        pts = np.repeat(x_best[None, :], d, axis=0) + rho * np.eye(d)
        vals = np.array(
            [evaluate(p, f"simplex vertex {i}") for i, p in enumerate(pts)]
        )
        best = int(np.argmin(vals))
        if vals[best] < f_best:
            pts[best], x_best = x_best, pts[best].copy()
            vals[best], f_best = f_best, float(vals[best])
        return pts, vals

    pts, vals = fresh_simplex()
    stale = 0
    low_grad = 0
    norm_at, grad_norm = None, 0.0  # the stop rule's last incumbent and norm

    for iteration in range(1, cfg.max_iters + 1):
        # linear model through the simplex offsets
        offsets = pts - x_best
        try:
            model_grad = np.linalg.solve(offsets, vals - f_best)
        except np.linalg.LinAlgError:
            pts, vals = fresh_simplex()
            offsets = pts - x_best
            model_grad = np.linalg.solve(offsets, vals - f_best)
        slope = float(np.linalg.norm(model_grad))
        if slope > 0:
            x_new = x_best - rho / slope * model_grad
            f_new = evaluate(x_new, f"iteration {iteration}")
            worst = int(np.argmax(vals))
            if f_new < f_best:
                # previous incumbent joins the simplex; keeps offsets nonzero
                pts[worst], vals[worst] = x_best, f_best
                x_best, f_best = x_new, f_new
                stale = 0
            else:
                if f_new < vals[worst]:
                    pts[worst], vals[worst] = x_new, f_new
                stale += 1
        else:
            stale += 1
        if stale >= _SHRINK_AFTER and rho > _MIN_RADIUS:
            rho = max(rho / 2, _MIN_RADIUS)
            pts, vals = fresh_simplex()
            stale = 0

        # termination rule: gradient norm at the incumbent, which is
        # deterministic, so an incumbent that did not move keeps its norm
        if norm_at is None or not np.array_equal(norm_at, x_best):
            norm_at, grad_norm = x_best.copy(), gradient_norm(x_best, iteration)
        low_grad = low_grad + 1 if grad_norm < cfg.grad_threshold else 0
        record(iteration, x_best, f_best)
        if low_grad >= cfg.grad_window:
            trace.status = "gradient-window"
            break
    else:
        trace.status = "max-iters"
    return trace


def approximation_ratio(expectation: float, opt_cost: float,
                        mode: str = "opt-over-exp",
                        c_min: float | None = None,
                        c_max: float | None = None) -> float:
    """Quality of an expected tour cost against the optimum.

    Default mode divides the optimal cost by the expectation, landing in
    (0, 1] with 1 exactly on optimal-tour support.  Mode "max-gap" uses
    (c_max - expectation) / (c_max - c_min) and needs both extremes.
    """
    if opt_cost <= 0 or expectation <= 0:
        raise ValueError("costs must be positive")
    if mode == "opt-over-exp":
        return opt_cost / expectation
    if mode == "max-gap":
        if c_min is None or c_max is None or c_max <= c_min:
            raise ValueError("max-gap mode needs cost extremes c_min < c_max")
        return (c_max - expectation) / (c_max - c_min)
    raise ValueError(f"unknown ratio mode {mode!r}")
