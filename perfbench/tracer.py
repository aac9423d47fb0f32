"""In-memory span tracer for the benchmark's traced runs.

`Tracer.install` replaces the package's public functions with wrappers
that record one span per call: (name, start, end, parent, run id).  A
function imported into several modules (``from .feasible import
apply_involution_exp`` in `permcirc.qaoa`, say) is replaced at every
module attribute that holds it, because callers look it up there; a
function the package no longer has is skipped and its metrics read 0.
Spans stay in memory until `write` saves them at the end of the run.
Self time is a span's duration minus the time its child spans cover.
"""

import statistics
import time
import weakref
from array import array
from contextlib import contextmanager, nullcontext

import numpy as np

# (module, attribute, span name).  "Class.method" wraps a method.
TARGETS = (
    ("perms", "perm_table", "perms.perm_table"),
    ("perms", "rank_rows", "perms.rank_rows"),
    ("tsp", "TourCost.vector", "tsp.cost_vector"),
    ("tsp", "optimum", "tsp.optimum"),
    ("sequences", "decompose", "sequences.decompose"),
    ("feasible", "involution_action", "feasible.action_table"),
    ("feasible", "apply_involution_exp", "feasible.gate"),
    ("feasible", "expectation", "feasible.expectation"),
    ("feasible", "run_exhaustive_circuit", "feasible.circuit"),
    ("feasible", "apply_phase", "qaoa.phase"),
    ("qaoa", "apply_seq_mixer", "qaoa.mixer"),
    ("qaoa", "run_qaoa", "qaoa.circuit"),
    ("optimize", "minimize", "optimize.minimize"),
    ("experiment", "run_experiment", "experiment.run"),
    ("experiment", "reach_report", "experiment.reach"),
)

VARIANTS = ("bubble", "binary-insertion", "qaoa-basis", "qaoa-uniform", "reach")

# Per-layer metrics in report order, with units.
LAYER_UNITS = {
    "perms.perm_table_s": "s",
    "perms.rank_rows_s": "s",
    "perms.rank_rows_calls": "count",
    "tsp.cost_vector_s": "s",
    "tsp.cost_vector_builds": "count",
    "tsp.optimum_s": "s",
    "sequences.decompose_s": "s",
    "feasible.action_table_s": "s",
    "feasible.action_tables_built": "count",
    "feasible.action_table_mb": "MB",
    "feasible.gate_calls": "count",
    "feasible.gate_self_s": "s",
    "feasible.gate_us_p50": "us",
    "feasible.gate_us_p99": "us",
    "feasible.gate_bytes_computed": "B",
    "feasible.expectation_s": "s",
    "feasible.circuit_s": "s",
    "qaoa.phase_calls": "count",
    "qaoa.phase_self_s": "s",
    "qaoa.phase_us_p50": "us",
    "qaoa.mixer_s": "s",
    "optimize.iterations": "count",
    "optimize.evaluations": "count",
    "optimize.gradient_window_stops": "count",
    "optimize.objective_ms_p50": "ms",
    "optimize.objective_ms_p99": "ms",
    "optimize.self_s": "s",
    **{f"experiment.variant_s.{v}": "s" for v in VARIANTS},
    "experiment.self_s": "s",
    "trace.overhead_s": "s",
}


class NullTracer:
    """Tracing off: operation markers and pauses cost nothing."""

    def install(self, pc):
        pass

    def op(self, name):
        return nullcontext()

    def paused(self):
        return nullcontext()


class Tracer(NullTracer):
    """Spans are stored column-wise: a traced sweep7 run records about
    2.8 million of them."""

    def __init__(self):
        self.names = []  # span name per name id
        self._name_ids = {}
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")  # index of the parent span, or -1
        self._run = array("l")  # run id: the benchmark operation it serves
        self._stack = []
        self._paused = False
        self.run_id = 0
        self.gate_bytes = 0
        self.tables_built = 0
        self.table_bytes = 0
        self.cost_vector_builds = 0
        self._vector_owners = weakref.WeakSet()
        self.opt_traces = []

    def __len__(self):
        return len(self._start)

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id):
        stack = self._stack
        sid = len(self._start)
        self._name.append(name_id)
        self._parent.append(stack[-1] if stack else -1)
        self._run.append(self.run_id)
        self._end.append(0.0)
        stack.append(sid)
        self._start.append(time.perf_counter())
        return sid

    def _close(self, sid):
        self._end[sid] = time.perf_counter()
        self._stack.pop()

    def _call(self, name_id, fn, args, kwargs):
        if self._paused:
            return fn(*args, **kwargs)
        sid = self._open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)

    @contextmanager
    def op(self, name):
        """One benchmark operation: a span whose descendants share a run id."""
        self.run_id += 1
        sid = self._open(self._name_id(f"bench.{name}"))
        try:
            yield
        finally:
            self._close(sid)

    @contextmanager
    def paused(self):
        """Calls made here (the correctness gate) record nothing."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrapper(self, name, fn):
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        call, name_id = self._call, self._name_id(name)

        def traced(*args, **kwargs):
            result = call(name_id, fn, args, kwargs)
            if hook is not None and not self._paused:
                hook(fn, args, result)
            return result

        return traced

    def _wrapper_minimize(self, name, fn):
        call, name_id = self._call, self._name_id(name)
        objective_id = self._name_id("optimize.objective")

        def traced(objective, *args, **kwargs):
            def timed_objective(x):
                return call(objective_id, objective, (x,), {})

            trace = call(name_id, fn, (timed_objective,) + args, kwargs)
            if not self._paused:
                self.opt_traces.append((trace.iterations, trace.evaluations, trace.status))
            return trace

        return traced

    def _after_feasible_gate(self, fn, args, result):
        # computed compulsory traffic of one gather-and-mix pass: read the
        # state, gather it through the index, write the result
        state, action = args[0], args[1]
        self.gate_bytes += 3 * state.amps.nbytes + getattr(action, "nbytes", 0)

    def _after_feasible_action_table(self, fn, args, result):
        info = getattr(fn, "cache_info", None)
        if info is not None and info().misses > self.tables_built:
            self.tables_built = info().misses
            self.table_bytes += result.nbytes

    def _after_tsp_cost_vector(self, fn, args, result):
        # a build is the first vector() call on a TourCost
        if args[0] not in self._vector_owners:
            self._vector_owners.add(args[0])
            self.cost_vector_builds += 1

    def install(self, pc):
        """Wrap TARGETS in the freshly imported package `pc`."""
        modules = pc.all_modules()
        for module_name, attr, name in TARGETS:
            module = getattr(pc, module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is not None and meth in vars(cls):
                    setattr(cls, meth, self._wrapper(name, vars(cls)[meth]))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            make = self._wrapper_minimize if name == "optimize.minimize" else self._wrapper
            wrapped = make(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    @staticmethod
    def span_cost():
        """Seconds that recording one span adds to a call: a wrapped no-op
        against a bare one, each the median of 5 timings of 20 000 calls.
        It leaves out the per-function hooks and what tracing does to the
        caches."""
        def noop(arg):
            return arg

        wrapped = Tracer()._wrapper("probe", noop)

        def per_call(fn):
            times = []
            for _ in range(5):
                start = time.perf_counter()
                for _ in range(20000):
                    fn(None)
                times.append((time.perf_counter() - start) / 20000)
            return statistics.median(times)

        return per_call(wrapped) - per_call(noop)

    def columns(self):
        return (np.frombuffer(self._name, np.uint16), np.frombuffer(self._start),
                np.frombuffer(self._end), np.frombuffer(self._parent, np.int64),
                np.frombuffer(self._run, np.int64))

    def self_times(self):
        """Per span: its duration minus the time its child spans cover.
        Children nest inside their parent and, in one thread, never
        overlap, so what they cover is the sum of their durations."""
        _, start, end, parent, _ = self.columns()
        dur = end - start
        child = parent >= 0
        return dur - np.bincount(parent[child], weights=dur[child], minlength=dur.size)

    def layer_metrics(self, overhead_s):
        name, start, end, _, _ = self.columns()
        dur = end - start
        own = self.self_times()
        masks = {n: name == i for i, n in enumerate(self.names)}

        def total(n, values=dur):
            return float(values[masks[n]].sum()) if n in masks else 0.0

        def calls(n):
            return int(masks[n].sum()) if n in masks else 0

        def pct(n, q, scale):
            return float(np.percentile(dur[masks[n]], q)) * scale if calls(n) else 0.0

        iters, evals, statuses = zip(*self.opt_traces) if self.opt_traces else ((), (), ())
        values = {
            "perms.perm_table_s": total("perms.perm_table"),
            "perms.rank_rows_s": total("perms.rank_rows"),
            "perms.rank_rows_calls": calls("perms.rank_rows"),
            "tsp.cost_vector_s": total("tsp.cost_vector"),
            "tsp.cost_vector_builds": self.cost_vector_builds,
            "tsp.optimum_s": total("tsp.optimum"),
            "sequences.decompose_s": total("sequences.decompose"),
            "feasible.action_table_s": total("feasible.action_table"),
            "feasible.action_tables_built": self.tables_built,
            "feasible.action_table_mb": self.table_bytes / 1e6,
            "feasible.gate_calls": calls("feasible.gate"),
            "feasible.gate_self_s": total("feasible.gate", own),
            "feasible.gate_us_p50": pct("feasible.gate", 50, 1e6),
            "feasible.gate_us_p99": pct("feasible.gate", 99, 1e6),
            "feasible.gate_bytes_computed": self.gate_bytes,
            "feasible.expectation_s": total("feasible.expectation"),
            "feasible.circuit_s": total("feasible.circuit"),
            "qaoa.phase_calls": calls("qaoa.phase"),
            "qaoa.phase_self_s": total("qaoa.phase", own),
            "qaoa.phase_us_p50": pct("qaoa.phase", 50, 1e6),
            "qaoa.mixer_s": total("qaoa.mixer"),
            "optimize.iterations": sum(iters),
            "optimize.evaluations": sum(evals),
            "optimize.gradient_window_stops": statuses.count("gradient-window"),
            "optimize.objective_ms_p50": pct("optimize.objective", 50, 1e3),
            "optimize.objective_ms_p99": pct("optimize.objective", 99, 1e3),
            "optimize.self_s": total("optimize.minimize", own),
            **{f"experiment.variant_s.{v}": total(f"bench.{v}") for v in VARIANTS},
            "experiment.self_s": total("experiment.run", own) + total("experiment.reach", own),
            "trace.overhead_s": overhead_s,
        }
        return {k: {"value": values[k], "unit": unit} for k, unit in LAYER_UNITS.items()}

    def write(self, path):
        """Save the spans as a compressed .npz of columns: name (an index
        into `names`), start_s and end_s (from the first span), parent
        (span index or -1) and run_id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        name, start, end, parent, run = self.columns()
        t0 = start[0] if start.size else 0.0
        np.savez_compressed(path, names=np.array(self.names), name=name, start_s=start - t0,
                            end_s=end - t0, parent=parent, run_id=run)
