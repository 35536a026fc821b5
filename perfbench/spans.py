"""Parent-linked span tracing around the program's layer boundaries.

The tracer records a span for every call into a wrapped public
function.  Wrappers are installed by patching the function where it is
bound (a class attribute, or every imported module that holds a
reference to a module-level function) and removed again by
:meth:`Tracer.uninstall`; nothing under ``src/`` is edited.

Each span knows its parent through a :mod:`contextvars` stack, so
nesting is tracked per thread and per asyncio task.  On exit a span
adds its duration to its parent's child time; its self time is its
duration minus that child time.  Aggregates are kept per span name and
per ``(parent, child)`` edge, plus the spans of the first traced pass
in full (id, parent id, name, start, end) for writing out.

Work the tracer does for its own bookkeeping that is not cheap (the
pickled size of estimator snapshots, step counts of results) runs on a
paused clock: the time it takes is subtracted from every span open on
the same thread.
"""

from __future__ import annotations

import contextvars
import itertools
import pickle
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: Spans of the first traced pass kept in full (every span is also
#: aggregated).
FULL_SPAN_LIMIT = 50_000


class _Frame:
    __slots__ = ("span_id", "name", "start", "child", "parent")

    def __init__(self, span_id: int, name: str, start: float, parent):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.child = 0.0
        self.parent = parent


class Tracer:
    """Span recorder plus the counters the per-layer metrics need."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self.reset()

    # -- clock ---------------------------------------------------------

    def now(self) -> float:
        return time.perf_counter() - getattr(self._local, "paused", 0.0)

    def paused(self, fn: Callable, *args) -> Any:
        """Run ``fn`` off the clock of this thread's open spans."""
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._local.paused = getattr(self._local, "paused", 0.0) + (
                time.perf_counter() - start
            )

    # -- recording -----------------------------------------------------

    def reset(self) -> None:
        """Drop every aggregate (start of a traced pass)."""
        self.calls: Dict[str, int] = {}
        self.inclusive: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.edges: Dict[Tuple[Optional[str], str], List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.full_spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self.keep_full = False

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def enter(self, name: str) -> Tuple[_Frame, contextvars.Token]:
        parent = _CURRENT.get()
        frame = _Frame(next(self._ids), name, self.now(), parent)
        return frame, _CURRENT.set(frame)

    def exit(self, frame: _Frame, token: contextvars.Token) -> None:
        end = self.now()
        _CURRENT.reset(token)
        duration = end - frame.start
        own = duration - frame.child
        parent = frame.parent
        if parent is not None:
            parent.child += duration
        name = frame.name
        self.calls[name] = self.calls.get(name, 0) + 1
        self.inclusive[name] = self.inclusive.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + own
        edge = (parent.name if parent is not None else None, name)
        totals = self.edges.get(edge)
        if totals is None:
            self.edges[edge] = [1, duration, own]
        else:
            totals[0] += 1
            totals[1] += duration
            totals[2] += own
        if self.keep_full and len(self.full_spans) < FULL_SPAN_LIMIT:
            self.full_spans.append(
                (
                    frame.span_id,
                    parent.span_id if parent is not None else None,
                    name,
                    frame.start,
                    end,
                )
            )

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    # -- wrapping ------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[[Any, tuple], None]] = None,
    ) -> Callable:
        """``fn`` inside a span named ``name``.

        A call made while a span of the same name is already the
        innermost one (``solve`` delegating to ``solve_many``) is passed
        through, so delegation is not counted twice.  ``after`` sees the
        return value and the call arguments, on the paused clock.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            current = _CURRENT.get()
            if current is not None and current.name == name:
                return fn(*args, **kwargs)
            frame, token = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame, token)
            if after is not None:
                tracer.paused(after, result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_async(
        self, fn: Callable, namer: Callable[[tuple, Any], str]
    ) -> Callable:
        """Async ``fn`` inside a span whose name ``namer`` derives from
        the call arguments and the reply (known only at the end)."""
        tracer = self

        async def wrapper(*args, **kwargs):
            frame, token = tracer.enter("?")
            result = None
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                frame.name = namer(args, result)
                tracer.exit(frame, token)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch_attr(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` and remember how to undo it."""
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, replacement)

    def patch_function(self, original: Callable, replacement: Callable) -> None:
        """Rebind ``original`` in every loaded module that imported it."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    self.patch_attr(module, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, value, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)


class _SpanContext:
    __slots__ = ("tracer", "name", "_state")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self._state = self.tracer.enter(self.name)
        return self

    def __exit__(self, *exc_info):
        self.tracer.exit(*self._state)


# ----------------------------------------------------------------------
# the layer map
# ----------------------------------------------------------------------

#: Wrapped class methods: (module, class, method, span name).
METHOD_SPANS = (
    ("repro.radar.sensor", "FMCWRadarSensor", "measure", "radar.measure"),
    ("repro.core.cra", "ChallengeSchedule", "is_challenge",
     "core.cra.is_challenge"),
    ("repro.core.detector", "CRADetector", "process", "core.detector.process"),
    ("repro.core.pipeline", "SafeMeasurementPipeline", "process",
     "core.pipeline.process"),
    ("repro.defense.reconstruction", "IncrementalWindowSolver", "solve",
     "defense.solve"),
    ("repro.defense.reconstruction", "IncrementalWindowSolver", "solve_many",
     "defense.solve"),
    ("repro.defense.safety_filter", "SafetyFilter", "clamp",
     "defense.filter_clamp"),
    ("repro.vehicle.acc", "ACCSystem", "step", "vehicle.acc_step"),
    ("repro.simulation.results", "SimulationResult", "record",
     "simulation.record"),
    ("repro.store.runstore", "RunStore", "get", "store.get"),
    ("repro.store.runstore", "RunStore", "put", "store.put"),
)

#: Every concrete estimator the engine can build; each gets its own
#: wrapper so inherited and overridden methods are both covered.
ESTIMATOR_CLASSES = (
    ("repro.core.predictor", "RadarChannelEstimator"),
    ("repro.core.dead_reckoning", "DeadReckoningEstimator"),
    ("repro.defense.estimator", "SecureReconstructionEstimator"),
)
ESTIMATOR_METHODS = ("observe", "forecast", "snapshot", "restore")

#: Wrapped module-level functions: (module, function, span name).
FUNCTION_SPANS = (
    ("repro.simulation.spec", "scenario_from_dict", "simulation.spec.decode"),
    ("repro.store.fingerprint", "run_fingerprint", "store.fingerprint"),
    ("repro.simulation.vectorized", "run_group_vectorized",
     "simulation.vectorized.group"),
    ("repro.simulation.batch", "execute_batch", "simulation.batch.execute"),
)

#: Spans reported per layer, in report order.  ``service.request.*``
#: are named per route when the reply is known.
REPORTED_SPANS = (
    "radar.measure",
    "core.cra.is_challenge",
    "core.detector.process",
    "core.pipeline.process",
    "core.estimator.observe",
    "core.estimator.forecast",
    "core.estimator.snapshot",
    "core.estimator.restore",
    "defense.solve",
    "defense.filter_clamp",
    "vehicle.acc_step",
    "simulation.record",
    "simulation.engine_run",
    "simulation.vectorized.group",
    "simulation.batch.execute",
    "simulation.spec.decode",
    "store.fingerprint",
    "store.get",
    "store.put",
    "service.request.hit",
    "service.request.miss",
    "service.request.trace",
)

#: Spans whose time is reported in milliseconds (whole runs or groups).
MS_SPANS = ("simulation.engine_run", "simulation.vectorized.group")

#: The root span the benchmark opens around each operation.
OP_SPAN = "bench.op"


def _import(module: str, attr: str) -> Any:
    __import__(module)
    return getattr(sys.modules[module], attr)


def _steps(result: Any) -> int:
    return len(result.traces["true_distance"])


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the map above."""
    hooks = {
        "store.get": _after_store_get,
        "store.put": _after_store_put,
        "simulation.batch.execute": _after_execute_batch,
        "simulation.vectorized.group": _after_vector_group,
        "simulation.engine_run": _after_engine_run,
        "core.estimator.snapshot": _after_snapshot,
    }

    def wrapped(name: str, fn: Callable) -> Callable:
        hook = hooks.get(name)
        after = None if hook is None else (
            lambda result, args: hook(tracer, result, args)
        )
        return tracer.wrap(name, fn, after)

    for module, cls_name, method, name in METHOD_SPANS:
        cls = _import(module, cls_name)
        tracer.patch_attr(cls, method, wrapped(name, getattr(cls, method)))
    for module, cls_name in ESTIMATOR_CLASSES:
        cls = _import(module, cls_name)
        for method in ESTIMATOR_METHODS:
            tracer.patch_attr(
                cls,
                method,
                wrapped(f"core.estimator.{method}", getattr(cls, method)),
            )
        if hasattr(cls, "search_stats"):
            tracer.patch_attr(
                cls, "search_stats", _stats_hook(tracer, cls.search_stats)
            )
    engine = _import("repro.simulation.engine", "CarFollowingSimulation")
    tracer.patch_attr(
        engine, "run", wrapped("simulation.engine_run", engine.run)
    )
    for module, fn_name, name in FUNCTION_SPANS:
        original = _import(module, fn_name)
        tracer.patch_function(original, wrapped(name, original))
    app = _import("repro.service.app", "ServiceApp")
    tracer.patch_attr(app, "handle", tracer.wrap_async(app.handle, _route_name))
    jobs = _import("repro.service.jobs", "JobManager")
    tracer.patch_attr(jobs, "submit", _submit_hook(tracer, jobs.submit))


def _after_snapshot(tracer: Tracer, snapshot: Any, args: tuple) -> None:
    tracer.count(
        "core.estimator.snapshot_bytes",
        len(pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)),
    )


def _after_store_get(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.count("store.hits" if result is not None else "store.misses")


def _after_store_put(tracer: Tracer, written: Any, args: tuple) -> None:
    if written:
        tracer.count("store.rows_written")


def _after_execute_batch(tracer: Tracer, batch: Any, args: tuple) -> None:
    for record in batch.records:
        tracer.count("simulation.batch.runs")
        if record.backend_used == "vectorized":
            tracer.count("simulation.batch.vectorized_runs")
        elif record.backend_used == "scalar":
            tracer.count("simulation.batch.scalar_runs")


def _after_engine_run(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.count("simulation.steps", _steps(result))


def _after_vector_group(tracer: Tracer, results: Any, args: tuple) -> None:
    tracer.count("simulation.steps", sum(_steps(result) for result in results))


def _stats_hook(tracer: Tracer, original: Callable) -> Callable:
    """Accumulate the ``defense_stats`` each run reports at its end."""

    def search_stats(self):
        stats = original(self)
        for key, value in stats.items():
            tracer.count(f"defense.stats.{key}", value)
        return stats

    return search_stats


def _submit_hook(tracer: Tracer, original: Callable) -> Callable:
    """Classify each service submission (hit / coalesced / new job)."""

    def submit(self, *args, **kwargs):
        submission = original(self, *args, **kwargs)
        if submission.cache_hit:
            tracer.count("service.cache_hit")
        elif submission.coalesced:
            tracer.count("service.coalesced")
        return submission

    return submit


def _route_name(args: tuple, reply: Any) -> str:
    """``service.request.{hit,miss,trace,other}`` for one handled request."""
    request = args[1]
    status, payload = reply if reply is not None else (None, None)
    if request.method == "POST" and isinstance(payload, dict):
        return (
            "service.request.hit"
            if payload.get("cache_hit")
            else "service.request.miss"
        )
    if request.method == "GET" and request.path.startswith("/v1/runs/"):
        return "service.request.trace"
    return "service.request.other"


# ----------------------------------------------------------------------
# per-pass records and the per-layer metrics
# ----------------------------------------------------------------------

#: Counters that must repeat exactly when the same inputs run again,
#: next to every span's call count.
EXACT_COUNTERS = (
    "simulation.steps",
    "defense.stats.subsets_searched",
    "store.rows_written",
    "service.executed",
)


@dataclass
class PassRecord:
    """The tracer's aggregates for one traced pass over a cycle."""

    cycle: Any
    calls: Dict[str, int]
    inclusive: Dict[str, float]
    self_time: Dict[str, float]
    counts: Dict[str, float]
    edges: Dict[Tuple[Optional[str], str], List[float]]
    full_spans: List[Tuple[int, Optional[int], str, float, float]]

    @classmethod
    def of(cls, tracer: Tracer, cycle: Any) -> "PassRecord":
        return cls(
            cycle,
            dict(tracer.calls),
            dict(tracer.inclusive),
            dict(tracer.self_time),
            dict(tracer.counts),
            {edge: list(totals) for edge, totals in tracer.edges.items()},
            list(tracer.full_spans),
        )


def exact_counts(record: PassRecord) -> Dict[str, float]:
    counts = {
        f"{name}_calls": record.calls.get(name, 0)
        for name in REPORTED_SPANS + (OP_SPAN,)
    }
    counts.update(
        {name: record.counts.get(name, 0) for name in EXACT_COUNTERS}
    )
    return counts


def exact_count_failures(passes: List[PassRecord]) -> List[str]:
    """Counts of every traced pass against the first one."""
    first = exact_counts(passes[0])
    failures = []
    for index, record in enumerate(passes[1:], start=1):
        counts = exact_counts(record)
        for name, value in first.items():
            if counts[name] != value:
                failures.append(
                    f"{name}: pass 0 counted {value}, pass {index} {counts[name]}"
                )
    return failures


def edge_table(passes: List[PassRecord]) -> List[dict]:
    """Calls, inclusive and self seconds per (parent, child) edge."""
    merged: Dict[Tuple[Optional[str], str], List[float]] = {}
    for record in passes:
        for edge, totals in record.edges.items():
            into = merged.setdefault(edge, [0, 0.0, 0.0])
            for i, value in enumerate(totals):
                into[i] += value
    return [
        {"parent": parent, "child": child, "calls": totals[0],
         "inclusive_s": totals[1], "self_s": totals[2]}
        for (parent, child), totals in sorted(
            merged.items(), key=lambda item: -item[1][2]
        )
    ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    passes: List[PassRecord], overhead_frac: float
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics over the traced passes.

    Per span: calls per pass, mean inclusive and self time per call,
    and self time as a share of all operation time.  Spans a workload
    never enters read 0.  Counters are per pass unless a ratio.
    """
    n = len(passes)

    def total(attr: str, name: str) -> float:
        return sum(getattr(record, attr).get(name, 0) for record in passes)

    op_time = total("inclusive", OP_SPAN)
    metrics: Dict[str, Tuple[float, str]] = {}
    for name in REPORTED_SPANS:
        calls = total("calls", name)
        scale, unit = (1e3, "ms") if name in MS_SPANS else (1e6, "us")
        metrics[f"{name}_calls"] = (calls / n, "count")
        metrics[f"{name}_{unit}"] = (
            _ratio(total("inclusive", name) * scale, calls), unit
        )
        metrics[f"{name}.self_{unit}"] = (
            _ratio(total("self_time", name) * scale, calls), unit
        )
        metrics[f"{name}.self_share"] = (
            _ratio(total("self_time", name), op_time), "frac"
        )
    metrics[f"{OP_SPAN}_calls"] = (total("calls", OP_SPAN) / n, "count")
    metrics[f"{OP_SPAN}.self_share"] = (
        _ratio(total("self_time", OP_SPAN), op_time), "frac"
    )

    def count(name: str) -> float:
        return total("counts", name)

    geometry = sum(
        count(f"defense.stats.geometry_{kind}")
        for kind in ("hits", "extensions", "misses")
    )
    metrics.update({
        "simulation.steps": (count("simulation.steps") / n, "count"),
        "core.estimator.snapshot_bytes": (
            _ratio(count("core.estimator.snapshot_bytes"),
                   total("calls", "core.estimator.snapshot")),
            "bytes",
        ),
        "defense.subsets_searched": (
            count("defense.stats.subsets_searched") / n, "count"
        ),
        "defense.subsets_pruned": (
            count("defense.stats.subsets_pruned") / n, "count"
        ),
        "defense.geometry_hit_ratio": (
            _ratio(count("defense.stats.geometry_hits"), geometry), "frac"
        ),
        "simulation.batch.vectorized_share": (
            _ratio(count("simulation.batch.vectorized_runs"),
                   count("simulation.batch.runs")),
            "frac",
        ),
        "simulation.batch.scalar_runs": (
            count("simulation.batch.scalar_runs") / n, "count"
        ),
        "store.hit_ratio": (
            _ratio(count("store.hits"), count("store.hits") + count("store.misses")),
            "frac",
        ),
        "store.rows_written": (count("store.rows_written") / n, "count"),
        "store.payload_bytes": (
            _ratio(count("store.payload_bytes_written"),
                   count("store.rows_written")),
            "bytes",
        ),
        "service.executed": (count("service.executed") / n, "count"),
        "service.cache_hit": (count("service.cache_hit") / n, "count"),
        "service.coalesced": (count("service.coalesced") / n, "count"),
        "service.failed": (count("service.failed") / n, "count"),
        "trace.overhead_frac": (overhead_frac, "frac"),
    })
    return metrics
