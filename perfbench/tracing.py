"""Span recording around the public entry points of each layer.

The benchmark's traced run installs these wrappers from outside the
program: nothing under ``src/`` knows it is being traced.  Each wrapped call
records one span ``(id, name, start, end, parent, op)``; spans stay in
memory and are written out when the run ends.  A span's parent is the span
that was open in the caller's context, carried across ``await`` points by a
context variable and across thread pools by :func:`install`, which makes
``ThreadPoolExecutor.submit`` run each task in a copy of the submitter's
context.  Hot callables are counted, not timed.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: (module, attribute path, span name, count name, count function).  The
#: count function maps the call's result to how much work it did.
TIMED = (
    ("repro.api.assessment", "Assessment.run", "api.assessment_s", None, None),
    ("repro.api.temporal", "TemporalAssessment.run", "api.temporal_s",
     None, None),
    ("repro.api.batch", "BatchAssessmentRunner.sweep", "api.sweep_s",
     None, None),
    ("repro.api.substrates", "SubstrateCache.snapshot", "api.snapshot_s",
     None, None),
    ("repro.snapshot.experiment", "SnapshotExperiment.run_site",
     "snapshot.calibration_self_s", None, None),
    ("repro.snapshot.experiment", "SnapshotResult.embodied_assets",
     "snapshot.embodied_assets_s", None, None),
    ("repro.workload.jobs", "JobGenerator.generate", "workload.generate_s",
     "workload.jobs_generated", len),
    ("repro.workload.scheduler", "BackfillScheduler.run",
     "workload.schedule_s", "workload.jobs_placed",
     lambda result: len(result[0])),
    ("repro.workload.scheduler", "BackfillScheduler.build_trace",
     "workload.build_trace_s", None, None),
    ("repro.power.traces", "PowerBreakdownTrace.from_utilization",
     "power.from_utilization_s", None, None),
    ("repro.power.campaign", "MeasurementCampaign.measure_site",
     "power.measure_site_s", None, None),
    ("repro.core.model", "CarbonModel.evaluate", "core.model_evaluate_s",
     None, None),
    ("repro.api.columnar", "evaluate_ensemble_columns", "columnar.ensemble_s",
     None, None),
    ("repro.api.columnar", "evaluate_assessment_group",
     "columnar.assessment_group_s", None, None),
    ("repro.api.columnar", "evaluate_temporal_group",
     "columnar.temporal_group_s", None, None),
    ("repro.api.columnar", "compile_sweep", "columnar.compile_sweep_s",
     None, None),
    ("repro.uncertainty.ensemble", "EnsembleRunner.run",
     "uncertainty.ensemble_s", None, None),
    ("repro.uncertainty.sampling", "draw_samples",
     "uncertainty.draw_samples_s", None, None),
    ("repro.temporal.integrate", "integrate_power_intensity",
     "temporal.integrate_s", None, None),
    ("repro.portfolio.runner", "PortfolioRunner.run_live",
     "portfolio.run_self_s", None, None),
    ("repro.catalog.store", "RunCatalog.latest", "catalog.lookup_s",
     "catalog.hits", lambda found: int(found is not None)),
    ("repro.catalog.store", "RunCatalog.payload", "catalog.lookup_s",
     None, None),
    ("repro.catalog.store", "RunCatalog.record", "catalog.record_s",
     "catalog.records", lambda _: 1),
    ("repro.serve.app", "ServeApp.submit", "serve.queue_wait_s", None, None),
    ("repro.serve.app", "ServeApp.handle", "serve.handle_s", None, None),
    ("repro.hashing", "canonical_json", "hashing.canonical_json_s",
     "hashing.calls", lambda _: 1),
)

#: Callables too hot to time (152k calls per cold assessment): counted only.
COUNTED = (
    ("repro.power.node_power", "NodePowerModel.wall_power_w",
     "power.node_model_calls"),
)

#: Every self-time metric, in report order (several callables may share one).
SPAN_METRICS = tuple(dict.fromkeys(name for _, _, name, _, _ in TIMED)) + (
    "serve.wire_s",)
COUNT_METRICS = tuple(dict.fromkeys(
    [count for _, _, _, count, _ in TIMED if count]
    + [count for _, _, count in COUNTED]))

#: The span the benchmark opens around each operation it times.
OP_SPAN = "op"

Span = Tuple[int, str, float, float, Optional[int], Any]


class Tracer:
    """In-memory span and counter store shared by every wrapper."""

    def __init__(self):
        self.spans: List[Span] = []
        #: (count name, op, amount) — counts stay attributed to their op.
        self.events: List[Tuple[str, Any, int]] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._hot: List[Dict[Tuple[str, Any], int]] = []

    # -- recording ------------------------------------------------------------------

    def _open(self) -> Tuple[int, Optional[int], Any]:
        parent = self._current.get()
        sid = next(self._ids)
        if parent is None:
            return sid, None, f"s{sid}"
        return sid, parent[0], parent[1]

    @contextlib.contextmanager
    def op(self, op_id: Any):
        """The root span around one operation the benchmark times."""
        sid = next(self._ids)
        token = self._current.set((sid, op_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append((sid, OP_SPAN, start, end, None, op_id))

    def _hot_counts(self) -> Dict[Tuple[str, Any], int]:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = defaultdict(int)
            with self._lock:
                self._hot.append(counts)
        return counts

    def count_events(self) -> List[Tuple[str, Any, int]]:
        """Every count, hot ones folded in, as (name, op, amount)."""
        with self._lock:
            hot = [(name, op, amount) for counts in self._hot
                   for (name, op), amount in list(counts.items())]
        return list(self.events) + hot

    def reset(self) -> None:
        """Forget everything recorded so far (spans of set-up, say)."""
        with self._lock:
            self.spans.clear()
            self.events.clear()
            for counts in self._hot:
                counts.clear()

    # -- wrappers -------------------------------------------------------------------

    def timed(self, name: str, fn: Callable, count: Optional[str] = None,
              count_of: Optional[Callable[[Any], int]] = None) -> Callable:
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                sid, parent, op = tracer._open()
                token = tracer._current.set((sid, op))
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    tracer._current.reset(token)
                    tracer.spans.append((sid, name, start, end, parent, op))

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, op = tracer._open()
            token = tracer._current.set((sid, op))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._current.reset(token)
                tracer.spans.append((sid, name, start, end, parent, op))
            if count is not None:
                tracer.events.append((count, op, count_of(result)))
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        current, hot_counts = self._current, self._hot_counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = current.get()
            hot_counts()[(name, span[1] if span else None)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path) -> None:
        """Write the counts (first line) and every span (one per line)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(self.count_events()) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load(path) -> Tuple[List[Span], List[Tuple[str, Any, int]]]:
    """Read a file written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        events = [tuple(event) for event in json.loads(handle.readline())]
        spans = [tuple(json.loads(line)) for line in handle if line.strip()]
    return spans, events


def _replace_everywhere(original: Callable, wrapped: Callable) -> None:
    """Rebind every module-level name that holds ``original``.

    ``from module import function`` copies the function into the importing
    module, so wrapping only its home module would miss those callers.
    """
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace or not getattr(module, "__name__", "").startswith(
                "repro"):
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, wrapped)


def _wrap_attribute(module_name: str, path: str,
                    make: Callable[[Callable], Callable]) -> None:
    import importlib

    module = importlib.import_module(module_name)
    if "." not in path:
        original = getattr(module, path)
        _replace_everywhere(original, make(original))
        return
    class_name, method = path.split(".")
    cls = getattr(module, class_name)
    raw = cls.__dict__[method]
    if isinstance(raw, classmethod):
        setattr(cls, method, classmethod(make(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(cls, method, staticmethod(make(raw.__func__)))
    else:
        setattr(cls, method, make(raw))


def _propagate_context_into_pools() -> None:
    """Run each pool task in a copy of its submitter's context, so spans
    opened in worker threads know their parent."""
    submit = ThreadPoolExecutor.submit

    @functools.wraps(submit)
    def submit_in_context(self, fn, /, *args, **kwargs):
        return submit(self, contextvars.copy_context().run, fn,
                      *args, **kwargs)

    ThreadPoolExecutor.submit = submit_in_context


def install(tracer: Tracer) -> None:
    """Wrap every traced callable; the program must already be importable."""
    import repro.api  # noqa: F401 - registers components, imports layers
    import repro.serve.http  # noqa: F401
    import repro.uncertainty  # noqa: F401
    import repro.portfolio  # noqa: F401
    import repro.catalog  # noqa: F401

    _propagate_context_into_pools()
    for module, path, name, count, count_of in TIMED:
        _wrap_attribute(module, path,
                        lambda fn, n=name, c=count, f=count_of:
                        tracer.timed(n, fn, c, f))
    for module, path, name in COUNTED:
        _wrap_attribute(module, path,
                        lambda fn, n=name: tracer.counted(n, fn))


# -- analysis -------------------------------------------------------------------------


def _covered(start: float, end: float,
             intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _sid, _name, start, end, parent, _op in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - _covered(start, end, children.get(sid, ()))
            for sid, _name, start, end, _parent, _op in spans}


def layer_totals(spans: List[Span]) -> Dict[str, float]:
    """Self time summed per span name."""
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for sid, name, *_ in spans:
        totals[name] += own[sid]
    return dict(totals)


__all__ = [
    "COUNT_METRICS",
    "OP_SPAN",
    "SPAN_METRICS",
    "Tracer",
    "install",
    "layer_totals",
    "load",
    "self_times",
]
