"""Benchmark-side tracing: spans around calls into each layer's public surface.

Nothing here changes the program.  Spans are opened around

* the operations the benchmark issues (one op id per operation);
* public methods of the objects a store exposes — ``store.planner``
  (and its inner planner when sharded), ``store.plan_cache``,
  ``store.flush`` and ``store.executor.execute`` — wrapped on the
  instance, so the store's own code path runs unchanged;
* the page reader every executor is built with (``Executor(reader=…)``
  defaults to ``disk.read``; the store's disk gets a traced ``read``
  before its first executor is built);
* :class:`TracingFileOps`, the ``durable_ops=`` filesystem seam, which
  splits WAL appends from checkpoint file writes;
* :class:`TracedStore`, the thin store handed to
  :func:`repro.api.knn.knn_search`, whose ``execute`` is the only store
  call the kNN search makes.

Spans are ``[name, start, end, parent, op]`` lists kept in memory and
written out once, when the run ends.  A layer's self time is its span's
duration minus the spans of the layers it calls.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.storage.wal import FileOps

__all__ = ["Tracer", "TracingFileOps", "TracedStore", "trace_store", "time_shares"]

_clock = time.perf_counter


class _Span:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self._index = len(tracer.spans)
        tracer.spans.append([self._name, _clock(), 0.0, tracer.open_index, tracer.op_id])
        tracer.open_index = self._index
        return self

    def __exit__(self, *exc) -> None:
        tracer = self._tracer
        span = tracer.spans[self._index]
        span[2] = _clock()
        tracer.open_index = span[3]


class Tracer:
    """In-memory span recorder plus named counters.

    Wrappers record only while :attr:`active` is set, so the same store
    can serve untraced work (correctness checks) between traced phases.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.open_index = -1
        self.op_id = 0
        self.active = False

    def span(self, name: str) -> _Span:
        """A span nested in the innermost open one, in the current op."""
        return _Span(self, name)

    def op(self, name: str) -> _Span:
        """A top-level span starting a new op id."""
        self.op_id += 1
        return _Span(self, name)

    def wrap(self, obj, attr: str, name: str, note: Optional[Callable] = None) -> None:
        """Replace ``obj.attr`` on the instance with a spanned call;
        ``note(result)`` runs after each traced call to update counters."""
        call = getattr(obj, attr)

        def traced(*args, **kwargs):
            if not self.active:
                return call(*args, **kwargs)
            with _Span(self, name):
                result = call(*args, **kwargs)
            if note is not None:
                note(result)
            return result

        setattr(obj, attr, traced)

    def wrap_reader(self, disk) -> None:
        """Trace ``disk.read``, the page reader executors default to.

        A span per page read, recorded without a context manager to
        keep the per-page cost to two clock reads; the records on each
        page are counted as examined.
        """
        read = disk.read
        spans = self.spans
        counts = self.counts

        def traced_read(page_id):
            if not self.active:
                return read(page_id)
            start = _clock()
            page = read(page_id)
            spans.append(["disk.read", start, _clock(), self.open_index, self.op_id])
            counts["executor.examined"] += len(page)
            return page

        disk.read = traced_read

    def write(self, path: Path, header: Dict[str, object]) -> None:
        """Write every span (and the counters) as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    **header,
                    "span_fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                handle,
            )


class TracingFileOps(FileOps):
    """The durable tier's filesystem seam with a span per write and fsync.

    Writes to WAL segments (``*.log``) are ``wal.*`` spans; checkpoint
    page images and manifests are ``file.*`` spans.
    """

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def _kind(self, handle) -> str:
        return "wal" if str(handle.name).endswith(".log") else "file"

    def write(self, handle, data: bytes) -> None:
        if not self._tracer.active:
            return super().write(handle, data)
        kind = self._kind(handle)
        with self._tracer.span(kind + ".write"):
            super().write(handle, data)
        self._tracer.counts[kind + ".bytes"] += len(data)

    def fsync(self, handle) -> None:
        if not self._tracer.active:
            return super().fsync(handle)
        with self._tracer.span(self._kind(handle) + ".fsync"):
            super().fsync(handle)


class TracedStore:
    """The store surface :func:`~repro.api.knn.knn_search` uses — its
    ``curve`` and ``execute`` — with a span around every execute."""

    def __init__(self, store, tracer: Tracer):
        self._store = store
        self._tracer = tracer

    @property
    def curve(self):
        return self._store.curve

    def execute(self, query):
        with self._tracer.span("store.execute"):
            return self._store.execute(query)


def trace_store(store, tracer: Tracer) -> None:
    """Wrap the layers of ``store`` for tracing (before its first flush).

    ``planner.plan`` is the store's own planner (the sharded planner
    when sharded, so it includes fragment clipping);
    ``planner.key_runs`` is the run construction inside it.
    """
    counts = tracer.counts

    def note_plan(plan) -> None:
        counts["planner.plans"] += 1
        # A sharded plan wraps the global plan the runs belong to.
        counts["planner.runs"] += len(getattr(plan, "plan", plan).runs)

    def note_lookup(plan) -> None:
        counts["cache.hits" if plan is not None else "cache.misses"] += 1

    def note_execute(result) -> None:
        counts["executor.rows"] += len(result.records)
        counts["scatter.fan_out"] += getattr(result, "fan_out", 0)

    planner = store.planner
    tracer.wrap(planner, "plan", "planner.plan", note_plan)
    inner = getattr(planner, "planner", planner)
    tracer.wrap(inner, "key_runs", "planner.key_runs")
    tracer.wrap(store.plan_cache, "get", "cache.get", note_lookup)
    tracer.wrap_reader(store.disk)
    tracer.wrap(store, "flush", "store.flush")
    flush = store.flush

    def flush_and_trace_executor() -> None:
        # Every flush installs a fresh executor, traced or not; wrap it.
        flush()
        tracer.wrap(store.executor, "execute", "executor.execute", note_execute)

    store.flush = flush_and_trace_executor


def span_totals(spans: Iterable[list]) -> Dict[str, List[float]]:
    """``{name: [total seconds, count]}`` over ``spans``."""
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for name, start, end, _, _ in spans:
        entry = totals[name]
        entry[0] += end - start
        entry[1] += 1
    return totals


def op_self_times(spans: List[list], op_names, child_names) -> List[float]:
    """Per op span named in ``op_names``: its duration minus the spans
    of ``child_names`` recorded under the same op id."""
    children: Dict[int, float] = defaultdict(float)
    for name, start, end, _, op in spans:
        if name in child_names:
            children[op] += end - start
    return [
        (end - start) - children[op]
        for name, start, end, parent, op in spans
        if name in op_names and parent == -1
    ]


def time_shares(tracer: Tracer) -> List[Tuple[str, float]]:
    """Self time per span name as a share of all measured-op time
    (``op.*`` trees), largest first."""
    spans = tracer.spans
    op_ids = {op for name, _, _, parent, op in spans if parent == -1 and name.startswith("op.")}
    child_time: Dict[int, float] = {}
    for index, (name, start, end, parent, op) in enumerate(spans):
        if op in op_ids and parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    shares: Dict[str, float] = {}
    total = 0.0
    for index, (name, start, end, parent, op) in enumerate(spans):
        if op not in op_ids:
            continue
        duration = end - start
        if parent == -1:
            total += duration
        shares[name] = shares.get(name, 0.0) + duration - child_time.get(index, 0.0)
    return sorted(((name, value / total) for name, value in shares.items()), key=lambda kv: -kv[1])
