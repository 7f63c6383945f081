"""The benchmark's four workloads: inputs, store set-up, measured loops, checks.

Every workload is one closed-loop client calling the store synchronously
— the store is a library, so the caller waits on each reply before it
issues the next operation.  Every store is durable with the default
flush policy (fsync on every logged operation): reads log nothing, so
the read workloads' loops run exactly the in-memory read path, while
set-up, on-disk size and reopening are what a user of a durable store
pays.

A run is a fixed number of *rounds* (see :func:`rounds_for`).  Each
round sets up a fresh store in a fresh directory, runs the workload's
fixed operation stream against it, checks every answer, closes the
store and times ``recover()`` of its directory (``spec.recoveries``
times), then checks the recovered store against the live one.  The operation counts, seeks and
pages of a round depend on the seed alone.  Every time a run reports is
scaled by the run's host *pace* (see :mod:`storebench.pace`).
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api.knn import knn_search
from repro.curves.registry import make_curve
from repro.errors import ReproError
from repro.geometry import Rect
from repro.index.sharded import ShardedSFCIndex
from repro.index.spatial import SFCIndex
from repro.storage.durable import recover
from repro.storage.pagefile import load_manifest
from repro.storage.wal import scan_wal

from . import oracles
from .pace import pace, reference_s, scale
from .stats import summarize
from .tracing import Tracer, TracedStore, TracingFileOps, op_self_times, span_totals, trace_store

__all__ = ["Spec", "SPECS", "rounds_for", "run", "END_TO_END", "PER_LAYER"]

_clock = time.perf_counter

#: Rounds a run makes at least, and the time after which it starts no
#: further round however many it was due (a guard for the 180-s limit
#: on a run, reached only on a host several times slower than it was
#: when the rounds were sized).
MIN_ROUNDS = 2
MAX_RUN_S = 120.0
#: Every store's page capacity, the sharded store's filter thread-pool
#: width, and the neighbours each kNN query asks for.
PAGE_CAPACITY = 32
FILTER_WORKERS = 2
K = 10
#: Rects in the range workloads' repeat pool, and the share of the
#: stream drawn from it (Zipf-ranked) instead of placed fresh.
POOL_SIZE = 1024
REPEAT_SHARE = 0.5
#: The repeat pool is the same hot set for every seed: its first two
#: ranks carry a tenth of all reads, so placing them per seed would make the
#: per-read I/O swing with the seed.  The seed draws the rows, the fresh
#: rects and the order.
POOL_SEED = 0
#: Range cube sides as a share of the universe side (the paper's Fig. 5).
RANGE_SIDE_SHARE = (0.03, 0.90)
#: The ingest mix per round: inserts, deletes, small range reads.
INGEST_MIX = (0.90, 0.05, 0.05)
#: Side range of the ingest workload's small range reads.
INGEST_READ_SIDE = (4, 16)
#: Range probes compared between a live store and its recovered twin.
PROBES = 16
#: Operations between two timings of the reference kernel in a round.
PACE_EVERY = 25

#: ``(name, unit)`` of the metrics an untraced run reports.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("recover_s", "s"),
    ("seeks_per_read", "count"),
    ("pages_per_read", "count"),
    ("disk_bytes_per_record", "B"),
    ("peak_rss_mb", "MB"),
)

#: ``(name, unit)`` of the metrics a traced run reports.
PER_LAYER = (
    ("curves.index_many_us_per_point", "us"),
    ("store.bulk_load_s", "s"),
    ("store.flush_s", "s"),
    ("store.write_self_ms", "ms"),
    ("store.read_self_ms", "ms"),
    ("planner.plan_ms", "ms"),
    ("planner.key_runs_ms", "ms"),
    ("planner.runs_per_plan", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookup_ms", "ms"),
    ("executor.execute_ms", "ms"),
    ("executor.read_ms", "ms"),
    ("executor.filter_ms", "ms"),
    ("executor.examined_per_row", "ratio"),
    ("executor.pages_per_query", "count"),
    ("knn.expansions_per_query", "count"),
    ("knn.scanned_per_neighbor", "ratio"),
    ("scatter.fan_out", "count"),
    ("wal.write_ms", "ms"),
    ("wal.fsync_ms", "ms"),
    ("wal.fsyncs_per_op", "count"),
    ("wal.bytes_per_op", "B"),
    ("disk.pages_allocated", "count"),
    ("disk.live_pages", "count"),
    ("durable.checkpoint_s", "s"),
    ("durable.scan_wal_s", "s"),
    ("durable.frames_replayed", "count"),
    ("durable.flush_frames_replayed", "count"),
    ("trace.overhead_pct", "%"),
    ("host.pace", "ratio"),
)


@dataclass(frozen=True)
class Spec:
    """One workload's sizes; the store is always onion-keyed and durable."""

    name: str
    #: "range", "knn" or "ingest" — which operation stream the round runs.
    kind: str
    dim: int
    side: int
    #: Rows bulk loaded at set-up.
    points: int
    #: Operations in one round's stream.
    ops: int
    #: Seconds one round took on a shared 2-core 2.1 GHz Xeon; it fixes
    #: how many rounds a run of a given length makes.
    round_s: float
    #: 0: a single ``SFCIndex``; otherwise ``ShardedSFCIndex`` shards.
    shards: int = 0
    #: Times each round recovers its directory: several where recovery
    #: is quick, so its median rests on more samples than rounds.
    recoveries: int = 1


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            "range-2d", "range", dim=2, side=256, points=10_000, ops=250, round_s=2.35,
            recoveries=4,
        ),
        Spec(
            "knn-3d", "knn", dim=3, side=64, points=30_000, ops=500, round_s=3.65,
            recoveries=2,
        ),
        Spec("ingest-durable", "ingest", dim=2, side=256, points=20_000, ops=500, round_s=2.0),
        Spec(
            "sharded-range", "range", dim=2, side=256, points=10_000, ops=250, round_s=2.6,
            shards=4, recoveries=4,
        ),
    )
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """Everything a round feeds the store, generated from the seed alone."""

    #: Every row ever written: the set-up rows, then inserted rows.
    #: A record's payload is its row index.
    points: np.ndarray
    #: Rows bulk loaded at set-up (the first ``spec.points`` rows).
    rows: List[Tuple[int, ...]]
    #: The round's operations, each ``(kind, argument, expected)``.
    stream: List[tuple]
    #: Rects compared between the live and the recovered store.
    probes: List[Rect]


def _cube(rng, side: int, dim: int, length: int) -> Rect:
    lo = rng.integers(0, side - length + 1, size=dim)
    return Rect(tuple(int(c) for c in lo), tuple(int(c) + length - 1 for c in lo))


def _lengths(rng, count: int, lo: int, hi: int) -> np.ndarray:
    """``count`` cube sides spread evenly over ``[lo, hi]``, shuffled:
    stratified so the size mix, and with it the per-read I/O, varies
    little from seed to seed."""
    return rng.permutation(np.rint(np.linspace(lo, hi, count)).astype(int))


def _pool_lengths(count: int, lo: int, hi: int) -> np.ndarray:
    """Cube side of each repeat-pool rank: a golden-ratio sequence over
    ``[lo, hi]``, so the heavily repeated top ranks cover the size range
    evenly, and the same way for every seed."""
    golden = (5**0.5 - 1) / 2
    return np.rint(lo + (np.arange(1, count + 1) * golden % 1.0) * (hi - lo)).astype(int)


def _zipf_counts(total: int, ranks: int) -> np.ndarray:
    """Repeats of each rank among ``total`` Zipf(1)-weighted draws, as
    the expected counts rounded by largest remainder — fixed, not
    sampled, so the repeat traffic has the same shape for every seed."""
    weights = 1.0 / np.arange(1, ranks + 1)
    expected = total * weights / weights.sum()
    counts = np.floor(expected).astype(int)
    counts[np.argsort(counts - expected)[: total - counts.sum()]] += 1
    return counts


def _range_stream(spec: Spec, rng, points: np.ndarray) -> List[tuple]:
    lo = max(1, round(RANGE_SIDE_SHARE[0] * spec.side))
    hi = round(RANGE_SIDE_SHARE[1] * spec.side)
    pool_rng = np.random.default_rng(POOL_SEED)
    pool = [
        _cube(pool_rng, spec.side, spec.dim, int(length))
        for length in _pool_lengths(POOL_SIZE, lo, hi)
    ]
    repeats = int(spec.ops * REPEAT_SHARE)
    ranks = np.repeat(np.arange(POOL_SIZE), _zipf_counts(repeats, POOL_SIZE))
    rects = [pool[rank] for rank in ranks] + [
        _cube(rng, spec.side, spec.dim, int(length))
        for length in _lengths(rng, spec.ops - repeats, lo, hi)
    ]
    rects = [rects[i] for i in rng.permutation(len(rects))]
    return [("read", rect, oracles.range_ids(points, rect.lo, rect.hi)) for rect in rects]


def _knn_stream(spec: Spec, rng, points: np.ndarray) -> List[tuple]:
    cells = rng.integers(0, spec.side, size=(spec.ops, spec.dim))
    return [
        ("knn", tuple(int(c) for c in cell), oracles.knn_distances(points, cell, K))
        for cell in cells
    ]


def _ingest_stream(spec: Spec, rng, initial: np.ndarray):
    """The insert/delete/read mix, simulated on arrays so each read
    carries the rows it must return at that point of the stream."""
    counts = [int(round(share * spec.ops)) for share in INGEST_MIX]
    counts[0] = spec.ops - counts[1] - counts[2]
    kinds = rng.permutation(np.repeat(np.arange(3), counts))
    read_lengths = iter(_lengths(rng, counts[2], *INGEST_READ_SIDE))
    inserted = rng.integers(0, spec.side, size=(counts[0], spec.dim))
    points = np.concatenate([initial, inserted])
    live = np.zeros(len(points), dtype=bool)
    live[: len(initial)] = True
    alive = list(range(len(initial)))
    stream: List[tuple] = []
    next_row = len(initial)
    for kind in kinds:
        if kind == 0:
            live[next_row] = True
            alive.append(next_row)
            stream.append(("insert", tuple(int(c) for c in points[next_row]), next_row))
            next_row += 1
        elif kind == 1:
            slot = int(rng.integers(len(alive)))
            row = alive[slot]
            alive[slot] = alive[-1]
            alive.pop()
            live[row] = False
            stream.append(("delete", tuple(int(c) for c in points[row]), row))
        else:
            rect = _cube(rng, spec.side, spec.dim, int(next(read_lengths)))
            stream.append(("read", rect, oracles.range_ids(points, rect.lo, rect.hi, live)))
    return points, stream


def make_inputs(spec: Spec, seed: int) -> Inputs:
    """The rows, operation stream and probes of ``spec`` for ``seed``."""
    rng = np.random.default_rng(seed)
    initial = rng.integers(0, spec.side, size=(spec.points, spec.dim))
    if spec.kind == "range":
        points, stream = initial, _range_stream(spec, rng, initial)
    elif spec.kind == "knn":
        points, stream = initial, _knn_stream(spec, rng, initial)
    else:
        points, stream = _ingest_stream(spec, rng, initial)
    lo = max(1, spec.side // 32)
    probes = [
        _cube(rng, spec.side, spec.dim, int(length))
        for length in _lengths(rng, PROBES, lo, spec.side // 2)
    ]
    rows = [tuple(int(c) for c in row) for row in initial]
    return Inputs(points=points, rows=rows, stream=stream, probes=probes)


# ----------------------------------------------------------------------
# Stores
# ----------------------------------------------------------------------
def _open_store(spec: Spec, path: Path, file_ops=None):
    curve = make_curve("onion", spec.side, spec.dim)
    if spec.shards:
        return ShardedSFCIndex(
            curve,
            num_shards=spec.shards,
            max_workers=FILTER_WORKERS,
            page_capacity=PAGE_CAPACITY,
            durable_path=path,
            durable_ops=file_ops,
        )
    return SFCIndex(
        curve, page_capacity=PAGE_CAPACITY, durable_path=path, durable_ops=file_ops
    )


def _op(tracer: Optional[Tracer], name: str):
    return tracer.op(name) if tracer is not None else nullcontext()


def setup(spec: Spec, inputs: Inputs, path: Path, tracer: Optional[Tracer] = None):
    """Build the round's store: open it durable, bulk load the rows,
    flush, and cut a compacting checkpoint.  Returns ``(store, seconds)``."""
    shutil.rmtree(path, ignore_errors=True)
    start = _clock()
    with _op(tracer, "setup.open"):
        store = _open_store(spec, path, TracingFileOps(tracer) if tracer else None)
    if tracer is not None:
        trace_store(store, tracer)
    with _op(tracer, "setup.bulk_load"):
        store.bulk_load(inputs.rows, range(len(inputs.rows)))
    with _op(tracer, "setup.flush"):
        store.flush()
    with _op(tracer, "setup.checkpoint"):
        store.checkpoint(compact=True)
    return store, _clock() - start


def _close(store) -> None:
    """Release the store's WAL handle and, when sharded, its filter pool."""
    store.durability.close()
    close_executor = getattr(store.executor, "close", None)
    if close_executor is not None:
        close_executor()


def _dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.iterdir() if entry.is_file())


def _state(store, spec: Spec, probes: List[Rect]):
    """Every record, plus each probe's rows and simulated I/O from a
    parked disk head: what a recovered store must reproduce."""
    universe = Rect((0,) * spec.dim, (spec.side - 1,) * spec.dim)
    records = sorted((r.payload, r.point) for r in store.range_query(universe).records)
    store.disk.reset_stats()
    return records, [oracles.fingerprint(store.range_query(rect)) for rect in probes]


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
@dataclass
class Tally:
    """Raw samples and counts pooled over a run's rounds."""

    #: Per round, as measured: set-up seconds, recovery seconds, and
    #: each operation's latency in ms and whether it was traced.
    setup_s: List[float] = field(default_factory=list)
    recover_s: List[float] = field(default_factory=list)
    #: Every timing of the reference kernel in the run (seconds).
    kernel_s: List[float] = field(default_factory=list)
    latencies: List[List[float]] = field(default_factory=list)
    traced: List[List[bool]] = field(default_factory=list)
    reads: int = 0
    seeks: int = 0
    pages: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    disk_bytes_per_record: List[float] = field(default_factory=list)
    #: The first round's range-read results by op index, oracle-checked;
    #: later rounds must reproduce them exactly.
    fingerprints: Dict[int, Tuple[int, int, int]] = field(default_factory=dict)
    #: Per-layer samples; the counts are the last round's (every round
    #: repeats them exactly), the kNN ones sum over traced operations.
    index_many_us: List[float] = field(default_factory=list)
    scan_wal_s: List[float] = field(default_factory=list)
    pages_allocated: int = 0
    live_pages: int = 0
    frames_replayed: int = 0
    flush_frames: int = 0
    knn_queries: int = 0
    knn_expansions: int = 0
    knn_scanned: int = 0
    knn_neighbors: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def _run_stream(store, spec: Spec, inputs: Inputs, tally: Tally, tracer, parity: int):
    """The measured loop: one closed-loop client issuing ``inputs.stream``.

    With a ``tracer``, every other operation is traced — those whose
    index has the round's ``parity`` — and the rest run untraced
    through the same store, so traced and untraced latencies are
    sampled side by side under the same machine conditions.

    Range reads are checked against the oracle in the first round and
    against the first round's results after it (rows, order, seeks and
    pages); kNN answers against the oracle in every round.  Every
    :data:`PACE_EVERY` operations the reference kernel is timed,
    outside any operation's latency.
    """
    points = inputs.points
    first_round = not tally.latencies
    latencies: List[float] = []
    traced_flags: List[bool] = []
    tally.latencies.append(latencies)
    tally.traced.append(traced_flags)
    for index, (kind, arg, expected) in enumerate(inputs.stream):
        if index % PACE_EVERY == 0:
            tally.kernel_s.append(reference_s())
        traced = tracer is not None and index % 2 == parity
        if tracer is not None:
            tracer.active = traced
        op_tracer = tracer if traced else None
        tally.attempted += 1
        start = _clock()
        try:
            if kind == "read":
                with _op(op_tracer, "op.read"):
                    result = store.range_query(arg)
            elif kind == "knn":
                with _op(op_tracer, "op.knn"):
                    if traced:
                        result = knn_search(TracedStore(store, tracer), arg, K)
                    else:
                        result = store.knn(arg, K)
            elif kind == "insert":
                with _op(op_tracer, "op.insert"):
                    result = store.insert(arg, expected)
            else:
                with _op(op_tracer, "op.delete"):
                    result = store.delete(arg, expected)
        except ReproError as exc:
            result = exc
        latencies.append((_clock() - start) * 1e3)
        traced_flags.append(traced)
        if isinstance(result, ReproError):
            tally.fail(f"op {index} ({kind}) raised {result!r}")
        elif kind == "read":
            tally.reads += 1
            tally.seeks += result.seeks
            tally.pages += result.pages_read
            got = oracles.fingerprint(result)
            if first_round:
                tally.fingerprints[index] = got
                if not oracles.range_matches(result.records, expected, points):
                    tally.fail(f"op {index}: range {arg} rows differ from the oracle")
            elif got != tally.fingerprints.get(index):
                tally.fail(f"op {index}: range {arg} differs from the first round")
        elif kind == "knn":
            tally.reads += 1
            tally.seeks += result.seeks
            tally.pages += result.pages_read
            if traced:
                tally.knn_queries += 1
                tally.knn_expansions += result.expansions
                tally.knn_scanned += result.records_scanned
                tally.knn_neighbors += len(result)
            if not oracles.knn_matches(result, expected, points, arg):
                tally.fail(f"op {index}: knn at {arg} differs from the oracle")
        elif kind == "delete" and not result:
            tally.fail(f"op {index}: delete of row {expected} found nothing")
    if tracer is not None:
        tracer.active = False


def run_round(
    spec: Spec,
    inputs: Inputs,
    path: Path,
    tally: Tally,
    tracer: Optional[Tracer] = None,
    parity: int = 0,
):
    """One round: set up, run the stream, recover, check the recovery.

    With a ``tracer`` the set-up is traced whole and the stream half
    (see :func:`_run_stream`).  The reference kernel is timed before the
    set-up and after the recovery as well.
    """
    # The last round's stores hold reference cycles; freed now rather
    # than at some later full collection, they cannot lift this round's
    # peak memory or hand one of its operations their collection.
    gc.collect()
    tally.kernel_s.append(reference_s())
    if tracer is not None:
        tracer.active = True
    store, setup_s = setup(spec, inputs, path, tracer)
    tally.setup_s.append(setup_s)
    if tracer is not None:
        start = _clock()
        store.curve.index_many(inputs.points[: spec.points])
        tally.index_many_us.append((_clock() - start) / spec.points * 1e6)
    _run_stream(store, spec, inputs, tally, tracer, parity)
    tally.pages_allocated = store.disk.num_pages
    tally.live_pages = store.disk.num_live_pages
    tally.disk_bytes_per_record.append(_dir_bytes(path) / len(store))
    live_state = _state(store, spec, inputs.probes)
    _close(store)
    del store

    manifest = load_manifest(path)
    start = _clock()
    scan = scan_wal(path / manifest.wal_file)
    tally.scan_wal_s.append(_clock() - start)
    tally.flush_frames = sum(
        1 for end, op in scan.frames if end > manifest.wal_offset and op[0] == "flush"
    )
    extra = {"max_workers": FILTER_WORKERS} if spec.shards else {}
    for recovery in range(spec.recoveries):
        if recovery:
            # Recovery only reads the directory: recover it again, and
            # check the last store recovered.
            _close(recovered)
            del recovered
            gc.collect()
        start = _clock()
        recovered = recover(path, **extra)
        tally.recover_s.append(_clock() - start)
    tally.frames_replayed = recovered.durability.last_recovery.frames_replayed
    tally.attempted += 1
    if _state(recovered, spec, inputs.probes) != live_state:
        tally.fail("recovered store differs from the live store")
    _close(recovered)
    shutil.rmtree(path, ignore_errors=True)
    tally.kernel_s.append(reference_s())


def _check_transparency(spec: Spec, inputs: Inputs, path: Path, tally: Tally) -> None:
    """Every sharded query must return the single index's rows, in the
    same order, at the same seeks and pages (the first round's results
    stand for every round's, which must equal them)."""
    store, _ = setup(replace(spec, shards=0), inputs, path)
    expected = [
        oracles.fingerprint(store.range_query(rect)) for _, rect, _ in inputs.stream
    ]
    _close(store)
    shutil.rmtree(path, ignore_errors=True)
    for index, want in enumerate(expected):
        if tally.fingerprints.get(index) != want:
            tally.fail(f"op {index}: sharded result differs from the single index")


# ----------------------------------------------------------------------
# A whole run
# ----------------------------------------------------------------------
def rounds_for(spec: Spec, seconds: float) -> int:
    """The rounds a run of about ``seconds`` makes: an even number, at
    least :data:`MIN_ROUNDS`, fixed by the arguments and never by the
    clock, so a slower commit is measured as often as a faster one."""
    rounds = max(MIN_ROUNDS, round(seconds / spec.round_s))
    return rounds + rounds % 2


def run(spec: Spec, seed: int, seconds: float, trace: bool, work: Path):
    """Run :func:`rounds_for` rounds of ``spec``.

    The rounds count is even, so with ``trace`` — every round traced,
    the stream's even operations in one round and its odd ones in the
    next — each operation is traced as often as not.  A run that has
    taken :data:`MAX_RUN_S` stops after its next even round.  Returns
    ``(tally, tracer)``.
    """
    inputs = make_inputs(spec, seed)
    tracer = Tracer() if trace else None
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    started = _clock()
    for done in range(rounds_for(spec, seconds)):
        if done >= MIN_ROUNDS and done % 2 == 0 and _clock() - started > MAX_RUN_S:
            break
        run_round(spec, inputs, work / f"round-{done}", tally, tracer, done % 2)
    if spec.shards:
        _check_transparency(spec, inputs, work / "reference", tally)
    return tally, tracer


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def typical(tally: Tally, traced: bool = False) -> List[Optional[float]]:
    """Each operation's median latency (ms, as measured) over the rounds
    in which it ran traced, or untraced — None if it never ran that way.

    Every round replays the same stream on an identical fresh store, so
    an operation does the same work in every round; its median over the
    rounds drops the rounds in which a stray pause or a short slow spell
    of the host hit it.
    """
    medians: List[Optional[float]] = []
    for column, flags in zip(zip(*tally.latencies), zip(*tally.traced)):
        picked = [ms for ms, flag in zip(column, flags) if flag == traced]
        medians.append(statistics.median(picked) if picked else None)
    return medians


def end_to_end(tally: Tally) -> Dict[str, Dict[str, float]]:
    """``{metric: {"value", "n"}}`` for every end-to-end metric.

    Every time is scaled by the run's host pace towards the reference
    speed (:mod:`storebench.pace`).  ``p50_ms`` and
    ``p99_ms`` are exact percentiles over the stream's operations of each
    one's median latency (:func:`typical`), so they describe what the
    operations cost rather than the host's stalls: the p99 is the cost of
    the stream's dearest few operations.  A p90 would have more of them
    beyond it, but on ingest-durable it falls on the step between the
    inserts and the deletes (90% and 5% of the mix).
    ``ops_per_s`` is one round's operations over the median round's loop
    time.  ``setup_s`` and ``recover_s`` are medians over the rounds'
    set-ups and recoveries.
    """
    slowness = pace(tally.kernel_s)
    lat = [scale(ms, slowness) for ms in typical(tally)]
    loops = [scale(sum(row) / 1e3, slowness) for row in tally.latencies]
    return {
        "setup_s": {
            "value": scale(statistics.median(tally.setup_s), slowness),
            "n": len(tally.setup_s),
        },
        "ops_per_s": {"value": len(lat) / statistics.median(loops), "n": len(loops)},
        "p50_ms": summarize(lat, 50),
        "p99_ms": summarize(lat, 99),
        "recover_s": {
            "value": scale(statistics.median(tally.recover_s), slowness),
            "n": len(tally.recover_s),
        },
        "seeks_per_read": {"value": tally.seeks / tally.reads, "n": tally.reads},
        "pages_per_read": {"value": tally.pages / tally.reads, "n": tally.reads},
        "disk_bytes_per_record": {
            "value": statistics.median(tally.disk_bytes_per_record),
            "n": len(tally.disk_bytes_per_record),
        },
        "peak_rss_mb": {"value": peak_rss_mb(), "n": 1},
    }


def _mean(total: float, count: float) -> float:
    return total / count if count else 0.0


def per_layer(tally: Tally, tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """``{metric: {"value", "n"}}`` for every per-layer metric, from the
    traced rounds' spans and counters."""
    spans = tracer.spans
    counts = tracer.counts
    totals = span_totals(spans)

    def mean_s(name: str) -> Tuple[float, int]:
        total, count = totals.get(name, (0.0, 0))
        return _mean(total, count), count

    def mean_ms(name: str) -> Tuple[float, int]:
        seconds, count = mean_s(name)
        return seconds * 1e3, count

    executions = totals.get("executor.execute", (0.0, 0))[1]
    execute_ms, _ = mean_ms("executor.execute")
    read_ms = _mean(totals.get("disk.read", (0.0, 0))[0], executions) * 1e3
    writes = op_self_times(
        spans, {"setup.bulk_load", "op.insert", "op.delete"}, {"wal.write", "wal.fsync"}
    )
    reads = op_self_times(
        spans,
        {"op.read", "op.knn"},
        {"cache.get", "planner.plan", "executor.execute", "store.flush"},
    )
    wal_frames = totals.get("wal.write", (0.0, 0))[1]
    lookups = counts["cache.hits"] + counts["cache.misses"]
    # Per operation, its median traced latency against its median
    # untraced one, from the same rounds.  The untraced runs pass through
    # the same instance wrappers with tracing off, so the wrappers'
    # switched-off cost is not counted.
    ratios = [
        traced / untraced
        for traced, untraced in zip(typical(tally, traced=True), typical(tally))
        if traced is not None and untraced is not None
    ]
    values = {
        "curves.index_many_us_per_point": (
            statistics.median(tally.index_many_us),
            len(tally.index_many_us),
        ),
        "store.bulk_load_s": mean_s("setup.bulk_load"),
        "store.flush_s": mean_s("store.flush"),
        "store.write_self_ms": (statistics.median(writes) * 1e3, len(writes)),
        "store.read_self_ms": (_mean(sum(reads), len(reads)) * 1e3, len(reads)),
        "planner.plan_ms": mean_ms("planner.plan"),
        "planner.key_runs_ms": mean_ms("planner.key_runs"),
        "planner.runs_per_plan": (
            _mean(counts["planner.runs"], counts["planner.plans"]),
            int(counts["planner.plans"]),
        ),
        "cache.hit_ratio": (_mean(counts["cache.hits"], lookups), int(lookups)),
        "cache.lookup_ms": mean_ms("cache.get"),
        "executor.execute_ms": (execute_ms, executions),
        "executor.read_ms": (read_ms, executions),
        "executor.filter_ms": (execute_ms - read_ms, executions),
        "executor.examined_per_row": (
            _mean(counts["executor.examined"], counts["executor.rows"]),
            executions,
        ),
        "executor.pages_per_query": (
            _mean(totals.get("disk.read", (0.0, 0))[1], executions),
            executions,
        ),
        "knn.expansions_per_query": (
            _mean(tally.knn_expansions, tally.knn_queries),
            tally.knn_queries,
        ),
        "knn.scanned_per_neighbor": (
            _mean(tally.knn_scanned, tally.knn_neighbors),
            tally.knn_queries,
        ),
        "scatter.fan_out": (_mean(counts["scatter.fan_out"], executions), executions),
        "wal.write_ms": mean_ms("wal.write"),
        "wal.fsync_ms": mean_ms("wal.fsync"),
        "wal.fsyncs_per_op": (
            _mean(totals.get("wal.fsync", (0.0, 0))[1], wal_frames),
            wal_frames,
        ),
        "wal.bytes_per_op": (_mean(counts["wal.bytes"], wal_frames), wal_frames),
        "disk.pages_allocated": (tally.pages_allocated, 1),
        "disk.live_pages": (tally.live_pages, 1),
        "durable.checkpoint_s": mean_s("setup.checkpoint"),
        "durable.scan_wal_s": (statistics.median(tally.scan_wal_s), len(tally.scan_wal_s)),
        "durable.frames_replayed": (tally.frames_replayed, 1),
        "durable.flush_frames_replayed": (tally.flush_frames, 1),
        "trace.overhead_pct": ((statistics.median(ratios) - 1.0) * 100.0, len(ratios)),
        "host.pace": (pace(tally.kernel_s), len(tally.kernel_s)),
    }
    return {name: {"value": value, "n": n} for name, (value, n) in values.items()}
