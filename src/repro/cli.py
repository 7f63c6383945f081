"""Top-level command line interface: ``python -m repro <command>``.

Commands::

    curves                                list registered curves
    key    --curve NAME --side S  X Y …   cell -> curve key
    cell   --curve NAME --side S  KEY     curve key -> cell
    cluster --curve NAME --side S --lo x,y --hi x,y
                                          clustering number + key runs
    explain --curve NAME --side S --lo x,y --hi x,y [--shards N]
                                          EXPLAIN a range query's plan
    query  --curve NAME --side S --rect x,y:x,y [--rect …] [--limit N]
           [--stream] [--knn x,y --k K]   the Query front door: multi-rect
                                          unions, row limits, streaming
                                          cursors and k-nearest-neighbour
    batch  --curve NAME --side S --count N [--shards N]
                                          batched vs query-at-a-time I/O
                                          (``--shards`` serves through the
                                          scatter-gather sharded layer)
    advise --side S --shapes 32x1:5,20x20:1
                                          rank curves by exact expected
                                          seeks over a workload spec
    migrate --curve NAME --to NAME|auto --shapes SPEC [--shards N]
                                          replay a workload, migrate the
                                          index online, compare seeks
    render --curve NAME --side S [--mode keys|path]
                                          ASCII picture of the curve
    checkpoint --path DIR [--compact]     checkpoint a durable store's
                                          pages and manifest (``--compact``
                                          rotates the WAL)
    recover --path DIR [--verify]         replay a durable store from its
                                          WAL + last checkpoint and report
                                          what was recovered
    metrics --count N [--json]            replay a workload with metrics
                                          enabled, print the registry in
                                          Prometheus text (or JSON)
    trace  [--rect …|--knn CELL] [--stream] [--format tree|json|chrome]
           [--out FILE]                   run one query under per-query
                                          tracing: span tree with seek/
                                          page/over-read attribution
    events --queries N [--limit N]        run an adaptive demo and tail
                                          the unified observability
                                          event stream
    explain … --trace                     EXPLAIN + execute the query
                                          under tracing
    experiments …                         the experiment harness
                                          (see ``python -m repro.experiments``)
    lint [--rules …] [--no-baseline] [--ratchet]
                                          static lock-discipline and
                                          invariant analysis + mypy ratchet
                                          (see ``repro.devtools``)

Exit status: 0 on success; 1 when a check the command runs fails
(``recover --verify``, ``lint`` findings); 2 on a usage error reported
by argument parsing; 3 (:data:`EXIT_ERROR`) when the command fails with
a typed :class:`~repro.errors.ReproError`, printed as one line on
stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

import numpy as np

from .adaptive import AdaptiveController, DriftDetector, OnlineMigrator, WorkloadRecorder
from .api import Query
from .core.clustering import clustering_number
from .core.queries import random_cubes
from .core.runs import query_runs
from .curves import curve_names, make_curve
from .errors import InvalidQueryError, ReproError
from .experiments.cli import main as experiments_main
from .experiments.report import format_table
from .geometry import Rect
from .index import SFCIndex, ShardedSFCIndex, advise
from .obs import EVENTS, METRICS, enable_metrics, start_trace
from .visualize import render_clusters, render_keys, render_path

__all__ = ["EXIT_ERROR", "main"]

#: Exit status of a command that failed with a typed
#: :class:`~repro.errors.ReproError` (see the module docstring).
EXIT_ERROR = 3


def _parse_cell(text: str) -> tuple:
    return tuple(int(v) for v in text.split(","))


def _parse_rect(text: str) -> Rect:
    """Parse ``lo:hi`` (cells comma-separated, e.g. ``2,3:10,11``)."""
    lo, sep, hi = text.partition(":")
    if not sep:
        raise InvalidQueryError(f"rect must look like lo:hi, got {text!r}")
    return Rect(_parse_cell(lo), _parse_cell(hi))


def _replay_workload(index, rects, gap_tolerance: int):
    """Run ``rects`` one at a time through the Query front door.

    The single query-at-a-time replay loop — shared by the ``explain``,
    ``batch`` and ``migrate`` commands — returning total (seeks,
    sim-ms) plus the last result for per-query reporting.
    """
    total_seeks, total_cost, result = 0, 0.0, None
    for rect in rects:
        result = index.execute(Query.rect(rect).hint(gap_tolerance=gap_tolerance))
        total_seeks += result.seeks
        total_cost += result.cost()
    return total_seeks, total_cost, result


def _parse_shapes(text: str):
    """Parse a workload spec like ``32x1:5,20x20:1`` into (shapes, weights).

    Each comma-separated entry is per-dimension lengths joined by ``x``,
    optionally followed by ``:weight`` (default 1).
    """
    shapes, weights = [], []
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        body, _, weight = entry.partition(":")
        shape = tuple(int(v) for v in body.split("x"))
        value = float(weight) if weight else 1.0
        if not value > 0:  # also rejects NaN
            raise InvalidQueryError(
                f"shape weight must be positive, got {entry!r}"
            )
        shapes.append(shape)
        weights.append(value)
    if not shapes:
        raise InvalidQueryError(f"no shapes in workload spec {text!r}")
    dim = len(shapes[0])
    if any(len(shape) != dim for shape in shapes):
        raise InvalidQueryError(f"shapes must share a dimension: {text!r}")
    return shapes, weights


def _add_curve_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--curve", default="onion", choices=curve_names())
    parser.add_argument("--side", type=int, default=8)
    parser.add_argument("--dim", type=int, default=2)


def _add_index_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--points", type=int, default=4000, help="random points to index"
    )
    parser.add_argument("--page-capacity", type=int, default=16)
    parser.add_argument("--gap", type=int, default=0, help="gap tolerance")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="serve through a ShardedSFCIndex with this many shards (1: unsharded)",
    )
    parser.add_argument(
        "--durable",
        default=None,
        metavar="DIR",
        help="back the index with a WAL + checkpoint directory at DIR "
        "(replay it later with `repro recover --path DIR`)",
    )


def _build_index(args: argparse.Namespace, recorder=None):
    """An index over random points, for the explain/batch/migrate commands.

    ``--shards N`` (N > 1) builds the scatter–gather sharded layer
    instead; its query surface is a drop-in for the single index.
    """
    curve = make_curve(args.curve, args.side, args.dim)
    durable_path = getattr(args, "durable", None)
    if args.shards > 1:
        index = ShardedSFCIndex(
            curve,
            num_shards=args.shards,
            page_capacity=args.page_capacity,
            recorder=recorder,
            durable_path=durable_path,
        )
    else:
        index = SFCIndex(
            curve,
            page_capacity=args.page_capacity,
            recorder=recorder,
            durable_path=durable_path,
        )
    rng = np.random.default_rng(args.seed)
    count = min(args.points, curve.size)
    index.bulk_load(rng.integers(0, args.side, size=(count, args.dim)))
    index.flush()
    return index


def main(argv: List[str] = None) -> int:
    """Dispatch the top-level CLI and return its exit status.

    A typed :class:`~repro.errors.ReproError` — bad input such as a rect
    outside the universe, or a store that cannot be recovered — is
    printed as one ``repro: <ErrorType>: <message>`` line on stderr and
    exits with :data:`EXIT_ERROR`, never as a traceback.
    """
    try:
        return _dispatch(argv)
    except ReproError as exc:
        message = " ".join(str(exc).split())
        print(f"repro: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_ERROR


def _dispatch(argv: List[str] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "experiments":
        return experiments_main(argv[1:])
    if argv and argv[0] == "lint":
        from .devtools.cli import main as lint_main

        return lint_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro", description="Onion-curve reproduction toolkit."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("curves", help="list registered curves")

    key_p = sub.add_parser("key", help="map a cell to its curve key")
    _add_curve_args(key_p)
    key_p.add_argument("coordinates", type=int, nargs="+")

    cell_p = sub.add_parser("cell", help="map a curve key to its cell")
    _add_curve_args(cell_p)
    cell_p.add_argument("key", type=int)

    cluster_p = sub.add_parser("cluster", help="clustering number of a rect")
    _add_curve_args(cluster_p)
    cluster_p.add_argument("--lo", type=_parse_cell, required=True)
    cluster_p.add_argument("--hi", type=_parse_cell, required=True)
    cluster_p.add_argument("--runs", action="store_true", help="print key runs")
    cluster_p.add_argument(
        "--draw", action="store_true", help="draw the cluster map (2-d only)"
    )

    explain_p = sub.add_parser("explain", help="EXPLAIN a range query's plan")
    _add_curve_args(explain_p)
    _add_index_args(explain_p)
    explain_p.add_argument("--lo", type=_parse_cell, required=True)
    explain_p.add_argument("--hi", type=_parse_cell, required=True)
    explain_p.add_argument(
        "--trace",
        action="store_true",
        help="execute the query under per-query tracing and print the span tree",
    )

    query_p = sub.add_parser(
        "query",
        help="run a composable query: multi-rect union, limit, stream, knn",
    )
    _add_curve_args(query_p)
    _add_index_args(query_p)
    query_p.add_argument(
        "--rect",
        action="append",
        type=_parse_rect,
        default=[],
        metavar="LO:HI",
        help="rect as lo:hi cells (e.g. 2,3:10,11); repeat for a union",
    )
    query_p.add_argument("--limit", type=int, help="stop after this many rows")
    query_p.add_argument(
        "--stream",
        action="store_true",
        help="pull rows through a streaming Cursor (O(page) memory)",
    )
    query_p.add_argument(
        "--knn", type=_parse_cell, metavar="CELL", help="k-nearest-neighbour query point"
    )
    query_p.add_argument("--k", type=int, default=5, help="neighbours for --knn")

    batch_p = sub.add_parser(
        "batch", help="compare batched vs query-at-a-time execution"
    )
    _add_curve_args(batch_p)
    _add_index_args(batch_p)
    batch_p.add_argument("--count", type=int, default=200, help="queries in the batch")
    batch_p.add_argument(
        "--length", type=int, default=0, help="cube side (default: side // 4)"
    )

    advise_p = sub.add_parser(
        "advise", help="rank curves by exact expected seeks over a workload"
    )
    advise_p.add_argument("--side", type=int, default=32)
    advise_p.add_argument(
        "--curves",
        default="onion,hilbert,rowmajor,zorder",
        help="comma-separated candidate curve names",
    )
    advise_p.add_argument(
        "--shapes",
        required=True,
        help="workload spec: per-dim lengths joined by 'x', optional "
        "':weight', comma-separated (e.g. 32x1:5,20x20:1)",
    )

    migrate_p = sub.add_parser(
        "migrate", help="replay a workload, migrate the index online, compare seeks"
    )
    _add_curve_args(migrate_p)
    _add_index_args(migrate_p)
    migrate_p.add_argument(
        "--to",
        required=True,
        help="target curve name, or 'auto' to let the drift detector pick",
    )
    migrate_p.add_argument(
        "--shapes",
        default="",
        help="workload spec replayed before and after the migration "
        "(default: one near-cube of side//2)",
    )
    migrate_p.add_argument("--queries", type=int, default=60)
    migrate_p.add_argument(
        "--regret",
        type=float,
        default=0.1,
        help="regret threshold for --to auto drift detection",
    )
    migrate_p.add_argument(
        "--batch-size", type=int, default=4096, help="records re-keyed per batch"
    )

    render_p = sub.add_parser("render", help="ASCII picture of a curve")
    _add_curve_args(render_p)
    render_p.add_argument("--mode", choices=("keys", "path"), default="keys")

    checkpoint_p = sub.add_parser(
        "checkpoint", help="checkpoint a durable store's pages + manifest"
    )
    checkpoint_p.add_argument(
        "--path", required=True, help="durable store directory"
    )
    checkpoint_p.add_argument(
        "--compact",
        action="store_true",
        help="rotate to a fresh WAL after the checkpoint commits",
    )

    recover_p = sub.add_parser(
        "recover", help="replay a durable store from its WAL + checkpoint"
    )
    recover_p.add_argument(
        "--path", required=True, help="durable store directory"
    )
    recover_p.add_argument(
        "--verify",
        action="store_true",
        help="scan the recovered store's full universe and cross-check counts",
    )

    metrics_p = sub.add_parser(
        "metrics", help="replay a workload with metrics enabled, print the registry"
    )
    _add_curve_args(metrics_p)
    _add_index_args(metrics_p)
    metrics_p.add_argument(
        "--count", type=int, default=50, help="random cube queries to replay"
    )
    metrics_p.add_argument(
        "--json",
        action="store_true",
        help="JSON snapshot instead of Prometheus text exposition",
    )

    trace_p = sub.add_parser(
        "trace", help="run one query under per-query tracing, print the span tree"
    )
    _add_curve_args(trace_p)
    _add_index_args(trace_p)
    trace_p.add_argument(
        "--rect",
        action="append",
        type=_parse_rect,
        default=[],
        metavar="LO:HI",
        help="rect as lo:hi cells; repeat for a union "
        "(default: one centred box of side//2)",
    )
    trace_p.add_argument(
        "--knn", type=_parse_cell, metavar="CELL", help="trace a kNN search instead"
    )
    trace_p.add_argument("--k", type=int, default=5, help="neighbours for --knn")
    trace_p.add_argument(
        "--stream",
        action="store_true",
        help="drain through a streaming Cursor instead of materializing",
    )
    trace_p.add_argument(
        "--format",
        choices=("tree", "json", "chrome"),
        default="tree",
        help="tree: human-readable; json: Trace.to_dict; "
        "chrome: chrome://tracing / Perfetto trace-event file",
    )
    trace_p.add_argument(
        "--out", default=None, metavar="FILE", help="write the trace to FILE"
    )

    events_p = sub.add_parser(
        "events", help="run an adaptive demo, tail the unified event stream"
    )
    _add_curve_args(events_p)
    _add_index_args(events_p)
    events_p.add_argument(
        "--queries", type=int, default=40, help="row-scan queries to replay"
    )
    events_p.add_argument("--limit", type=int, default=20, help="events to show")

    args = parser.parse_args(argv)

    if args.command == "curves":
        for name in curve_names():
            print(name)
        return 0

    if args.command == "advise":
        shapes, weights = _parse_shapes(args.shapes)
        dim = len(shapes[0])
        candidates = [
            make_curve(name.strip(), args.side, dim)
            for name in args.curves.split(",")
            if name.strip()
        ]
        scores = advise(candidates, shapes, weights)
        headers = ["rank", "curve", "expected seeks"] + [
            "x".join(str(l) for l in shape) for shape in shapes
        ]
        rows = [
            (i + 1, score.curve.name, round(score.expected_seeks, 3))
            + tuple(round(score.per_shape[shape], 3) for shape in shapes)
            for i, score in enumerate(scores)
        ]
        print(
            f"curve ranking over {len(shapes)} shape(s), side {args.side}, "
            f"dim {dim} (exact expected seeks, Lemma 1)"
        )
        print(format_table(headers, rows))
        print(f"winner: {scores[0].curve.name}")
        return 0

    if args.command in ("checkpoint", "recover"):
        from .storage import recover as recover_store

        store = recover_store(args.path)
        report = store.durability.last_recovery
        print(
            f"recovered {type(store).__name__}: {report.records} record(s) "
            f"on {store.curve!r}"
            + (f", {store.num_shards} shards" if hasattr(store, "num_shards") else "")
        )
        print(
            f"  generation {report.generation}: "
            f"{report.checkpoint_records} checkpointed record(s), "
            f"{report.frames_replayed} WAL frame(s) replayed, "
            f"{report.torn_bytes} torn byte(s) truncated from {report.wal_file}"
        )
        if args.command == "checkpoint":
            manifest = store.checkpoint(compact=args.compact)
            print(
                f"checkpoint generation {manifest.generation}: "
                f"{manifest.record_count} record(s) in "
                f"{len(manifest.page_index)} page(s) -> {manifest.pages_file}"
                + (f", WAL rotated to {manifest.wal_file}" if args.compact else "")
            )
        elif args.verify:
            side, dim = store.curve.side, store.curve.dim
            universe = Rect.from_origin((0,) * dim, (side,) * dim)
            result = store.range_query(universe)
            if len(result.records) != len(store):
                print(
                    f"verify: FAILED - full scan returned "
                    f"{len(result.records)} of {len(store)} record(s)"
                )
                return 1
            print(
                f"verify: OK - full scan returned all {len(store)} record(s) "
                f"({result.seeks} seeks, {result.pages_read} pages)"
            )
        store.durability.close()
        return 0

    curve = make_curve(args.curve, args.side, args.dim)
    if args.command == "key":
        print(curve.index(tuple(args.coordinates)))
        return 0
    if args.command == "cell":
        print(",".join(str(c) for c in curve.point(args.key)))
        return 0
    if args.command == "cluster":
        rect = Rect(args.lo, args.hi)
        print(f"clusters: {clustering_number(curve, rect)}")
        if args.runs:
            for start, end in query_runs(curve, rect):
                print(f"  run [{start}, {end}]")
        if args.draw:
            print(render_clusters(curve, rect))
        return 0
    if args.command == "explain":
        index = _build_index(args)
        rect = Rect(args.lo, args.hi)
        print(f"{len(index)} random points indexed (seed {args.seed})")
        print(index.explain(rect, gap_tolerance=args.gap))
        if args.trace:
            with start_trace("explain") as trace:
                seeks, cost, result = _replay_workload(index, [rect], args.gap)
        else:
            trace = None
            seeks, cost, result = _replay_workload(index, [rect], args.gap)
        print(
            f"executed: {seeks} seeks, {result.pages_read} pages, "
            f"{len(result.records)} records, {cost:.1f} sim-ms"
        )
        if trace is not None:
            print(trace.render())
        return 0
    if args.command == "metrics":
        enable_metrics()
        METRICS.reset()
        index = _build_index(args)
        length = max(1, args.side // 4)
        rng = np.random.default_rng(args.seed + 1)
        rects = random_cubes(args.side, args.dim, length, args.count, rng)
        _replay_workload(index, rects, args.gap)
        if len(index) > 0:
            index.knn((args.side // 2,) * args.dim, min(5, len(index)))
        if args.json:
            print(METRICS.render_json_text())
        else:
            print(METRICS.render_prometheus(), end="")
        return 0
    if args.command == "trace":
        index = _build_index(args)
        with start_trace("knn" if args.knn is not None else "query") as trace:
            if args.knn is not None:
                index.knn(args.knn, args.k)
            else:
                rects = args.rect or [
                    Rect.from_origin(
                        (args.side // 4,) * args.dim,
                        (max(1, args.side // 2),) * args.dim,
                    )
                ]
                query = Query.union_of(rects).hint(gap_tolerance=args.gap)
                if args.stream:
                    with index.cursor(query) as cursor:
                        for _ in cursor:
                            pass
                else:
                    index.execute(query)
        if args.format == "json":
            rendered = trace.to_json()
        elif args.format == "chrome":
            rendered = trace.to_chrome_json()
        else:
            rendered = trace.render()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered + "\n")
            print(f"trace written to {args.out}")
        else:
            print(rendered)
        return 0
    if args.command == "events":
        EVENTS.clear()
        recorder = WorkloadRecorder()
        index = _build_index(args, recorder=recorder)
        rng = np.random.default_rng(args.seed + 1)
        # A row-scan workload the onion default is poor at, so the demo
        # exercises the full observe -> detect -> migrate loop.
        shape = (args.side,) + (1,) * (args.dim - 1)
        rects = [
            Rect.from_origin(
                [int(rng.integers(0, args.side - length + 1)) for length in shape],
                shape,
            )
            for _ in range(args.queries)
        ]
        _replay_workload(index, rects, args.gap)
        candidates = [
            make_curve(name, args.side, args.dim)
            for name in ("onion", "hilbert", "rowmajor")
        ]
        controller = AdaptiveController(
            index,
            candidates,
            detector=DriftDetector(candidates, min_observations=1, check_interval=1),
        )
        controller.check_now()
        _replay_workload(index, rects, args.gap)
        controller.check_now()
        events = EVENTS.tail(args.limit)
        print(
            f"{len(events)} event(s) shown of {EVENTS.total_emitted} emitted "
            f"({EVENTS.drops} dropped by the bounded stream)"
        )
        for event in events:
            print(event.render())
        return 0
    if args.command == "query":
        index = _build_index(args)
        print(f"{len(index)} random points indexed (seed {args.seed})")
        if args.knn is not None:
            result = index.knn(args.knn, args.k)
            print(
                f"{len(result)} nearest of {args.k} requested around "
                f"{','.join(map(str, result.point))} "
                f"({result.expansions} expansion(s))"
            )
            for neighbor in result.neighbors:
                point = ",".join(str(c) for c in neighbor.record.point)
                print(f"  ({point})  distance {neighbor.distance:.3f}")
            print(
                f"executed: {result.seeks} seeks, {result.pages_read} pages, "
                f"{result.cost():.1f} sim-ms"
            )
            return 0
        if not args.rect:
            raise InvalidQueryError("query needs at least one --rect (or --knn)")
        query = Query.union_of(args.rect).hint(gap_tolerance=args.gap)
        if args.limit is not None:
            query = query.limit(args.limit)
        if args.stream:
            with index.cursor(query) as cursor:
                rows = sum(1 for _ in cursor)
                stats = cursor.stats
            print(
                f"streamed: {rows} rows, {stats.seeks} seeks, "
                f"{stats.pages_read} pages, {stats.cost():.1f} sim-ms, "
                f"peak page residency {stats.peak_page_records} record(s)"
                + (" [truncated by limit]" if stats.truncated else "")
            )
        else:
            result = index.execute(query)
            rows = getattr(result, "rows", None)
            count = len(rows) if rows is not None else len(result.records)
            truncated = bool(getattr(result, "truncated", False))
            print(
                f"executed: {count} rows, {result.seeks} seeks, "
                f"{result.pages_read} pages, {result.cost():.1f} sim-ms"
                + (" [truncated by limit]" if truncated else "")
            )
        return 0
    if args.command == "batch":
        index = _build_index(args)
        length = args.length or max(1, args.side // 4)
        rng = np.random.default_rng(args.seed + 1)
        rects = random_cubes(args.side, args.dim, length, args.count, rng)
        index.disk.reset_stats()
        loop_seeks, loop_cost, _ = _replay_workload(index, rects, args.gap)
        index.disk.reset_stats()
        batch = index.range_query_batch(rects, gap_tolerance=args.gap)
        print(f"{len(rects)} cube queries of side {length} on {index.curve!r}")
        print(f"query-at-a-time: {loop_seeks:>7} seeks  {loop_cost:>10.1f} sim-ms")
        print(
            f"batched:         {batch.total_seeks:>7} seeks  "
            f"{batch.cost():>10.1f} sim-ms"
        )
        if batch.total_seeks:
            print(f"seek reduction:  {loop_seeks / batch.total_seeks:.1f}x")
        if args.shards > 1:
            fan_out = batch.total_fan_out / len(rects)
            parallel = batch.parallel_cost(workers=args.shards)
            print(
                f"sharded:         {index.num_shards} shards, "
                f"{fan_out:.2f} avg fan-out, "
                f"{parallel:.1f} sim-ms parallel "
                f"({batch.parallel_cost(workers=1) / parallel:.1f}x over 1 worker)"
            )
        cache = index.plan_cache
        if cache is not None:
            print(
                f"plan cache:      {cache.stats.hits} hits / "
                f"{cache.stats.lookups} lookups "
                f"({100 * cache.stats.hit_rate:.0f}% across both passes)"
            )
        return 0
    if args.command == "migrate":
        if args.shapes:
            shapes, weights = _parse_shapes(args.shapes)
            if len(shapes[0]) != args.dim:
                raise InvalidQueryError(
                    f"--shapes dimension {len(shapes[0])} != --dim {args.dim}"
                )
            for shape in shapes:
                if any(not 1 <= length <= args.side for length in shape):
                    raise InvalidQueryError(
                        f"shape {'x'.join(map(str, shape))} does not fit "
                        f"side {args.side}"
                    )
        else:
            shapes, weights = [(max(1, args.side // 2),) * args.dim], [1.0]
        recorder = WorkloadRecorder()
        index = _build_index(args, recorder=recorder)
        rng = np.random.default_rng(args.seed + 1)
        probabilities = np.asarray(weights) / float(sum(weights))
        rects = []
        for pick in rng.choice(len(shapes), size=args.queries, p=probabilities):
            shape = shapes[pick]
            origin = [
                int(rng.integers(0, args.side - length + 1)) for length in shape
            ]
            rects.append(Rect.from_origin(origin, shape))
        before, _, _ = _replay_workload(index, rects, args.gap)
        print(
            f"{len(index)} random points on {index.curve!r}"
            + (f", {index.num_shards} shards" if args.shards > 1 else "")
        )
        print(f"before migration: {before} seeks over {len(rects)} queries")
        if args.to == "auto":
            candidates = [
                make_curve(name, args.side, args.dim)
                for name in ("onion", "hilbert", "rowmajor")
            ]
            detector = DriftDetector(
                candidates, regret_threshold=args.regret, min_observations=1,
                check_interval=1,
            )
            report = detector.check(recorder, index.curve)
            print(report.render())
            target = report.best.curve
        else:
            target = make_curve(args.to, args.side, args.dim)
        migration = OnlineMigrator(batch_size=args.batch_size).migrate(index, target)
        print(migration.render())
        after, _, _ = _replay_workload(index, rects, args.gap)
        print(f"after migration:  {after} seeks over {len(rects)} queries")
        if after:
            print(f"seek reduction:   {before / after:.2f}x")
        return 0
    if args.command == "render":
        renderer = render_keys if args.mode == "keys" else render_path
        print(renderer(curve))
        return 0
    raise AssertionError("unreachable")  # pragma: no cover
