"""k-nearest-neighbour search over the curve-keyed page layout.

The classic SFC workload beyond ranges: because nearby cells tend to
share key runs, a kNN query can be answered by *expanding range
search* — scan a small box around the query point, and only grow it
when the ``k``-th best candidate is not yet provably inside.  Each
expansion runs through the store's ordinary plan/execute path, so every
box is planned (epoch-cached), priced by the cost model, charged on the
simulated disk and reported to the workload recorder like any range
query.

Correctness rests on the box guarantee: records sit on integer cells,
so every cell outside the box of Chebyshev radius ``r`` has L∞
distance >= ``r + 1`` from the query point, hence Euclidean and
Manhattan distance >= ``r + 1`` too (both dominate L∞).  So once the
``k``-th best candidate is closer than ``r + 1``, no unscanned record
can displace it.  The radius doubles while fewer than ``k`` candidates
are in hand; after that the ``k``-th candidate's distance ``d_k``
bounds the next box at ``min(2r, floor(d_k))``, the classic k-th
candidate pruning of Roussopoulos, Kelley & Vincent ("Nearest Neighbor
Queries", SIGMOD 1995).  The box of radius ``floor(d_k)`` holds every
record no farther than the candidate, so when ``floor(d_k) <= 2r`` it
is the last expansion.  When ``2r`` already reaches the whole universe
the search takes it instead: the universe is one key run that reads
each page once.  Each radius is at most the doubling schedule's, so
the search stays within O(log side) expansions and never plans a
larger box than plain doubling.  Pages read can still exceed doubling
on a single query, because a smaller box can split into more key runs
that re-read the pages they share.  Differential tests check every
configuration against a brute-force oracle and the doubling search in
2-d and 3-d.
"""

from __future__ import annotations

import heapq
import math
import operator
import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..engine.cost import DEFAULT_COST_MODEL, CostModel
from ..engine.executor import Record
from ..errors import InvalidQueryError
from ..geometry import Rect, check_cell
from ..obs.metrics import METRICS as _OBS_METRICS
from ..obs.trace import span as _obs_span
from .query import Query

__all__ = ["KNNResult", "Neighbor", "knn_search"]

#: Supported distance metrics (all dominate L∞, which is what the
#: expanding-box stopping rule requires).
METRICS = ("euclidean", "manhattan", "chebyshev")

_KNN_QUERIES = _OBS_METRICS.counter("repro_knn_queries_total", "kNN searches served")
_KNN_EXPANSIONS = _OBS_METRICS.counter(
    "repro_knn_expansions_total", "box expansions across all kNN searches"
)
_KNN_LATENCY = _OBS_METRICS.histogram(
    "repro_knn_latency_seconds", "wall time of one kNN search"
)


def _exact_distance(a: Sequence[int], b: Sequence[int], metric: str) -> int:
    """The distance as an integer: its square for euclidean, else itself."""
    deltas = [abs(int(x) - int(y)) for x, y in zip(a, b)]
    if metric == "euclidean":
        return sum(d * d for d in deltas)
    if metric == "manhattan":
        return sum(deltas)
    return max(deltas)


@dataclass(frozen=True)
class Neighbor:
    """One kNN answer: a stored record and its distance to the query."""

    record: Record
    distance: float


@dataclass(frozen=True)
class KNNResult:
    """The ``k`` nearest records plus the search's simulated I/O profile."""

    #: Query point the distances are measured from.
    point: Tuple[int, ...]
    #: Neighbours in ascending ``(distance, point)`` order; fewer than
    #: ``k`` only when the store holds fewer records.
    neighbors: Tuple[Neighbor, ...]
    metric: str
    #: Seeks charged across all expansions.
    seeks: int
    #: Sequential page reads charged across all expansions.
    sequential_reads: int
    #: Box expansions performed (O(log side) by construction).
    expansions: int
    #: Records pulled from pages across all expansions (incl. re-scans).
    records_scanned: int

    def __len__(self) -> int:
        return len(self.neighbors)

    @property
    def records(self) -> Tuple[Record, ...]:
        """The neighbour records, nearest first."""
        return tuple(neighbor.record for neighbor in self.neighbors)

    @property
    def distances(self) -> Tuple[float, ...]:
        """The neighbour distances, ascending."""
        return tuple(neighbor.distance for neighbor in self.neighbors)

    @property
    def pages_read(self) -> int:
        """Total pages touched across all expansions."""
        return self.seeks + self.sequential_reads

    def cost(
        self,
        seek_cost: float = DEFAULT_COST_MODEL.seek_cost,
        read_cost: float = DEFAULT_COST_MODEL.read_cost,
    ) -> float:
        """Simulated elapsed time of the whole search."""
        return CostModel(seek_cost, read_cost).io_cost(
            self.seeks, self.sequential_reads
        )


def knn_search(store, point: Sequence[int], k: int, metric: str = "euclidean"):
    """The ``k`` records of ``store`` nearest to ``point`` under ``metric``.

    Expanding curve-range search: scan the box of Chebyshev radius
    ``r`` around ``point`` (clipped to the universe) through the
    store's query path, keep the best ``k`` candidates, and stop once
    the ``k``-th best distance ``d_k`` is ``< r + 1`` (nothing outside
    the box can beat it) or the box covers the whole universe.  The
    next radius is ``min(2r, floor(d_k))`` with ``k`` candidates in
    hand, else ``2r`` (also when ``2r`` reaches the whole universe).
    Candidates are ranked by exact integer distance and ties break on
    the candidate's cell coordinates, so results are deterministic
    across stores and shard counts.  Only ``store.curve`` and
    ``store.execute`` are used.
    """
    try:
        k = operator.index(k)
    except TypeError:
        raise InvalidQueryError(f"k must be an integer, got {k!r}") from None
    if k < 0:
        raise InvalidQueryError(f"k must be >= 0, got {k}")
    if metric not in METRICS:
        raise InvalidQueryError(f"metric must be one of {METRICS}, got {metric!r}")
    curve = store.curve
    side, dim = curve.side, curve.dim
    cell = check_cell(point, side, dim)

    seeks = sequential = expansions = scanned = 0
    # (exact distance, cell, position in the scan, record): the position
    # keeps equal points in scan order without ever comparing records.
    best: List[Tuple[int, Tuple[int, ...], int, Record]] = []
    started = time.perf_counter() if _OBS_METRICS.enabled else 0.0
    with _obs_span("knn", kind="query") as sp:
        if k > 0:
            # From this radius on, the clipped box is the whole universe.
            whole = max(max(c, side - 1 - c) for c in cell)
            radius = 1
            while True:
                lo = tuple(max(0, c - radius) for c in cell)
                hi = tuple(min(side - 1, c + radius) for c in cell)
                result = store.execute(Query.rect(Rect(lo, hi)))
                expansions += 1
                seeks += result.seeks
                sequential += result.sequential_reads
                scanned += len(result.records) + result.over_read
                best = heapq.nsmallest(
                    k,
                    (
                        (_exact_distance(record.point, cell, metric), record.point, i, record)
                        for i, record in enumerate(result.records)
                    ),
                )
                if radius >= whole:
                    break  # the box is the whole universe; nothing is missing
                grown = 2 * radius
                if len(best) == k:
                    # Records sit on integer cells, so every one outside
                    # the box is at distance >= radius + 1, and every one
                    # no farther than the k-th lies in the box of radius
                    # floor(d_k).
                    reach = best[-1][0]
                    if metric == "euclidean":
                        reach = math.isqrt(reach)
                    if reach <= radius:
                        break
                    # The whole universe is one key run that reads each
                    # page once; a clipped box just short of it can split
                    # into runs that re-read shared pages, so the doubled
                    # box stands.
                    if grown < whole:
                        grown = min(grown, reach)
                radius = grown
        sp.set("k", k)
        sp.set("metric", metric)
        sp.set("expansions", expansions)
        sp.set("seeks", seeks)
        sp.set("sequential_reads", sequential)
        sp.set("records_scanned", scanned)
    if _OBS_METRICS.enabled:
        _KNN_QUERIES.inc()
        _KNN_EXPANSIONS.inc(expansions)
        _KNN_LATENCY.observe(time.perf_counter() - started)
    return KNNResult(
        point=cell,
        neighbors=tuple(
            Neighbor(record, math.sqrt(d) if metric == "euclidean" else float(d))
            for d, _, _, record in best
        ),
        metric=metric,
        seeks=seeks,
        sequential_reads=sequential,
        expansions=expansions,
        records_scanned=scanned,
    )
