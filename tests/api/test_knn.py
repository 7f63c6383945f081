"""kNN differential tests: expanding range search vs a brute-force oracle.

Every configuration — curves × dimensions (2-d and 3-d) × k × metric ×
shard counts — must return exactly the distances a brute-force scan of
all stored records produces, in ascending order, with deterministic tie
breaking shared by single and sharded stores.
"""

import math

import numpy as np
import pytest

from repro.api import KNNResult, Query, knn_search
from repro.curves import make_curve
from repro.errors import InvalidQueryError, OutOfUniverseError
from repro.geometry import Rect
from repro.index import SFCIndex, ShardedSFCIndex

SIDE = {2: 16, 3: 8}


def _points(side, dim, count, seed):
    rng = np.random.default_rng(seed)
    return [tuple(map(int, p)) for p in rng.integers(0, side, size=(count, dim))]


def _build(name, dim, shards, seed=11, count=150):
    side = SIDE[dim]
    curve = make_curve(name, side, dim)
    if shards == 1:
        store = SFCIndex(curve, page_capacity=8)
    else:
        store = ShardedSFCIndex(
            curve, num_shards=shards, page_capacity=8, max_workers=0
        )
    store.bulk_load(_points(side, dim, count, seed))
    store.flush()
    return store


def _float_distance(a, b, metric):
    deltas = [abs(int(x) - int(y)) for x, y in zip(a, b)]
    if metric == "euclidean":
        return math.sqrt(sum(d * d for d in deltas))
    if metric == "manhattan":
        return float(sum(deltas))
    return float(max(deltas))


def _brute_force(store, point, k, metric="euclidean"):
    """Oracle: distances of the k nearest records by exhaustive scan."""
    side = store.curve.side
    dim = store.curve.dim
    whole = Rect((0,) * dim, (side - 1,) * dim)
    distances = [
        _float_distance(record.point, point, metric)
        for record in store.range_query(whole).records
    ]
    return sorted(distances)[:k]


class TestAgainstOracle:
    @pytest.mark.parametrize("name", ["onion", "hilbert", "zorder", "rowmajor"])
    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_2d_matches_brute_force(self, name, k):
        store = _build(name, 2, shards=1)
        for point in [(0, 0), (5, 5), (15, 3), (8, 15)]:
            result = store.knn(point, k)
            assert list(result.distances) == pytest.approx(
                _brute_force(store, point, k)
            )
            assert list(result.distances) == sorted(result.distances)

    @pytest.mark.parametrize("name", ["onion", "hilbert", "zorder"])
    @pytest.mark.parametrize("k", [1, 5])
    def test_3d_matches_brute_force(self, name, k):
        store = _build(name, 3, shards=1)
        for point in [(0, 0, 0), (3, 4, 5), (7, 7, 7)]:
            result = store.knn(point, k)
            assert list(result.distances) == pytest.approx(
                _brute_force(store, point, k)
            )

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev"])
    def test_metrics_match_brute_force(self, metric):
        store = _build("onion", 2, shards=1)
        result = store.knn((6, 9), 6, metric=metric)
        assert result.metric == metric
        assert list(result.distances) == pytest.approx(
            _brute_force(store, (6, 9), 6, metric)
        )

    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_sharded_equals_single(self, shards):
        single = _build("onion", 2, shards=1)
        sharded = _build("onion", 2, shards=shards)
        for point in [(2, 2), (10, 13), (15, 0)]:
            a = single.knn(point, 8)
            b = sharded.knn(point, 8)
            assert a.distances == b.distances
            assert [n.record.point for n in a.neighbors] == [
                n.record.point for n in b.neighbors
            ]


class TestSemantics:
    def test_k_larger_than_store_returns_everything(self):
        store = _build("onion", 2, shards=1, count=12)
        result = store.knn((4, 4), 50)
        assert len(result) == len(store)
        assert list(result.distances) == pytest.approx(
            _brute_force(store, (4, 4), 50)
        )

    def test_k_zero_is_empty_and_free(self):
        store = _build("onion", 2, shards=1)
        result = store.knn((4, 4), 0)
        assert result.neighbors == ()
        assert result.expansions == 0
        assert result.pages_read == 0

    def test_empty_store(self):
        store = SFCIndex(make_curve("onion", 8, 2), page_capacity=4)
        result = store.knn((1, 1), 3)
        assert result.neighbors == ()

    def test_exact_hits_and_duplicates_come_first(self):
        store = SFCIndex(make_curve("hilbert", 16, 2), page_capacity=4)
        store.bulk_load([(5, 5), (5, 5), (6, 5), (0, 0)], payloads=["a", "b", "c", "d"])
        result = store.knn((5, 5), 3)
        assert result.distances == (0.0, 0.0, 1.0)
        assert {n.record.payload for n in result.neighbors[:2]} == {"a", "b"}

    def test_expansions_are_logarithmic(self):
        store = _build("onion", 2, shards=1)
        result = store.knn((8, 8), 3)
        assert 1 <= result.expansions <= math.ceil(math.log2(SIDE[2])) + 1

    def test_result_shape(self):
        store = _build("onion", 2, shards=1)
        result = store.knn((3, 3), 2)
        assert isinstance(result, KNNResult)
        assert result.records == tuple(n.record for n in result.neighbors)
        assert result.cost() > 0
        assert result.records_scanned >= len(result)

    def test_invalid_arguments(self):
        store = _build("onion", 2, shards=1)
        with pytest.raises(InvalidQueryError):
            store.knn((1, 1), -1)
        with pytest.raises(InvalidQueryError):
            store.knn((1, 1), 3, metric="cosine")
        with pytest.raises(OutOfUniverseError):
            store.knn((99, 99), 3)

    @pytest.mark.parametrize("k", [2.5, "3", None, 3.0])
    def test_non_integer_k_is_a_typed_error(self, k):
        store = _build("onion", 2, shards=1)
        with pytest.raises(InvalidQueryError, match="k must be an integer"):
            store.knn((1, 1), k)

    def test_numpy_integer_k(self):
        store = _build("onion", 2, shards=1)
        expected = store.knn((4, 4), 3)
        for k in (np.int64(3), np.int32(3), np.uint8(3)):
            assert store.knn((4, 4), k).neighbors == expected.neighbors

    def test_function_form_matches_method(self):
        store = _build("onion", 2, shards=1)
        assert knn_search(store, (4, 4), 3).distances == store.knn((4, 4), 3).distances


# ----------------------------------------------------------------------
# The bounded-radius search against the doubling search it replaced
# ----------------------------------------------------------------------


def _doubling_knn(store, point, k, metric="euclidean"):
    """Reference: radii 1, 2, 4, … until the k-th distance is <= r.

    Returns ``(neighbours, boxes, first_full)``: ``(distance, point,
    payload)`` triples nearest first, the ``(lo, hi)`` box of every
    expansion, and the first expansion whose box held ``k`` records
    (None if none did).
    """
    side, dim = store.curve.side, store.curve.dim
    cell = tuple(point)
    boxes = []
    first_full = None
    best = ()
    radius = 1
    while k > 0:
        lo = tuple(max(0, c - radius) for c in cell)
        hi = tuple(min(side - 1, c + radius) for c in cell)
        result = store.execute(Query.rect(Rect(lo, hi)))
        boxes.append((lo, hi))
        if first_full is None and len(result.records) >= k:
            first_full = len(boxes)
        best = tuple(
            sorted(
                (
                    (_float_distance(record.point, cell, metric), record.point, record)
                    for record in result.records
                ),
                key=lambda entry: entry[:2],
            )[:k]
        )
        if len(best) == k and best[-1][0] <= radius:
            break
        if lo == (0,) * dim and hi == (side - 1,) * dim:
            break
        radius *= 2
    neighbours = [(d, record.point, record.payload) for d, _, record in best]
    return neighbours, boxes, first_full


class _BoxRecorder:
    """The store surface kNN may use, ``curve`` and ``execute``, noting
    the box of every expansion."""

    def __init__(self, store):
        self._store = store
        self.boxes = []

    @property
    def curve(self):
        return self._store.curve

    def execute(self, query):
        self.boxes.append((query.region.lo, query.region.hi))
        return self._store.execute(query)


def _triples(result):
    return [(n.distance, n.record.point, n.record.payload) for n in result.neighbors]


#: Expansions after the first box holding k candidates.  A box of radius
#: r holds candidates up to c·r away (c = 1, √dim, dim for chebyshev,
#: euclidean, manhattan); the box of radius floor(d_k) is the last, and
#: it is at most 2r unless c > 2, i.e. manhattan in 3-d, which needs one
#: doubling first.
_EXTRA_EXPANSIONS = {"chebyshev": 0, "euclidean": 1, "manhattan": {2: 1, 3: 2}}
_CLUSTER_SIDE = {2: 32, 3: 16}


def _clustered_store(name, dim, shards):
    """Three tight clusters in one corner region of the universe, plus the
    query points: far corners, the cluster centres and points beside them."""
    side = _CLUSTER_SIDE[dim]
    rng = np.random.default_rng(29 + dim)
    centers = rng.integers(side // 4, side // 2, size=(3, dim))
    cloud = np.concatenate([rng.normal(c, side / 16, size=(120, dim)) for c in centers])
    points = [tuple(map(int, p)) for p in np.clip(np.rint(cloud), 0, side - 1)]
    curve = make_curve(name, side, dim)
    if shards == 1:
        store = SFCIndex(curve, page_capacity=8)
    else:
        store = ShardedSFCIndex(
            curve, num_shards=shards, page_capacity=8, max_workers=0
        )
    store.bulk_load(points, payloads=list(range(len(points))))
    store.flush()
    top = side - 1
    queries = [(top,) * dim, (0,) * (dim - 1) + (top,), (top,) + (0,) * (dim - 1)]
    for center in centers.tolist():
        queries.append(tuple(center))
        queries.append(tuple(min(top, c + side // 4) for c in center))
    return store, queries


def _check_against_doubling(store, point, k, metric):
    """The search returns the reference's neighbours in its order, plans
    no box larger than the reference's at the same step, and runs at most
    the bounded number of expansions after the first box that held k
    candidates.  Returns ``(result, boxes, reference boxes)``."""
    expected, ref_boxes, first_full = _doubling_knn(store, point, k, metric)
    recorder = _BoxRecorder(store)
    result = knn_search(recorder, point, k, metric=metric)
    assert _triples(result) == expected
    assert result.expansions == len(recorder.boxes) <= len(ref_boxes)
    for (lo, hi), (ref_lo, ref_hi) in zip(recorder.boxes, ref_boxes):
        assert Rect(ref_lo, ref_hi).contains_box(lo, hi)
    if first_full is not None:
        extra = _EXTRA_EXPANSIONS[metric]
        if isinstance(extra, dict):
            extra = extra[store.curve.dim]
        assert result.expansions <= first_full + extra
    return result, recorder.boxes, ref_boxes


class TestAgainstDoublingSearch:
    """Pages read are not compared query by query: a smaller box can split
    into more key runs that re-read the pages they share, so one query
    can read more pages than the larger doubling box did."""

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev"])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("name", ["onion", "hilbert", "zorder"])
    def test_same_neighbours_no_larger_boxes(self, name, dim, metric, shards):
        store, queries = _clustered_store(name, dim, shards)
        boxes, ref_boxes = [], []
        for point in queries:
            for k in (1, 4, 10):
                _, planned, ref_planned = _check_against_doubling(
                    store, point, k, metric
                )
                boxes += planned
                ref_boxes += ref_planned
        if metric == "euclidean":
            # Stopping at d_k < r + 1 instead of d_k <= r saves rounds
            # only where distances fall between lattice steps.
            assert len(boxes) < len(ref_boxes)
        if metric != "chebyshev":
            # floor(d_k) < 2r somewhere: the k-th candidate shrank a box.
            volume = sum(Rect(lo, hi).volume for lo, hi in boxes)
            assert volume < sum(Rect(lo, hi).volume for lo, hi in ref_boxes)

    @pytest.mark.parametrize("shards", [1, 4])
    def test_duplicates_tied_at_the_kth_distance(self, shards):
        curve = make_curve("onion", 16, 2)
        if shards == 1:
            store = SFCIndex(curve, page_capacity=2)
        else:
            store = ShardedSFCIndex(
                curve, num_shards=shards, page_capacity=2, max_workers=0
            )
        points = [(3, 3), (9, 9), (9, 9), (9, 9), (7, 9), (11, 9), (9, 12), (6, 6)]
        store.bulk_load(points, payloads=list("abcdefgh"))
        store.flush()
        for k in range(1, len(points) + 1):
            for metric in ("euclidean", "manhattan", "chebyshev"):
                _check_against_doubling(store, (9, 10), k, metric)
                _check_against_doubling(store, (0, 15), k, metric)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_k_larger_than_store(self, dim):
        store = _build("hilbert", dim, shards=1, count=7)
        for point in [(0,) * dim, (SIDE[dim] - 1,) * dim, (3,) * dim]:
            result, _, _ = _check_against_doubling(store, point, 20, "euclidean")
            assert len(result) == 7

    def test_empty_store(self):
        store = SFCIndex(make_curve("onion", 8, 3), page_capacity=4)
        result, boxes, ref_boxes = _check_against_doubling(
            store, (7, 0, 7), 3, "euclidean"
        )
        assert result.neighbors == ()
        assert boxes == ref_boxes
