"""Brute-force answers the benchmark checks the store's outputs against.

Every oracle works on the raw generated arrays with numpy and never
touches the store, so a wrong answer from any layer under test — curve,
planner, executor, scatter, WAL replay — shows up as a mismatch.
Records carry their row index as payload, which is how results are
matched back to the generated points.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple

import numpy as np

__all__ = [
    "range_ids",
    "range_matches",
    "knn_distances",
    "knn_matches",
    "fingerprint",
]


def range_ids(points: np.ndarray, lo: Sequence[int], hi: Sequence[int], live=None):
    """Ascending row ids of ``points`` inside the inclusive box ``[lo, hi]``.

    ``live`` optionally masks out deleted rows.
    """
    inside = np.all((points >= np.asarray(lo)) & (points <= np.asarray(hi)), axis=1)
    if live is not None:
        inside &= live
    return np.flatnonzero(inside)


def range_matches(records: Iterable, expected_ids: np.ndarray, points: np.ndarray) -> bool:
    """Whether ``records`` are exactly the rows ``expected_ids``, each at
    its generated point."""
    records = list(records)
    if len(records) != len(expected_ids):
        return False
    if not records:
        return True
    ids = np.fromiter((record.payload for record in records), dtype=np.int64, count=len(records))
    if not np.array_equal(np.sort(ids), expected_ids):
        return False
    got = np.array([record.point for record in records], dtype=np.int64)
    return bool(np.array_equal(got, points[ids]))


def knn_distances(points: np.ndarray, cell: Sequence[int], k: int, live=None) -> np.ndarray:
    """The ``k`` smallest Euclidean distances from ``cell`` to ``points``,
    ascending."""
    deltas = points - np.asarray(cell)
    squared = np.einsum("ij,ij->i", deltas, deltas)
    if live is not None:
        squared = squared[live]
    k = min(k, len(squared))
    return np.sqrt(np.sort(np.partition(squared, k - 1)[:k]).astype(np.float64))


def knn_matches(result, expected: np.ndarray, points: np.ndarray, cell: Sequence[int]) -> bool:
    """Whether a kNN ``result`` returns the oracle's distances, and every
    neighbour is a real row at the distance it reports."""
    if tuple(result.distances) != tuple(expected.tolist()):
        return False
    for neighbor in result.neighbors:
        point = tuple(points[neighbor.record.payload])
        if point != neighbor.record.point:
            return False
        if math.sqrt(sum((a - b) ** 2 for a, b in zip(point, cell))) != neighbor.distance:
            return False
    return True


def fingerprint(result) -> Tuple[int, int, int]:
    """``(hash of payloads in returned order, seeks, pages)`` of a range
    result: equal fingerprints mean the same rows in the same order at
    the same simulated I/O."""
    return (
        hash(tuple(record.payload for record in result.records)),
        result.seeks,
        result.pages_read,
    )
