"""Tests of the benchmark's own code: percentiles, oracles, and a
tiny-scale run of every workload."""

from __future__ import annotations

import gc
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.api.knn import KNNResult, Neighbor  # noqa: E402
from repro.engine.executor import Record  # noqa: E402

from storebench import oracles, pace, tracing, workloads  # noqa: E402
from storebench.stats import percentile, summarize  # noqa: E402

#: Workload sizes small enough for a test run of a few seconds.
TINY = {
    "range-2d": dict(points=400, ops=30),
    "knn-3d": dict(points=400, ops=20),
    "ingest-durable": dict(points=400, ops=60),
    "sharded-range": dict(points=400, ops=30),
}


def test_percentile_is_nearest_rank_on_raw_samples():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 50) == 3.0
    assert percentile(samples, 100) == 5.0
    assert percentile(samples, 20) == 1.0
    assert percentile(samples, 21) == 2.0
    # Not a histogram bucket: a 30% step is visible, not rounded to 2x.
    assert percentile([1.0] * 98 + [1.3, 1.3], 99) == 1.3
    assert percentile(list(range(1, 1001)), 99) == 990


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_summarize_counts_samples_beyond():
    summary = summarize([float(i) for i in range(1, 1001)], 99)
    assert summary == {"value": 990.0, "n": 1000, "beyond": 10}


def test_pace_is_the_median_kernel_time_over_the_reference_and_scales_times():
    reference = pace.REFERENCE_S
    assert pace.pace([reference, 3 * reference, 2 * reference]) == pytest.approx(2.0)
    assert pace.pace([reference / 2, reference / 2]) == pytest.approx(0.5)
    assert pace.scale(2.0, 1.0) == 2.0
    assert pace.scale(2.0, 4.0) == pytest.approx(2.0 / 4.0**pace.EXPONENT)


def test_reference_kernel_keeps_the_collector_state():
    assert gc.isenabled()
    assert pace.reference_s() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        pace.reference_s()
        assert not gc.isenabled()
    finally:
        gc.enable()


def _records(points, ids):
    return [Record(tuple(int(c) for c in points[i]), int(i)) for i in ids]


def test_range_oracle_catches_wrong_answers():
    points = np.array([[0, 0], [3, 4], [5, 5], [9, 9], [4, 4]])
    expected = oracles.range_ids(points, (2, 2), (6, 6))
    assert expected.tolist() == [1, 2, 4]
    good = _records(points, [4, 1, 2])
    assert oracles.range_matches(good, expected, points)
    assert not oracles.range_matches(good[:2], expected, points)
    assert not oracles.range_matches(_records(points, [1, 2, 3]), expected, points)
    moved = good[:2] + [Record((6, 6), 2)]
    assert not oracles.range_matches(moved, expected, points)
    live = np.array([True, True, False, True, True])
    assert oracles.range_ids(points, (2, 2), (6, 6), live).tolist() == [1, 4]


def _knn_result(cell, neighbors):
    return KNNResult(
        point=cell,
        neighbors=tuple(neighbors),
        metric="euclidean",
        seeks=0,
        sequential_reads=0,
        expansions=1,
        records_scanned=len(neighbors),
    )


def test_knn_oracle_catches_wrong_answers():
    points = np.array([[0, 0, 0], [1, 0, 0], [0, 2, 0], [3, 3, 3]])
    cell = (0, 0, 0)
    expected = oracles.knn_distances(points, cell, 2)
    assert expected.tolist() == [0.0, 1.0]
    nearest = [Neighbor(Record((0, 0, 0), 0), 0.0), Neighbor(Record((1, 0, 0), 1), 1.0)]
    assert oracles.knn_matches(_knn_result(cell, nearest), expected, points, cell)
    farther = nearest[:1] + [Neighbor(Record((0, 2, 0), 2), 2.0)]
    assert not oracles.knn_matches(_knn_result(cell, farther), expected, points, cell)
    lying = nearest[:1] + [Neighbor(Record((0, 2, 0), 2), 1.0)]
    assert not oracles.knn_matches(_knn_result(cell, lying), expected, points, cell)


def _tiny(name):
    return replace(workloads.SPECS[name], **TINY[name])


def test_recovery_check_catches_a_diverged_store(tmp_path):
    spec = _tiny("range-2d")
    inputs = workloads.make_inputs(spec, seed=4)
    one, _ = workloads.setup(spec, inputs, tmp_path / "one")
    two, _ = workloads.setup(spec, inputs, tmp_path / "two")
    try:
        assert workloads._state(one, spec, inputs.probes) == workloads._state(
            two, spec, inputs.probes
        )
        two.delete(inputs.rows[0], 0)
        assert workloads._state(one, spec, inputs.probes) != workloads._state(
            two, spec, inputs.probes
        )
    finally:
        workloads._close(one)
        workloads._close(two)


def test_transparency_check_catches_a_differing_shard_result(tmp_path):
    spec = _tiny("sharded-range")
    inputs = workloads.make_inputs(spec, seed=5)
    reference, _ = workloads.setup(replace(spec, shards=0), inputs, tmp_path / "ref")
    good = [oracles.fingerprint(reference.range_query(rect)) for _, rect, _ in inputs.stream]
    workloads._close(reference)
    tally = workloads.Tally(fingerprints=dict(enumerate(good)))
    workloads._check_transparency(spec, inputs, tmp_path / "check", tally)
    assert tally.failed == 0
    digest, seeks, pages = good[7]
    tally.fingerprints[7] = (digest, seeks + 1, pages)
    workloads._check_transparency(spec, inputs, tmp_path / "check", tally)
    assert tally.failed == 1
    assert "op 7" in tally.problems[0]


def test_later_rounds_must_reproduce_the_first(tmp_path):
    spec = _tiny("range-2d")
    inputs = workloads.make_inputs(spec, seed=6)
    tally = workloads.Tally()
    workloads.run_round(spec, inputs, tmp_path / "first", tally)
    assert tally.failed == 0, tally.problems
    digest, seeks, pages = tally.fingerprints[3]
    tally.fingerprints[3] = (digest + 1, seeks, pages)
    workloads.run_round(spec, inputs, tmp_path / "second", tally)
    assert tally.failed == 1
    assert "op 3" in tally.problems[0]


def test_rounds_are_fixed_by_the_arguments_and_even():
    spec = workloads.SPECS["range-2d"]
    assert workloads.rounds_for(spec, 0) == workloads.MIN_ROUNDS
    for seconds in (1, 7, 20, 33):
        rounds = workloads.rounds_for(spec, seconds)
        assert rounds % 2 == 0 and rounds >= workloads.MIN_ROUNDS
        assert rounds == workloads.rounds_for(spec, seconds)
    assert workloads.rounds_for(spec, 40) > workloads.rounds_for(spec, 20)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_emits_every_metric(name, tmp_path):
    spec = _tiny(name)
    tally, tracer = workloads.run(spec, seed=2, seconds=0, trace=False, work=tmp_path)
    assert tally.failed == 0, tally.problems
    metrics = workloads.end_to_end(tally)
    assert list(metrics) == [metric for metric, _ in workloads.END_TO_END]
    for metric, entry in metrics.items():
        assert math.isfinite(entry["value"]) and entry["value"] > 0, metric
        assert entry["n"] >= 1

    tally, tracer = workloads.run(spec, seed=2, seconds=0, trace=True, work=tmp_path)
    assert tally.failed == 0, tally.problems
    layers = workloads.per_layer(tally, tracer)
    assert list(layers) == [metric for metric, _ in workloads.PER_LAYER]
    assert all(math.isfinite(entry["value"]) for entry in layers.values())
    shares = dict(tracing.time_shares(tracer))
    assert sum(shares.values()) == pytest.approx(1.0)


def test_benchmark_json_declares_the_reported_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(
        workloads.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(
        workloads.PER_LAYER
    )
    assert [w["name"] for w in declared["workloads"]] == list(workloads.SPECS)
