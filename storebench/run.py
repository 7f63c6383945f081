"""Run the spatial-store benchmark and print its metrics.

From the repository root::

    python3 storebench/run.py --workload range-2d --seed 1 --seconds 20 --trace 0
    python3 storebench/run.py --workload all --seed 1 --seconds 20 --trace 1

A run makes a fixed number of rounds, about ``--seconds`` worth on a
2-core 2.1 GHz Xeon; each round replays the seed's operation stream on
a fresh store.  The host's speed drifts, so every time is divided by
the square root of the run's *pace* — how much slower than its
reference time a fixed kernel, timed between the operations, ran (see
``storebench/pace.py``); the pace and the unscaled times are printed
too.  ``--trace 0`` measures the end-to-end
metrics, ``--trace 1`` traces every other operation and reports the per-layer
metrics, the tracing overhead and each layer's share of the measured
time, and writes every span to
``.storebench/trace-<workload>-seed<n>.json``.  The overhead compares
traced operations with the untraced ones of the same rounds, which run
through the same wrapped methods with tracing switched off: the cost of
a switched-off wrapper is not in it.
``--workload all`` runs every workload in its own process, one after
another.  Every line is human-readable except the last, which is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The store is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".storebench"
WORKLOADS = ("range-2d", "knn-3d", "ingest-durable", "sharded-range")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _table(title: str, rows, units) -> None:
    print(title)
    print(f"  {'metric':34} {'value':>16} {'unit':>6} {'n':>7}  beyond")
    for name, entry in rows.items():
        beyond = entry.get("beyond")
        print(
            f"  {name:34} {entry['value']:16.6g} {units[name]:>6} {entry['n']:7d}"
            + (f"  {beyond}" if beyond is not None else "")
        )


def run_one(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from storebench import tracing, workloads
        from storebench.pace import pace
        from storebench.stats import percentile, stamp
    except ImportError as exc:
        print(f"storebench: cannot import the store from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    spec = workloads.SPECS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    try:
        tally, tracer = workloads.run(spec, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    header = {
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": stamp(ROOT),
    }
    print(f"# storebench {spec.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# " + " ".join(f"{key}={value}" for key, value in header["stamp"].items()))
    rounds = len(tally.latencies)
    kernel = tally.kernel_s
    print(
        f"# host pace {pace(kernel):.3f} (1 = the reference speed) over {len(kernel)} kernel"
        f" timings, {min(kernel) * 1e3:.3f}-{max(kernel) * 1e3:.3f} ms"
    )
    raw = [ms for row in tally.latencies for ms in row]
    print(
        f"# unscaled: op p50 {percentile(raw, 50):.4g} ms, p99 {percentile(raw, 99):.4g} ms"
        f" over {len(raw)} samples; set-up median {statistics.median(tally.setup_s):.4g} s"
    )
    if tracer is None:
        metrics = workloads.end_to_end(tally)
        _table(
            f"end-to-end ({rounds} rounds; times scaled by the host pace):",
            metrics,
            dict(workloads.END_TO_END),
        )
    else:
        metrics = workloads.per_layer(tally, tracer)
        _table(
            f"per layer ({rounds} rounds, every other operation traced):",
            metrics,
            dict(workloads.PER_LAYER),
        )
        print("time shares of measured ops (self time per span):")
        for name, share in tracing.time_shares(tracer):
            print(f"  {name:34} {share * 100:7.2f} %")
        path = OUT / f"trace-{spec.name}-seed{args.seed}.json"
        tracer.write(path, header)
        print(f"# {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    ratio = tally.failed / tally.attempted
    print(f"fail_ratio {tally.failed}/{tally.attempted} = {ratio:.6g}")
    for problem in tally.problems:
        print(f"  FAIL {problem}")
    units = dict(workloads.END_TO_END if tracer is None else workloads.PER_LAYER)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": entry["value"], "unit": units[name]}
            for name, entry in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a child process of its own (peak RSS is per
    process); the last line sums the outcomes and prefixes each metric
    with its workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"storebench: {workload} exited with {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
