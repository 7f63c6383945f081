"""Exact percentiles from raw samples, and the stamp every result carries.

Percentiles are taken by the nearest-rank rule on the sorted raw
samples, so every reported value is one that was actually measured — no
histogram buckets, no interpolation.  Each summary keeps its sample
count and how many samples lie beyond it, which is what says whether a
tail percentile is supported by the data.
"""

from __future__ import annotations

import math
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, Sequence

__all__ = ["percentile", "summarize", "stamp"]


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q <= 100) of ``samples``, nearest rank.

    The value at rank ``ceil(q / 100 * n)`` of the ascending samples:
    the smallest sample with at least ``q`` percent of the samples at or
    below it.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def summarize(samples: Sequence[float], q: float) -> Dict[str, float]:
    """``{"value", "n", "beyond"}`` of the ``q``-th percentile of ``samples``.

    ``beyond`` counts the samples strictly above the reported value.
    """
    value = percentile(samples, q)
    return {
        "value": value,
        "n": len(samples),
        "beyond": sum(1 for sample in samples if sample > value),
    }


def _git_sha(root: Path) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def stamp(root: Path) -> Dict[str, object]:
    """What a result was measured on: code version, interpreter, machine."""
    import numpy

    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }
