"""How fast the host runs right now, from a fixed reference kernel.

The benchmark's host is shared: its speed drifts by up to 2x over
seconds to minutes, and every operation of the store slows with it.  A
run therefore times :func:`reference_s` — a fixed pure-Python kernel
shaped like the store's hot path (a containment test over a few
thousand point tuples, appending the hits) and sharing no code with the
store — between its operations.  The run's *pace* is the median of its
kernel times over :data:`REFERENCE_S`, a round figure near the kernel's
fastest time on a 2-core 2.1 GHz Xeon.  A change to the store cannot
change the kernel, so it moves the scaled times as it moves the raw
ones.

The store follows the kernel only in part: its fsyncs, file reads and
thread hand-offs do not speed up or slow down with the CPU.  On a
2-core Xeon, ten runs made while the kernel ran about 1.7x faster than
in ten runs before them came out up to 23% dearer once divided by the
full pace, while runs inside one slow spell, so divided, agreed
within 5%.  Times are therefore divided by the pace raised to
:data:`EXPONENT`, which halves (on a log scale) both the host's drift
and the kernel's overshoot.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import List, Sequence, Tuple

__all__ = ["REFERENCE_S", "EXPONENT", "reference_s", "pace", "scale"]

#: A round figure near the kernel's fastest time on a 2-core 2.1 GHz Xeon.
REFERENCE_S = 0.005
#: The power of the pace a time is divided by (see above).
EXPONENT = 0.5

_RNG = random.Random(0)
_POINTS: List[Tuple[int, int]] = [(_RNG.randrange(256), _RNG.randrange(256)) for _ in range(6_000)]
_LO = (40, 30)
_HI = (200, 180)


def _kernel() -> int:
    hits = []
    for point in _POINTS:
        if all(lo <= c <= hi for c, lo, hi in zip(point, _LO, _HI)):
            hits.append((point, len(hits)))
    return len(hits)


def reference_s() -> float:
    """Seconds one pass of the reference kernel takes now.

    The collector is held off for the pass, so the store's heap cannot
    lend the kernel a collection it did not cause.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def pace(samples: Sequence[float]) -> float:
    """The host's slowness over ``samples`` kernel times: their median
    over :data:`REFERENCE_S` (2.0: twice as slow as the reference)."""
    return statistics.median(samples) / REFERENCE_S


def scale(seconds: float, slowness: float) -> float:
    """``seconds`` measured at pace ``slowness``, brought to the
    reference speed."""
    return seconds / slowness**EXPONENT
