"""Host speed, for reporting times at a fixed reference speed.

On a shared host, for seconds to minutes at a time, the same op doing the
same work runs up to twice as slow, and the fastest of a few rounds cannot
filter out a slow phase that covers a whole run.  So the benchmark also
times a fixed pure-Python workload of tuple hashing and dict lookups next
to the ops it measures, and scales every time by REFERENCE_S / (that
workload's median time).  A slow phase slows both alike, and the scaled
times read as they would on a host where the workload takes REFERENCE_S.
The workload is the benchmark's own code, so a change to `lambek` cannot
move it.
"""
from __future__ import annotations

import gc
import statistics
import time

# the workload's median time on an uncontended 2-core Intel Xeon VM, CPython 3.11
REFERENCE_S = 0.000058


_KEYS = [(i % 89, (i * 7) % 61, i & 3) for i in range(1000)]
_TABLE = dict.fromkeys(_KEYS, 1)


def _spin() -> int:
    total = 0
    for key in _KEYS:
        total += _TABLE[key] + key[2]
    return total


def sample() -> float:
    """Seconds for one run of the reference workload.

    The workload allocates nothing, runs once untimed to load its table into
    the caches, and pauses the collector, so that the state of the measured
    process (its heap, its caches, its live objects) barely moves it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _spin()
        start = time.perf_counter()
        _spin()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def burst() -> float:
    """One reading: the median of three samples, which drops a sample that
    an interrupt or a context switch happened to hit."""
    return statistics.median(sample() for _ in range(3))


def factor(samples: list[float]) -> float:
    """Multiply a time measured next to these samples by this to scale it."""
    return REFERENCE_S / statistics.median(samples)
