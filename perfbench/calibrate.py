"""The reference loop that every benchmark time is scaled by.

On a shared machine a core's speed for plain Python shifts by tens of
percent for seconds at a time (another tenant on the sibling hardware thread,
for one).  The benchmark therefore times this fixed loop, which uses no
library code, right before and after the work it measures, in the same
process, and reports ``raw time * REF_S / reference time``: the time the
work would take on a machine where the loop takes REF_S.  A change to the
library moves the scaled time exactly as much as the raw time; a change in
the machine's speed moves both the work and the loop, and cancels.
"""

from __future__ import annotations

import gc
import math
from time import perf_counter

REF_S = 0.0125  # nominal duration of one reference loop


def reference_kernel(rounds: int = 4_000) -> int:
    """Dict, tuple, set, sort, bit and big-integer operations, and many small
    objects kept alive, as the library's hot loops do."""
    acc = 0
    seen: dict = {}
    pool: set = set()
    kept = []
    for i in range(rounds):
        key = (i % 97, i % 89)
        seen[key] = seen.get(key, 0) + 1
        mask = (i * 2654435761) & 0xFFFF
        acc += (mask & -mask).bit_length() + len(sorted((mask >> k) & 7 for k in range(0, 16, 4)))
        columns = (tuple(range(i % 7, i % 7 + 4)), (i, i + 1), (mask, i % 13))
        kept.append(columns)
        pool.add(columns)
        if i % 50 == 0:
            acc += math.comb(60 + i % 20, 25) % 1_000_003
    kept.sort()
    return acc + len(seen) + len(pool)


def time_reference() -> float:
    """Seconds for one reference loop, with the cyclic collector paused so a
    large heap left by the measured work does not slow the loop itself."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
