"""The machine's current speed, from a fixed pure-Python reference loop.

A shared host's speed can swing by up to 2x within seconds and drift over
minutes, with no steal time for the guest to see: code simply runs slower.
A timing taken on its own then measures the host as much as the program. The benchmark therefore times this loop right before and
right after every timed operation and scales the operation's time to a
machine on which the loop takes ``REF_S``:

    scaled = measured * REF_S / (mean of the loop's two adjacent times)

The loop does the kind of work the program's interpreter-bound layers do:
small dicts, float arithmetic and comparisons, float formatting and
parsing. It touches no part of ``ergokit``, so a change to the program
cannot change it. It keeps nothing alive and runs with the garbage
collector off: a collection inside it would walk whatever heap the last
operation left, and made single timings swing by 40 %.
"""
from __future__ import annotations

import gc
import time

#: Iterations of the reference loop; about 0.2 s on the reference machine.
#: The host's speed flips between a fast and a slow state every few tenths
#: of a second, so a shorter loop samples one state and not the mix the
#: operation next to it ran under.
REF_ITERATIONS = 128_000
#: The loop's time on the reference machine, in seconds: the 2-core VM of
#: perfbench/README.md at its median speed. Scaled times are seconds on a
#: machine that runs the loop in exactly this time.
REF_S = 0.200


def reference_loop(n: int = REF_ITERATIONS) -> int:
    total = 0
    for i in range(n):
        angle = (i % 180) - 45.0
        row = {"angle": angle, "text": f"{angle * 0.37:.3f}"}
        score = 1 if row["angle"] < 20.0 else 2 if row["angle"] < 45.0 else 3
        total += score + (float(row["text"]) > 0.0)
    return total


def reference_seconds() -> float:
    """One timing of the reference loop, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(ref_before: float, ref_after: float) -> float:
    """What a time measured between two timings of the loop is multiplied
    by to give seconds on the reference machine."""
    return REF_S / ((ref_before + ref_after) / 2.0)
