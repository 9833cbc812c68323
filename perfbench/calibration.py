"""Machine-speed calibration interleaved with the timed calls.

On a machine whose cores are shared with other tenants, the speed of Python
code swings by a quarter or more, in phases from milliseconds to minutes, and
a swing hits all interpreted code alike. Right after each timed call the
worker runs this fixed exact-arithmetic loop for a set share of the call's
duration, so the loop samples the phase the call ran in. Each call's latency
is then reported in reference seconds: measured seconds × the speed measured
right after it ÷ ``REFERENCE_CHUNKS_PER_S``. The loop is the benchmark's own
code; no change to the package can alter it. The scaling assumes the package
does no work between calls, as none of its code does today: a background
thread or process left running would slow the loop and flatter the figures.
"""
from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# Share of each timed call's duration spent calibrating right after it.
SHARE = 0.25
# Seconds calibrated just before a repetition's interpreter starts and just
# after its set-up ends; set-up time is scaled by the speed over both.
SETUP_BRACKET_S = 0.05
# Chunks per second of the reference machine: about what one core of a
# 2-vCPU cloud VM under Python 3.11 runs when it has the core to itself.
REFERENCE_CHUNKS_PER_S = 3500.0


def _chunk() -> int:
    total = Fraction(0)
    table = {}
    for i in range(1, 60):
        total += Fraction(i % 17 + 1, i % 13 + 2) * Fraction(3, 7)
        table[i % 97, i % 89] = total.numerator % 1000
    return len(table)


def sample(budget: float) -> tuple[int, float]:
    """Run whole chunks until ``budget`` seconds have passed (at least one);
    return the number of chunks and the seconds they took.

    The collector is off meanwhile, so the size of the package's heap cannot
    change how fast the chunks run.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        chunks = 0
        start = perf_counter()
        while True:
            _chunk()
            chunks += 1
            elapsed = perf_counter() - start
            if elapsed >= budget:
                return chunks, elapsed
    finally:
        if enabled:
            gc.enable()


def factor(chunks: int, seconds: float) -> float:
    """Measured speed ÷ reference speed; multiply a measured time by it."""
    return chunks / seconds / REFERENCE_CHUNKS_PER_S
