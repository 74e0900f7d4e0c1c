"""The host's current speed, read from a fixed loop run between ops.

The machines this benchmark runs on are shared, and their speed for
single-threaded Python drifts over tens of seconds: on a 2-core 2.1 GHz
container a fixed loop ran 46 to 76 times per second within one minute,
at full CPU share.  A ten-second run cannot average that out, so every
timing is scaled to a reference speed: it is multiplied by `REFERENCE_S`
over the time the loop below took around it.  The loop hashes and looks
up pairs of `Fraction`s, the work that dominates the engine's
best-response caches, then builds small objects, tuples and dict entries,
the work that dominates the law checks, so it slows down with both.
Alternating a fixed 4x3 normal-form solve with a three-trial `og laws` on
that container for 100 s, the medians of fifteen consecutive ops of one
kind ranged over 0.87-1.90 times their overall median raw, and over
0.90-1.13 times scaled.

The loop uses only the standard library, so no change to the engine can
move it.  A scaled time reads as "milliseconds on a host where one sample
takes `REFERENCE_S`", which is about the speed of that container.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.001

_PAIRS = [
    (Fraction(a, d), Fraction(b, d))
    for d in (1, 2, 3, 4)
    for a in range(-5, 6)
    for b in range(-5, 6)
]
_TABLE = dict.fromkeys(_PAIRS, 0)


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _loop():
    for pair in _PAIRS:
        _TABLE[pair]
    cells = {}
    for i in range(700):
        cell = _Cell(i % 50, (i, i + 1))
        cells[cell.key, cell.value] = cell
        cells[i % 7] = tuple(range(i % 7))
    return len(cells)


def sample() -> float:
    """Seconds for one pass of the loop: higher means a slower host right now.

    The collector is paused for the pass, so the sample does not depend on
    how much garbage the ops before it left behind.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _loop()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def scales(samples, count):
    """Scale factor for each of `count` ops, where op i ran between samples i and i+1.

    Each factor uses the median of the six samples nearest the op, so one
    disturbed sample does not move it.
    """
    return [
        REFERENCE_S / statistics.median(samples[max(0, i - 2) : i + 4])
        for i in range(count)
    ]
