"""Summary statistics for the benchmark's samples, and the calibration
that scales CPU times to a reference speed."""

from __future__ import annotations

import math
import statistics
from time import process_time

# CPU seconds the calibration loop takes at the reference speed: roughly its
# median on the machine the benchmark was tuned on. Every sample is scaled
# by REFERENCE_S / (the mean calibration time just before and after it),
# which takes out most of the drift in the machine's speed (on a shared
# virtual machine, CPU times of the same call moved by up to 2x between 5 s
# windows). A change to the program does not move the loop, so it moves the
# scaled times in full.
REFERENCE_S = 0.0113


def calibration_loop() -> float:
    """CPU seconds of a fixed piece of interpreter work in two halves, like
    the package's own: building sets and dicts of 10000 ints and sorting
    them (allocation, a working set of about a megabyte), then lookups and
    integer arithmetic in a small dict (no allocation). Allocation-heavy
    and compute-only calls drift differently on a shared machine; the sum
    follows both."""
    t0 = process_time()
    seen: set[int] = set()
    index: dict[int, int] = {}
    for i in range(10000):
        seen.add(i * 7919 % 1000003)
        index[i] = len(seen)
    sorted(seen, reverse=True)
    frozenset(index)
    small = {i: i for i in range(512)}
    acc = 0
    for i in range(30000):
        acc += small[i & 511] ^ (i >> 3)
    return process_time() - t0


def median(values) -> float:
    return statistics.median(values)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def loglog_slope(sizes, times) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
