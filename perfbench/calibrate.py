"""Host speed reference: a fixed piece of work timed between operations.

A shared machine runs the same code faster or slower from second to second
and from minute to minute.  Each pass times this reference (which never
touches eprtraj) between its operations, about every REFERENCE_EVERY_S of
operation time, and the runner scales every measured time of a run by
``NOMINAL_S / median reference time`` over the run.  A slower host slows the
reference and the operations alike, so the scaled times stay put; a slower
eprtraj slows only the operations, so the scaled times grow with it.  The
reference mixes what the passes spend their time on: NumPy array maths,
Python loops that build small objects and a dict, and float formatting
into text.
"""

from __future__ import annotations

import gc
import math
from time import perf_counter

import numpy as np

# About the median reference time on the machine the benchmark was tuned on
# (2 shared vCPUs, Python 3.11; it ranged over 25-50 ms there).  Any fixed
# value works, as long as the parent and the change use the same one.
NOMINAL_S = 0.035
REFERENCE_EVERY_S = 0.4


def _reference() -> int:
    """About 30-45 ms of work, in small pieces so that it adds little to peak RSS."""
    xs = np.linspace(0.0, 100.0, 8_000)
    total = 0
    for _ in range(6):
        ys = xs * (1.0 + 0.5 * np.sin(2.0 * xs + 0.3)) / (1.0 + 0.25 * np.cos(2.0 * xs))
        pairs = zip(xs[:2_000].tolist(), ys[:2_000].tolist())
        rows = [(x, y, i) for i, (x, y) in enumerate(pairs)]
        total += len("\n".join(f"{x:.9g},{y:.9g},{i}" for x, y, i in rows))
        acc = 0.0
        for i in range(2_000):
            acc += math.cos(0.001 * i) * math.sqrt(i + 1.0)
        table = {i: (float(i), str(i)) for i in range(8_000)}
        total += int(acc) + len(table)
    return total


def reference_seconds() -> float:
    """One timing of the reference work.

    The cyclic garbage collector is off meanwhile, so the timing does not
    depend on how many objects the pass holds.
    """
    gc.disable()
    try:
        start = perf_counter()
        _reference()
        return perf_counter() - start
    finally:
        gc.enable()
