"""Bracketed root refinement, every bracket of a call at once."""

from __future__ import annotations

import math

import numpy as np


def bisect_root(f, lo, hi, xtol: float = 1e-10) -> np.ndarray:
    """Midpoints of the brackets ``[lo[i], hi[i]]`` bisected to width ``xtol``.

    ``f`` maps arrays to arrays and has strictly opposite signs at ``lo[i]``
    and ``hi[i]``.  All brackets are halved together, one ``f`` call per step,
    as often as the widest needs; bisection never leaves a bracket, however
    steep ``f`` is near a node.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    neg_lo = f(lo) < 0.0
    for _ in range(math.ceil(math.log2(max(np.max(hi - lo, initial=0.0) / xtol, 1.0)))):
        mid = 0.5 * (lo + hi)
        right = (f(mid) < 0.0) == neg_lo
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    return 0.5 * (lo + hi)
