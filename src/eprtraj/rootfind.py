"""Bracketed root refinement, every bracket of a call at once."""

from __future__ import annotations

import numpy as np

ROOT_XTOL = 1e-10


def bisect_root(f, lo, hi, xtol: float = ROOT_XTOL) -> np.ndarray:
    """Midpoints of the brackets ``[lo[i], hi[i]]`` narrowed to width ``xtol``.

    ``f`` maps arrays to arrays and has strictly opposite signs at ``lo[i]``
    and ``hi[i]``.  ITP steps (Oliveira & Takahashi, ACM TOMS 2020; k1 = 0.2 /
    width, k2 = 2, n0 = 1) refine all open brackets together, one ``f`` call
    per step, each bracket in at most its bisection count + 1 steps.  Iterates
    stay ``xtol / 2`` inside their bracket, so one that has met the root at
    one end closes in the next step.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    f_lo, f_hi = np.split(f(np.concatenate((lo, hi))), [len(lo)])
    roots, todo, k1 = np.empty(len(lo)), np.arange(len(lo)), 0.2 / (hi - lo)
    # the radius of step j is slack 2^-j - width / 2, slack = xtol 2^(bisection steps)
    slack = xtol * 2.0 ** np.ceil(np.log2(np.maximum((hi - lo) / xtol, 1.0)))
    n_max = 1 + int(np.max(np.log2(slack / xtol), initial=0.0))
    for j in range(n_max):
        done = hi - lo <= xtol
        if done.any():  # closed brackets leave the arrays
            roots[todo[done]] = 0.5 * (lo[done] + hi[done])
            todo, lo, hi, f_lo, f_hi, k1, slack = (
                v[~done] for v in (todo, lo, hi, f_lo, f_hi, k1, slack))
        if not todo.size:
            break
        width = hi - lo
        mid = lo + 0.5 * width
        x_f = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        sigma, delta = np.sign(mid - x_f), k1 * width * width
        x_t = np.where(delta <= np.abs(mid - x_f), x_f + sigma * delta, mid)
        r = slack * 0.5 ** j - 0.5 * width
        x = np.clip(np.where(np.abs(x_t - mid) <= r, x_t, mid - sigma * r),
                    lo + 0.5 * xtol, hi - 0.5 * xtol)
        fx = f(x)
        right = (fx < 0.0) == (f_lo < 0.0)
        lo, hi = np.where(right, x, lo), np.where(right, hi, x)
        f_lo, f_hi = np.where(right, fx, f_lo), np.where(right, f_hi, fx)
    roots[todo] = 0.5 * (lo + hi)
    return roots
