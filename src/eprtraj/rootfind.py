"""Bracketed root refinement, every bracket of a call at once."""

from __future__ import annotations

import numpy as np

ROOT_XTOL = 1e-10
N0 = 5  # ITP's n0: a bracket takes at most its bisection count + N0 steps


def bisect_root(f, lo, hi, f_lo, *columns, seed=np.nan):
    """Roots of ``f`` in the brackets ``[lo[i], hi[i]]``, each closed to width ``ROOT_XTOL``.

    ``f(x, *columns)`` gives ``f(x)`` and the Newton step ``f(x) / f'(x)``; ``f_lo``, ``f``
    at ``lo``, has the strictly opposite sign to ``f`` at ``hi``.  ITP steps (Oliveira &
    Takahashi, ACM TOMS 2020; n0 = N0) refine all open brackets with one ``f`` call per
    step, each within its bisection count + N0 steps.  The interpolant is ``seed`` (by
    default, or outside the bracket: the midpoint), then Newton's estimate from the previous
    iterate (not finite: the midpoint); iterates stay ``ROOT_XTOL / 2`` inside their bracket.  A
    root is the Newton estimate from its iterate of least ``|f|``, clipped into its final
    bracket.  ``columns`` (one value per bracket) ride with the open ones into ``f``.
    """
    roots, todo, best = np.empty(len(lo)), np.arange(len(lo)), np.full(len(lo), np.inf)
    est, x_t = np.full(len(lo), np.nan), np.where((lo < seed) & (seed < hi), seed, np.nan)
    # the radius of step j is slack 2^-j - width / 2, slack = ROOT_XTOL 2^(bisections + N0 - 1)
    slack = ROOT_XTOL * 2.0 ** (np.ceil(np.log2(np.maximum((hi - lo) / ROOT_XTOL, 1.0))) + N0 - 1)
    last = 1 + int(np.max(np.log2(slack / ROOT_XTOL), initial=0.0))
    for j in range(last + 1):
        done = (hi - lo <= ROOT_XTOL) | (j == last)
        if done.any():  # closed brackets leave the arrays
            e, a, b = est[done], lo[done], hi[done]
            roots[todo[done]] = np.where(np.isfinite(e), np.clip(e, a, b), 0.5 * (a + b))
            todo, lo, hi, f_lo, x_t, best, est, slack, *columns = (
                v[~done] for v in (todo, lo, hi, f_lo, x_t, best, est, slack, *columns))
        if not todo.size:
            break
        width = hi - lo
        mid, r = lo + 0.5 * width, slack * 0.5 ** j - 0.5 * width
        x = np.clip(np.where(np.isfinite(x_t), x_t, mid), np.maximum(mid - r, lo + 0.5 * ROOT_XTOL),
                    np.minimum(mid + r, hi - 0.5 * ROOT_XTOL))
        fx, step = f(x, *columns)
        x_t = x - step
        best, est = np.minimum(best, np.abs(fx)), np.where(np.abs(fx) < best, x_t, est)
        right = (fx < 0.0) == (f_lo < 0.0)
        lo, hi, f_lo = np.where(right, x, lo), np.where(right, hi, x), np.where(right, fx, f_lo)
    return roots
