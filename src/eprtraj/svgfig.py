"""Static SVG rendering of the trajectory figures: a figure is a sweep drawn as SVG.

Figure 1: the motion for beta = 0 (solid) and beta = pi (dashed).
Figure 2: a sweep of eight phase shifts beta = 0, pi/4, ..., 7pi/4, all
solid, filling the confining wedge.

Axes follow the motion's natural reading: time runs along the horizontal
axis, position up the vertical axis.  The time axis spans t = 0 (the launch
point) and every plotted time, negative ones included.
Curves are drawn as single x-parameterized polylines, so retrograde segments double back
leftward; their y cells, shared by every curve, are rendered to text once.  Pixel cells
are ``"%.3f"`` text from a digit table (``_fixed3``), byte for byte what ``%`` writes; a
polyline's text is built and written one curve at a time.  A ``<desc>`` element records the
data-to-pixel calibration for downstream consumers.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# build_trajectory_dataset stays importable here: perfbench/tracing.py wraps it
from .dataset import SweepDataset, build_trajectory_dataset  # noqa: F401

_WIDTH = 720
_HEIGHT = 540
_MARGIN_LEFT = 70.0
_MARGIN_RIGHT = 25.0
_MARGIN_TOP = 25.0
_MARGIN_BOTTOM = 55.0
_MARKER = '<circle cx="%.2f" cy="%.2f" r="3.5" fill="%s"/>'

# figure id: (betas, colours, dash attributes), one of each per curve
FIGURES = {1: ([0.0, math.pi], ["#1f4e9c", "#b23434"], ["", ' stroke-dasharray="6 5"']),
           2: ([j * math.pi / 4.0 for j in range(8)], ["#1f4e9c", "#b23434", "#2c8c50",
               "#8c5f2c", "#6a3d9a", "#2c8c8c", "#a03d6e", "#5f6f2c"], [""] * 8)}


# 0..999 as 4-byte words: the fraction ".%03d", and the integer part "%3d" led by a NUL,
# its leading blanks NUL too
_FRACTION = np.frombuffer(b"".join(b".%03d" % i for i in range(1000)), np.uint32)
_INTEGER = np.frombuffer(b"".join(b"\0%3d" % i for i in range(1000)).replace(b" ", b"\0"),
                         np.uint32)


def _fixed3(v):
    """``b"%.3f" % v`` for each value of the float array ``v``, as the rows of a uint8 matrix
    padded with NUL on the left.  A cell in [0, 1000) is ``rint(1000 v)`` read from the digit
    tables; ``%`` itself writes a cell within 1e-6 of a rounding tie, a negative or -0.0
    one (``-0.000``), and a non-finite one or one that rounds to at least 1000, and the
    matrix widens to the longest of those."""
    table = (v < 1000.0) & ~np.signbit(v)  # False for NaN
    s = np.multiply(np.where(table, v, 0.0), 1000.0)
    r = np.rint(s)
    table &= (np.abs(np.subtract(s, r, out=s), out=s) < 0.5 - 1e-6) & (r < 1e6)
    whole, frac = np.divmod(r.astype(np.intp), 1000, out=(s.view(np.intp), r.view(np.intp)))
    cells = np.stack((_INTEGER.take(whole, mode="clip"), _FRACTION.take(frac, mode="clip")),
                     axis=1).view(np.uint8)  # whole and frac in the float buffers, 8 B a cell
    rest = np.flatnonzero(~table)
    if rest.size:
        texts = [b"%.3f" % x for x in v[rest].tolist()]
        width = max(8, *map(len, texts))
        cells = np.pad(cells, ((0, 0), (width - 8, 0)))
        cells[rest] = np.frombuffer(b"".join(t.rjust(width, b"\0") for t in texts),
                                    np.uint8).reshape(-1, width)
    return cells


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def time_axis(t) -> tuple[float, float]:
    """``(t_lo, t_hi)``: t = 0 and 2 % past every time of ``t``; a span past the float range
    raises ValueError."""
    t_lo = min(0.0, 1.02 * float(t.min()))
    t_hi = max(0.0, 1.02 * float(t.max()))
    if t_hi <= t_lo:
        t_hi = t_lo + 1.0
    if not math.isfinite(t_hi - t_lo):
        raise ValueError(f"the time axis span overflows for t in [{t.min()}, {t.max()}]")
    return t_lo, t_hi


def render_figure(figure_id: int, ds: SweepDataset, turning_points, write) -> None:
    """``write`` figure 1 or 2 as SVG 1.1, one call per curve: ``ds`` sweeps the figure's betas
    on the plotted x-range, ``turning_points`` holds each curve's markers (empty for none)."""
    if figure_id not in FIGURES or ds.betas != FIGURES[figure_id][0]:
        raise ValueError(f"no figure {figure_id} of betas {ds.betas}")
    betas, colors, dashes = FIGURES[figure_id]
    xs, x_min, x_max = ds.xs, float(ds.xs[0]), float(ds.xs[-1])

    t_lo, t_hi = time_axis(ds.t)
    px_left = _MARGIN_LEFT
    px_right = _WIDTH - _MARGIN_RIGHT
    py_bottom = _HEIGHT - _MARGIN_BOTTOM
    py_top = _MARGIN_TOP

    def to_px(t):  # float or array
        return px_left + (t - t_lo) / (t_hi - t_lo) * (px_right - px_left)

    def to_py(x):
        return py_bottom - (x - x_min) / (x_max - x_min) * (py_bottom - py_top)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<desc>t-range {t_lo!r} {t_hi!r} px {px_left!r} {px_right!r} ; '
        f'x-range {x_min!r} {x_max!r} py {py_bottom!r} {py_top!r}</desc>',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        # axes
        f'<line x1="{px_left}" y1="{py_bottom}" x2="{px_right}" y2="{py_bottom}" '
        'stroke="black" stroke-width="1.2"/>',
        f'<line x1="{px_left}" y1="{py_bottom}" x2="{px_left}" y2="{py_top}" '
        'stroke="black" stroke-width="1.2"/>',
    ]
    for t in _ticks(t_lo, t_hi):
        px = to_px(t)
        parts.append(f'<line x1="{px:.2f}" y1="{py_bottom}" x2="{px:.2f}" '
                     f'y2="{py_bottom + 5}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{px:.2f}" y="{py_bottom + 20}" font-size="12" '
                     f'text-anchor="middle">{t:.3g}</text>')
    for x in _ticks(x_min, x_max):
        py = to_py(x)
        parts.append(f'<line x1="{px_left - 5}" y1="{py:.2f}" x2="{px_left}" '
                     f'y2="{py:.2f}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{px_left - 9}" y="{py + 4:.2f}" font-size="12" '
                     f'text-anchor="end">{x:.3g}</text>')
    parts.append(f'<text x="{(px_left + px_right) / 2:.1f}" y="{_HEIGHT - 12}" '
                 'font-size="15" text-anchor="middle">t</text>')
    parts.append(f'<text x="18" y="{(py_top + py_bottom) / 2:.1f}" font-size="15" '
                 'text-anchor="middle">x</text>')

    # each curve's points are "<t>,<y> ...", its own t cells beside the shared ",<y> " cells;
    # the NUL bytes that pad the cells drop out of the text, as does the last point's space
    ys = np.pad(_fixed3(to_py(xs)), ((0, 0), (1, 1)), constant_values=(ord(","), ord(" ")))
    ys[-1, -1] = 0
    for i, (ts, color, dash, tps) in enumerate(zip(ds.t, colors, dashes, turning_points)):
        points = (np.concatenate((_fixed3(to_px(ts)), ys), axis=1).tobytes()
                  .translate(None, b"\0").decode())  # each copy freed once the next is made
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.4"'
                     f'{dash} points="{points}"/>')
        del points  # one copy of the text less while the chunk is joined
        if len(tps):  # one template for the curve's markers: red maxima, green minima
            cells = zip(to_px(tps.t).tolist(), to_py(tps.x).tolist(),
                        tps.maximum.choose(["#2c8c50", "#b23434"]).tolist())
            parts.append("\n".join([_MARKER] * len(tps))
                         % tuple(itertools.chain.from_iterable(cells)))
        parts += ["</svg>", ""] if i == len(betas) - 1 else [""]
        write("\n".join(parts))
        parts = []
