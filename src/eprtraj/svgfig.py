"""Static SVG rendering of the trajectory figures: a figure is a sweep drawn as SVG.

Figure 1: the motion for beta = 0 (solid) and beta = pi (dashed).
Figure 2: a sweep of eight phase shifts beta = 0, pi/4, ..., 7pi/4, all
solid, filling the confining wedge.

Axes follow the motion's natural reading: time runs along the horizontal
axis, position up the vertical axis.  The time axis spans t = 0 (the launch
point) and every plotted time, negative ones included.
Curves are drawn as single x-parameterized polylines, so retrograde segments double back
leftward; their y cells, shared by every curve, are rendered to text once.  A ``<desc>``
element records the data-to-pixel calibration for downstream consumers.
"""

from __future__ import annotations

import math

from . import trajectory
# build_trajectory_dataset stays importable here: perfbench/tracing.py wraps it
from .dataset import SweepDataset, build_trajectory_dataset  # noqa: F401

_WIDTH = 720
_HEIGHT = 540
_MARGIN_LEFT = 70.0
_MARGIN_RIGHT = 25.0
_MARGIN_TOP = 25.0
_MARGIN_BOTTOM = 55.0

# figure id: (betas, colours, dash attributes), one of each per curve
FIGURES = {1: ([0.0, math.pi], ["#1f4e9c", "#b23434"], ["", ' stroke-dasharray="6 5"']),
           2: ([j * math.pi / 4.0 for j in range(8)], ["#1f4e9c", "#b23434", "#2c8c50",
               "#8c5f2c", "#6a3d9a", "#2c8c8c", "#a03d6e", "#5f6f2c"], [""] * 8)}


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def render_figure(figure_id: int, ds: SweepDataset, markers: bool = False) -> str:
    """Figure 1 or 2 as an SVG 1.1 document: ``ds`` sweeps its betas on the plotted x-range."""
    if figure_id not in FIGURES or ds.betas != FIGURES[figure_id][0]:
        raise ValueError(f"no figure {figure_id} of betas {ds.betas}")
    betas, colors, dashes = FIGURES[figure_id]
    xs, x_min, x_max = ds.xs, float(ds.xs[0]), float(ds.xs[-1])

    t_lo = min(0.0, 1.02 * float(ds.t.min()))
    t_hi = max(0.0, 1.02 * float(ds.t.max()))
    if t_hi <= t_lo:
        t_hi = t_lo + 1.0
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

    points = " ".join(map("%%.3f,%.3f".__mod__, to_py(xs).tolist()))  # "%.3f,<y> ..."
    for beta, ts, color, dash in zip(betas, ds.t, colors, dashes):
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.4"'
                     f'{dash} points="{points % tuple(to_px(ts).tolist())}"/>')
        if markers:
            for tp in trajectory.find_turning_points(x_min, x_max, ds.params.replace(beta=beta)):
                fill = "#b23434" if tp.kind == trajectory.TEMPORAL_MAX else "#2c8c50"
                parts.append(f'<circle cx="{to_px(tp.t):.2f}" cy="{to_py(tp.x):.2f}" '
                             f'r="3.5" fill="{fill}"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
