"""Static SVG rendering of the trajectory figures.

Figure 1: the motion for beta = 0 (solid) and beta = pi (dashed).
Figure 2: a sweep of eight phase shifts beta = 0, pi/4, ..., 7pi/4, all
solid, filling the confining wedge.

Axes follow the motion's natural reading: time runs along the horizontal
axis, position up the vertical axis.  The time axis spans t = 0 (the launch
point) and every plotted time, negative ones included.
Curves are drawn as single x-parameterized polylines, so retrograde segments
double back leftward.  A ``<desc>`` element records the data-to-pixel
calibration for downstream consumers.
"""

from __future__ import annotations

import math

from . import trajectory
# build_trajectory_dataset stays importable here: perfbench/tracing.py wraps it
from .dataset import _fill, _sample_grid, build_trajectory_dataset  # noqa: F401
from .model import ModelParams

_WIDTH = 720
_HEIGHT = 540
_MARGIN_LEFT = 70.0
_MARGIN_RIGHT = 25.0
_MARGIN_TOP = 25.0
_MARGIN_BOTTOM = 55.0

_FIG2_BETAS = [j * math.pi / 4.0 for j in range(8)]
_FIG2_COLORS = ["#1f4e9c", "#b23434", "#2c8c50", "#8c5f2c",
                "#6a3d9a", "#2c8c8c", "#a03d6e", "#5f6f2c"]


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def render_figure(figure_id: int, params: ModelParams, x_min: float = 0.0,
                  x_max: float = 4.0, samples: int = 2001,
                  markers: bool = False) -> str:
    """Render figure 1 or 2 as an SVG 1.1 document string."""
    if figure_id not in (1, 2):
        raise ValueError(f"figure_id must be 1 or 2, got {figure_id}")
    betas = [0.0, math.pi] if figure_id == 1 else list(_FIG2_BETAS)
    dashes = ["none", "6 5"] if figure_id == 1 else ["none"] * len(betas)
    colors = ["#1f4e9c", "#b23434"] if figure_id == 1 else list(_FIG2_COLORS)

    xs = _sample_grid(x_min, x_max, samples, params)
    curves = [params.replace(beta=beta) for beta in betas]
    times = [trajectory._time_array(xs, p) for p in curves]

    t_lo = min(0.0, 1.02 * min(float(ts.min()) for ts in times))
    t_hi = max(0.0, 1.02 * max(float(ts.max()) for ts in times))
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

    for p, ts, color, dash in zip(curves, times, colors, dashes):
        pts = []
        _fill(pts.append, "%.3f,%.3f ", to_px(ts), to_py(xs))
        dash_attr = "" if dash == "none" else f' stroke-dasharray="{dash}"'
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.4"'
                     f'{dash_attr} points="{"".join(pts)[:-1]}"/>')
        if markers:
            for tp in trajectory.find_turning_points(x_min, x_max, p):
                fill = "#b23434" if tp.kind == trajectory.TEMPORAL_MAX else "#2c8c50"
                parts.append(f'<circle cx="{to_px(tp.t):.2f}" cy="{to_py(tp.x):.2f}" '
                             f'r="3.5" fill="{fill}"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
