"""Equation of quantum motion and the structure of its trajectory.

The motion ``t(x) = tau + m x (1 - alpha^2) / (hbar k D(x))`` is
x-parameterized: between turning points (where ``dt/dx`` changes sign) the
molecule alternates between forward and retrograde motion, so a single time
can map to several positions.  This module extracts turning points, segments,
multi-position inversion, the confining wedge, creation/annihilation events,
and the contrasting single-valued motion obtained by integrating the
conjugate momentum as if it were the mechanical momentum.

Root sets need no sampling grid: the algebra splits the range into pieces with
at most one root each, and all brackets of a call are refined at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InfiniteVelocityError
from .model import ModelParams
from .rootfind import ROOT_XTOL, bisect_root
from .wavefunction import MIN_AMPLITUDE_SQUARED, _slope_factor, amplitude_squared

FORWARD = "forward"
RETROGRADE = "retrograde"
TURNING = "turning"
TEMPORAL_MAX = "temporal_max"
TEMPORAL_MIN = "temporal_min"
CREATION = "creation"
ANNIHILATION = "annihilation"

# The event at a turning point of each kind (see TrajectoryEvent).
_EVENT_KINDS = {TEMPORAL_MIN: CREATION, TEMPORAL_MAX: ANNIHILATION}

# Indexed by _direction_index: 1 forward, -1 retrograde, 0 turning.
_DIRECTIONS = (TURNING, FORWARD, RETROGRADE)


class TrajectoryPoint(NamedTuple):
    """One sample of the equation of motion."""

    x: float
    t: float
    dtdx: float
    direction: str


class TurningPoint(NamedTuple):
    """Position where dt/dx changes sign.

    ``temporal_max`` reads as an annihilation of two branches,
    ``temporal_min`` as a creation of a branch pair.
    """

    x: float
    t: float
    kind: str


@dataclass(frozen=True, eq=False)
class TurningPoints:
    """Turning points as columns, ``x`` ascending; an index or iteration builds
    :class:`TurningPoint` records on demand, a slice gives columns."""

    x: np.ndarray
    t: np.ndarray
    maximum: np.ndarray

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return TurningPoints(self.x[i], self.t[i], self.maximum[i])
        return TurningPoint(float(self.x[i]), float(self.t[i]),
                            TEMPORAL_MAX if self.maximum[i] else TEMPORAL_MIN)

    def __iter__(self):
        kinds = np.where(self.maximum, TEMPORAL_MAX, TEMPORAL_MIN).tolist()
        return map(TurningPoint, self.x.tolist(), self.t.tolist(), kinds)


class Segment(NamedTuple):
    """Maximal x-interval of single-direction motion."""

    x_start: float
    x_end: float
    direction: str
    branch_id: int


class WedgeBounds(NamedTuple):
    """Envelope times bounding the trajectory at one position."""

    t_lower: float
    t_upper: float


class TrajectoryEvent(NamedTuple):
    """Creation or annihilation event at a turning point.

    ``branch_ids`` are the indices of the two adjacent segments (as produced
    by :func:`segment_trajectory` over the same range) that the event joins:
    at a creation the lower branch runs toward -x and the upper toward +x as
    time advances; at an annihilation both terminate.
    """

    kind: str
    x: float
    t: float
    branch_ids: tuple[int, int]


def _direction_index(slope):
    """Index into ``_DIRECTIONS`` of dt/dx (float or array); NaN is turning."""
    return 1 * (slope > 0.0) - 1 * (slope < 0.0)


def time_of_position(x, params: ModelParams, xp=math) -> float:
    """Time at which the trajectory passes position ``x`` (an array with ``xp=np``).

    Single-valued in ``x``; the inverse map (:func:`positions_at_time`) can
    return several positions for one time.
    """
    d = amplitude_squared(x, params, xp, True)
    return params.tau + params.c * x / d


def dtdx(x, params: ModelParams, xp=math) -> float:
    """Analytic derivative ``c (D - x D') / D^2`` of :func:`time_of_position`."""
    d = amplitude_squared(x, params, xp, True)
    return params.c * _slope_factor(x, params, d, xp) / (d * d)


# The array forms keep names of their own: perfbench/tracing.py counts their points.
_time_array = functools.partial(time_of_position, xp=np)
_dtdx_array = functools.partial(dtdx, xp=np)


def trajectory_point(x: float, params: ModelParams) -> TrajectoryPoint:
    """Sample the motion at ``x`` with its direction classification."""
    slope = dtdx(x, params)
    return TrajectoryPoint(x=x, t=time_of_position(x, params), dtdx=slope,
                           direction=_DIRECTIONS[_direction_index(slope)])


def _require_finite(where: str, *bounds) -> None:
    """Raise ValueError naming the first ``(quantity, value)`` that is not finite."""
    for name, value in bounds:
        if not math.isfinite(value):
            raise ValueError(f"{name} overflows {where}")


def _validate_range(x_min: float, x_max: float, params: ModelParams) -> None:
    """Finite ``x_min < x_max`` on which the phase ``2kx + beta`` and the bounds of ``|c x|``,
    ``|g| = |c (D - x D')|`` (``|D - x D'| <= (1+alpha)^2 + 4 alpha k |x|``) and ``|t|``
    (``D >= max((1-alpha)^2, MIN_AMPLITUDE_SQUARED)`` off the nodes) stay finite."""
    if not (math.isfinite(x_min) and math.isfinite(x_max) and x_min < x_max):
        raise ValueError(f"need x_min < x_max, got [{x_min}, {x_max}]")
    k, a, c, reach = params.k, params.alpha, abs(params.c), max(-x_min, x_max)
    _require_finite(f"on [{x_min}, {x_max}]",
                    *[("the phase 2kx + beta", 2.0 * k * x + params.beta) for x in (x_min, x_max)],
                    ("c x", c * reach),
                    ("g = c (D - x D')", c * ((1.0 + a) * (1.0 + a) + 4.0 * a * k * reach)),
                    ("t = tau + c x / D", abs(params.tau) + c * reach
                     / max((1.0 - a) * (1.0 - a), MIN_AMPLITUDE_SQUARED)))


def _phase_points(x_min: float, x_max: float, params: ModelParams, phase: float,
                  period: float) -> np.ndarray:
    """Positions inside ``(x_min, x_max)`` where ``2kx + beta = phase (mod period)``."""
    k, b = params.k, params.beta
    n = np.arange(math.floor((2.0 * k * x_min + b - phase) / period),
                  math.ceil((2.0 * k * x_max + b - phase) / period) + 1)
    xs = (phase + period * n - b) / (2.0 * k)
    return xs[(xs > x_min) & (xs < x_max)]


def _bracketed_roots(f, x_min: float, x_max: float, params: ModelParams, cuts):
    """Edges, ``f`` on them, the edges opening a sign change, and the root in each.

    The edges are the range ends, the ``cuts`` (``f`` is monotone between
    edges) and the trigger points (``cos(2kx + beta) = -1``): ``D`` is smallest
    there or at an end, so the edges are where a node raises SingularityError.
    """
    nodes = _phase_points(x_min, x_max, params, math.pi, 2.0 * math.pi)
    edges = np.sort(np.concatenate([[x_min, x_max], nodes, *cuts]))
    edges = edges[np.concatenate(([True], np.diff(edges) > 0.0))]  # np.unique loads np.ma
    amplitude_squared(edges, params, np, True)
    fe = f(edges)
    i = np.flatnonzero(np.sign(fe[:-1]) * np.sign(fe[1:]) < 0.0)  # fe * fe may overflow
    return edges, fe, i, bisect_root(f, edges[i], edges[i + 1], fe[i], fe[i + 1])


def find_turning_points(x_min: float, x_max: float, params: ModelParams) -> TurningPoints:
    """All sign changes of dt/dx in ``[x_min, x_max]``, refined to 1e-10.

    Complete by construction: ``dt/dx`` has the sign of ``g = c (D - x D')``,
    and ``g' = -c x D''`` with ``D'' = -8 alpha k^2 cos(2kx + beta)``, so ``g``
    is monotone between consecutive zeros of the cosine and ``x = 0``: each
    such piece holds at most one turning point.
    """
    _validate_range(x_min, x_max, params)

    def g(xs):  # D^2 dt/dx
        return params.c * _slope_factor(xs, params, amplitude_squared(xs, params, np), np)

    cuts = ([np.clip(0.0, x_min, x_max)],
            _phase_points(x_min, x_max, params, 0.5 * math.pi, math.pi))
    edges, ge, i, roots = _bracketed_roots(g, x_min, x_max, params, cuts)
    # an exact zero on an edge is a turning point when g changes sign across it
    j = 1 + np.flatnonzero((ge[1:-1] == 0.0) & (np.sign(ge[:-2]) * np.sign(ge[2:]) < 0.0))
    xs = np.concatenate([roots, edges[j]])
    order = np.argsort(xs)
    xs, maxima = xs[order], np.concatenate([ge[i], ge[j - 1]])[order] > 0.0
    return TurningPoints(xs, _time_array(xs, params), maxima)


def segment_trajectory(x_min: float, x_max: float, params: ModelParams) -> list[Segment]:
    """Partition ``[x_min, x_max]`` into alternating forward/retrograde segments:
    forward up to each temporal maximum, retrograde up to each minimum."""
    tps = find_turning_points(x_min, x_max, params)
    if len(tps):
        forward = np.append(tps.maximum, not tps.maximum[-1])
        directions = np.where(forward, FORWARD, RETROGRADE).tolist()
    else:
        directions = [_DIRECTIONS[_direction_index(dtdx(0.5 * (x_min + x_max), params))]]
    edges = [x_min, *tps.x.tolist(), x_max]
    return [Segment(x_start=a, x_end=b, direction=d, branch_id=i)
            for i, (a, b, d) in enumerate(zip(edges[:-1], edges[1:], directions))]


def positions_at_time(t: float, x_min: float, x_max: float,
                      params: ModelParams) -> list[float]:
    """All positions the trajectory occupies at time ``t`` within the range.

    Two or more roots witness the multi-location (nonlocal) character of the
    motion.  They are the roots of ``h = c x - (t - tau) D``, which has no
    pole and is monotone between the zeros of ``h' = c + 4 alpha k (t - tau)
    sin(2kx + beta)``, closed-form positions: each piece holds at most one
    root.  Roots are refined to 1e-10; an empty list means the horizontal line
    at ``t`` misses every branch.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    _validate_range(x_min, x_max, params)
    c, dt, a = params.c, t - params.tau, params.alpha
    amp, dt_d = 4.0 * a * params.k * dt, dt * (1.0 + a) * (1.0 + a)
    _require_finite(f"at t = {t} on [{x_min}, {x_max}]", ("4 alpha k (t - tau)", amp),
                    ("(t - tau)(1 + alpha)^2", dt_d),
                    ("h = c x - (t - tau) D", abs(c) * max(-x_min, x_max) + abs(dt_d)))
    if c == 0.0 and dt == 0.0:
        raise ValueError(f"every position is at t = tau = {t} when alpha = 1")

    def h(xs):
        return c * xs - dt * amplitude_squared(xs, params, np)

    cuts = []
    if amp != 0.0 and abs(c) <= abs(amp):
        s = math.asin(-c / amp)
        cuts = [_phase_points(x_min, x_max, params, p, 2.0 * math.pi)
                for p in (s, math.pi - s)]
    edges, he, _, roots = _bracketed_roots(h, x_min, x_max, params, cuts)
    return np.sort(np.concatenate([roots, edges[he == 0.0]])).tolist()


def wedge_bounds(x: float, params: ModelParams) -> WedgeBounds:
    """Envelope ``tau + (1-a) m x / ((1+a) hbar k)``, ``tau + (1+a) m x / ((1-a) hbar k)``.

    One edge is attained where the two components reinforce (``cos(2kx +
    beta) = +1``), the other where they interfere destructively (``cos =
    -1``).  For ``alpha < 1`` the reinforcement edge is the lower one; for
    ``alpha > 1`` both edges lie below ``tau`` and it is the upper one.  The
    pair is always ordered so that ``t_lower <= t(x) <= t_upper``.  At
    ``alpha = 1`` the wedge opens up to the whole quadrant above ``tau``: the
    bounds are reported as ``(tau, inf)``.
    """
    if x < 0.0:
        raise ValueError(f"wedge bounds are defined for x >= 0, got {x}")
    return WedgeBounds(*_wedge_edges(x, params))


def _wedge_edges(x, params: ModelParams):
    """``(t_lower, t_upper)`` of :func:`wedge_bounds` for ``x >= 0`` (float or array)."""
    a, tau = params.alpha, params.tau
    if a == 1.0:
        return tau, math.inf
    scale = params.m * x / (params.hbar * params.k)
    reinforced = tau + scale * (1.0 - a) / (1.0 + a)
    destructive = tau + scale * (1.0 + a) / (1.0 - a)
    return (destructive, reinforced) if a > 1.0 else (reinforced, destructive)


def pair_events(turning_points) -> list[TrajectoryEvent]:
    """Label sorted turning points (records or columns) as creation/annihilation events.

    Each temporal minimum spawns a branch pair (one member running toward
    -x, one toward +x as time advances); each temporal maximum joins and
    terminates the two adjacent branches.
    """
    for prev, cur in zip(turning_points, turning_points[1:]):
        if cur.x <= prev.x or cur.kind == prev.kind:
            raise ValueError("turning points must be sorted in x with alternating kinds")
    return [TrajectoryEvent(kind=_EVENT_KINDS[tp.kind], x=tp.x, t=tp.t, branch_ids=(i, i + 1))
            for i, tp in enumerate(turning_points)]


def bohmian_time_of_position(x: float, params: ModelParams) -> float:
    """Motion obtained by integrating M / W' from 0 to x (closed form).

    Treating the conjugate momentum as the mechanical momentum yields
    ``t_B(x) = (M/(hbar k)) [(1+alpha^2) x + (alpha/k)(sin(2kx+beta) - sin
    beta)]``, which is strictly increasing: this contrasting equation of
    motion has no retrograde segments.
    """
    a, b, k = params.alpha, params.beta, params.k
    return (params.M / (params.hbar * k)) * (
        (1.0 + a * a) * x + (a / k) * (math.sin(2.0 * k * x + b) - math.sin(b)))


def mechanical_momentum(x: float, params: ModelParams) -> float:
    """Mechanical momentum ``M * dx/dt`` along the trajectory.

    Differs from the conjugate momentum except in the free-particle limit.
    At turning points the velocity diverges (the trajectory is superluminal
    there) while the conjugate momentum stays finite; those points raise
    :class:`InfiniteVelocityError`: dt/dx is 0 or changes sign within the root
    tolerance ``ROOT_XTOL`` of ``x``.
    """
    slopes = [dtdx(x + dx, params) for dx in (-ROOT_XTOL, 0.0, ROOT_XTOL)]
    if {_direction_index(s) for s in slopes} not in ({1}, {-1}):
        raise InfiniteVelocityError(f"dt/dx is {slopes[1]:.3e} at x={x}, a turning point to "
                                    f"within {ROOT_XTOL:g}: the velocity diverges there")
    return params.M / slopes[1]
