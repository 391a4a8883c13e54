"""Equation of quantum motion and the structure of its trajectory.

The motion ``t(x) = tau + m x (1 - alpha^2) / (hbar k D(x))`` is
x-parameterized: between turning points (where ``dt/dx`` changes sign) the
molecule alternates between forward and retrograde motion, so a single time
can map to several positions.  This module extracts turning points, segments,
multi-position inversion, the confining wedge, creation/annihilation events,
and the contrasting single-valued motion obtained by integrating the
conjugate momentum as if it were the mechanical momentum.

Root sets need no sampling grid: the algebra splits the range into pieces with
at most one root each, and all brackets of a call are bisected at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfiniteVelocityError, SingularityError
from .model import ModelParams
from .rootfind import bisect_root
from .wavefunction import MIN_AMPLITUDE_SQUARED, checked_amplitude_squared

FORWARD = "forward"
RETROGRADE = "retrograde"
TURNING = "turning"
TEMPORAL_MAX = "temporal_max"
TEMPORAL_MIN = "temporal_min"
CREATION = "creation"
ANNIHILATION = "annihilation"

# |dt/dx| below this is treated as an exact turning point by
# mechanical_momentum (refined turning points land around 1e-9).
DTDX_TURNING_EPS = 1e-8


@dataclass(frozen=True)
class TrajectoryPoint:
    """One sample of the equation of motion."""

    x: float
    t: float
    dtdx: float
    direction: str


@dataclass(frozen=True)
class TurningPoint:
    """Position where dt/dx changes sign.

    ``temporal_max`` reads as an annihilation of two branches,
    ``temporal_min`` as a creation of a branch pair.
    """

    x: float
    t: float
    kind: str


@dataclass(frozen=True)
class Segment:
    """Maximal x-interval of single-direction motion."""

    x_start: float
    x_end: float
    direction: str
    branch_id: int


@dataclass(frozen=True)
class WedgeBounds:
    """Envelope times bounding the trajectory at one position."""

    t_lower: float
    t_upper: float


@dataclass(frozen=True)
class TrajectoryEvent:
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


def _motion_coefficient(params: ModelParams) -> float:
    # m (1 - alpha^2) / (hbar k), factored so it stays exact as alpha -> 1
    return params.m * (1.0 - params.alpha) * (1.0 + params.alpha) / (params.hbar * params.k)


def _amplitude_squared_array(xs: np.ndarray, params: ModelParams) -> np.ndarray:
    a, b, k = params.alpha, params.beta, params.k
    c = np.cos(k * xs + 0.5 * b)
    d = (1.0 - a) * (1.0 - a) + 4.0 * a * c * c
    if np.any(d < MIN_AMPLITUDE_SQUARED):
        x_bad = float(xs[int(np.argmin(d))])
        raise SingularityError(
            f"amplitude squared vanishes at x={x_bad}: standing-wave node")
    return d


def _time_array(xs: np.ndarray, params: ModelParams) -> np.ndarray:
    d = _amplitude_squared_array(xs, params)
    return params.tau + _motion_coefficient(params) * xs / d


def _dtdx_array(xs: np.ndarray, params: ModelParams) -> np.ndarray:
    a, b, k = params.alpha, params.beta, params.k
    d = _amplitude_squared_array(xs, params)
    d_prime = -4.0 * a * k * np.sin(2.0 * k * xs + b)
    return _motion_coefficient(params) * (d - xs * d_prime) / (d * d)


def time_of_position(x: float, params: ModelParams) -> float:
    """Time at which the trajectory passes position ``x``.

    Single-valued in ``x``; the inverse map (:func:`positions_at_time`) can
    return several positions for one time.
    """
    d = checked_amplitude_squared(x, params)
    return params.tau + _motion_coefficient(params) * x / d


def dtdx(x: float, params: ModelParams) -> float:
    """Analytic derivative of :func:`time_of_position`."""
    d = checked_amplitude_squared(x, params)
    d_prime = -4.0 * params.alpha * params.k * math.sin(2.0 * params.k * x + params.beta)
    return _motion_coefficient(params) * (d - x * d_prime) / (d * d)


def trajectory_point(x: float, params: ModelParams) -> TrajectoryPoint:
    """Sample the motion at ``x`` with its direction classification."""
    slope = dtdx(x, params)
    if slope > 0.0:
        direction = FORWARD
    elif slope < 0.0:
        direction = RETROGRADE
    else:
        direction = TURNING
    return TrajectoryPoint(x=x, t=time_of_position(x, params), dtdx=slope,
                           direction=direction)


def _validate_range(x_min: float, x_max: float) -> None:
    if not (math.isfinite(x_min) and math.isfinite(x_max) and x_min < x_max):
        raise ValueError(f"need x_min < x_max, got [{x_min}, {x_max}]")


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
    _amplitude_squared_array(edges, params)
    fe = f(edges)
    i = np.flatnonzero(fe[:-1] * fe[1:] < 0.0)
    return edges, fe, i, bisect_root(f, edges[i], edges[i + 1], xtol=1e-10)


def find_turning_points(x_min: float, x_max: float,
                        params: ModelParams) -> list[TurningPoint]:
    """All sign changes of dt/dx in ``[x_min, x_max]``, refined to 1e-10.

    Complete by construction: ``dt/dx`` has the sign of ``g = c (D - x D')``,
    and ``g' = -c x D''`` with ``D'' = -8 alpha k^2 cos(2kx + beta)``, so ``g``
    is monotone between consecutive zeros of the cosine and ``x = 0``: each
    such piece holds at most one turning point.
    """
    _validate_range(x_min, x_max)
    a, b, k, c = params.alpha, params.beta, params.k, _motion_coefficient(params)

    def g(xs):  # D^2 dt/dx = c (D - x D'); with s = kx + beta/2, -x D' = 8akx sin s cos s
        s = k * xs + 0.5 * b
        cs = np.cos(s)
        return c * ((1.0 - a) ** 2 + cs * (4.0 * a * cs + 8.0 * a * k * xs * np.sin(s)))

    cuts = ([np.clip(0.0, x_min, x_max)],
            _phase_points(x_min, x_max, params, 0.5 * math.pi, math.pi))
    edges, ge, i, roots = _bracketed_roots(g, x_min, x_max, params, cuts)
    # an exact zero on an edge is a turning point when g changes sign across it
    j = 1 + np.flatnonzero((ge[1:-1] == 0.0) & (ge[:-2] * ge[2:] < 0.0))
    xs = np.concatenate([roots, edges[j]])
    order = np.argsort(xs)
    xs, maxima = xs[order], np.concatenate([ge[i], ge[j - 1]])[order] > 0.0
    ts = _time_array(xs, params)
    return [TurningPoint(x=x, t=t, kind=TEMPORAL_MAX if top else TEMPORAL_MIN)
            for x, t, top in zip(xs.tolist(), ts.tolist(), maxima.tolist())]


def segment_trajectory(x_min: float, x_max: float, params: ModelParams) -> list[Segment]:
    """Partition ``[x_min, x_max]`` into alternating forward/retrograde segments."""
    turning = find_turning_points(x_min, x_max, params)
    edges = [x_min] + [tp.x for tp in turning] + [x_max]
    segments = []
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        mid = 0.5 * (a + b)
        direction = FORWARD if dtdx(mid, params) > 0.0 else RETROGRADE
        segments.append(Segment(x_start=a, x_end=b, direction=direction, branch_id=i))
    return segments


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
    _validate_range(x_min, x_max)
    a, b, k = params.alpha, params.beta, params.k
    c, dt = _motion_coefficient(params), t - params.tau

    def h(xs):
        cs = np.cos(k * xs + 0.5 * b)
        return c * xs - dt * (1.0 - a) ** 2 - 4.0 * a * dt * cs * cs

    amp = 4.0 * a * k * dt
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
    a, tau = params.alpha, params.tau
    scale = params.m * x / (params.hbar * params.k)
    if a == 1.0:
        return WedgeBounds(t_lower=tau, t_upper=math.inf)
    reinforced = tau + scale * (1.0 - a) / (1.0 + a)
    destructive = tau + scale * (1.0 + a) / (1.0 - a)
    if a > 1.0:
        return WedgeBounds(t_lower=destructive, t_upper=reinforced)
    return WedgeBounds(t_lower=reinforced, t_upper=destructive)


def pair_events(turning_points: list[TurningPoint]) -> list[TrajectoryEvent]:
    """Label sorted turning points as creation/annihilation events.

    Each temporal minimum spawns a branch pair (one member running toward
    -x, one toward +x as time advances); each temporal maximum joins and
    terminates the two adjacent branches.
    """
    for prev, cur in zip(turning_points, turning_points[1:]):
        if cur.x <= prev.x or cur.kind == prev.kind:
            raise ValueError("turning points must be sorted in x with alternating kinds")
    events = []
    for i, tp in enumerate(turning_points):
        kind = CREATION if tp.kind == TEMPORAL_MIN else ANNIHILATION
        events.append(TrajectoryEvent(kind=kind, x=tp.x, t=tp.t, branch_ids=(i, i + 1)))
    return events


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
    :class:`InfiniteVelocityError`.
    """
    slope = dtdx(x, params)
    if abs(slope) < DTDX_TURNING_EPS:
        raise InfiniteVelocityError(
            f"dt/dx is {slope:.3e} at x={x}: velocity diverges at the turning point")
    return params.M / slope
