"""Equation of quantum motion and the structure of its trajectory.

The motion ``t(x) = tau + m x (1 - alpha^2) / (hbar k D(x))`` is
x-parameterized: between turning points (where ``dt/dx`` changes sign) the
molecule alternates between forward and retrograde motion, so a single time
can map to several positions.  This module extracts turning points, segments,
multi-position inversion, the confining wedge, creation/annihilation events,
and the contrasting single-valued motion obtained by integrating the
conjugate momentum as if it were the mechanical momentum.
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

_DEFAULT_GRID_STEP = 1e-3


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


def _validate_range(x_min: float, x_max: float, grid_step: float) -> None:
    if not (math.isfinite(x_min) and math.isfinite(x_max) and x_min < x_max):
        raise ValueError(f"need x_min < x_max, got [{x_min}, {x_max}]")
    if not math.isfinite(grid_step) or grid_step <= 0.0:
        raise ValueError(f"grid_step must be positive, got {grid_step}")


def find_turning_points(x_min: float, x_max: float, params: ModelParams,
                        grid_step: float = _DEFAULT_GRID_STEP) -> list[TurningPoint]:
    """All sign changes of dt/dx in ``[x_min, x_max]``, bisected to 1e-10.

    Turning points closer together than ``grid_step`` can be missed; the
    default 1e-3 resolves the slow sign oscillation of the motion for
    moderate ``alpha``.
    """
    _validate_range(x_min, x_max, grid_step)
    n = max(2, int(math.ceil((x_max - x_min) / grid_step)))
    xs = np.linspace(x_min, x_max, n + 1)
    f = _dtdx_array(xs, params)
    found: list[TurningPoint] = []
    for i in np.flatnonzero(f[:-1] * f[1:] < 0.0):
        root = bisect_root(lambda v: dtdx(v, params), float(xs[i]), float(xs[i + 1]),
                           xtol=1e-10)
        kind = TEMPORAL_MAX if f[i] > 0.0 else TEMPORAL_MIN
        found.append(TurningPoint(x=root, t=time_of_position(root, params), kind=kind))
    for i in np.flatnonzero(f == 0.0):
        if 0 < i < n and f[i - 1] * f[i + 1] < 0.0:
            kind = TEMPORAL_MAX if f[i - 1] > 0.0 else TEMPORAL_MIN
            found.append(TurningPoint(x=float(xs[i]),
                                      t=time_of_position(float(xs[i]), params),
                                      kind=kind))
    found.sort(key=lambda tp: tp.x)
    return found


def segment_trajectory(x_min: float, x_max: float, params: ModelParams,
                       grid_step: float = _DEFAULT_GRID_STEP) -> list[Segment]:
    """Partition ``[x_min, x_max]`` into alternating forward/retrograde segments."""
    turning = find_turning_points(x_min, x_max, params, grid_step)
    edges = [x_min] + [tp.x for tp in turning] + [x_max]
    segments = []
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        mid = 0.5 * (a + b)
        direction = FORWARD if dtdx(mid, params) > 0.0 else RETROGRADE
        segments.append(Segment(x_start=a, x_end=b, direction=direction, branch_id=i))
    return segments


def positions_at_time(t: float, x_min: float, x_max: float, params: ModelParams,
                      grid_step: float = _DEFAULT_GRID_STEP) -> list[float]:
    """All positions the trajectory occupies at time ``t`` within the range.

    Two or more roots witness the multi-location (nonlocal) character of the
    motion.  Roots are bracketed on the grid and bisected to 1e-10; an empty
    list means the horizontal line at ``t`` misses every branch.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    _validate_range(x_min, x_max, grid_step)
    n = max(2, int(math.ceil((x_max - x_min) / grid_step)))
    xs = np.linspace(x_min, x_max, n + 1)
    g = _time_array(xs, params) - t
    roots = [float(xs[i]) for i in np.flatnonzero(g == 0.0)]
    for i in np.flatnonzero(g[:-1] * g[1:] < 0.0):
        roots.append(bisect_root(lambda v: time_of_position(v, params) - t,
                                 float(xs[i]), float(xs[i + 1]), xtol=1e-10))
    roots.sort()
    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] > 1e-9:
            deduped.append(r)
    return deduped


def wedge_bounds(x: float, params: ModelParams) -> WedgeBounds:
    """Envelope ``(1-a) m x / ((1+a) hbar k)``, ``(1+a) m x / ((1-a) hbar k)`` of ``t(x)``.

    One edge is attained where the two components reinforce (``cos(2kx +
    beta) = +1``), the other where they interfere destructively (``cos =
    -1``).  For ``alpha < 1`` the reinforcement edge is the lower one; for
    ``alpha > 1`` both edges are negative and it is the upper one.  The pair
    is always ordered so that ``t_lower <= t(x) <= t_upper``.  At ``alpha =
    1`` the wedge opens up to the whole quadrant: the upper bound is reported
    as ``inf``.
    """
    if x < 0.0:
        raise ValueError(f"wedge bounds are defined for x >= 0, got {x}")
    a = params.alpha
    scale = params.m * x / (params.hbar * params.k)
    if a == 1.0:
        return WedgeBounds(t_lower=0.0, t_upper=math.inf)
    reinforced = scale * (1.0 - a) / (1.0 + a)
    destructive = scale * (1.0 + a) / (1.0 - a)
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
