"""Equation of quantum motion and the structure of its trajectory.

The motion ``t(x) = tau + m x (1 - alpha^2) / (hbar k D(x))`` is
x-parameterized: between turning points (where ``dt/dx`` changes sign) the
molecule alternates between forward and retrograde motion, so a single time
can map to several positions.  This module extracts turning points, segments,
multi-position inversion, the confining wedge, creation/annihilation events,
and the contrasting single-valued motion obtained by integrating the
conjugate momentum as if it were the mechanical momentum.

Root sets need no sampling grid: the algebra splits the range into pieces with
at most one root each, and all brackets of a call are refined at once, those of
every curve of a figure included.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import InfiniteVelocityError
from .model import ModelParams
from .rootfind import ROOT_XTOL, bisect_root
from .wavefunction import _slope_factor, amplitude_squared

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
    d = amplitude_squared(x, params, xp)
    return params.tau + params.c * x / d


def dtdx(x, params: ModelParams, xp=math) -> float:
    """Analytic derivative ``c (D - x D') / D^2`` of :func:`time_of_position`: ``+-inf``, with
    no warning, where it passes the float range."""
    d = amplitude_squared(x, params, xp)
    return params.c * _slope_factor(x, params, d, xp) / (d * d)


# The array forms keep names of their own: perfbench/tracing.py counts their points.
_time_array = functools.partial(time_of_position, xp=np)
_dtdx_array = functools.partial(dtdx, xp=np)


def _check_range(x_min: float, x_max: float, params: ModelParams, t=None, g=False) -> None:
    """Finite ``x_min < x_max`` on which the bounds of what a stage evaluates are finite.

    Every stage: the phase ``2kx + beta`` at both ends and ``|c x|``.  Samples (no ``t``):
    ``|t|``, as ``D >= (1-alpha)^2`` (at ``alpha == 1``, ``c == 0`` and ``t == tau``); with ``g``
    (turning points), ``|g| = |c (D - x D')|`` before it, as ``|D - x D'| <= (1+alpha)^2 +
    4 alpha k |x|``.  Inversion (given ``t``, a finite one): the terms of ``h = c x - (t - tau)
    D`` and their sum, in messages that name ``t``.
    """
    if t is not None and not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if not (math.isfinite(x_min) and math.isfinite(x_max) and x_min < x_max):
        raise ValueError(f"need x_min < x_max, got [{x_min}, {x_max}]")
    k, a, c, reach = params.k, params.alpha, abs(params.c), max(-x_min, x_max)
    bounds = [*[("the phase 2kx + beta", 2.0 * k * x + params.beta, None) for x in (x_min, x_max)],
              ("c x", c * reach, None)]
    if g:
        bounds.append(("g = c (D - x D')", c * ((1.0 + a) * (1.0 + a) + 4.0 * a * k * reach),
                       None))
    if t is None:
        bounds.append(("t = tau + c x / D", abs(params.tau)
                       + (c * reach / ((1.0 - a) * (1.0 - a)) if c else 0.0), None))
    else:
        dt = t - params.tau
        dt_d = dt * (1.0 + a) * (1.0 + a)
        bounds += [("4 alpha k (t - tau)", 4.0 * a * k * dt, t),
                   ("(t - tau)(1 + alpha)^2", dt_d, t),
                   ("h = c x - (t - tau) D", c * reach + abs(dt_d), t)]
    for name, value, at in bounds:
        if not math.isfinite(value):
            at = "" if at is None else f"at t = {at} "
            raise ValueError(f"{name} overflows {at}on [{x_min}, {x_max}]")


def _phase_points(x_min: float, x_max: float, params: ModelParams, phase: float,
                  period: float) -> np.ndarray:
    """Positions inside ``(x_min, x_max)`` where ``2kx + beta = phase (mod period)``."""
    k, b = params.k, params.beta
    try:
        n = np.arange(math.floor((2.0 * k * x_min + b - phase) / period),
                      math.ceil((2.0 * k * x_max + b - phase) / period) + 1)
    except (ValueError, MemoryError):  # more points than an array can index or hold
        raise ValueError(f"[{x_min}, {x_max}] spans {2.0 * k * (x_max - x_min) / math.pi:.3g} "
                         "half-periods of cos(2kx + beta): too many to search") from None
    xs = (phase + period * n - b) / (2.0 * k)
    return xs[(xs > x_min) & (xs < x_max)]


def _bracketed_roots(f, x_min: float, x_max: float, cuts, seed):
    """Edges, ``f`` on them, each edge's curve, the edges opening a sign change, and the
    root in each, for each curve's list of cut arrays in ``cuts``, in one root call.

    A curve's edges are the range ends and its cuts, between which its ``f`` is monotone,
    so each bracket holds at most one root and no other edge can add or lose one.  Over
    several curves ``f`` (``newton=False`` on edges) and ``seed`` take each x's curve.
    """
    edges = [np.sort(np.concatenate([[x_min, x_max], *c])) for c in cuts]
    curve = np.repeat(np.arange(len(edges)), list(map(len, edges)))
    edges = np.concatenate(edges)
    # within a curve a step of 0 repeats an edge; a step down starts the next curve
    keep = np.concatenate(([True], np.diff(edges) != 0.0))  # np.unique loads np.ma
    edges, curve = edges[keep], curve[keep]
    on = (curve,) if len(cuts) > 1 else ()
    fe = f(edges, *on, newton=False)
    i = np.flatnonzero((curve[:-1] == curve[1:])
                       & (np.sign(fe[:-1]) * np.sign(fe[1:]) < 0.0))  # fe * fe may overflow
    lo, hi, on = edges[i], edges[i + 1], [v[i] for v in on]
    with np.errstate(all="ignore"):  # seeds and Newton steps not finite: the midpoint
        roots = bisect_root(f, lo, hi, fe[i], *on, seed=seed(lo, hi, *on))
        # a root below ROOT_XTOL cancels in its estimate, from an iterate ROOT_XTOL / 2 inside
        # its bracket: Newton steps from it, clipped into the bracket, while |f| falls
        j = np.flatnonzero(np.abs(roots) < ROOT_XTOL)
        x, best = roots[j], np.inf
        while j.size:
            fx, step = f(x, *[v[j] for v in on])
            fall = np.abs(fx) < best
            roots[j[fall]] = x[fall]
            j, best, x = j[fall], np.abs(fx[fall]), np.clip(x - step, lo[j], hi[j])[fall]
    return edges, fe, curve, i, roots


def find_turning_points(x_min: float, x_max: float, params: ModelParams) -> TurningPoints:
    """All sign changes of dt/dx in ``[x_min, x_max]``, by Newton steps on ``g'``.

    Complete by construction: ``dt/dx`` has the sign of ``g = c (D - x D')``,
    and ``g' = -c x D''`` with ``D'' = -8 alpha k^2 cos(2kx + beta)``, so ``g``
    is monotone between consecutive zeros of the cosine and ``x = 0``: each
    such piece holds at most one turning point, seeded near its centre.
    """
    return turning_points_by_beta(x_min, x_max, params)[0]


def turning_points_by_beta(x_min: float, x_max: float, params: ModelParams,
                           betas=None) -> list[TurningPoints]:
    """:func:`find_turning_points` of ``params.replace(beta=b)`` for each ``b`` of ``betas``
    (of ``params`` alone for None), bit for bit: every curve's brackets share one call."""
    curves = [params] if betas is None else [params.replace(beta=b) for b in betas]
    if not curves:
        raise ValueError("beta list must not be empty")
    p, beta = curves[0], np.array([q.beta for q in curves])
    _check_range(x_min, x_max, p, g=True)  # its bounds do not depend on beta

    def at(curve=None):  # the parameters the kernel reads at x of these curve numbers
        return p if len(curves) == 1 else SimpleNamespace(**vars(p) | {"beta": beta[curve]})

    def g(xs, *curve, newton=True):  # D^2 dt/dx, and its Newton step g / g'
        q = at(*curve)
        s = _slope_factor(xs, q, d := amplitude_squared(xs, q, np), np)
        v = q.c * s  # c cancels in g / g' = -s / (x D''), with D'' = -4 k^2 (D - 1 - alpha^2)
        return (v, s / (4.0 * q.k * q.k * xs * (d - 1.0 - q.alpha * q.alpha))) if newton else v

    def seed(lo, hi, *curve):  # by the piece's centre th = n pi, sin th = -D(n pi) / 4 alpha k x
        q, mid = at(*curve), 0.5 * (lo + hi)
        n = np.rint((2.0 * q.k * mid + q.beta) / math.pi)
        d = (1.0 - 2.0 * (n % 2.0)) * (1.0 + q.alpha * q.alpha) + 2.0 * q.alpha  # (-1)^n D
        return (n * math.pi - np.arcsin(d / (4.0 * q.alpha * q.k * mid)) - q.beta) / (2.0 * q.k)

    edges, ge, curve, i, roots = _bracketed_roots(g, x_min, x_max, [(
        [np.clip(0.0, x_min, x_max)], _phase_points(x_min, x_max, q, 0.5 * math.pi, math.pi))
        for q in curves], seed)
    # an exact zero on an edge inside a curve is a turning point when g changes sign across it
    j = 1 + np.flatnonzero((curve[:-2] == curve[2:]) & (ge[1:-1] == 0.0)
                           & (np.sign(ge[:-2]) * np.sign(ge[2:]) < 0.0))
    # a root lies inside its bracket i, a zero on its edge j: they sort as 2i + 1 and 2j
    order = np.argsort(np.concatenate([2 * i + 1, 2 * j]))
    xs, on = np.concatenate([roots, edges[j]])[order], np.concatenate([curve[i], curve[j]])[order]
    maxima = np.concatenate([ge[i], ge[j - 1]])[order] > 0.0
    tps = TurningPoints(xs, _time_array(xs, at(on)), maxima)
    ends = np.searchsorted(on, np.arange(len(curves) + 1)).tolist()
    return [tps[a:b] for a, b in zip(ends, ends[1:])]


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
    root, reached by Newton steps on ``h'``; an empty list means the horizontal
    line at ``t`` misses every branch.
    """
    _check_range(x_min, x_max, params, t)
    c, dt, a, k, b = params.c, t - params.tau, params.alpha, params.k, params.beta
    amp = 4.0 * a * k * dt
    if c == 0.0 and dt == 0.0:
        raise ValueError(f"every position is at t = tau = {t} when alpha = 1")

    def h(xs, newton=True):  # and its Newton step h / h'
        v = c * xs - dt * amplitude_squared(xs, params, np)
        return (v, v / (c + amp * np.sin(2.0 * k * xs + b))) if newton else v

    def seed(lo, hi):  # the phase on the midpoint's side of the piece where D = c x / (t - tau)
        x = mid = 0.5 * (lo + hi)
        th_mid = 2.0 * k * x + b
        for _ in range(2):  # x at the midpoint, then at the phase found
            th = np.copysign(np.arccos((c * x / dt - 1.0 - a * a) / (2.0 * a)), np.sin(th_mid))
            x = (th + 2.0 * math.pi * np.rint((th_mid - th) / (2.0 * math.pi)) - b) / (2.0 * k)
        j = np.isnan(x)  # no such phase, by a tangency of h: the root of its quadratic model
        th0 = np.where(c * mid[j] / dt > 1.0 + a * a, 0.0, math.pi)  # about the band edge x0
        x0 = (th0 + 2.0 * math.pi * np.rint((th_mid[j] - th0) / (2.0 * math.pi)) - b) / (2.0 * k)
        q = k * amp * np.cos(th0)  # h(x0 + u) ~ h(x0) + c u + q u^2, on the midpoint's side
        u = np.copysign(np.sqrt(c * c - 4.0 * q * h(x0, newton=False)), c + 2 * q * (mid[j] - x0))
        x[j] = x0 + (u - c) / (2.0 * q)
        return x

    cuts = []
    if amp != 0.0 and abs(c) <= abs(amp):
        s = math.asin(-c / amp)
        cuts = [_phase_points(x_min, x_max, params, p, 2.0 * math.pi)
                for p in (s, math.pi - s)]
    edges, he, _, _, roots = _bracketed_roots(h, x_min, x_max, [cuts], seed)
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
    return WedgeBounds._make(_wedge_edges(x, params))


def _wedge_edges(x, params: ModelParams):
    """``(t_lower, t_upper)`` of :func:`wedge_bounds` for ``x >= 0`` (float or array)."""
    a, tau = params.alpha, params.tau
    if a == 1.0:
        return tau, math.inf
    scale, unscale = _free_time(x, params)
    reinforced = tau + scale * (1.0 - a) / (1.0 + a) / unscale
    destructive = tau + scale * (1.0 + a) / (1.0 - a) / unscale
    return (destructive, reinforced) if a > 1.0 else (reinforced, destructive)


def _free_time(x, params: ModelParams):
    """Free-particle time ``m x / (hbar k)`` as ``(u, unscale)``, ``u / unscale`` (float or array):
    where ``m x`` passes the float range, ``u`` is formed from ``m x / 2^1024``, exactly."""
    if params.m <= 1.0:
        return params.m * x / (params.hbar * params.k), 1.0
    f = 2.0 ** (-512 * (abs(params.m * x) == math.inf))
    return params.m * f * (x * f) / (params.hbar * params.k), f * f


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
    motion has no retrograde segments.  The sine difference is taken as
    ``2 cos(kx + beta) sin(kx)``, with no cancellation as x -> 0; the bracket's
    slope is D, so it is at least ``(1-alpha)^2 |x|`` and the result within
    ``2 eps (1+alpha^2) / (1-alpha)^2`` relative (checked with 50-digit mpmath).
    """
    a, b, k = params.alpha, params.beta, params.k
    return (params.M / (params.hbar * k)) * (
        (1.0 + a * a) * x + (2.0 * a / k) * math.cos(k * x + b) * math.sin(k * x))


def mechanical_momentum(x: float, params: ModelParams) -> float:
    """Mechanical momentum ``M * dx/dt`` along the trajectory.

    Differs from the conjugate momentum except in the free-particle limit.
    At turning points the velocity diverges (the trajectory is superluminal
    there) while the conjugate momentum stays finite; those points raise
    :class:`InfiniteVelocityError`: dt/dx is 0 or changes sign within
    ``max(ROOT_XTOL, 1 ulp of x)`` of ``x``.  ``ROOT_XTOL`` is the width of a turning
    point's final bracket; past |x| = 2^20, ``x +- ROOT_XTOL`` rounds to ``x``, and the
    probes are the doubles next to ``x``.
    """
    probes = (min(x - ROOT_XTOL, math.nextafter(x, -math.inf)), x,
              max(x + ROOT_XTOL, math.nextafter(x, math.inf)))
    slopes = [dtdx(v, params) for v in probes]
    if {_direction_index(s) for s in slopes} not in ({1}, {-1}):
        raise InfiniteVelocityError(f"dt/dx is {slopes[1]:.3e} at x={x}, a turning point to "
                                    f"within max({ROOT_XTOL:g}, 1 ulp): the velocity diverges "
                                    "there")
    return params.M / slopes[1]
