"""Dissection of the motion into particle and entanglon terms, and limit studies.

The motion splits into a weighted free-particle term per recoiling particle
plus an emergent entanglement term (the "entanglon") that carries the
interference factor ``cos(2kx + beta)``.  Contributions are stored signed so
they sum exactly to the total time.  Trigger points are the positions of
maximum destructive interference, ``cos(2kx + beta) = -1``, where the
entanglon term diverges as alpha -> 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .action import effective_quantum_mass
from .model import LimitSeries, ModelParams
from .trajectory import time_of_position
from .wavefunction import amplitude_squared

TRIGGER_TOL = 1e-9


class Decomposition(NamedTuple):
    """Signed time contributions: particle 1, particle 2, entanglon."""

    c_p1: float
    c_p2: float
    c_ent: float
    total: float


def is_trigger_point(x: float, params: ModelParams) -> bool:
    """True where ``cos(2kx + beta)`` is -1 to within ``TRIGGER_TOL``."""
    return abs(math.cos(2.0 * params.k * x + params.beta) + 1.0) < TRIGGER_TOL


def decompose_time(x: float, params: ModelParams) -> Decomposition:
    """Split ``time_of_position(x)`` into its three signed contributions.

    ``c_p1 = (mx/hbar k)/(1+a^2)`` and ``c_p2 = -(mx/hbar k) a^2/(1+a^2)``
    are the weighted free motions of the two particles; ``c_ent`` carries
    everything produced by their interference and vanishes identically where
    ``cos(2kx + beta) = 0``.  The three sum exactly to the total.
    """
    return Decomposition(*_time_parts(x, params))


def _time_parts(x, params: ModelParams, xp=math):
    """``(c_p1, c_p2, c_ent, total)`` of :func:`decompose_time`, float or array (``xp=np``)."""
    a = params.alpha
    d = amplitude_squared(x, params, xp, True)
    cos_th = xp.cos(2.0 * params.k * x + params.beta)
    u = params.m * x / (params.hbar * params.k)
    weight = 1.0 + a * a
    c_p1 = u / weight
    c_p2 = -u * a * a / weight
    c_ent = -u * 2.0 * a * ((1.0 - a) * (1.0 + a) / weight) * cos_th / d
    return c_p1, c_p2, c_ent, c_p1 + c_p2 + c_ent


def _divergence_ratio(t: float, x: float, params: ModelParams) -> float:
    # t over the trigger-point divergence scale 2mx / (hbar k (1 - alpha))
    return t * params.hbar * params.k * (1.0 - params.alpha) / (2.0 * params.m * x)


def entanglon_divergence(x: float, params: ModelParams, alpha_sequence) -> LimitSeries:
    """Ratio of the total time to the divergence scale ``2mx/(hbar k (1-a))``.

    Only defined at trigger points, where the squared amplitude collapses to
    ``(1-a)^2`` and the ratio equals ``(1+a)/2``, tending to 1 as alpha -> 1
    from below.
    """
    if x == 0.0:
        raise ValueError("x=0 has no divergence scale; use decompose_time")
    if not is_trigger_point(x, params):
        raise ValueError(
            f"x={x} is not a trigger point (cos(2kx+beta) != -1); "
            "use decompose_time for generic positions")
    return LimitSeries.study(x, params, alpha_sequence, "below",
                             lambda x, p: _divergence_ratio(time_of_position(x, p), x, p))


def epr_limit_time(x: float, params: ModelParams, alpha_sequence,
                   side: str) -> LimitSeries:
    """Motion times along a one-sided alpha sequence approaching 1.

    The below side pairs with ``x > 0`` and the above side with ``x < 0``
    (each side's wedge spans one quadrant).  Off trigger points the times
    shrink linearly in ``|1 - alpha|``; at trigger points they diverge as
    ``1/|1 - alpha|``.
    """
    if side == "below" and x <= 0.0:
        raise ValueError(f"side='below' pairs with x > 0, got x={x}")
    if side == "above" and x >= 0.0:
        raise ValueError(f"side='above' pairs with x < 0, got x={x}")
    return LimitSeries.study(x, params, alpha_sequence, side, time_of_position)


def epr_limit_mass(x: float, params: ModelParams, alpha_sequence) -> LimitSeries:
    """Effective quantum mass along an alpha sequence approaching 1 from below.

    At trigger points ``|m_q|`` grows without bound along the sequence; off
    trigger points the values are recorded without an asserted limit.
    """
    return LimitSeries.study(x, params, alpha_sequence, "below",
                             lambda x, p: effective_quantum_mass(x, p).m_q)
