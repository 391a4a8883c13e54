"""Reduced action, conjugate momentum, quantum potential and effective mass.

The reduced action is ``hbar`` times the arctangent phase of the molecule
wave function.  Its principal branch lives in ``(-pi*hbar/2, pi*hbar/2]``
(the tangent branch); the unwrapped version continues it across branch
points so it is monotone in ``x`` whenever ``alpha != 1``.

Both the unwrapped action and the effective quantum mass are closed forms.
The wave function is ``exp(ikx) (1 + alpha exp(-i th))`` with ``th = 2kx +
beta``, or ``alpha exp(-i(kx + beta)) (1 + exp(i th) / alpha)``; the factor in
brackets stays in the right half-plane for ``alpha < 1`` (respectively
``alpha > 1``), so its two-argument arctangent is already continuous.  The
mass ``m_q = M (1 - dQ/dE) = M (D - x D') / D^3`` follows from ``Q = E (1 -
1/D^2)`` with ``k`` proportional to ``sqrt(E)``.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .model import ModelParams, normalize_phase_shift
from .wavefunction import _slope_factor, amplitude_squared, psi_bipolar


class ActionSample(NamedTuple):
    """Principal and unwrapped reduced action at one position."""

    x: float
    w_principal: float
    w_unwrapped: float
    sheet: int


class QuantumMassSample(NamedTuple):
    """Quantum potential and effective quantum mass at one position."""

    x: float
    q: float
    m_q: float


def reduced_action_principal(x: float, params: ModelParams) -> float:
    """Reduced action folded into the principal tangent branch."""
    # the phase shifted by a multiple of pi into (-pi/2, pi/2]: half of a 2 pi reduction
    phase = cmath.phase(psi_bipolar(x, params))
    return params.hbar * (0.5 * normalize_phase_shift(2.0 * phase))


def _continuous_phase(x: float, params: ModelParams) -> float:
    k, alpha, beta = params.k, params.alpha, params.beta
    th = 2.0 * k * x + beta
    if alpha < 1.0:
        return k * x - math.atan2(alpha * math.sin(th), 1.0 + alpha * math.cos(th))
    return -(k * x + beta) + math.atan2(math.sin(th), alpha + math.cos(th))


def reduced_action_unwrapped(x: float, params: ModelParams) -> float:
    """Continuous branch of the reduced action, anchored at ``x = 0``.

    Equals the principal value at the origin plus ``hbar`` times the growth
    of the continuous phase (see the module docstring) from 0 to ``x``.
    Strictly increasing in ``x`` for ``alpha < 1`` (strictly decreasing for
    ``alpha > 1``).

    For ``alpha == 1`` the phase is piecewise constant (standing wave) and has
    no continuous monotone branch; the anchored constant is returned.
    """
    w0 = reduced_action_principal(0.0, params)
    if params.alpha == 1.0:
        return w0
    return w0 + params.hbar * (_continuous_phase(x, params) - _continuous_phase(0.0, params))


def action_sample(x: float, params: ModelParams) -> ActionSample:
    """Principal value, unwrapped value and integer sheet index at ``x``."""
    w_p = reduced_action_principal(x, params)
    w_u = reduced_action_unwrapped(x, params)
    sheet = round((w_u - w_p) / (math.pi * params.hbar))
    return ActionSample(x=x, w_principal=w_p, w_unwrapped=w_u, sheet=sheet)


def conjugate_momentum(x: float, params: ModelParams) -> float:
    """Conjugate momentum ``hbar * k / D(x)``.

    Satisfies the continuity identity ``D * W' = hbar * k`` exactly.  Note
    this is not the mechanical momentum ``M * dx/dt`` along the trajectory.
    """
    return params.hbar * params.k / amplitude_squared(x, params, math, True)


def quantum_potential(x: float, params: ModelParams) -> float:
    """Quantum potential ``Q = E (1 - 1/D^2)``.

    This is the stationary Hamilton-Jacobi residual ``E - W'^2/(2M)`` for a
    free molecule, with ``W'`` the conjugate momentum above.
    """
    d = amplitude_squared(x, params, math, True)
    return params.E * (1.0 - 1.0 / (d * d))


def effective_quantum_mass(x, params: ModelParams, xp=math) -> QuantumMassSample:
    """Effective quantum mass ``m_q = M (1 - dQ/dE) = M (D - x D') / D^3``.

    ``D' = -4 alpha k sin(2kx + beta)`` is the slope of the squared
    amplitude; ``dQ/dE`` is taken at fixed ``(x, alpha, beta, m, hbar)`` with
    ``k = sqrt(2 M E) / hbar``.  The composite mass ``M`` multiplies the
    bracket.  ``x`` is a float, or an array with ``xp=np``.

    Raises:
        SingularityError: on a standing-wave node.
    """
    d = amplitude_squared(x, params, xp, True)
    return QuantumMassSample(x, params.E * (1.0 - 1.0 / (d * d)),
                             params.M * _slope_factor(x, params, d, xp) / (d * d * d))
