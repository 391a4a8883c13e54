"""Molecule wave function in bipolar (two running waves) and polar form.

Phase-shift convention: the left-moving component is ``alpha * exp(-i(kx +
beta))``, which pairs with the squared amplitude ``1 + alpha^2 + 2 alpha
cos(2kx + beta)`` and the arctangent phase used by the action module.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .model import LimitSeries, ModelParams


class PolarForm(NamedTuple):
    """Amplitude/phase representation of the molecule wave function at a point."""

    amplitude: float
    phase: float
    amplitude_squared: float


def amplitude_squared(x, params: ModelParams, xp=math):
    """Squared amplitude ``D = 1 + alpha^2 + 2 alpha cos(2kx + beta)``.

    ``x`` is a float, or an array with ``xp=np``: every kernel formula takes
    ``xp`` and is written once for both.

    Node policy: ``D > 0`` at every double input, so nothing checks for nodes.
    ``D`` is computed as ``(1 - alpha)^2 + 4 alpha cos^2(kx + beta/2)``, a sum of
    two non-negative doubles with no cancellation, so ``D >= (1 - alpha)^2 > 0``
    for ``alpha != 1``.  At ``alpha == 1``, ``D = 4 cos^2(...)`` is 0 only where
    ``cos`` returns exactly 0, which no double argument gives, and ``c == 0``
    there, so ``t == tau`` and ``dt/dx == 0``.
    """
    c = xp.cos(params.k * x + 0.5 * params.beta)
    return params._d_floor + params._four_alpha * c * c


def _slope_factor(x, params: ModelParams, d, xp=math):
    """``D - x D'`` with ``D' = -4 alpha k sin(2kx + beta)``, from ``d = D(x)``.

    ``dt/dx = c (D - x D') / D^2`` and ``m_q = M (D - x D') / D^3``.
    """
    return d - x * (params._d_slope * xp.sin(params._two_k * x + params.beta))


def psi_bipolar(x: float, params: ModelParams) -> complex:
    """Superposition ``exp(ikx) + alpha * exp(-i(kx + beta))`` of the two waves."""
    k, alpha, beta = params.k, params.alpha, params.beta
    return cmath.exp(1j * k * x) + alpha * cmath.exp(-1j * (k * x + beta))


def psi_polar(x: float, params: ModelParams) -> PolarForm:
    """Polar form of the molecule wave function.

    The phase is the two-argument arctangent of the superposition's
    imaginary/real parts, so it lies in ``(-pi, pi]``; branch continuity
    across cuts is handled by the action module, not here.
    """
    d = amplitude_squared(x, params)
    return PolarForm(math.sqrt(d), cmath.phase(psi_bipolar(x, params)), d)


def epr_limit_wave(x: float, params: ModelParams, alpha_sequence) -> LimitSeries:
    """Wave-function values along a sequence of alphas approaching 1.

    For ``beta = 0`` the values converge to ``2 cos(kx)``; for ``beta = pi``
    to ``2i sin(kx)``.  The sequence may come from either side and may end at
    exactly 1 (the wave function itself is regular there).
    """
    alphas = list(alpha_sequence)
    side = "above" if alphas and alphas[0] > 1.0 else "below"
    return LimitSeries.study(x, params, alphas, side, psi_bipolar)
