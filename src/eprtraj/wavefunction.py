"""Molecule wave function in bipolar (two running waves) and polar form.

Phase-shift convention: the left-moving component is ``alpha * exp(-i(kx +
beta))``, which pairs with the squared amplitude ``1 + alpha^2 + 2 alpha
cos(2kx + beta)`` and the arctangent phase used by the action module.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import SingularityError
from .model import LimitSeries, ModelParams

# Below this squared amplitude the molecule sits on a standing-wave node and
# momentum/time evaluations overflow; callers get a SingularityError instead.
MIN_AMPLITUDE_SQUARED = 1e-14


class PolarForm(NamedTuple):
    """Amplitude/phase representation of the molecule wave function at a point."""

    amplitude: float
    phase: float
    amplitude_squared: float


def amplitude_squared(x, params: ModelParams, xp=math, checked: bool = False):
    """Squared amplitude ``D = 1 + alpha^2 + 2 alpha cos(2kx + beta)``.

    ``x`` is a float, or an array with ``xp=np``: every kernel formula takes
    ``xp`` and is written once for both.  With ``checked`` a standing-wave node
    raises :class:`SingularityError`: ``D`` (for an array, its smallest value)
    below ``MIN_AMPLITUDE_SQUARED``.
    """
    # (1-a)^2 + 4a cos^2(kx + b/2) == 1 + a^2 + 2a cos(2kx + b), rewritten so
    # no cancellation occurs near standing-wave nodes (both terms are >= 0).
    alpha = params.alpha
    c = xp.cos(params.k * x + 0.5 * params.beta)
    d = (1.0 - alpha) * (1.0 - alpha) + 4.0 * alpha * c * c
    if checked:
        low = d < MIN_AMPLITUDE_SQUARED
        if low if xp is math else low.any():
            i = np.argmin(d)
            raise SingularityError(f"amplitude squared is {np.ravel(d)[i]:.3e} "
                                   f"at x={np.ravel(x)[i]}: standing-wave node")
    return d


def _slope_factor(x, params: ModelParams, d, xp=math):
    """``D - x D'`` with ``D' = -4 alpha k sin(2kx + beta)``, from ``d = D(x)``.

    ``dt/dx = c (D - x D') / D^2`` and ``m_q = M (D - x D') / D^3``.
    """
    return d - x * (-4.0 * params.alpha * params.k * xp.sin(2.0 * params.k * x + params.beta))


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
    return PolarForm(amplitude=math.sqrt(d), phase=cmath.phase(psi_bipolar(x, params)),
                     amplitude_squared=d)


def epr_limit_wave(x: float, params: ModelParams, alpha_sequence) -> LimitSeries:
    """Wave-function values along a sequence of alphas approaching 1.

    For ``beta = 0`` the values converge to ``2 cos(kx)``; for ``beta = pi``
    to ``2i sin(kx)``.  The sequence may come from either side and may end at
    exactly 1 (the wave function itself is regular there).
    """
    alphas = list(alpha_sequence)
    side = "above" if alphas and alphas[0] > 1.0 else "below"
    return LimitSeries.study(x, params, alphas, side, psi_bipolar)
