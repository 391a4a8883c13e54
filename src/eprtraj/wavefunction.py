"""Molecule wave function in bipolar (two running waves) and polar form.

Phase-shift convention: the left-moving component is ``alpha * exp(-i(kx +
beta))``, which pairs with the squared amplitude ``1 + alpha^2 + 2 alpha
cos(2kx + beta)`` and the arctangent phase used by the action module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import SingularityError
from .model import LimitSeries, ModelParams

# Below this squared amplitude the molecule sits on a standing-wave node and
# momentum/time evaluations overflow; callers get a SingularityError instead.
MIN_AMPLITUDE_SQUARED = 1e-14


@dataclass(frozen=True)
class PolarForm:
    """Amplitude/phase representation of the molecule wave function at a point."""

    amplitude: float
    phase: float
    amplitude_squared: float


def _phase_parts(x: float, k: float, alpha: float, beta: float) -> tuple[float, float]:
    num = math.sin(k * x) - alpha * math.sin(k * x + beta)
    den = math.cos(k * x) + alpha * math.cos(k * x + beta)
    return num, den


def amplitude_squared(x: float, params: ModelParams) -> float:
    """Squared amplitude ``1 + alpha^2 + 2 alpha cos(2kx + beta)``."""
    # (1-a)^2 + 4a cos^2(kx + b/2) == 1 + a^2 + 2a cos(2kx + b), rewritten so
    # no cancellation occurs near standing-wave nodes (both terms are >= 0).
    alpha = params.alpha
    c = math.cos(params.k * x + 0.5 * params.beta)
    return (1.0 - alpha) * (1.0 - alpha) + 4.0 * alpha * c * c


def checked_amplitude_squared(x: float, params: ModelParams) -> float:
    """Squared amplitude, raising :class:`SingularityError` on a node."""
    d = amplitude_squared(x, params)
    if d < MIN_AMPLITUDE_SQUARED:
        raise SingularityError(
            f"amplitude squared is {d:.3e} at x={x}: standing-wave node")
    return d


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
    num, den = _phase_parts(x, params.k, params.alpha, params.beta)
    return PolarForm(amplitude=math.sqrt(d), phase=math.atan2(num, den),
                     amplitude_squared=d)


def epr_limit_wave(x: float, params: ModelParams, alpha_sequence) -> LimitSeries:
    """Wave-function values along a sequence of alphas approaching 1.

    For ``beta = 0`` the values converge to ``2 cos(kx)``; for ``beta = pi``
    to ``2i sin(kx)``.  The sequence may come from either side and may end at
    exactly 1 (the wave function itself is regular there).
    """
    alphas = list(alpha_sequence)
    if not alphas:
        raise ValueError("alpha_sequence must not be empty")
    side = "above" if alphas[0] > 1.0 else "below"
    entries = tuple((a, psi_bipolar(x, params.replace(alpha=a))) for a in alphas)
    return LimitSeries(entries, side, "psi")
