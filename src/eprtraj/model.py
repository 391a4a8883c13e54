"""Physical parameters, derived quantities, and the two-particle position relation.

The molecule is built from a right-moving particle of mass ``m`` (unit
amplitude) and a left-moving partner of mass ``alpha**2 * m`` (relative
amplitude ``alpha``, phase lag ``beta``).  The composite mass convention is
``M = m * (1 + alpha**2)`` so that the molecule wave function is an energy
eigenfunction with ``E = hbar**2 * k**2 / (2 * M)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ModelParams:
    """Validated parameter set.  Construct via :func:`validate_params`.

    ``hbar``, ``m``, ``alpha`` and ``k`` are strictly positive, ``beta`` is
    normalized to ``(-pi, pi]``, and ``E``, ``M`` and the motion coefficient
    ``c`` are derived.  ``tau`` is the epoch offset of the equation of motion
    (0 launches from the origin).
    """

    hbar: float
    m: float
    alpha: float
    beta: float
    k: float
    E: float
    M: float
    tau: float = 0.0
    c: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # motion coefficient m (1 - alpha^2) / (hbar k), factored to stay exact as alpha -> 1
        object.__setattr__(self, "c", self.m * (1.0 - self.alpha) * (1.0 + self.alpha)
                           / (self.hbar * self.k))

    def replace(self, **changes) -> "ModelParams":
        """Copy with some raw inputs changed, re-derived by :func:`validate_params`."""
        raw = dict(hbar=self.hbar, m=self.m, alpha=self.alpha, beta=self.beta,
                   k=self.k, tau=self.tau)
        raw.update(changes)
        return validate_params(**raw)


@dataclass(frozen=True)
class ParticlePositions:
    """Simultaneous positions of the two recoiling particles."""

    x1: float
    x2: float


@dataclass(frozen=True)
class LimitSeries:
    """Ordered ``(alpha, value)`` samples from a one-sided study of alpha -> 1.

    ``side`` declares the approach direction: ``"below"`` means the alphas
    increase strictly toward 1 (all <= 1), ``"above"`` means they decrease
    strictly toward 1 (all >= 1).  ``quantity`` tags what the values are.
    """

    entries: tuple
    side: str
    quantity: str

    def __post_init__(self):
        if self.side not in ("below", "above"):
            raise ValueError(f"side must be 'below' or 'above', got {self.side!r}")
        if not self.entries:
            raise ValueError("alpha sequence must not be empty")
        alphas = [a for a, _ in self.entries]
        pairs = list(zip(alphas, alphas[1:]))
        if self.side == "below":
            if any(a >= b for a, b in pairs) or any(a > 1.0 for a in alphas):
                raise ValueError("side='below' needs alphas strictly increasing toward 1")
        else:
            if any(a <= b for a, b in pairs) or any(a < 1.0 for a in alphas):
                raise ValueError("side='above' needs alphas strictly decreasing toward 1")

    @property
    def alphas(self) -> tuple:
        return tuple(a for a, _ in self.entries)

    @property
    def values(self) -> tuple:
        return tuple(v for _, v in self.entries)


def normalize_phase_shift(beta: float) -> float:
    """Reduce a phase shift modulo 2*pi into the interval (-pi, pi]."""
    return beta - TWO_PI * math.ceil(beta / TWO_PI - 0.5)


def validate_params(hbar: float, m: float, alpha: float, beta: float, k: float,
                    tau: float = 0.0) -> ModelParams:
    """Validate raw inputs and derive ``E``, ``M`` and the normalized ``beta``.

    Raises:
        ValueError: if any of ``hbar``, ``m``, ``alpha``, ``k`` is not a
            strictly positive finite number, or ``beta``/``tau`` is not finite.
    """
    for name, value in (("hbar", hbar), ("m", m), ("alpha", alpha), ("k", k)):
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"{name} must be positive, got {value}")
    for name, value in (("beta", beta), ("tau", tau)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    composite_mass = m * (1.0 + alpha * alpha)
    energy = hbar * hbar * k * k / (2.0 * composite_mass)
    return ModelParams(hbar=hbar, m=m, alpha=alpha, beta=normalize_phase_shift(beta),
                       k=k, E=energy, M=composite_mass, tau=tau)


def energy_from_wavenumber(k: float, params: ModelParams) -> float:
    """Energy of the molecule for wavenumber ``k``: hbar^2 k^2 / (2 M)."""
    if k < 0.0:
        raise ValueError(f"k must be non-negative, got {k}")
    return params.hbar * params.hbar * k * k / (2.0 * params.M)


def wavenumber_from_energy(energy: float, params: ModelParams) -> float:
    """Wavenumber for molecule energy ``E``: sqrt(2 M E) / hbar."""
    if energy < 0.0:
        raise ValueError(f"energy must be non-negative, got {energy}")
    return math.sqrt(2.0 * params.M * energy) / params.hbar


def particle_positions(x: float, params: ModelParams) -> ParticlePositions:
    """Positions of both particles when the molecule coordinate is ``x``.

    Relative position is conserved: ``x1 = -x2 / alpha**2``.
    """
    return ParticlePositions(x1=x, x2=-(params.alpha * params.alpha) * x)
