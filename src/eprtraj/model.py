"""Physical parameters, derived quantities, and the two-particle position relation.

The molecule is built from a right-moving particle of mass ``m`` (unit
amplitude) and a left-moving partner of mass ``alpha**2 * m`` (relative
amplitude ``alpha``, phase lag ``beta``).  The composite mass convention is
``M = m * (1 + alpha**2)`` so that the molecule wave function is an energy
eigenfunction with ``E = hbar**2 * k**2 / (2 * M)``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from typing import NamedTuple

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ModelParams:
    """Parameter set that checks and derives itself when constructed.

    ``hbar``, ``m``, ``alpha`` and ``k`` must be positive and ``beta`` and
    ``tau`` (the epoch offset of the motion: 0 launches from the origin)
    finite, or a ValueError is raised.  ``beta`` is normalized to ``(-pi,
    pi]``; ``E``, ``M`` and the motion coefficient ``c`` are derived and finite.
    """

    hbar: float
    m: float
    alpha: float
    beta: float
    k: float
    E: float = field(init=False)
    M: float = field(init=False)
    tau: float = 0.0
    c: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        hbar, m, alpha, k = self.hbar, self.m, self.alpha, self.k
        for name, value in (("hbar", hbar), ("m", m), ("alpha", alpha), ("k", k)):
            if not 0.0 < value < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive, got {value}")
        for name, value in (("beta", self.beta), ("tau", self.tau)):
            if not -math.inf < value < math.inf:
                raise ValueError(f"{name} must be finite, got {value}")
        composite_mass, hk = m * (1.0 + alpha * alpha), hbar * k
        derived = (("M", composite_mass), ("E", hbar * hbar * k * k / (2.0 * composite_mass)),
                   # m (1 - alpha^2) / (hbar k), factored to stay exact as alpha -> 1
                   ("c", m * (1.0 - alpha) * (1.0 + alpha) / hk if hk else math.inf))
        # frozen: derived fields are set past the dataclass __setattr__, never through
        # vars(self), which would slow every later attribute read (CPython 3.11)
        object.__setattr__(self, "beta", normalize_phase_shift(self.beta))
        for name, value in derived:
            if not -math.inf < value < math.inf:
                raise ValueError(f"{name} overflows for hbar={hbar}, m={m}, alpha={alpha}, k={k}")
            object.__setattr__(self, name, value)

    def replace(self, **changes) -> "ModelParams":
        """Copy with some raw inputs changed, checked and derived again: faster than
        ``dataclasses.replace`` (studies call it per alpha); other names raise TypeError."""
        inputs = [*map(changes.pop, _INPUTS, _get_inputs(self))]
        return ModelParams(*inputs, **changes)


_INPUTS = tuple(f.name for f in fields(ModelParams) if f.init)
_get_inputs = operator.attrgetter(*_INPUTS)


class ParticlePositions(NamedTuple):
    """Simultaneous positions of the two recoiling particles."""

    x1: float
    x2: float


@dataclass(frozen=True)
class LimitSeries:
    """Ordered ``(alpha, value)`` samples from a one-sided study of alpha -> 1.

    ``side`` declares the approach direction: ``"below"`` means the alphas
    increase strictly toward 1 (all <= 1), ``"above"`` means they decrease
    strictly toward 1 (all >= 1).
    The sequence may end at exactly 1, where the motion coefficient vanishes.
    """

    entries: tuple
    side: str

    def __post_init__(self):
        self._check([a for a, _ in self.entries], self.side)

    @staticmethod
    def _check(alphas: list, side: str) -> None:
        """A non-empty sequence approaching 1 strictly monotonically from ``side``."""
        if side not in ("below", "above"):
            raise ValueError(f"side must be 'below' or 'above', got {side!r}")
        if not alphas:
            raise ValueError("alpha sequence must not be empty")
        # each alpha comes before the next, the last before 1 or at it; NaN fails
        before = operator.lt if side == "below" else operator.gt
        last = alphas[-1]
        if not (all(map(before, alphas, alphas[1:])) and (before(last, 1.0) or last == 1.0)):
            trend = "increasing" if side == "below" else "decreasing"
            raise ValueError(f"side={side!r} needs alphas strictly {trend} toward 1 "
                             "(a monotonic one-sided approach)")

    @classmethod
    def study(cls, x: float, params: ModelParams, alphas, side: str, value) -> LimitSeries:
        """``value(x, p)`` at each alpha of a checked sequence, ``p`` the params at that
        alpha.  The checks come first: a malformed study is a ValueError even where
        one of its alphas sits on a standing-wave node."""
        if not math.isfinite(x):
            raise ValueError(f"x must be finite, got x={x}")
        alphas = list(alphas)
        cls._check(alphas, side)
        return cls(tuple((a, value(x, params.replace(alpha=a))) for a in alphas), side)

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
    """The :class:`ModelParams` of these raw inputs; raises ValueError as it does."""
    return ModelParams(hbar, m, alpha, beta, k, tau)


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
