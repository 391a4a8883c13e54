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
        hbar, m, alpha, beta, k, inf = self.hbar, self.m, self.alpha, self.beta, self.k, math.inf
        ok = (0.0 < hbar < inf, 0.0 < m < inf, 0.0 < alpha < inf, 0.0 < k < inf,
              -inf < beta < inf, -inf < self.tau < inf)  # NaN fails too
        if not all(ok):  # name the first bad input
            name = ("hbar", "m", "alpha", "k", "beta", "tau")[i := ok.index(False)]
            kind = "finite" if i > 3 else "positive"
            raise ValueError(f"{name} must be {kind}, got {getattr(self, name)}")
        one_minus, hk, composite_mass = 1.0 - alpha, hbar * k, m * (1.0 + alpha * alpha)
        energy = hbar * hbar * k * k / (2.0 * composite_mass)
        # m (1 - alpha^2) / (hbar k), factored to stay exact as alpha -> 1
        c = m * one_minus * (1.0 + alpha) / hk if hk else inf
        if not (composite_mass < inf and -inf < energy < inf and -inf < c < inf):  # M > 0
            name = "M" if composite_mass == inf else "c" if -inf < energy < inf else "E"
            raise ValueError(f"{name} overflows for hbar={hbar}, m={m}, alpha={alpha}, k={k}")
        # frozen: derived fields are set past the dataclass __setattr__, never through
        # vars(self), which would slow every later attribute read (CPython 3.11)
        set_ = object.__setattr__
        if not -math.pi < beta <= math.pi:
            set_(self, "beta", normalize_phase_shift(beta))
        set_(self, "M", composite_mass)
        set_(self, "E", energy)
        set_(self, "c", c)
        # kernel constants, each the subexpression a kernel evaluated per call (bit for bit):
        # free of beta (a curve's copy keeps them), unchecked like that arithmetic
        set_(self, "_d_floor", one_minus * one_minus)  # (1 - alpha)^2, the floor of D
        set_(self, "_four_alpha", 4.0 * alpha)
        set_(self, "_two_k", 2.0 * k)
        set_(self, "_d_slope", -4.0 * alpha * k)  # D' = _d_slope sin(2kx + beta)

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
        alpha.  The checks come first: a malformed study is a ValueError before any
        value is computed."""
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
    """Reduce a phase shift modulo 2*pi into the interval (-pi, pi]; one in it stays as is."""
    r = beta - math.tau * math.ceil(beta / math.tau - 0.5)  # rounding can leave r a period out
    return beta if -math.pi < beta <= math.pi else r - math.tau * ((r > math.pi) - (r <= -math.pi))


validate_params = ModelParams  # raw inputs to a checked, derived parameter set: one constructor


def particle_positions(x: float, params: ModelParams) -> ParticlePositions:
    """Positions of both particles when the molecule coordinate is ``x``.

    Relative position is conserved: ``x1 = -x2 / alpha**2``.
    """
    return ParticlePositions(x1=x, x2=-(params.alpha * params.alpha) * x)
