"""Closed-form reference values for checking eprtraj outputs.

Nothing here imports eprtraj: every value is derived again from the paper's
equation of motion ``t(x) = tau + m x (1 - a^2) / (hbar k D(x))`` with
``D(x) = (1 - a)^2 + 4 a cos^2(k x + beta / 2)`` (the cancellation-free form of
``1 + a^2 + 2 a cos(2 k x + beta)``).  A parameter set is a plain dict with
the keys ``hbar, m, alpha, beta, k, tau``.
"""

from __future__ import annotations

import math

import numpy as np

# Points per half-period of cos(2 k x + beta) when counting sign changes.
# At 256 the counts of every workload range are the same as at 1024.
ROOT_GRID_PER_HALF_PERIOD = 256
_CHUNK = 1 << 20


def with_alpha(p: dict, alpha: float) -> dict:
    return {**p, "alpha": alpha}


def normalize_beta(beta: float) -> float:
    return beta - 2.0 * math.pi * math.ceil(beta / (2.0 * math.pi) - 0.5)


def amp2(x, p):
    c = np.cos(p["k"] * x + 0.5 * p["beta"])
    return (1.0 - p["alpha"]) ** 2 + 4.0 * p["alpha"] * c * c


def amp2_prime(x, p):
    return -4.0 * p["alpha"] * p["k"] * np.sin(2.0 * p["k"] * x + p["beta"])


def coef(p) -> float:
    a = p["alpha"]
    return p["m"] * (1.0 - a) * (1.0 + a) / (p["hbar"] * p["k"])


def time(x, p):
    return p["tau"] + coef(p) * x / amp2(x, p)


def slope(x, p):
    d = amp2(x, p)
    return coef(p) * (d - x * amp2_prime(x, p)) / (d * d)


def slope_scale(x, p):
    """Magnitude of the terms that cancel in ``slope`` (for tolerances)."""
    d = amp2(x, p)
    return abs(coef(p)) * (d + np.abs(x * amp2_prime(x, p))) / (d * d)


def turning_function(x, p):
    """Same sign as dt/dx and free of poles: ``D - x D'``."""
    return amp2(x, p) - x * amp2_prime(x, p)


def crossing_function(x, p, t):
    """Same sign as ``t(x) - t`` for x where D > 0, free of poles."""
    return coef(p) * x - (t - p["tau"]) * amp2(x, p)


def wedge(x, p):
    a = p["alpha"]
    scale = p["m"] * x / (p["hbar"] * p["k"])
    return scale * (1.0 - a) / (1.0 + a), scale * (1.0 + a) / (1.0 - a)


def decompose(x, p):
    """(c_p1, c_p2, c_ent, total) of the particle/entanglon split."""
    a = p["alpha"]
    u = p["m"] * x / (p["hbar"] * p["k"])
    w = 1.0 + a * a
    total = coef(p) * x / amp2(x, p)
    c1 = u / w
    c2 = -u * a * a / w
    return c1, c2, total - c1 - c2, total


def composite_mass(p) -> float:
    return p["m"] * (1.0 + p["alpha"] ** 2)


def energy(p) -> float:
    return p["hbar"] ** 2 * p["k"] ** 2 / (2.0 * composite_mass(p))


def quantum_potential(x, p):
    d = amp2(x, p)
    return energy(p) * (1.0 - 1.0 / (d * d))


def quantum_mass(x, p):
    """Analytic ``m_q = M (1 - dQ/dE)`` with ``k = sqrt(2 M E) / hbar``.

    ``dQ/dE = 1 - 1/D^2 - 4 a k x sin(2kx + beta) / D^3``.
    """
    a, k = p["alpha"], p["k"]
    d = amp2(x, p)
    return composite_mass(p) * (1.0 / (d * d)
                                + 4.0 * a * k * x * np.sin(2.0 * k * x + p["beta"]) / d ** 3)


def phase(x, p):
    """Principal arctangent phase of ``exp(ikx) + a exp(-i(kx + beta))``."""
    k, a, b = p["k"], p["alpha"], p["beta"]
    return np.arctan2(np.sin(k * x) - a * np.sin(k * x + b),
                      np.cos(k * x) + a * np.cos(k * x + b))


def fold_half_period(w):
    return w - math.pi * np.ceil(w / math.pi - 0.5)


def action_principal(x, p):
    return p["hbar"] * fold_half_period(phase(x, p))


def action_unwrapped(x, p):
    """Continuous reduced action anchored at x = 0, in closed form.

    The wave function is ``exp(-i beta/2) [(1+a) cos th + i (1-a) sin th]``
    with ``th = k x + beta/2``, so its continuous phase is
    ``atan(r tan th) + sign(r) pi floor(th/pi + 1/2)`` with ``r = (1-a)/(1+a)``.
    """
    a, b = p["alpha"], p["beta"]
    r = (1.0 - a) / (1.0 + a)
    sheet = math.copysign(math.pi, r)

    def branch(th):
        return np.arctan(r * np.tan(th)) + sheet * np.floor(th / math.pi + 0.5)

    th = p["k"] * x + 0.5 * b
    return action_principal(0.0, p) + p["hbar"] * (branch(th) - branch(0.5 * b))


def _sign_changes(f, lo: float, hi: float, k: float) -> int:
    """Sign changes of ``f`` on a dense grid over [lo, hi], in bounded chunks."""
    half_period = math.pi / (2.0 * k)
    n = max(2, int(math.ceil((hi - lo) / half_period * ROOT_GRID_PER_HALF_PERIOD)))
    total = 0
    last = None
    for start in range(0, n + 1, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, n + 1))
        s = np.sign(f(lo + (hi - lo) * idx / n))
        total += int(np.count_nonzero(s[:-1] * s[1:] < 0.0))
        if last is not None and last * s[0] < 0.0:
            total += 1
        last = s[-1]
    return total


def expected_turning_points(p: dict, lo: float, hi: float) -> int:
    return _sign_changes(lambda x: turning_function(x, p), lo, hi, p["k"])


def expected_positions(p: dict, t: float, lo: float, hi: float) -> int:
    return _sign_changes(lambda x: crossing_function(x, p, t), lo, hi, p["k"])


class RootOracle:
    """Expected root counts, cached by call so each range is counted once."""

    def __init__(self):
        self._cache: dict = {}

    @staticmethod
    def _key(p):
        return (p["hbar"], p["m"], p["alpha"], normalize_beta(p["beta"]), p["k"], p["tau"])

    def turning(self, p: dict, lo: float, hi: float) -> int:
        key = ("tp", self._key(p), lo, hi)
        if key not in self._cache:
            self._cache[key] = expected_turning_points(p, lo, hi)
        return self._cache[key]

    def positions(self, p: dict, t: float, lo: float, hi: float) -> int:
        key = ("inv", self._key(p), t, lo, hi)
        if key not in self._cache:
            self._cache[key] = expected_positions(p, t, lo, hi)
        return self._cache[key]


def brackets_sign_change(f, x, delta) -> np.ndarray:
    """True where ``f`` changes sign (or vanishes) within ``[x - delta, x + delta]``."""
    x = np.asarray(x, dtype=float)
    return f(x - delta) * f(x + delta) <= 0.0
