"""Shared fixtures and independent numerical oracles for the test suite."""

import math

import mpmath
import pytest

from eprtraj import amplitude_squared, validate_params

# Reference parameter set used throughout: hbar = m = 1, k = pi/2,
# alpha = 0.5, beta = 0, tau = 0.
REF = dict(hbar=1.0, m=1.0, alpha=0.5, beta=0.0, k=math.pi / 2)


@pytest.fixture
def ref_params():
    return validate_params(**REF)


def make_params(alpha=0.5, beta=0.0, k=math.pi / 2, hbar=1.0, m=1.0, tau=0.0):
    return validate_params(hbar, m, alpha, beta, k, tau)


def five_point_derivative(f, x, h):
    """Fourth-order central first derivative."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def five_point_second(f, x, h):
    """Fourth-order central second derivative."""
    return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h)
            - f(x - 2 * h)) / (12 * h * h)


def energy_difference_mass(x, params, step=1e-6):
    """Effective quantum mass M (1 - dQ/dE) by a central difference in E.

    Each perturbed energy re-derives its wavenumber through
    k = sqrt(2 M E) / hbar, and Q = E (1 - 1/D^2) is evaluated there.
    Second-order accurate, and poor where D is tiny.
    """
    def q_at(energy):
        p = params.replace(k=math.sqrt(2.0 * params.M * energy) / params.hbar)
        d = amplitude_squared(x, p)
        return energy * (1.0 - 1.0 / (d * d))

    e_hi, e_lo = params.E * (1.0 + step), params.E * (1.0 - step)
    return params.M * (1.0 - (q_at(e_hi) - q_at(e_lo)) / (e_hi - e_lo))


def _mp_phase(xm, a, b, k):
    """:func:`mp_phase` from mpf inputs."""
    s = k * xm + b / 2
    r = (1 - a) / (1 + a)
    sheet = mpmath.floor(s / mpmath.pi + mpmath.mpf(0.5))
    return -b / 2 + mpmath.atan(r * mpmath.tan(s)) + mpmath.sign(r) * mpmath.pi * sheet


def mp_phase(x, params):
    """Continuous phase of the wave function at 50 digits, from the same floats.

    psi = exp(-i beta/2) [(1 + a) cos s + i (1 - a) sin s] with s = kx + beta/2,
    so the phase is -beta/2 + atan(r tan s) + sign(r) pi floor(s/pi + 1/2),
    r = (1 - a)/(1 + a): a route independent of the library's arctangents.
    """
    with mpmath.workdps(50):
        a, b, k, xm = (mpmath.mpf(v) for v in (params.alpha, params.beta, params.k, x))
        return +_mp_phase(xm, a, b, k)


def mp_jacobi_time(x, params):
    """Jacobi's theorem at 50 digits: t = tau + dW/dE of the closed-form unwrapped action.

    W = hbar phase(x) + const (the anchor at x = 0 does not depend on k), and
    mpmath differentiates it along the single-particle energy E = hbar^2 k^2 /
    (2 m), with k = k0 sqrt(E/E0) pinned so that k(E0) is exactly the float k0.
    That is the normalization under which the motion is the exact energy
    derivative of the action (the composite scale M gives (1 + alpha^2) times it).
    """
    with mpmath.workdps(50):
        a, b, k0, xm, hbar = (mpmath.mpf(v) for v in
                              (params.alpha, params.beta, params.k, x, params.hbar))
        e0 = hbar * hbar * k0 * k0 / (2 * mpmath.mpf(params.m))
        return mpmath.mpf(params.tau) + mpmath.diff(
            lambda e: hbar * _mp_phase(xm, a, b, k0 * mpmath.sqrt(e / e0)), e0)


def mp_effective_mass(x, params):
    """M (1 - dQ/dE) at 50 digits, differentiating Q(E) numerically in mpmath.

    Q(E) = E (1 - 1/D^2) with k = k0 sqrt(E/E0), the energy relation at
    fixed M and hbar, pinned so that k(E0) is exactly the float k0.
    """
    with mpmath.workdps(50):
        a, b, xm = (mpmath.mpf(v) for v in (params.alpha, params.beta, x))
        k0, e0 = mpmath.mpf(params.k), mpmath.mpf(params.E)

        def q(energy):
            k = k0 * mpmath.sqrt(energy / e0)
            d = 1 + a * a + 2 * a * mpmath.cos(2 * k * xm + b)
            return energy * (1 - 1 / (d * d))

        return float(mpmath.mpf(params.M) * (1 - mpmath.diff(q, e0)))


def mp_amplitude_squared(x, params):
    """D = 1 + a^2 + 2 a cos(2kx + beta) at 50 digits, bipolar form, from the same floats."""
    with mpmath.workdps(50):
        a, b, k, xm = (mpmath.mpf(v) for v in (params.alpha, params.beta, params.k, x))
        return 1 + a * a + 2 * a * mpmath.cos(2 * k * xm + b)


def mp_time(x, params):
    """t(x) = tau + m x (1 - a^2) / (hbar k D) at 50 digits, bipolar form of D."""
    with mpmath.workdps(50):
        a, k, xm = (mpmath.mpf(v) for v in (params.alpha, params.k, x))
        return mpmath.mpf(params.tau) + mpmath.mpf(params.m) * (1 - a * a) * xm \
            / (mpmath.mpf(params.hbar) * k * mp_amplitude_squared(x, params))


def mp_root(f, x0):
    """The root of ``f`` next to the float ``x0``, by the secant method at 50 digits."""
    with mpmath.workdps(50):
        return mpmath.findroot(f, mpmath.mpf(x0))


def mp_position(t, x0, params):
    """The position next to ``x0`` at time ``t``: the root of c x - (t - tau) D, which has
    the roots of t(x) - t and no pole to throw the secant method off."""
    with mpmath.workdps(50):
        a = mpmath.mpf(params.alpha)
        c = mpmath.mpf(params.m) * (1 - a * a) / (mpmath.mpf(params.hbar) * mpmath.mpf(params.k))
        dt = mpmath.mpf(t) - mpmath.mpf(params.tau)
        return mp_root(lambda v: c * v - dt * mp_amplitude_squared(v, params), x0)


def mp_turning_point(x0, params):
    """The zero of dt/dx next to ``x0`` (mpmath's own derivative of :func:`mp_time`)."""
    with mpmath.workdps(50):
        return mp_root(lambda v: mpmath.diff(lambda y: mp_time(y, params), v), x0)
