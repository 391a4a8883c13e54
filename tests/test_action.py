import math

import numpy as np
import pytest

from eprtraj import (
    action_sample,
    amplitude_squared,
    conjugate_momentum,
    effective_quantum_mass,
    quantum_potential,
    reduced_action_principal,
    reduced_action_unwrapped,
)

from conftest import (
    energy_difference_mass,
    five_point_derivative,
    five_point_second,
    make_params,
    mp_amplitude_squared,
    mp_effective_mass,
    mp_phase,
)


def test_principal_examples(ref_params):
    assert reduced_action_principal(0.0, ref_params) == 0.0
    assert reduced_action_principal(0.5, ref_params) == pytest.approx(
        math.atan(1 / 3), rel=1e-14)
    # branch point: denominator of the phase argument crosses zero at x=1
    assert reduced_action_principal(1.0, ref_params) == pytest.approx(
        math.pi / 2, abs=1e-12)


def test_principal_stays_on_branch():
    rng = np.random.default_rng(13)
    for _ in range(500):
        p = make_params(alpha=rng.uniform(0.05, 1.4), beta=rng.uniform(-3, 3))
        w = reduced_action_principal(rng.uniform(-20, 20), p)
        assert -math.pi / 2 * p.hbar < w <= math.pi / 2 * p.hbar + 1e-15


def test_unwrapped_examples(ref_params):
    assert reduced_action_unwrapped(0.0, ref_params) == 0.0
    assert reduced_action_unwrapped(0.5, ref_params) == pytest.approx(
        math.atan(1 / 3), rel=1e-12)
    assert reduced_action_unwrapped(1.0, ref_params) == pytest.approx(
        math.pi / 2, rel=1e-12)
    assert reduced_action_unwrapped(2.0, ref_params) == pytest.approx(
        math.pi, rel=1e-12)


def test_unwrapped_anchor_matches_principal_at_origin():
    for beta in (0.0, 1.0, math.pi, -2.0):
        p = make_params(alpha=0.7, beta=beta)
        assert reduced_action_unwrapped(0.0, p) == reduced_action_principal(0.0, p)


@pytest.mark.parametrize("alpha", [0.5, 0.9])
def test_unwrapped_strictly_increasing(alpha):
    p = make_params(alpha=alpha, beta=0.7)
    xs = np.linspace(-3.0, 6.0, 241)
    ws = [reduced_action_unwrapped(x, p) for x in xs]
    assert all(b > a for a, b in zip(ws, ws[1:]))


def test_unwrapped_decreasing_above_one():
    # for alpha > 1 the left-moving component dominates and the continuous
    # branch decreases; |W| still grows away from the anchor
    p = make_params(alpha=1.5)
    xs = np.linspace(0.0, 4.0, 81)
    ws = [reduced_action_unwrapped(x, p) for x in xs]
    assert all(b < a for a, b in zip(ws, ws[1:]))


def test_unwrapped_alpha_one_is_constant_branch():
    p = make_params(alpha=1.0, beta=0.0)
    assert reduced_action_unwrapped(2.7, p) == reduced_action_principal(0.0, p)


def test_sheet_index(ref_params):
    rng = np.random.default_rng(17)
    for _ in range(60):
        x = rng.uniform(-8, 8)
        sample = action_sample(x, ref_params)
        assert isinstance(sample.sheet, int)
        assert sample.w_unwrapped == pytest.approx(
            sample.w_principal + sample.sheet * math.pi * ref_params.hbar, abs=1e-10)
    assert action_sample(2.0, ref_params).sheet == 1


def test_conjugate_momentum_values(ref_params):
    assert conjugate_momentum(0.0, ref_params) == pytest.approx(
        0.6981317007977318, rel=1e-14)
    assert conjugate_momentum(1.0, ref_params) == pytest.approx(
        2 * math.pi, rel=1e-14)


def test_continuity_identity():
    rng = np.random.default_rng(19)
    for _ in range(500):
        p = make_params(alpha=rng.uniform(0.05, 0.95), beta=rng.uniform(-3, 3))
        x = rng.uniform(-10, 10)
        d = amplitude_squared(x, p)
        assert abs(d * conjugate_momentum(x, p) - p.hbar * p.k) <= 1e-12


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_unwrapped_derivative_is_scaled_conjugate_momentum(alpha):
    # dW/dx = (1 - alpha^2) * hbar k / D: the conjugate momentum carries the
    # continuity normalization hbar k / D, while the actual slope of the
    # unwrapped phase is smaller by the factor (1 - alpha^2).
    p = make_params(alpha=alpha, beta=0.4)
    for x in (0.3, 0.9, 1.7, 2.6):
        fd = five_point_derivative(lambda v: reduced_action_unwrapped(v, p), x, 1e-4)
        expected = (1 - alpha ** 2) * conjugate_momentum(x, p)
        assert fd == pytest.approx(expected, rel=1e-6)


def test_singularity_at_node():
    # x = 1 is a node of the alpha = 1 standing wave: D = 4 cos^2(fl(pi/2)) = 1.5e-32
    # there, and 1e-16 at alpha = 1 - 1e-8: every value is finite and matches mpmath
    for p in (make_params(alpha=1.0), make_params(alpha=1.0 - 1e-8)):
        d = mp_amplitude_squared(1.0, p)
        assert conjugate_momentum(1.0, p) == pytest.approx(float(p.hbar * p.k / d), rel=1e-12)
        assert quantum_potential(1.0, p) == pytest.approx(float(p.E * (1 - 1 / d**2)), rel=1e-12)
        assert effective_quantum_mass(1.0, p).m_q == pytest.approx(mp_effective_mass(1.0, p),
                                                                   rel=1e-12)


def test_quantum_potential_values(ref_params):
    assert quantum_potential(0.0, ref_params) == pytest.approx(
        0.7920052914454423, rel=1e-12)
    assert quantum_potential(1.0, ref_params) == pytest.approx(
        -14.804406601634037, rel=1e-12)


def test_quantum_potential_zero_when_amplitude_is_unity(ref_params):
    # D = 1 at cos(2kx + beta) = -alpha/2, where W' = hbar k and the
    # stationary residual vanishes
    x = math.acos(-ref_params.alpha / 2) / (2 * ref_params.k)
    assert amplitude_squared(x, ref_params) == pytest.approx(1.0, rel=1e-14)
    assert abs(quantum_potential(x, ref_params)) <= 1e-12 * ref_params.E


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_amplitude_curvature_identity(alpha):
    # The curvature form -hbar^2 R'' / (2 M R) equals the stationary
    # residual built with the true phase slope, E (1 - (1-alpha^2)^2 / D^2).
    # The quantum_potential operation instead uses the continuity-normalized
    # momentum hbar k / D, so the two coincide only as alpha -> 0.
    p = make_params(alpha=alpha, beta=0.3)
    r = lambda v: math.sqrt(amplitude_squared(v, p))
    for x in (0.0, 0.4, 0.9, 1.6):
        # Richardson-extrapolated 5-point stencil: the curvature steepens
        # sharply near nodes, so a single coarse step is not enough
        coarse = five_point_second(r, x, 0.004)
        fine = five_point_second(r, x, 0.002)
        second = (16 * fine - coarse) / 15
        curvature_form = -p.hbar ** 2 * second / (2 * p.M * r(x))
        d = amplitude_squared(x, p)
        residual_form = p.E * (1 - (1 - alpha ** 2) ** 2 / d ** 2)
        if abs(residual_form) > 1e-8:
            assert curvature_form == pytest.approx(residual_form, rel=1e-5)


def test_effective_mass_closed_form():
    # m_q = (M / D^3) (D - x D') under the composite-mass energy relation
    rng = np.random.default_rng(23)
    for _ in range(50):
        p = make_params(alpha=rng.uniform(0.1, 0.9), beta=rng.uniform(-3, 3))
        x = rng.uniform(-3, 3)
        d = amplitude_squared(x, p)
        d_prime = -4 * p.alpha * p.k * math.sin(2 * p.k * x + p.beta)
        expected = p.M / d ** 3 * (d - x * d_prime)
        sample = effective_quantum_mass(x, p)
        assert sample.m_q == pytest.approx(expected, rel=1e-7)
        assert sample.q == pytest.approx(quantum_potential(x, p), rel=1e-14)


def test_effective_mass_free_particle_anchor():
    p = make_params(alpha=1e-9)
    for x in (0.0, 0.5, 1.0, 2.7):
        assert effective_quantum_mass(x, p).m_q == pytest.approx(p.m, rel=1e-6)


def test_effective_mass_divergence_trend():
    values = [abs(effective_quantum_mass(1.0, make_params(alpha=a)).m_q)
              for a in (0.9, 0.99, 0.999)]
    assert values[0] < values[1] < values[2]
    assert values[0] == pytest.approx(1.81e4, rel=1e-3)


@pytest.mark.parametrize("alpha", [0.5, 0.999, 0.9999, 1.0 - 1e-9, 1.5, 3.0])
def test_unwrapped_matches_mpmath_phase(alpha):
    # 1 - 1e-9 is far beyond what marching from the origin could reach.
    # Rounding th = 2kx + beta costs a few ulps of th times the phase slope
    # (1 - a^2) / (2D), which near a trigger point grows like 1/|1 - a|: the
    # phase itself is that ill-conditioned there (beta = pi puts x = +-100 on
    # trigger points), so the allowance scales with it.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(29)
    for beta in (0.0, 0.7, math.pi, -2.0):
        p = make_params(alpha=alpha, beta=beta)
        for x in [-100.0, 100.0, *rng.uniform(-100.0, 100.0, 40)]:
            want = p.hbar * float(mp_phase(x, p) - mp_phase(0.0, p))
            got = reduced_action_unwrapped(x, p) - reduced_action_unwrapped(0.0, p)
            slope = abs(1.0 - alpha ** 2) / (2.0 * amplitude_squared(x, p))
            rounding = 4.0 * eps * (abs(2.0 * p.k * x) + abs(p.beta)) * slope
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)) + p.hbar * rounding


def test_effective_mass_matches_energy_difference():
    # away from nodes the central difference in E agrees to its own accuracy
    rng = np.random.default_rng(31)
    for _ in range(50):
        p = make_params(alpha=rng.uniform(0.1, 0.9), beta=rng.uniform(-3, 3))
        x = rng.uniform(-3, 3)
        assert effective_quantum_mass(x, p).m_q == pytest.approx(
            energy_difference_mass(x, p), rel=1e-6)


@pytest.mark.parametrize("alpha, beta, k, x", [
    # trigger point cos(2kx + beta) = -1, where D = (1 - alpha)^2 = 1e-12
    (0.999999, 0.0, math.pi / 2, 1.0),
    # 1.6e-4 of a period from a trigger point
    (0.9999, -0.2651378645114635, 1.6865477920459522, 2.873003262124323),
])
def test_effective_mass_matches_mpmath_near_trigger(alpha, beta, k, x):
    p = make_params(alpha=alpha, beta=beta, k=k)
    assert effective_quantum_mass(x, p).m_q == pytest.approx(
        mp_effective_mass(x, p), rel=1e-9)
