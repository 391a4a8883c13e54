import cmath
import math

import numpy as np
import pytest

from eprtraj import amplitude_squared, epr_limit_wave, psi_bipolar, psi_polar

from conftest import five_point_second, make_params


def test_bipolar_examples(ref_params):
    assert psi_bipolar(0.0, ref_params) == pytest.approx(1.5 + 0j, abs=1e-15)
    v = psi_bipolar(1.0, ref_params)
    assert abs(v.real) < 1e-15
    assert v.imag == pytest.approx(0.5, rel=1e-15)
    # e^{i pi/4} + 0.5 e^{-i pi/4} = 1.5/sqrt2 + i 0.5/sqrt2
    v = psi_bipolar(0.5, ref_params)
    assert v.real == pytest.approx(1.0606601717798212, rel=1e-14)
    assert v.imag == pytest.approx(0.35355339059327373, rel=1e-14)


def test_amplitude_squared_examples(ref_params):
    assert amplitude_squared(0.0, ref_params) == pytest.approx(2.25, rel=1e-15)
    assert amplitude_squared(1.0, ref_params) == pytest.approx(0.25, rel=1e-15)
    assert amplitude_squared(0.5, ref_params) == pytest.approx(1.25, rel=1e-15)


def test_amplitude_squared_matches_direct_form_and_floor():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        alpha = rng.uniform(0.01, 1.5)
        beta = rng.uniform(-math.pi, math.pi)
        p = make_params(alpha=alpha, beta=beta)
        x = rng.uniform(-10, 10)
        d = amplitude_squared(x, p)
        direct = 1 + alpha ** 2 + 2 * alpha * math.cos(2 * p.k * x + beta)
        assert d == pytest.approx(direct, abs=5e-15)
        assert d >= (1 - alpha) ** 2 - 1e-15


def test_polar_examples(ref_params):
    form = psi_polar(0.0, ref_params)
    assert form.amplitude == pytest.approx(1.5, rel=1e-15)
    assert form.phase == pytest.approx(0.0, abs=1e-15)
    form = psi_polar(1.0, ref_params)
    assert form.amplitude == pytest.approx(0.5, rel=1e-15)
    assert form.phase == pytest.approx(math.pi / 2, abs=1e-12)
    assert form.amplitude == pytest.approx(math.sqrt(form.amplitude_squared), rel=1e-15)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("beta", [0.0, math.pi / 2, -math.pi / 2, math.pi])
def test_polar_equals_bipolar(alpha, beta):
    p = make_params(alpha=alpha, beta=beta)
    for x in np.linspace(-10, 10, 801):
        form = psi_polar(x, p)
        recon = form.amplitude * cmath.exp(1j * form.phase)
        assert abs(recon - psi_bipolar(x, p)) <= 1e-12


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1 - 1e-9, 1.0, 2.5])
@pytest.mark.parametrize("beta", [0.0, 0.7, -math.pi / 2, math.pi])
def test_polar_phase_matches_atan2_reference(alpha, beta):
    # the phase is read off psi_bipolar; the reference writes out its parts
    p = make_params(alpha=alpha, beta=beta, k=1.3)
    for x in np.linspace(-12, 12, 1201).tolist() + [0.0, 1e-300, -7.5e-9]:
        num = math.sin(p.k * x) - alpha * math.sin(p.k * x + p.beta)
        den = math.cos(p.k * x) + alpha * math.cos(p.k * x + p.beta)
        assert psi_polar(x, p).phase == math.atan2(num, den)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("beta", [0.0, math.pi / 2])
def test_eigenfunction_residual(alpha, beta):
    # -hbar^2 psi'' / (2M) = E psi, checked with a 5-point stencil
    p = make_params(alpha=alpha, beta=beta)
    f = lambda v: psi_bipolar(v, p)
    for x in np.linspace(-5, 5, 101):
        second = five_point_second(f, x, 0.01)
        residual = abs(-p.hbar ** 2 * second / (2 * p.M) - p.E * f(x))
        assert residual <= 1e-6 * abs(p.E) * abs(f(x))


@pytest.mark.parametrize("alpha", [0.3, 0.9, 1.0])
@pytest.mark.parametrize("beta", [0.0, math.pi / 2])
def test_not_factorable(alpha, beta):
    # The component product psi1 * psi2 = alpha e^{-i beta} is constant in x
    # while the superposition oscillates, so max_x |psi - K psi1 psi2| is
    # bounded below by half the oscillation for every constant K.
    p = make_params(alpha=alpha, beta=beta)
    xs = np.linspace(0.0, math.pi / p.k, 401)  # spans a half period
    product = [cmath.exp(1j * p.k * x) * alpha * cmath.exp(-1j * (p.k * x + beta))
               for x in xs]
    assert max(abs(v - product[0]) for v in product) < 1e-13
    values = [psi_bipolar(x, p) for x in xs]
    res = [v.real for v in values]
    ims = [v.imag for v in values]
    oscillation = max(max(res) - min(res), max(ims) - min(ims))
    assert oscillation / 2 >= 0.9 * min(alpha, 1.0)
    for k_const in (0.0, 1.0, -2.0, 1j, 1.0 + 1j, values[0] / product[0]):
        assert max(abs(v - k_const * product[0]) for v in values) > 0.4 * min(alpha, 1.0)


def test_epr_limit_wave_standing_waves():
    p = make_params(alpha=0.5, beta=0.0)
    for x in np.linspace(-3, 3, 41):
        series = epr_limit_wave(x, p, [0.9, 0.99, 1.0])
        assert series.side == "below"
        assert series.values[-1] == pytest.approx(2 * math.cos(p.k * x), abs=1e-12)
    p = make_params(alpha=0.5, beta=math.pi)
    for x in np.linspace(-3, 3, 41):
        series = epr_limit_wave(x, p, [0.9, 0.99, 1.0])
        assert series.values[-1] == pytest.approx(2j * math.sin(p.k * x), abs=1e-12)


def test_epr_limit_wave_rate(ref_params):
    series = epr_limit_wave(0.0, ref_params, [0.9, 0.99, 0.999])
    assert abs(series.values[-1] - 2.0) <= 1e-3 + 1e-12


def test_epr_limit_wave_from_above(ref_params):
    series = epr_limit_wave(1.0, ref_params, [1.1, 1.01, 1.001])
    assert series.side == "above"


def test_epr_limit_wave_empty(ref_params):
    with pytest.raises(ValueError, match="empty"):
        epr_limit_wave(0.0, ref_params, [])
