"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The reference parameter set is hbar = m = 1, k = pi/2,
alpha = 0.5, beta = 0, tau = 0 unless a criterion says otherwise.
"""

import cmath
import math
import re

import numpy as np
import pytest

from eprtraj import (
    amplitude_squared,
    bohmian_time_of_position,
    conjugate_momentum,
    decompose_time,
    dtdx,
    effective_quantum_mass,
    entanglon_divergence,
    find_turning_points,
    positions_at_time,
    psi_bipolar,
    psi_polar,
    time_of_position,
    validate_params,
    wedge_bounds,
)
from eprtraj.dataset import build_sweep_dataset
from eprtraj.svgfig import FIGURES, render_figure
from eprtraj.trajectory import TEMPORAL_MAX, TEMPORAL_MIN

from conftest import make_params, mp_jacobi_time


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_polar_bipolar_equivalence():
    xs = np.linspace(-10.0, 10.0, 10_000)
    worst = 0.0
    for alpha in (0.1, 0.5, 0.9, 1.0):
        for beta in (0.0, math.pi / 2, -math.pi / 2, math.pi):
            p = make_params(alpha=alpha, beta=beta)
            for x in xs:
                form = psi_polar(x, p)
                recon = form.amplitude * cmath.exp(1j * form.phase)
                worst = max(worst, abs(recon - psi_bipolar(x, p)))
    assert worst <= 1e-12
    _report(1, f"max polar/bipolar deviation {worst:.2e} <= 1e-12 over "
               "10^4 points x 16 parameter combinations")


def test_criterion_2_jacobi_consistency(ref_params):
    # dW/dE of the closed-form action by mpmath at 50 digits; up to alpha = 1 - 1e-12
    # at the trigger point x = 1, where k x is exact and t diverges as 1/(1 - alpha)
    cases = [(ref_params, x) for x in np.linspace(0.0, 4.0, 1000).tolist()]
    cases += [(make_params(alpha=1.0 - 10.0 ** -j), 1.0) for j in range(1, 13)]
    worst = 0.0
    for p, x in cases:
        t, exact = time_of_position(x, p), mp_jacobi_time(x, p)
        worst = max(worst, float(abs(t - exact) / abs(exact)) if exact else abs(t))
    assert worst <= 1e-12
    _report(2, f"closed-form motion matches dW/dE to {worst:.2e} relative "
               "at 10^3 points and 12 alphas up to 1 - 1e-12")


def test_criterion_3_continuity_identity():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(2000):
        p = make_params(alpha=rng.uniform(0.05, 1.2), beta=rng.uniform(-3, 3))
        x = rng.uniform(-10, 10)
        if amplitude_squared(x, p) < 1e-12:
            continue
        worst = max(worst, abs(amplitude_squared(x, p) * conjugate_momentum(x, p)
                               - p.hbar * p.k))
    assert worst <= 1e-12
    _report(3, f"D * W' - hbar k bounded by {worst:.2e} <= 1e-12")


def test_criterion_4_turning_points(ref_params):
    tps = find_turning_points(0.0, 4.0, ref_params)
    inside = [tp for tp in tps if 0.0 < tp.x <= 4.0]
    assert len(inside) == 4
    assert abs(inside[0].x - 1.0250) <= 1e-3
    assert inside[0].kind == TEMPORAL_MAX
    assert abs(inside[1].x - 1.8797) <= 1e-3
    assert inside[1].kind == TEMPORAL_MIN
    kinds = [tp.kind for tp in inside]
    assert kinds == [TEMPORAL_MAX, TEMPORAL_MIN, TEMPORAL_MAX, TEMPORAL_MIN]
    _report(4, "4 alternating turning points in (0,4], first two at "
               f"x={inside[0].x:.5f} (max), x={inside[1].x:.5f} (min)")


def test_criterion_5_wedge_containment_and_attainment():
    betas = [j * math.pi / 8 for j in range(16)]
    xs = np.linspace(10.0 / 1500, 10.0, 1500)
    worst_slack = -math.inf
    worst_attain = 0.0
    for beta in betas:
        p = make_params(alpha=0.5, beta=beta)
        for x in xs:
            t = time_of_position(float(x), p)
            wb = wedge_bounds(float(x), p)
            worst_slack = max(worst_slack, wb.t_lower - t, t - wb.t_upper)
        # positions of maximum destructive interference: cos(2kx+beta) = -1
        x0 = (math.pi - p.beta) / (2 * p.k)
        n = 0 if x0 > 0 else 1
        while True:
            x_trig = x0 + n * math.pi / p.k
            if x_trig > 10.0:
                break
            t = time_of_position(x_trig, p)
            worst_attain = max(worst_attain,
                               abs(t - wedge_bounds(x_trig, p).t_upper))
            n += 1
    assert worst_slack <= 1e-9
    assert worst_attain <= 1e-9
    _report(5, f"all samples inside the wedge (worst overshoot {worst_slack:.2e}); "
               f"upper bound attained to {worst_attain:.2e} at trigger points")


def test_criterion_6_decomposition():
    rng = np.random.default_rng(37)
    worst = 0.0
    count = 0
    while count < 10_000:
        p = make_params(alpha=rng.uniform(0.05, 0.999),
                        beta=rng.uniform(-math.pi, math.pi))
        x = rng.uniform(-10, 10)
        if amplitude_squared(x, p) <= 1e-6:
            continue
        d = decompose_time(x, p)
        t = time_of_position(x, p)
        worst = max(worst, abs(d.c_p1 + d.c_p2 + d.c_ent - t) / max(1.0, abs(t)))
        count += 1
    assert worst <= 1e-12
    p0 = make_params()
    worst_zero = max(abs(decompose_time(0.5 + n, p0).c_ent) for n in range(10))
    assert worst_zero <= 1e-12
    _report(6, f"sum identity to {worst:.2e} on 10^4 samples; entanglon term "
               f"bounded by {worst_zero:.2e} on its zero set")


def test_criterion_7_epr_limit_ratio(ref_params):
    alphas = [1 - 10.0 ** (-j) for j in range(1, 7)]
    series = entanglon_divergence(1.0, ref_params, alphas)
    ratios = list(series.values)
    for alpha, ratio in series.entries:
        assert abs(ratio - (1 + alpha) / 2) <= 1e-12
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert abs(ratios[-1] - 1.0) <= 1e-6
    _report(7, "trigger-point ratio equals (1+alpha)/2 to 1e-12 and rises "
               f"monotonically to {ratios[-1]:.7f}")


def test_criterion_8_multiplicity(ref_params):
    roots = positions_at_time(1.0, 0.0, 3.0, ref_params)
    assert len(roots) == 3
    for got, ref in zip(roots, (0.83, 1.28, 2.52)):
        assert abs(got - ref) <= 0.02
    _report(8, "t=1.0 line crosses the trajectory at exactly 3 positions: "
               + ", ".join(f"{r:.4f}" for r in roots))


def test_criterion_9_effective_mass_trend():
    values = [abs(effective_quantum_mass(1.0, make_params(alpha=a)).m_q)
              for a in (0.9, 0.99, 0.999)]
    assert values[0] < values[1] < values[2]
    anchor = effective_quantum_mass(1.0, make_params(alpha=1e-9)).m_q
    assert abs(anchor - 1.0) <= 1e-6
    _report(9, f"|m_q(x=1)| grows {values[0]:.3g} -> {values[1]:.3g} -> "
               f"{values[2]:.3g}; free-particle anchor m_q = {anchor:.9f}")


_NUM = r"([0-9.eE+-]+)"
_DESC_RE = re.compile(
    rf"t-range {_NUM} {_NUM} px {_NUM} {_NUM} ; x-range {_NUM} {_NUM} py {_NUM} {_NUM}")
_POLYLINE_RE = re.compile(r'<polyline[^>]* points="([^"]+)"')


def _parse_svg_points(text):
    t_lo, t_hi, px_l, px_r, x_lo, x_hi, py_b, py_t = (
        float(v) for v in _DESC_RE.search(text).groups())
    cloud = []
    for match in _POLYLINE_RE.finditer(text):
        for pair in match.group(1).split():
            px, py = (float(v) for v in pair.split(","))
            t = t_lo + (px - px_l) / (px_r - px_l) * (t_hi - t_lo)
            x = x_lo + (py_b - py) / (py_b - py_t) * (x_hi - x_lo)
            cloud.append((t, x))
    return cloud


def _figure(figure_id, params):
    """Figure ``figure_id`` as the CLI draws it by default: x in [0, 4], 2001 samples."""
    betas = FIGURES[figure_id][0]
    chunks = []
    render_figure(figure_id, build_sweep_dataset(params, betas, 0.0, 4.0, 2001),
                  [()] * len(betas), chunks.append)
    return "".join(chunks)


def test_criterion_10_figure_reproduction(ref_params):
    text = _figure(1, ref_params)
    assert text.count("<polyline") == 2
    assert text.count("stroke-dasharray") == 1
    cloud = _parse_svg_points(text)
    scale = ref_params.hbar * ref_params.k / ref_params.m
    slopes = [t / x * scale for t, x in cloud if x >= 0.05]
    assert abs(max(slopes) / 3.0 - 1.0) <= 0.01
    assert abs(min(slopes) / (1.0 / 3.0) - 1.0) <= 0.01
    text2 = _figure(2, ref_params)
    assert text2.count("<polyline") == 8
    assert "stroke-dasharray" not in text2
    _report(10, f"figure-1 extreme slopes {min(slopes):.4f}, {max(slopes):.4f} "
                "(target 1/3 and 3 within 1%); figure 2 has 8 solid curves")


def test_criterion_11_bohmian_contrast(ref_params):
    xs = np.linspace(0.0, 4.0, 2001)
    tb = [bohmian_time_of_position(x, ref_params) for x in xs]
    assert all(b > a for a, b in zip(tb, tb[1:]))
    slopes = [dtdx(x, ref_params) for x in xs]
    sign_changes = sum(1 for a, b in zip(slopes, slopes[1:]) if a * b < 0)
    assert sign_changes == 4
    _report(11, "conjugate-momentum integral is strictly monotone while the "
                "motion's dt/dx changes sign 4 times on [0,4]")
