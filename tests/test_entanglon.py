import math

import numpy as np
import pytest

from eprtraj import (
    decompose_time,
    entanglon_divergence,
    epr_limit_mass,
    epr_limit_time,
    epr_limit_wave,
    is_trigger_point,
    time_of_position,
)
from eprtraj.dataset import build_limit_rows

from conftest import make_params, mp_effective_mass, mp_time


def test_decompose_entanglon_free_point(ref_params):
    # cos(2kx + beta) = 0 at x = 0.5 kills the entanglement term
    d = decompose_time(0.5, ref_params)
    assert d.c_p1 == pytest.approx(0.25464790894703254, rel=1e-13)
    assert d.c_p2 == pytest.approx(-0.06366197723675814, rel=1e-13)
    assert abs(d.c_ent) <= 1e-12
    assert d.total == pytest.approx(0.19098593171027442, rel=1e-12)


def test_decompose_total_is_time_since_tau():
    # total = c_p1 + c_p2 + c_ent = t - tau = c x / D: tau shifts t, not the split
    p, q = make_params(tau=1.0), make_params()
    for x in (0.5, 1.0, 2.3):
        parts = decompose_time(x, p)
        assert parts == decompose_time(x, q)
        assert parts.total == pytest.approx(time_of_position(x, p) - 1.0, rel=1e-13)
        assert parts.total == pytest.approx(float(mp_time(x, q)), rel=1e-13)


def test_decompose_trigger_point(ref_params):
    d = decompose_time(1.0, ref_params)
    assert d.c_p1 == pytest.approx(0.5092958178940651, rel=1e-13)
    assert d.c_p2 == pytest.approx(-0.12732395447351627, rel=1e-13)
    assert d.c_ent == pytest.approx(1.5278874536821954, rel=1e-13)
    assert d.total == pytest.approx(1.909859317102744, rel=1e-13)


def test_decompose_uncoupled_limit():
    p = make_params(alpha=1e-9)
    d = decompose_time(1.0, p)
    assert abs(d.c_p2) <= 1e-17
    assert abs(d.c_ent) <= 1e-8
    assert d.total == pytest.approx(p.m / (p.hbar * p.k), rel=1e-8)


def test_decompose_sum_identity_random():
    rng = np.random.default_rng(29)
    count = 0
    while count < 2000:
        p = make_params(alpha=rng.uniform(0.05, 0.999),
                        beta=rng.uniform(-math.pi, math.pi))
        x = rng.uniform(-10, 10)
        from eprtraj import amplitude_squared
        if amplitude_squared(x, p) <= 1e-6:
            continue
        d = decompose_time(x, p)
        t = time_of_position(x, p)
        assert abs(d.c_p1 + d.c_p2 + d.c_ent - t) <= 1e-12 * max(1.0, abs(t))
        count += 1


def test_decompose_entanglon_zero_set(ref_params):
    # cos(2kx + beta) = 0 at x = 0.5 + n for these parameters
    for n in range(8):
        d = decompose_time(0.5 + n, ref_params)
        assert abs(d.c_ent) <= 1e-12


@pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("x", [1.0, 3.0])
def test_trigger_total_closed_form(alpha, x):
    # D = (1-alpha)^2 at trigger points, so t = (mx/hbar k)(1+alpha)/(1-alpha)
    p = make_params(alpha=alpha)
    expected = (p.m * x / (p.hbar * p.k)) * (1 + alpha) / (1 - alpha)
    assert time_of_position(x, p) == pytest.approx(expected, rel=1e-12)


def test_particle_terms_cancel_toward_limit(ref_params):
    scaled = []
    for alpha in (0.9, 0.99, 0.999):
        d = decompose_time(0.7, make_params(alpha=alpha))
        scaled.append(abs(d.c_p1 + d.c_p2))
    assert scaled[0] > scaled[1] > scaled[2]
    assert scaled[2] < 1e-3


def test_divergence_ratio_values(ref_params):
    series = entanglon_divergence(1.0, ref_params, [1 - 1e-3, 1 - 1e-6])
    assert series.side == "below"
    for alpha, ratio in series.entries:
        assert ratio == pytest.approx((1 + alpha) / 2, abs=1e-12)


def test_divergence_ratio_is_of_time_since_tau():
    # the ratio divides t - tau, not t, so tau does not move it off (1 + alpha) / 2
    series = entanglon_divergence(1.0, make_params(tau=1.0), [0.9, 0.99])
    for alpha, ratio in series.entries:
        assert ratio == pytest.approx((1 + alpha) / 2, abs=1e-12)


def test_divergence_requires_trigger_point(ref_params):
    with pytest.raises(ValueError, match="decompose_time"):
        entanglon_divergence(0.5, ref_params, [0.9, 0.99])
    with pytest.raises(ValueError, match="x=0"):
        entanglon_divergence(0.0, make_params(beta=math.pi), [0.9, 0.99])


def test_divergence_sequence_validation(ref_params):
    with pytest.raises(ValueError, match="empty"):
        entanglon_divergence(1.0, ref_params, [])
    with pytest.raises(ValueError, match="monotonic"):
        entanglon_divergence(1.0, ref_params, [0.99, 0.9])
    with pytest.raises(ValueError, match="monotonic"):
        entanglon_divergence(1.0, ref_params, [0.9, 1.1])


def test_limit_time_off_trigger_shrinks_linearly(ref_params):
    alphas = [1 - 10.0 ** (-j) for j in range(2, 7)]
    series = epr_limit_time(0.5, ref_params, alphas, "below")
    assert series.values[-1] == pytest.approx(3.1831004534788686e-07, rel=1e-6)
    scaled = [t / (1 - a) for a, t in series.entries]
    for a, b in zip(scaled, scaled[1:]):
        assert b == pytest.approx(a, rel=0.02)


def test_limit_time_trigger_diverges(ref_params):
    alphas = [0.9, 0.99, 0.999]
    series = epr_limit_time(1.0, ref_params, alphas, "below")
    values = list(series.values)
    assert values[0] < values[1] < values[2]
    scaled = [t * (1 - a) for a, t in series.entries]
    for a, b in zip(scaled, scaled[1:]):
        assert b == pytest.approx(a, rel=0.2)


def test_limit_time_even_trigger_vanishes(ref_params):
    # cos(2kx) = +1 at x=2: reinforcement, so the time shrinks with 1-alpha
    series = epr_limit_time(2.0, ref_params, [0.9, 0.99, 0.999], "below")
    values = list(series.values)
    assert values[0] > values[1] > values[2]
    assert values[2] < 1e-3


def test_limit_time_above_side(ref_params):
    # For alpha > 1 and x < 0 both x and (1 - alpha^2) flip sign, so the
    # motion times stay positive: the above-side wedge spans the t >= 0,
    # x <= 0 quadrant.
    series = epr_limit_time(-0.5, ref_params, [1 + 1e-3, 1 + 1e-6], "above")
    assert series.side == "above"
    assert series.values[-1] == pytest.approx(3.1830972700266134e-07, rel=1e-6)
    assert all(v > 0 for v in series.values)


def test_limit_time_pairing_validation(ref_params):
    with pytest.raises(ValueError, match="x > 0"):
        epr_limit_time(-0.5, ref_params, [0.9, 0.99], "below")
    with pytest.raises(ValueError, match="x < 0"):
        epr_limit_time(0.5, ref_params, [1.1, 1.01], "above")
    with pytest.raises(ValueError, match="side"):
        epr_limit_time(0.5, ref_params, [0.9, 0.99], "sideways")
    with pytest.raises(ValueError, match="monotonic"):
        epr_limit_time(0.5, ref_params, [0.9, 0.5], "below")


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_limit_studies_reject_non_finite_x(x, ref_params):
    # one shared check: before it, nan gave nan rows and inf "math domain error"
    alphas = [0.9, 0.99]
    for study in (lambda: build_limit_rows(ref_params, x, alphas, "below"),
                  lambda: epr_limit_time(x, ref_params, alphas, "below"),
                  lambda: epr_limit_mass(x, ref_params, alphas)):
        with pytest.raises(ValueError, match=f"x must be finite, got x={x}"):
            study()


def test_limit_mass_trend(ref_params):
    series = epr_limit_mass(1.0, ref_params, [0.9, 0.99, 0.999])
    values = [abs(v) for v in series.values]
    assert values[0] < values[1] < values[2]


def test_limit_mass_off_trigger_recorded(ref_params):
    series = epr_limit_mass(0.5, ref_params, [0.9, 0.99, 0.999])
    assert len(series.entries) == 3
    assert all(math.isfinite(v) for v in series.values)


def test_limit_mass_propagates_node_singularity(ref_params):
    # at alpha = 1 - 1e-9 the trigger point x = 1 has D = 1e-18: m_q is 1.5e39, finite
    series = epr_limit_mass(1.0, ref_params, [0.9, 1 - 1e-9])
    for alpha, m_q in series.entries:
        assert m_q == pytest.approx(mp_effective_mass(1.0, ref_params.replace(alpha=alpha)),
                                    rel=1e-12)


def test_is_trigger_point(ref_params):
    assert is_trigger_point(1.0, ref_params)
    assert is_trigger_point(3.0, ref_params)
    assert not is_trigger_point(0.5, ref_params)
    assert not is_trigger_point(2.0, ref_params)


# The five alpha -> 1 entry points as f(x, params, alphas, side).  The ones with no
# side argument study the below side (epr_limit_wave: the side its first alpha
# lies on), so they get the side through their sequence alone.
_STUDIES = {
    "entanglon_divergence": lambda x, p, alphas, side: entanglon_divergence(x, p, alphas),
    "epr_limit_time": lambda x, p, alphas, side: epr_limit_time(x, p, alphas, side),
    "epr_limit_mass": lambda x, p, alphas, side: epr_limit_mass(x, p, alphas),
    "epr_limit_wave": lambda x, p, alphas, side: epr_limit_wave(x, p, alphas),
    "build_limit_rows": lambda x, p, alphas, side: build_limit_rows(p, x, alphas, side),
}


@pytest.mark.parametrize("study", list(_STUDIES), ids=list(_STUDIES))
@pytest.mark.parametrize("alphas, side, x, match", [
    ([], "below", 1.0, "empty"),
    ([0.99, 0.9], "below", 1.0, "monotonic"),
    ([1.001, 1.01], "above", -1.0, "monotonic"),
    ([0.9, 1.1], "below", 1.0, "monotonic"),
    ([1.1, 0.9], "above", -1.0, "monotonic"),
], ids=["empty", "wrong order below", "wrong order above", "crosses 1 upward",
        "crosses 1 downward"])
def test_every_study_rejects_malformed_sequences(study, alphas, side, x, match, ref_params):
    # x = +-1 are trigger points: entanglon_divergence accepts them on either side
    with pytest.raises(ValueError, match=match):
        _STUDIES[study](x, ref_params, alphas, side)


@pytest.mark.parametrize("study, side, alphas, match", [
    ("epr_limit_time", "sideways", [0.9, 0.99], "side must be 'below' or 'above'"),
    ("build_limit_rows", "sideways", [0.9, 0.99], "side must be 'below' or 'above'"),
    # below-only studies asked for the above side through an above-side sequence
    ("entanglon_divergence", "above", [1.01, 1.001], "increasing"),
    ("epr_limit_mass", "above", [1.01, 1.001], "increasing"),
    # epr_limit_wave takes its side from the first alpha: 1 itself reads as below
    ("epr_limit_wave", "above", [1.0, 1.01], "increasing"),
])
def test_every_study_rejects_a_bad_side(study, side, alphas, match, ref_params):
    with pytest.raises(ValueError, match=match):
        _STUDIES[study](1.0, ref_params, alphas, side)


@pytest.mark.parametrize("study", list(_STUDIES), ids=list(_STUDIES))
def test_every_study_checks_before_evaluating(study, ref_params):
    # the order is wrong: that is the error, raised before any alpha is evaluated
    with pytest.raises(ValueError, match="monotonic"):
        _STUDIES[study](1.0, ref_params, [1 - 1e-8, 0.9], "below")


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_epr_limit_wave_rejects_non_finite_x(x, ref_params):
    with pytest.raises(ValueError, match=f"x must be finite, got x={x}"):
        epr_limit_wave(x, ref_params, [0.9, 0.99])


def test_study_ending_at_one_gives_tau_off_trigger_points():
    # at alpha = 1 the motion coefficient is 0, so t = tau wherever D != 0
    p = make_params(tau=0.25)
    assert epr_limit_time(0.5, p, [0.9, 1.0], "below").entries[-1] == (1.0, 0.25)
    assert epr_limit_time(-0.5, p, [1.1, 1.0], "above").entries[-1] == (1.0, 0.25)
    assert build_limit_rows(p, 0.5, [0.9, 1.0], "below")[-1][:3] == (1.0, 0.5, 0.25)
    assert epr_limit_mass(0.5, p, [0.9, 1.0]).alphas == (0.9, 1.0)


@pytest.mark.parametrize("study", ["entanglon_divergence", "epr_limit_time",
                                   "epr_limit_mass", "build_limit_rows"])
def test_study_ending_at_one_hits_the_node_at_a_trigger_point(study, ref_params):
    # up to alpha = 1 - 1e-12, and at the node alpha = 1 itself (D = 1.5e-32 at x = 1),
    # where c = 0: t = tau = 0, the ratio is 0 and m_q = 4.6e80; each value matches mpmath
    alphas = [1.0 - 10.0 ** -j for j in range(1, 13)] + [1.0]
    values = _STUDIES[study](1.0, ref_params, alphas, "below")
    if study == "build_limit_rows":
        assert [row[:2] for row in values] == [(a, 1.0) for a in alphas]
        values = [(row[2], row[3], row[4]) for row in values]
    else:
        values = values.values
    for alpha, value in zip(alphas, values):
        q = ref_params.replace(alpha=alpha)
        t, m_q = float(mp_time(1.0, q)), mp_effective_mass(1.0, q)
        ratio = t * (1.0 - alpha) * q.hbar * q.k / (2.0 * q.m)
        expected = {"entanglon_divergence": ratio, "epr_limit_time": t, "epr_limit_mass": m_q,
                    "build_limit_rows": (t, m_q, ratio)}[study]
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)
    if study == "entanglon_divergence":  # not (1 + alpha)/2: k = fl(pi/2) puts x = 1 an ulp off
        assert values[-2] == pytest.approx(0.99999998500123884, rel=1e-12)
