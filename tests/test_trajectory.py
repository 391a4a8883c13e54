import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprtraj import (
    InfiniteVelocityError,
    bohmian_time_of_position,
    conjugate_momentum,
    dtdx,
    find_turning_points,
    mechanical_momentum,
    pair_events,
    positions_at_time,
    segment_trajectory,
    time_of_position,
    trajectory_point,
    wedge_bounds,
)
from eprtraj.trajectory import TEMPORAL_MAX, TEMPORAL_MIN, TurningPoint

from conftest import five_point_derivative, make_params, mp_jacobi_time, mp_time

# Dense-grid extremum scan, refined before the main build.
TP_1 = 1.0250430
TP_2 = 1.8796775
TP_3 = 3.0084326
TP_4 = 3.9422779


def test_time_examples(ref_params):
    assert time_of_position(0.0, ref_params) == 0.0
    assert time_of_position(0.5, ref_params) == pytest.approx(
        0.19098593171027442, rel=1e-13)
    assert time_of_position(1.0, ref_params) == pytest.approx(
        1.909859317102744, rel=1e-13)


def test_time_respects_tau():
    p = make_params(tau=2.5)
    assert time_of_position(0.0, p) == 2.5
    assert time_of_position(0.5, p) == pytest.approx(2.5 + 0.19098593171027442,
                                                     rel=1e-13)


def test_time_matches_jacobi_derivative(ref_params):
    # Jacobi's theorem, t - tau = dW/dE; x = 1 is a trigger point where k x is exact
    cases = [(ref_params, x) for x in (0.3, 0.5, 1.0, 1.7, 2.3, 3.9)]
    cases += [(make_params(alpha=a), 1.0) for a in (1 - 1e-6, 1 - 1e-9, 1 - 1e-12, 1 + 1e-12)]
    for p, x in cases:
        assert time_of_position(x, p) == pytest.approx(float(mp_jacobi_time(x, p)), rel=1e-12)


def test_time_singularity():
    # at alpha = 1, x = 1 is a node (D = 1.5e-32): c = 0 there, so t = tau and dt/dx = 0
    p = make_params(alpha=1.0, tau=0.75)
    assert time_of_position(1.0, p) == 0.75 and dtdx(1.0, p) == 0.0
    # (1 - alpha)^2 = 1e-16 at the same point: t spikes to 1.3e8, finite and exact
    p = make_params(alpha=1.0 - 1e-8, tau=0.75)
    assert time_of_position(1.0, p) == pytest.approx(float(mp_time(1.0, p)), rel=1e-12)


def test_dtdx_analytic_vs_finite_difference(ref_params):
    assert dtdx(0.5, ref_params) == pytest.approx(0.8619718634205488, rel=1e-12)
    for x in (0.2, 0.5, 0.9, 1.5, 2.8):
        fd = five_point_derivative(lambda v: time_of_position(v, ref_params), x, 1e-3)
        assert dtdx(x, ref_params) == pytest.approx(fd, rel=1e-8)


def test_dtdx_free_particle_constant():
    p = make_params(alpha=1e-9)
    expected = p.m / (p.hbar * p.k)
    for x in (0.0, 1.0, 5.0):
        assert dtdx(x, p) == pytest.approx(expected, rel=1e-8)


def test_dtdx_vanishes_at_turning_point(ref_params):
    tp = find_turning_points(1.0, 1.1, ref_params)[0]
    assert abs(dtdx(tp.x, ref_params)) <= 1e-7


def test_trajectory_point_direction(ref_params):
    assert trajectory_point(0.5, ref_params).direction == "forward"
    assert trajectory_point(1.5, ref_params).direction == "retrograde"


@pytest.mark.filterwarnings("error")
def test_trajectory_point_refuses_dtdx_past_float_range():
    # |g| and |t| are finite at x = 1.00001, |g| / D^2 is not: the scalar kernel says -inf,
    # the sample refuses it with the CLI's message
    p = make_params(alpha=0.9999, beta=0.0, m=1e303)
    assert dtdx(1.00001, p) == -math.inf
    with pytest.raises(ValueError, match=r"^dt/dx = g / D\^2 overflows at x = 1\.00001$"):
        trajectory_point(1.00001, p)


def test_turning_points_reference_range(ref_params):
    tps = find_turning_points(0.0, 2.0, ref_params)
    assert len(tps) == 2
    assert tps[0].x == pytest.approx(TP_1, abs=1e-6)
    assert tps[0].kind == TEMPORAL_MAX
    assert tps[1].x == pytest.approx(TP_2, abs=1e-6)
    assert tps[1].kind == TEMPORAL_MIN


def test_turning_points_count_zero_to_four(ref_params):
    tps = find_turning_points(0.0, 4.0, ref_params)
    assert [round(tp.x, 7) for tp in tps] == [TP_1, TP_2, TP_3, TP_4]
    assert [tp.kind for tp in tps] == [TEMPORAL_MAX, TEMPORAL_MIN,
                                       TEMPORAL_MAX, TEMPORAL_MIN]


def test_turning_points_free_particle_empty():
    assert len(find_turning_points(0.0, 4.0, make_params(alpha=1e-9))) == 0


def test_turning_points_range_validation(ref_params):
    with pytest.raises(ValueError, match="x_min < x_max"):
        find_turning_points(2.0, 1.0, ref_params)


def test_segments_reference_range(ref_params):
    segments = segment_trajectory(0.0, 2.0, ref_params)
    assert [s.direction for s in segments] == ["forward", "retrograde", "forward"]
    assert [s.branch_id for s in segments] == [0, 1, 2]
    assert segments[0].x_start == 0.0
    assert segments[0].x_end == pytest.approx(TP_1, abs=1e-6)
    assert segments[1].x_end == pytest.approx(TP_2, abs=1e-6)
    assert segments[2].x_end == 2.0


def test_segments_free_particle():
    segments = segment_trajectory(0.0, 4.0, make_params(alpha=1e-9))
    assert len(segments) == 1
    assert segments[0].direction == "forward"


def test_segments_alternate():
    p = make_params(alpha=0.7, beta=1.1)
    segments = segment_trajectory(0.0, 8.0, p)
    tps = find_turning_points(0.0, 8.0, p)
    assert len(segments) == len(tps) + 1
    for a, b in zip(segments, segments[1:]):
        assert a.direction != b.direction


def test_positions_single_crossing(ref_params):
    roots = positions_at_time(time_of_position(0.5, ref_params), 0.0, 2.0,
                              ref_params)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(0.5, abs=1e-9)


def test_positions_three_locations(ref_params):
    # horizontal line at t=1 crosses forward, retrograde, forward branches
    roots = positions_at_time(1.0, 0.0, 3.0, ref_params)
    assert len(roots) == 3
    expected = (0.8266341165551545, 1.2792678387972711, 2.5155724079027775)
    for got, ref in zip(roots, expected):
        assert got == pytest.approx(ref, abs=1e-6)


def test_positions_none_below_launch(ref_params):
    assert positions_at_time(-1.0, 0.0, 3.0, ref_params) == []


@pytest.mark.parametrize("t", [0.3, 0.7, 1.0, 1.5])
def test_each_segment_crossed_at_most_once(ref_params, t):
    segments = segment_trajectory(0.0, 4.0, ref_params)
    roots = positions_at_time(t, 0.0, 4.0, ref_params)
    for seg in segments:
        inside = [r for r in roots if seg.x_start <= r <= seg.x_end]
        assert len(inside) <= 1


def test_positions_argument_validation(ref_params):
    with pytest.raises(ValueError, match="finite"):
        positions_at_time(math.nan, 0.0, 1.0, ref_params)


@pytest.mark.parametrize("tau", [0.0, 0.75])
def test_positions_alpha_one(tau):
    # at alpha = 1 the motion is t = tau off the nodes: h = c x - (t - tau) D is
    # identically 0 at t = tau, and has no root elsewhere on a node-free range
    p = make_params(alpha=1.0, tau=tau)
    with pytest.raises(ValueError, match="every position is at t = tau"):
        positions_at_time(tau, 0.0, 0.5, p)
    assert positions_at_time(tau + 0.5, 0.0, 0.5, p) == []
    assert positions_at_time(tau - 0.5, -0.5, 0.5, p) == []


def test_wedge_reference_values(ref_params):
    wb = wedge_bounds(1.0, ref_params)
    assert wb.t_lower == pytest.approx(0.2122065907891938, rel=1e-13)
    assert wb.t_upper == pytest.approx(1.909859317102744, rel=1e-13)
    apex = wedge_bounds(0.0, ref_params)
    assert apex.t_lower == 0.0
    assert apex.t_upper == 0.0


def test_wedge_upper_bound_attained(ref_params):
    # x=1 has cos(2kx) = -1: maximum destructive interference
    t = time_of_position(1.0, ref_params)
    assert t == pytest.approx(wedge_bounds(1.0, ref_params).t_upper, abs=1e-12)


def test_wedge_unbounded_at_alpha_one():
    wb = wedge_bounds(2.0, make_params(alpha=1.0))
    assert wb.t_lower == 0.0
    assert math.isinf(wb.t_upper)


@pytest.mark.parametrize("alpha", [1.5, 3.0])
def test_wedge_contains_motion_above_one(alpha):
    # both edges are negative for alpha > 1; the reinforcement edge is upper
    for beta in (0.0, 0.9, math.pi):
        p = make_params(alpha=alpha, beta=beta)
        for x in np.linspace(0.0, 6.0, 241):
            wb = wedge_bounds(float(x), p)
            t = time_of_position(float(x), p)
            assert wb.t_lower - 1e-12 <= t <= wb.t_upper + 1e-12
    p = make_params(alpha=1.5)
    assert wedge_bounds(2.0, p).t_upper == pytest.approx(time_of_position(2.0, p), rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_wedge_contains_motion_with_tau(alpha):
    # the whole motion shifts by tau, and so do both edges
    for beta in (0.0, 0.9, math.pi):
        p = make_params(alpha=alpha, beta=beta, tau=1.0)
        for x in np.linspace(0.0, 6.0, 241):
            wb = wedge_bounds(float(x), p)
            t = time_of_position(float(x), p)
            assert wb.t_lower - 1e-12 <= t <= wb.t_upper + 1e-12
    apex = wedge_bounds(0.0, make_params(alpha=alpha, tau=1.0))
    assert (apex.t_lower, apex.t_upper) == (1.0, 1.0)
    assert wedge_bounds(2.0, make_params(alpha=1.0, tau=1.0)).t_lower == 1.0


def test_wedge_negative_x_rejected(ref_params):
    with pytest.raises(ValueError, match="x >= 0"):
        wedge_bounds(-1.0, ref_params)


def test_pair_events(ref_params):
    tps = find_turning_points(0.0, 4.0, ref_params)
    events = pair_events(tps)
    assert [e.kind for e in events] == ["annihilation", "creation",
                                        "annihilation", "creation"]
    assert events[0].x == pytest.approx(TP_1, abs=1e-6)
    assert events[1].x == pytest.approx(TP_2, abs=1e-6)
    assert events[0].branch_ids == (0, 1)
    assert events[1].branch_ids == (1, 2)
    assert pair_events([]) == []


def test_pair_events_rejects_non_alternating(ref_params):
    bad = [TurningPoint(1.0, 1.9, TEMPORAL_MAX), TurningPoint(2.0, 1.5, TEMPORAL_MAX)]
    with pytest.raises(ValueError, match="alternating"):
        pair_events(bad)


def test_bohmian_examples(ref_params):
    assert bohmian_time_of_position(0.0, ref_params) == 0.0
    assert bohmian_time_of_position(0.5, ref_params) == pytest.approx(
        0.7506621562680175, rel=1e-13)


def test_bohmian_matches_quadrature(ref_params):
    # independent oracle: trapezoidal integral of M D / (hbar k)
    xs = np.linspace(0.0, 1.5, 30001)
    d = 1 + ref_params.alpha ** 2 + 2 * ref_params.alpha * np.cos(
        2 * ref_params.k * xs + ref_params.beta)
    integrand = ref_params.M * d / (ref_params.hbar * ref_params.k)
    quad = np.trapezoid(integrand, xs)
    assert bohmian_time_of_position(1.5, ref_params) == pytest.approx(
        float(quad), rel=1e-8)


@pytest.mark.parametrize("x", [1e-12, 1e-8, 1e-4, 0.3, 1.7, -1e-8])
def test_bohmian_matches_mpmath_without_cancellation(x):
    # at alpha = 0.999, beta = pi the bracket is (1-alpha)^2 x + O(x^3), and sin(2kx + beta) -
    # sin beta taken as a difference cancels as x -> 0; the bound is the docstring's
    p = make_params(alpha=0.999, beta=math.pi)
    a, b, k = (mpmath.mpf(v) for v in (p.alpha, p.beta, p.k))
    with mpmath.workdps(50):
        xm = mpmath.mpf(x)
        exact = mpmath.mpf(p.M) / (mpmath.mpf(p.hbar) * k) * (
            (1 + a * a) * xm + a / k * (mpmath.sin(2 * k * xm + b) - mpmath.sin(b)))
        rel = abs((bohmian_time_of_position(x, p) - exact) / exact)
    assert rel <= 2 * sys.float_info.epsilon * (1 + p.alpha ** 2) / (1 - p.alpha) ** 2


def test_bohmian_strictly_monotone(ref_params):
    xs = np.linspace(0.0, 6.0, 1201)
    ts = [bohmian_time_of_position(x, ref_params) for x in xs]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_mechanical_momentum_differs_from_conjugate(ref_params):
    mech = mechanical_momentum(0.5, ref_params)
    assert mech == pytest.approx(1.450163344125463, rel=1e-12)
    assert abs(mech - conjugate_momentum(0.5, ref_params)) > 0.1


def test_mechanical_momentum_free_particle_limit():
    p = make_params(alpha=1e-9)
    mech = mechanical_momentum(0.5, p)
    conj = conjugate_momentum(0.5, p)
    assert mech == pytest.approx(conj, rel=1e-8)
    assert mech == pytest.approx(p.hbar * p.k, rel=1e-8)


def test_mechanical_momentum_infinite_velocity(ref_params):
    tp = find_turning_points(1.0, 1.1, ref_params)[0]
    with pytest.raises(InfiniteVelocityError, match="turning point"):
        mechanical_momentum(tp.x, ref_params)
    # the conjugate momentum stays finite at the same point
    assert math.isfinite(conjugate_momentum(tp.x, ref_params))


@pytest.mark.parametrize("k, beta, x_max, count", [(math.pi / 2, 0.0, 40.0, 40),
                                                   (200.0, 0.3, 100.0, 12732)])
def test_mechanical_momentum_raises_at_every_turning_point(k, beta, x_max, count):
    # |dt/dx| at a root refined to 1e-10 can be far above any fixed epsilon;
    # what marks the root is the sign change within the tolerance
    p = make_params(k=k, beta=beta)
    xs = find_turning_points(0.0, x_max, p).x.tolist()
    assert len(xs) == count
    for x in xs:
        with pytest.raises(InfiniteVelocityError, match="turning point"):
            mechanical_momentum(x, p)
        assert math.isfinite(mechanical_momentum(x - 1e-6, p))
        assert math.isfinite(mechanical_momentum(x + 1e-6, p))


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(st.floats(6.0, 12.0))
def test_mechanical_momentum_raises_at_every_turning_point_far_out(log_x0):
    # past |x| = 2^20, x +- ROOT_XTOL rounds to x: the probes are x's neighbouring doubles,
    # and a point midway between two turning points keeps a finite momentum
    p = make_params(k=1.6, beta=0.3)
    x0 = 10.0 ** log_x0
    xs = find_turning_points(x0, x0 + 40.0, p).x.tolist()
    assert len(xs) >= 40
    for x in xs:
        with pytest.raises(InfiniteVelocityError, match="turning point"):
            mechanical_momentum(x, p)
    for a, b in zip(xs, xs[1:]):
        assert math.isfinite(mechanical_momentum(0.5 * (a + b), p))
