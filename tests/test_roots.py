"""Completeness of the root sets: every turning point and inversion root.

The reference is a dense sign-change count computed here from the closed
forms ``g = c (D - x D')`` (the sign of dt/dx) and ``h = c x - (t - tau) D``
(zero where t(x) = t), with ``D = 1 + a^2 + 2 a cos(2kx + beta)`` and
``c = m (1 - a^2) / (hbar k)``; nothing of eprtraj enters it.
"""

import itertools
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprtraj import (dtdx, find_turning_points, positions_at_time, segment_trajectory,
                     turning_points_by_beta)
from eprtraj import trajectory
from eprtraj.cli import main
from eprtraj.rootfind import ROOT_XTOL, bisect_root
from eprtraj.svgfig import FIGURES
from eprtraj.trajectory import TEMPORAL_MAX

from conftest import make_params, mp_position, mp_root, mp_turning_point

# Samples per half-period of cos(2kx + beta) in the dense count.
_DENSE = 128


def _curves(p, t):
    """g and h of the module docstring, with hbar = m = 1."""
    a, b, k = p.alpha, p.beta, p.k
    c = (1.0 - a * a) / k

    def d(x):
        return 1.0 + a * a + 2.0 * a * np.cos(2.0 * k * x + b)

    return (lambda x: c * (d(x) + 4.0 * a * k * x * np.sin(2.0 * k * x + b)),
            lambda x: c * x - (t - p.tau) * d(x))


def _dense_sign_changes(f, lo, hi, k):
    n = max(2, math.ceil((hi - lo) * 2.0 * k / math.pi * _DENSE))
    s = np.sign(f(np.linspace(lo, hi, n + 1)))
    s = s[s != 0.0]
    return int(np.count_nonzero(s[:-1] != s[1:]))


def test_high_k_root_sets_complete():
    # half a period here is 7.9e-4, close to the 1e-3 grid the roots were once
    # bracketed on; that grid found 727 turning points and 551 positions
    p = make_params(k=2000.0)
    g, h = _curves(p, 2e-4)
    dense = [_dense_sign_changes(f, 0.0, 1.0, p.k) for f in (g, h)]
    assert [len(find_turning_points(0.0, 1.0, p)), len(positions_at_time(2e-4, 0.0, 1.0, p))] \
        == dense == [1273, 1103]
    _check_segment_directions(0.0, 1.0, p)


def _check_segment_directions(x_min, x_max, p):
    """Directions taken from the turning-point kinds equal the sign of dt/dx at
    each segment's midpoint, the rule they replaced."""
    segments = segment_trajectory(x_min, x_max, p)
    assert len(segments) == len(find_turning_points(x_min, x_max, p)) + 1
    for seg in segments:
        slope = dtdx(0.5 * (seg.x_start + seg.x_end), p)
        assert seg.direction == ("forward" if slope > 0.0 else "retrograde"), seg


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(alpha=st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 3.0)),
       beta=st.floats(-2.0 * math.pi, 2.0 * math.pi),
       k=st.floats(0.1, 5000.0),
       tau=st.floats(-2.0, 2.0),
       x_min=st.floats(-2.0, 2.0),
       width=st.floats(0.01, 1.0),
       where=st.floats(0.05, 0.95))
def test_root_sets_match_dense_count(alpha, beta, k, tau, x_min, width, where):
    # alpha stays 0.05 from 1: t(x) spikes over a width of about |1 - alpha| / k
    # at each trigger point, and the dense count resolves spikes that wide
    p = make_params(alpha=alpha, beta=beta, k=k, tau=tau)
    x_max = x_min + width
    x_t = x_min + where * width
    t = tau + (1.0 - alpha * alpha) / k * x_t / (1.0 + alpha * alpha)
    g, h = _curves(p, t)
    tps = find_turning_points(x_min, x_max, p)
    roots = positions_at_time(t, x_min, x_max, p)
    assert len(tps) == _dense_sign_changes(g, x_min, x_max, k)
    assert len(roots) == _dense_sign_changes(h, x_min, x_max, k)
    for f, xs in ((g, np.array([tp.x for tp in tps])), (h, np.array(roots))):
        delta = 1e-9 * np.maximum(1.0, np.abs(xs))
        assert np.all(f(xs - delta) * f(xs + delta) <= 0.0)
    for tp in tps:
        assert (tp.kind == TEMPORAL_MAX) == (g(tp.x - 1e-9 * max(1.0, abs(tp.x))) > 0.0)
    assert all(a.kind != b.kind for a, b in zip(tps, tps[1:]))
    _check_segment_directions(x_min, x_max, p)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(alpha=st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 3.0),
                       st.sampled_from([1.0 - 1e-8, 1.0 + 1e-8, 1.0 - 1e-12])),
       beta=st.floats(-2.0 * math.pi, 2.0 * math.pi),
       k=st.floats(0.1, 5000.0),
       tau=st.floats(-2.0, 2.0),
       x_min=st.floats(-2.0, 2.0),
       width=st.floats(1e-3, 1.0),
       where=st.floats(0.05, 0.95),
       at_trigger=st.booleans())
def test_root_sets_independent_of_extra_edges(alpha, beta, k, tau, x_min, width, where,
                                              at_trigger):
    # the cuts alone make every bracket monotone, so splitting the range at any point,
    # a trigger point (cos(2kx + beta) = -1) included, neither adds nor loses a root
    p = make_params(alpha=alpha, beta=beta, k=k, tau=tau)
    x_max = x_min + width
    m = x_min + where * width
    trigger = (math.pi * (1 + 2 * round((2.0 * k * m + beta - math.pi) / (2.0 * math.pi)))
               - beta) / (2.0 * k)
    if at_trigger and x_min < trigger < x_max:
        m = trigger
    t = trajectory.time_of_position(x_min + (1.0 - where) * width, p)
    for roots in (lambda lo, hi: find_turning_points(lo, hi, p).x,
                  lambda lo, hi: np.array(positions_at_time(t, lo, hi, p))):
        whole = roots(x_min, x_max)
        split = np.concatenate([roots(x_min, m), roots(m, x_max)])
        # roots near m are ignored: an exact zero on m is an end of both halves.  Each root
        # lies in its final bracket, closed to ROOT_XTOL, so the ignored radius (2 ROOT_XTOL
        # or more) lies in a gap of both sets' distances to m wide enough that no root and
        # its refinement in the other set fall on opposite sides of it
        d = np.abs(np.concatenate([whole, split]) - m) / ROOT_XTOL
        r = next(r for r in itertools.count(2) if not np.any((d > r - 1) & (d <= r + 1)))
        whole, split = (xs[np.abs(xs - m) > r * ROOT_XTOL] for xs in (whole, split))
        assert len(whole) == len(split)
        assert np.all(np.abs(whole - split) <= ROOT_XTOL)


def test_positions_flank_near_node_spikes(tmp_path):
    # D = (1 - alpha)^2 = 1e-16 at the trigger points x = 0.96072... and 2.96072..., where
    # t(x) spikes to about 1e8 and crosses t = 1 on both flanks; a grid of samples would
    # step over them, the monotone pieces of the pole-free h do not.  Nothing raises:
    # every root matches mpmath.
    alpha = 1.0 - 1e-8
    p = make_params(alpha=alpha, beta=0.1234)
    roots = positions_at_time(1.0, 0.0, 4.0, p)
    assert [round(x, 5) for x in roots] == [0.96069, 0.96076, 2.96066, 2.96078]
    for x in roots:
        assert x == pytest.approx(float(mp_position(1.0, x, p)), abs=4 * math.ulp(x))
    tps = find_turning_points(0.0, 4.0, p)
    assert tps.maximum.tolist() == [True, False, True, False]
    for x in tps.x.tolist():
        assert x == pytest.approx(float(mp_turning_point(x, p)), abs=4 * math.ulp(x))
    out = tmp_path / "invert.csv"
    argv = ["invert", "--t", "1.0", "--xmin", "0", "--xmax", "4", "--alpha", repr(alpha),
            "--beta", "0.1234", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_text() == "x\n" + "".join("%.9g\n" % x for x in roots)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(alpha=st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 3.0),
                       st.sampled_from([1.0 - 1e-8, 1.0 + 1e-8, 1.0 - 1e-12])),
       beta=st.floats(-math.pi, math.pi),
       log_k=st.floats(-3.0, 4.0),
       tau=st.floats(-2.0, 2.0),
       x_min=st.floats(-2.0, 2.0),
       width=st.floats(1e-3, 2.0),
       where=st.floats(0.05, 0.95))
def test_roots_to_the_last_bit(alpha, beta, log_k, tau, x_min, width, where):
    # Each root lies within 4 ulp of the 50-digit root of the same doubles, or within 4
    # times the root's own resolution where that is coarser: its shift under one rounding
    # of every term of f and of the phase 2kx + beta (size eps / |f'|), plus one Newton
    # step's truncation from within ROOT_XTOL (|f''| ROOT_XTOL^2 / 2 |f'|).  It passes an
    # ulp where |f'| is small: near a tangency of h, or next to a node (alpha ~ 1).
    k = 10.0 ** log_k
    p = make_params(alpha=alpha, beta=beta, k=k, tau=tau)
    x_max = x_min + min(width, 100.0 / k)  # 64 half-periods of the phase at most
    t = trajectory.time_of_position(x_min + where * (x_max - x_min), p)
    a, b, dt = p.alpha, p.beta, t - tau
    with mpmath.workdps(50):
        am, bm, km = (mpmath.mpf(v) for v in (a, b, k))
        cm, dtm = (1 - am) * (1 + am) / km, mpmath.mpf(t) - mpmath.mpf(tau)

    def d(v):
        return 1 + am * am + 2 * am * mpmath.cos(2 * km * v + bm)

    def g(x):  # D - x D' at 50 digits; at x its size, slope and curvature bound
        ph = 2.0 * k * abs(x) + abs(b)  # the phase's rounding, in eps
        return (lambda v: d(v) + 4 * am * km * v * mpmath.sin(2 * km * v + bm),
                1.0 + a * a + 2.0 * a * ph + 4.0 * a * k * abs(x) * (1.0 + ph),
                8.0 * a * k * k * abs(x * math.cos(2.0 * k * x + b)),
                8.0 * a * k * k * (1.0 + 2.0 * k * abs(x)))

    def h(x):  # c x - (t - tau) D likewise
        ph = 2.0 * k * abs(x) + abs(b)
        return (lambda v: cm * v - dtm * d(v),
                abs(p.c * x) + abs(dt) * (1.0 + a * a + 2.0 * a * ph),
                abs(p.c + 4.0 * a * k * dt * math.sin(2.0 * k * x + b)),
                8.0 * a * k * k * abs(dt))

    for f, xs in ((g, find_turning_points(x_min, x_max, p).x),
                  (h, np.array(positions_at_time(t, x_min, x_max, p)))):
        for x in xs[np.linspace(0, len(xs) - 1, min(len(xs), 12)).astype(int)].tolist():
            exact, size, slope, curvature = f(x)
            resolution = (size * 2.0 ** -52 + curvature * ROOT_XTOL ** 2 / 2.0) / slope
            w = 1e-10 * max(1.0, abs(x))  # the root's final bracket lies inside
            with mpmath.workdps(50):
                ref = mpmath.findroot(exact, (mpmath.mpf(x) - w, mpmath.mpf(x) + w),
                                      solver="anderson")
            # 1e-40: mpmath's own resolution on that bracket
            assert abs(x - ref) <= 4.0 * max(math.ulp(x), resolution) + 1e-40, (f.__name__, x)


@pytest.mark.parametrize("t, x_min, x_max, alpha, beta, k, m", [
    (1e-20, 0.0, 4.0, 0.5, 0.0, math.pi / 2, 1.0),  # was 2.7e8 ulp off
    (-1e-20, -4.0, 0.0, 0.5, 0.0, math.pi / 2, 1.0),
    (1e-13, 0.0, 4.0, 0.5, 0.3, math.pi / 2, 1.0),  # was 47 ulp off
    (1.0, 0.0, 4.0, 0.9, 0.0, math.pi / 2, 1e30),  # was 0, not a root
    (1e-30, 0.0, 3.0, 0.5, -1.0, 40.0, 1.0),  # was 0
    # |t| passes the float range here (c / (1 - alpha)^2), but the inversion does not
    # evaluate it: the root is about 3.1e-295
    (1.0, 0.0, 4.0, 0.9999999, 0.0, math.pi / 2, 1e302),
])
def test_roots_below_root_xtol_to_the_last_bit(t, x_min, x_max, alpha, beta, k, m, tmp_path):
    # a root below ROOT_XTOL is polished by Newton steps: the estimate from an iterate
    # ROOT_XTOL / 2 inside its bracket cancels there
    p = make_params(alpha=alpha, beta=beta, k=k, m=m)
    xs = positions_at_time(t, x_min, x_max, p)
    assert len(xs) == 1 and 0.0 < abs(xs[0]) < ROOT_XTOL
    assert abs(xs[0] - mp_position(t, xs[0], p)) <= 2.0 * math.ulp(xs[0])
    out = tmp_path / "x.json"
    assert main(["invert", "--t", repr(t), f"--xmin={x_min!r}", "--xmax", repr(x_max),
                 "--alpha", repr(alpha), f"--beta={beta!r}", "--k", repr(k), "--m", repr(m),
                 "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["positions"] == xs


# Brackets for bisect_root from three functions on disjoint ranges of x:
# t(x) - T on both flanks of four near-nodes (alpha = 1 - 1e-6: D falls to
# 1e-12 and t climbs from about 0 to 3e5-2.4e6 within 1e-3), a line of slope
# 1e-9, and a cubic whose slope at its root is 1e-6.
_A, _K, _T = 1.0 - 1e-6, 3.0, 1e3
_NODES = [(math.pi / 2 + n * math.pi) / _K for n in range(4)]  # cos(K x) = 0
_BRACKETS = sorted([(x - 1e-3, x) for x in _NODES] + [(x, x + 1e-3) for x in _NODES]
                   + [(4.2, 5.9), (6.1, 7.9)])


def _mixed(x, lib=np):
    if x < 4.0:
        d = (1 - _A) ** 2 + 4 * _A * lib.cos(_K * x) ** 2
        c = (1 - _A * _A) / _K
        # mpmath refines c x - T d, which has the same roots and no spike
        return c * x / d - _T if lib is np else c * x - _T * d
    if x < 6.0:
        return 1e-9 * (x - 5.1)
    return (x - 7.3) ** 3 + 1e-6 * (x - 7.3)


def _mixed_slope(x):
    """The derivative of :func:`_mixed` (its double form)."""
    if x < 4.0:
        d = (1 - _A) ** 2 + 4 * _A * np.cos(_K * x) ** 2
        return (1 - _A * _A) / _K * (d + 4 * _A * _K * x * np.sin(2 * _K * x)) / (d * d)
    if x < 6.0:
        return 1e-9
    return 3 * (x - 7.3) ** 2 + 1e-6


def _with_step(values, xs):
    """``values`` of a function at ``xs`` and its Newton steps, as ``bisect_root`` takes them."""
    return values, values / np.array([_mixed_slope(x) for x in xs.tolist()])


def test_itp_step_bound_and_containment():
    lo, hi = (np.array(v) for v in zip(*_BRACKETS))
    assert all(_mixed(a) * _mixed(b) < 0.0 for a, b in _BRACKETS)
    seen = []

    def f(xs):
        seen.append(xs.copy())
        return _with_step(np.array([_mixed(x) for x in xs.tolist()]), xs)

    xtol = 1e-10
    f_lo = np.array([_mixed(x) for x in lo.tolist()])
    roots = bisect_root(f, lo, hi, f_lo)
    bisections = math.ceil(math.log2(np.max(hi - lo) / xtol))
    assert len(seen) - 1 <= bisections + 5  # one call per step
    for xs in seen:
        i = np.searchsorted(lo, xs, side="right") - 1
        assert np.all((lo[i] <= xs) & (xs <= hi[i]))
    for (a, b), root in zip(_BRACKETS, roots.tolist()):
        with mpmath.workdps(50):
            ref = mp_root(lambda v: _mixed(v, mpmath), root)
        assert abs(root - ref) <= xtol / 2, (a, b, root, float(ref))


def test_itp_closes_smooth_brackets_early(monkeypatch):
    steps = []

    def counting(f, lo, hi, f_lo, *, seed=np.nan):
        def g(xs):
            steps.append(len(xs))
            return f(xs)
        return bisect_root(g, lo, hi, f_lo, seed=seed)

    monkeypatch.setattr(trajectory, "bisect_root", counting)
    assert len(find_turning_points(0.0, 20.0, make_params(k=2000.0))) == 25464
    # bisection takes 23 steps here; ITP closes every bracket within 5
    assert len(steps) <= 5


def test_inversion_by_a_tangency_closes_in_six_calls(monkeypatch):
    # At this t two roots sit by a tangency of h = c x - (t - tau) D (5.5e-7 apart about
    # x = 14.4127533) and one by a band edge at x = 1.4392: D = c x / (t - tau) has no phase
    # at their brackets' midpoints.  Seeded at the midpoint, those brackets took 15 calls.
    calls = []

    def counting(f, lo, hi, f_lo, *, seed=np.nan):
        def g(xs):
            calls.append(len(xs))
            return f(xs)
        return bisect_root(g, lo, hi, f_lo, seed=seed)

    monkeypatch.setattr(trajectory, "bisect_root", counting)
    t, p = 0.002274981319812736, make_params(alpha=0.5197927825179898,
                                             beta=2.8236350336524874, k=2001.7670818971728)
    xs = np.array(positions_at_time(t, 0.0, 20.0, p))
    assert len(xs) == 16535 and len(calls) <= 6
    for x in xs[np.searchsorted(xs, [1.4392256, 14.4127530, 14.4127535])].tolist():
        assert abs(x - mp_position(t, x, p)) <= 4 * math.ulp(x), x


def test_bisect_root_columns_follow_their_brackets():
    # each bracket's column names its function; the line's bracket closes first, then the
    # cubic's, then some near-node ones, each leaving the middle of the open arrays, so the
    # column must stay aligned with x through every compaction
    lo, hi = (np.array(v) for v in zip(*_BRACKETS))
    which = np.searchsorted([4.0, 6.0], lo, side="right")
    pieces = (_mixed, lambda x: 1e-9 * (x - 5.1), lambda x: (x - 7.3) ** 3 + 1e-6 * (x - 7.3))
    f_lo = np.array([_mixed(x) for x in lo.tolist()])
    open_counts = []

    def f(xs, w):
        open_counts.append(len(xs))
        assert np.array_equal(w, np.searchsorted([4.0, 6.0], xs, side="right"))
        return _with_step(np.array([pieces[i](x) for x, i in zip(xs.tolist(), w.tolist())]), xs)

    roots = bisect_root(f, lo, hi, f_lo, which)
    assert len(set(open_counts)) > 2  # brackets left at several steps
    plain = bisect_root(lambda xs: _with_step(np.array([_mixed(x) for x in xs.tolist()]), xs),
                        lo, hi, f_lo)
    assert np.array_equal(roots, plain)


def _check_batched(x_min, x_max, p, betas):
    """turning_points_by_beta equals one find_turning_points call per beta, bit for bit."""
    batched = turning_points_by_beta(x_min, x_max, p, betas)
    assert len(batched) == len(betas)
    for beta, tps in zip(betas, batched):
        ref = find_turning_points(x_min, x_max, p.replace(beta=beta))
        for column in ("x", "t", "maximum"):
            assert np.array_equal(getattr(tps, column), getattr(ref, column)), (beta, column)
    return [len(tps) for tps in batched]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(alpha=st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 3.0),
                       st.sampled_from([1.0 - 1e-8, 1.0 - 1e-12])),
       k=st.floats(0.1, 5000.0),
       tau=st.floats(-2.0, 2.0),
       x_min=st.floats(-2.0, 2.0),
       width=st.floats(1e-3, 1.0),
       betas=st.one_of(st.lists(st.floats(-2.0 * math.pi, 2.0 * math.pi), min_size=1,
                                max_size=8),
                       st.sampled_from([FIGURES[1][0], FIGURES[2][0]])),
       repeat=st.booleans())
def test_batched_turning_points_equal_per_curve(alpha, k, tau, x_min, width, betas, repeat):
    # each bracket's ITP iterates depend on its own edges alone, and the kernel does the
    # same operations on the same values with a column of betas as with one
    p = make_params(alpha=alpha, k=k, tau=tau)
    _check_batched(x_min, x_min + width, p, betas + betas[:2] if repeat else betas)


@pytest.mark.parametrize("figure_id", sorted(FIGURES))
def test_batched_figure_curves_with_and_without_turning_points(figure_id):
    # a range narrower than half a period: some curves turn in it, others do not
    counts = _check_batched(-0.35, -0.05, make_params(alpha=1.5), FIGURES[figure_id][0])
    assert min(counts) == 0 < max(counts)
    assert sum(_check_batched(-2.0, 4.0, make_params(tau=1.0), FIGURES[figure_id][0])) > 0
    with pytest.raises(ValueError, match="beta list must not be empty"):
        turning_points_by_beta(0.0, 1.0, make_params(), [])
