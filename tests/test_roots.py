"""Completeness of the root sets: every turning point and inversion root.

The reference is a dense sign-change count computed here from the closed
forms ``g = c (D - x D')`` (the sign of dt/dx) and ``h = c x - (t - tau) D``
(zero where t(x) = t), with ``D = 1 + a^2 + 2 a cos(2kx + beta)`` and
``c = m (1 - a^2) / (hbar k)``; nothing of eprtraj enters it.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprtraj import (SingularityError, dtdx, find_turning_points, positions_at_time,
                     segment_trajectory)
from eprtraj import trajectory
from eprtraj.cli import main
from eprtraj.rootfind import bisect_root
from eprtraj.trajectory import TEMPORAL_MAX

from conftest import make_params, mp_root

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


def test_node_between_samples_raises(tmp_path):
    # D = (1 - alpha)^2 = 1e-16 at the trigger point x = 0.96072..., where t(x)
    # spikes to about 1e8 and crosses t = 1; a grid of samples stepped over it
    alpha = 1.0 - 1e-8
    p = make_params(alpha=alpha, beta=0.1234)
    with pytest.raises(SingularityError, match="x=0.9607"):
        positions_at_time(1.0, 0.0, 4.0, p)
    with pytest.raises(SingularityError, match="x=0.9607"):
        find_turning_points(0.0, 4.0, p)
    argv = ["invert", "--t", "1.0", "--xmin", "0", "--xmax", "4", "--alpha", repr(alpha),
            "--beta", "0.1234", "--out", str(tmp_path / "invert.csv")]
    assert main(argv) == 3


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


def test_itp_step_bound_and_containment():
    lo, hi = (np.array(v) for v in zip(*_BRACKETS))
    assert all(_mixed(a) * _mixed(b) < 0.0 for a, b in _BRACKETS)
    seen = []

    def f(xs):
        seen.append(xs.copy())
        return np.array([_mixed(x) for x in xs.tolist()])

    xtol = 1e-10
    roots = bisect_root(f, lo, hi, xtol)
    bisections = math.ceil(math.log2(np.max(hi - lo) / xtol))
    assert len(seen) - 2 <= bisections + 1  # one call for the ends, one per step
    for xs in seen[1:]:
        i = np.searchsorted(lo, xs, side="right") - 1
        assert np.all((lo[i] <= xs) & (xs <= hi[i]))
    for (a, b), root in zip(_BRACKETS, roots.tolist()):
        with mpmath.workdps(50):
            ref = mp_root(lambda v: _mixed(v, mpmath), root)
        assert abs(root - ref) <= xtol / 2, (a, b, root, float(ref))


def test_itp_closes_smooth_brackets_early(monkeypatch):
    steps = []

    def counting(f, lo, hi, xtol=1e-10):
        def g(xs):
            steps.append(len(xs))
            return f(xs)
        return bisect_root(g, lo, hi, xtol)

    monkeypatch.setattr(trajectory, "bisect_root", counting)
    assert len(find_turning_points(0.0, 20.0, make_params(k=2000.0))) == 25464
    # bisection takes 23 steps here; ITP closes every bracket within 10
    assert len(steps) - 1 <= 10
