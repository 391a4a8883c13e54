"""Completeness of the root sets: every turning point and inversion root.

The reference is a dense sign-change count computed here from the closed
forms ``g = c (D - x D')`` (the sign of dt/dx) and ``h = c x - (t - tau) D``
(zero where t(x) = t), with ``D = 1 + a^2 + 2 a cos(2kx + beta)`` and
``c = m (1 - a^2) / (hbar k)``; nothing of eprtraj enters it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprtraj import SingularityError, find_turning_points, positions_at_time
from eprtraj.cli import main
from eprtraj.trajectory import TEMPORAL_MAX

from conftest import make_params

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
