"""One kernel for floats and arrays: the scalar and array entry points agree.

Every kernel formula is written once and takes ``xp`` (``math`` for floats,
``numpy`` for arrays), so the two paths differ only in the trigonometric
functions.  Where ``math`` and ``numpy`` agree on every trig argument, the
results must agree bit for bit; on builds whose SIMD trig differs by an ulp,
within 2 ulp of the curve's scale.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eprtraj import (amplitude_squared, decompose_time, dtdx, effective_quantum_mass,
                     find_turning_points, positions_at_time, time_of_position)
from eprtraj.cli import main
from eprtraj.dataset import build_decompose_rows

from conftest import make_params, mp_position, mp_time, mp_turning_point


def _trig_agrees(args) -> bool:
    return (np.array_equal(np.cos(args), [math.cos(a) for a in args.tolist()])
            and np.array_equal(np.sin(args), [math.sin(a) for a in args.tolist()]))


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_scalar_and_array_kernels_agree(alpha):
    p = make_params(alpha=alpha, beta=0.7, k=2.3, tau=-1.25)
    xs = np.linspace(-6.0, 6.0, 4001)
    rows = build_decompose_rows(p, -6.0, 6.0, 4001)
    quantities = {
        "D": (lambda x: amplitude_squared(x, p), amplitude_squared(xs, p, np)),
        "t": (lambda x: time_of_position(x, p), time_of_position(xs, p, np)),
        "dtdx": (lambda x: dtdx(x, p), dtdx(xs, p, np)),
        "m_q": (lambda x: effective_quantum_mass(x, p).m_q,
                effective_quantum_mass(xs, p, np).m_q),
        **{name: (lambda x, name=name: getattr(decompose_time(x, p), name), rows[:, j + 1])
           for j, name in enumerate(("c_p1", "c_p2", "c_ent", "total"))},
    }
    exact = _trig_agrees(np.concatenate([p.k * xs + 0.5 * p.beta, 2.0 * p.k * xs + p.beta]))
    for name, (scalar, array) in quantities.items():
        expected = np.array([scalar(x) for x in xs.tolist()])
        assert array.dtype == np.float64 and array.shape == xs.shape, name
        if exact:
            assert np.array_equal(array, expected), name
        else:
            bound = 2.0 * np.spacing(np.max(np.abs(expected)))
            assert np.max(np.abs(array - expected)) <= bound, name


def test_node_message_same_for_scalar_and_array(capsys):
    # alpha = 1 - 1e-8 gives D = 1e-16 at the node x = 1 of the reference wave, where t
    # spikes to 1.3e8: no message any more, and every path gives finite values that
    # match mpmath at the same double inputs
    p = make_params(alpha=1.0 - 1e-8)
    t = float(mp_time(1.0, p))
    assert time_of_position(1.0, p) == pytest.approx(t, rel=1e-12)
    assert time_of_position(np.array([0.5, 1.0, 1.5]), p, np)[1] == pytest.approx(t, rel=1e-12)
    slope = float(mpmath.diff(lambda v: mp_time(v, p), 1.0))
    assert dtdx(1.0, p) == pytest.approx(slope, rel=1e-12)
    assert dtdx(np.array([1.0, 0.25]), p, np)[0] == pytest.approx(slope, rel=1e-12)
    (top,) = find_turning_points(0.5, 1.5, p)  # the spike's maximum
    assert top.x == pytest.approx(float(mp_turning_point(top.x, p)), abs=4 * math.ulp(top.x))
    low, high = positions_at_time(1.0, 0.0, 1.5, p)  # t = 1 on both flanks of the spike
    for x in (low, high):
        assert x == pytest.approx(float(mp_position(1.0, x, p)), abs=4 * math.ulp(x))
    assert low < 1.0 < high
    # the same x, t cells from a scalar path (limit) and an array path (trajectory)
    cells = []
    for argv, row, col in (
            (["limit", "--side", "below", "--alphas", repr(p.alpha), "--x", "1"], 1, 1),
            (["trajectory", "--alpha", repr(p.alpha), "--xmin", "0.5", "--xmax", "1.5"], 1001, 0)):
        assert main(argv) == 0
        cells.append(capsys.readouterr().out.splitlines()[row].split(",")[col:col + 2])
    assert cells == [["1", "%.9g" % t]] * 2


# The node policy's boundary: alpha on both sides of 1, and 1 itself.
_AROUND_ONE = st.one_of(st.sampled_from([math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0)]),
                        st.floats(1.0 - 1e-12, 1.0 + 1e-12))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(alpha=_AROUND_ONE, x=st.floats(-10.0, 10.0), beta=st.floats(-math.pi, math.pi))
@example(alpha=1.0, x=1.0, beta=0.0)  # a node of the standing wave: D = 1.5e-32
def test_node_policy_holds_on_both_sides_of_alpha_one(alpha, x, beta):
    p = make_params(alpha=alpha, beta=beta, tau=0.5)
    xs = np.array([x])
    d, t, slope = amplitude_squared(x, p), time_of_position(x, p), dtdx(x, p)
    assert d > 0.0 and d >= (1.0 - alpha) * (1.0 - alpha)
    if _trig_agrees(np.array([p.k * x + 0.5 * p.beta, 2.0 * p.k * x + p.beta])):
        for scalar, array in ((d, amplitude_squared(xs, p, np)), (t, time_of_position(xs, p, np)),
                              (slope, dtdx(xs, p, np))):
            assert np.array([scalar]).tobytes() == array.tobytes()
    if alpha == 1.0:
        assert t == 0.5 and slope == 0.0
    else:
        assert math.isfinite(t) and math.isfinite(slope)
