"""One kernel for floats and arrays: the scalar and array entry points agree.

Every kernel formula is written once and takes ``xp`` (``math`` for floats,
``numpy`` for arrays), so the two paths differ only in the trigonometric
functions.  Where ``math`` and ``numpy`` agree on every trig argument, the
results must agree bit for bit; on builds whose SIMD trig differs by an ulp,
within 2 ulp of the curve's scale.
"""

import cmath
import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eprtraj import (amplitude_squared, decompose_time, dtdx, effective_quantum_mass,
                     find_turning_points, is_trigger_point, positions_at_time, psi_bipolar,
                     psi_polar, quantum_potential, time_of_position, validate_params,
                     wedge_bounds)
from eprtraj.cli import main
from eprtraj.dataset import build_decompose_rows
from eprtraj.entanglon import _time_parts
from eprtraj.trajectory import _wedge_edges

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


def _parent_kernels(p, xp):
    """Per kernel, the reference function of x: ``c``, ``M``, ``E`` and every alpha and k
    product evaluated in place from the raw inputs, none taken from the kernel constants."""
    hbar, m, a, beta, k, tau = p.hbar, p.m, p.alpha, p.beta, p.k, p.tau
    c, mass = m * (1.0 - a) * (1.0 + a) / (hbar * k), m * (1.0 + a * a)
    energy = hbar * hbar * k * k / (2.0 * mass)

    def d(x):
        cos = xp.cos(k * x + 0.5 * beta)
        return (1.0 - a) * (1.0 - a) + 4.0 * a * cos * cos

    def s(x):
        return d(x) - x * (-4.0 * a * k * xp.sin(2.0 * k * x + beta))

    def free(x):  # m x / (hbar k) as u / unscale, m x over 2^1024 where it overflows
        if m <= 1.0:
            return m * x / (hbar * k), 1.0
        f = 2.0 ** (-512 * (abs(m * x) == math.inf))
        return m * f * (x * f) / (hbar * k), f * f

    def parts(x):
        (u, unscale), weight = free(x), 1.0 + a * a
        c_p1, c_p2 = u / weight / unscale, -u * a * a / weight / unscale
        c_ent = (-u * 2.0 * a * ((1.0 - a) * (1.0 + a) / weight) * xp.cos(2.0 * k * x + beta)
                 / d(x) / unscale)
        return c_p1, c_p2, c_ent, c_p1 + c_p2 + c_ent

    def wedge(x):
        if a == 1.0:
            return tau, math.inf
        scale, unscale = free(x)
        reinforced = tau + scale * (1.0 - a) / (1.0 + a) / unscale
        destructive = tau + scale * (1.0 + a) / (1.0 - a) / unscale
        return (destructive, reinforced) if a > 1.0 else (reinforced, destructive)

    def bipolar(x):
        return cmath.exp(1j * k * x) + a * cmath.exp(-1j * (k * x + beta))

    return {
        "amplitude_squared": d, "time_of_position": lambda x: tau + c * x / d(x),
        "dtdx": lambda x: c * s(x) / (d(x) * d(x)),
        "quantum_potential": lambda x: energy * (1.0 - 1.0 / (d(x) * d(x))),
        "effective_quantum_mass": lambda x: (x, energy * (1.0 - 1.0 / (d(x) * d(x))),
                                             mass * s(x) / (d(x) * d(x) * d(x))),
        "decompose_time": parts, "wedge_bounds": lambda x: wedge(abs(x)),
        "is_trigger_point": lambda x: abs(math.cos(2.0 * k * x + beta) + 1.0) < 1e-9,
        "psi_polar": lambda x: (math.sqrt(d(x)), cmath.phase(bipolar(x)), d(x)),
        "psi_bipolar": bipolar,
    }


_KERNELS = {  # name: (scalar form, array form or None)
    "amplitude_squared": (amplitude_squared, functools.partial(amplitude_squared, xp=np)),
    "time_of_position": (time_of_position, functools.partial(time_of_position, xp=np)),
    "dtdx": (dtdx, functools.partial(dtdx, xp=np)),
    "quantum_potential": (quantum_potential, None),
    "effective_quantum_mass": (effective_quantum_mass,
                               functools.partial(effective_quantum_mass, xp=np)),
    "decompose_time": (decompose_time, functools.partial(_time_parts, xp=np)),
    "wedge_bounds": (lambda x, p: wedge_bounds(abs(x), p), lambda x, p: _wedge_edges(abs(x), p)),
    "is_trigger_point": (is_trigger_point, None),
    "psi_polar": (psi_polar, None),
    "psi_bipolar": (psi_bipolar, None),
}


def _outcome(f, x):
    """The value as a float array (complex as its parts), or the exception's type."""
    try:
        with np.errstate(all="ignore"):
            value = f(x)
    except (ValueError, OverflowError, ZeroDivisionError) as e:
        return type(e)
    if isinstance(value, complex):
        value = (value.real, value.imag)
    return np.asarray(np.broadcast_arrays(*value) if isinstance(value, tuple) else value,
                      dtype=float)


def _same_bits(a, b) -> bool:
    """Equal outcomes: the same exception, or equal values with NaN equal to NaN and the
    same sign on every zero."""
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


_ALPHAS = st.one_of(st.floats(1e-3, 1.0), st.floats(1.0, 1e3), st.sampled_from(
    [1.0 - 1e-12, 1.0, 1.0 + 1e-12, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)]))
_XS = st.one_of(st.floats(-10.0, 0.0), st.floats(-1e6, 0.0), st.floats(0.0, 10.0),
                st.floats(0.0, 1e6), st.sampled_from([0.0, -0.0]))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(hbar=st.floats(0.1, 10.0), m=st.floats(0.1, 10.0), alpha=_ALPHAS,
       beta=st.floats(-10.0, 10.0), k=st.floats(1e-3, 1e4), tau=st.floats(-5.0, 5.0),
       xs=st.lists(_XS, min_size=1, max_size=6))
# the extreme accepted input: 2 k is inf, and k x too at x = 2; each overflow as before
@example(hbar=1e-300, m=1.0, alpha=0.5, beta=0.0, k=1e308, tau=0.0, xs=[0.0, -0.0, 0.5, 2.0])
@example(hbar=1.0, m=1e303, alpha=0.9, beta=1.0, k=0.5, tau=0.0, xs=[1e6, 3.0])  # m x overflows
def test_kernels_equal_the_written_out_expressions_bit_for_bit(hbar, m, alpha, beta, k, tau,
                                                                xs):
    p = validate_params(hbar, m, alpha, beta, k, tau)
    scalar_ref, array_ref, arr = _parent_kernels(p, math), _parent_kernels(p, np), np.array(xs)
    for name, (scalar, array) in _KERNELS.items():
        for x in xs:
            got = _outcome(lambda v: scalar(v, p), x)
            assert _same_bits(got, _outcome(scalar_ref[name], x)), (name, x)
        if array is not None:
            got = _outcome(lambda v: array(v, p), arr)
            assert _same_bits(got, _outcome(array_ref[name], arr)), (name, xs)
