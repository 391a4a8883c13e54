"""One kernel for floats and arrays: the scalar and array entry points agree.

Every kernel formula is written once and takes ``xp`` (``math`` for floats,
``numpy`` for arrays), so the two paths differ only in the trigonometric
functions.  Where ``math`` and ``numpy`` agree on every trig argument, the
results must agree bit for bit; on builds whose SIMD trig differs by an ulp,
within 2 ulp of the curve's scale.
"""

import math

import numpy as np
import pytest

from eprtraj import (SingularityError, amplitude_squared, decompose_time, dtdx,
                     effective_quantum_mass, find_turning_points, positions_at_time,
                     time_of_position)
from eprtraj.cli import main
from eprtraj.dataset import build_decompose_rows

from conftest import make_params


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
    # alpha = 1 - 1e-8 gives D = 1e-16 at the node x = 1 of the reference wave
    p = make_params(alpha=1.0 - 1e-8)
    with pytest.raises(SingularityError) as scalar:
        time_of_position(1.0, p)
    message = str(scalar.value)
    assert "x=1.0" in message
    for call in (lambda: time_of_position(np.array([0.5, 1.0, 1.5]), p, np),
                 lambda: dtdx(np.array([1.0, 0.25]), p, np),
                 lambda: find_turning_points(0.5, 1.5, p),
                 lambda: positions_at_time(1.0, 0.0, 1.5, p)):
        with pytest.raises(SingularityError) as array:
            call()
        assert str(array.value) == message
    # the same line on stderr, from a scalar path (limit) and an array path (trajectory)
    lines = []
    for argv in (["limit", "--side", "below", "--alphas", repr(p.alpha), "--x", "1"],
                 ["trajectory", "--alpha", repr(p.alpha), "--xmin", "0.5", "--xmax", "1.5"]):
        assert main(argv) == 3
        lines.append(capsys.readouterr().err)
    assert lines[0] == lines[1] == f"numerical failure: {message}\n"
