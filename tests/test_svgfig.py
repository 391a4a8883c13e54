import math
import struct
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eprtraj import validate_params
from eprtraj.dataset import build_sweep_dataset
from eprtraj.svgfig import FIGURES, _fixed3, render_figure


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _tie(j, step):
    """The double nearest the rounding tie (2j + 1) / 2000, or one of its neighbours."""
    v = (2 * j + 1) / 2000.0
    return math.nextafter(v, step * math.inf) if step else v


_CELLS = st.one_of(
    st.floats(0.0, 1000.0),  # pixel cells
    st.integers(0, 2 ** 64 - 1).map(_from_bits),  # raw float64 bit patterns
    st.integers(1, 2 ** 52 - 1).map(_from_bits),  # subnormals, both signs
    st.integers(2 ** 63 + 1, 2 ** 63 + 2 ** 52 - 1).map(_from_bits),
    st.builds(_tie, st.integers(0, 999_999), st.sampled_from([-1, 0, 1])),
    st.sampled_from([0.0, -0.0, -0.0004, -0.0005, -1e-300, 999.9995, 1000.0,
                     math.nextafter(1000.0, 0.0), math.nextafter(1000.0, math.inf),
                     math.nan, math.inf, -math.inf, 1e300, -1e300]),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(_CELLS, min_size=1, max_size=40))
def test_fixed3_rows_are_percent_cells(values):
    # each row is "%.3f" % v, NUL on its left only; one wide cell widens every row
    rows = _fixed3(np.array(values))
    assert rows.dtype == np.uint8 and rows.shape[0] == len(values)
    assert [row.tobytes().lstrip(b"\0") for row in rows] == [b"%.3f" % v for v in values]


def test_render_figure_holds_one_polyline_at_a_time():
    # the traced peak over 8 curves is 3.25 times one polyline's text with numpy 2.4: the shared
    # y cells and one curve's cell temporaries or text copies; every curve at once holds 8 texts
    p = validate_params(1.0, 1.0, 0.5, 0.0, math.pi / 2)
    sweep = build_sweep_dataset(p, FIGURES[2][0], 0.0, 4.0, 20001)
    sizes = []
    tracemalloc.start()
    try:
        render_figure(2, sweep, [()] * 8, lambda text: sizes.append(len(text)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sizes) == 8 and min(sizes) > 15 * 20001
    assert peak < 4 * max(sizes)
