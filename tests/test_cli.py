import itertools
import json
import math
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprtraj import cli
from eprtraj.cli import main
from eprtraj.dataset import fmt9
from conftest import mp_effective_mass, mp_time, mp_turning_point
from test_golden import CASES as GOLDEN_CASES


def run_main(args):
    return main(args)


def _written(writer, *args):
    """The text a writer passes to its sink, chunk by chunk, joined."""
    chunks = []
    writer(*args, chunks.append)
    return "".join(chunks)


def test_trajectory_csv_contract(tmp_path):
    out = tmp_path / "traj.csv"
    rc = run_main(["trajectory", "--alpha", "0.5", "--beta", "0",
                   "--k", "1.5707963267948966", "--xmax", "4",
                   "--samples", "4000", "--format", "csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,t,dtdx,branch_id,direction"
    assert len(lines) == 4001
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 5
        assert fields[4] in ("forward", "retrograde", "turning")


def test_trajectory_csv_nine_digit_row(tmp_path):
    out = tmp_path / "traj.csv"
    rc = run_main(["trajectory", "--xmin", "0", "--xmax", "1",
                   "--samples", "3", "--out", str(out)])
    assert rc == 0
    rows = {line.split(",")[0]: line.split(",")
            for line in out.read_text().strip().split("\n")[1:]}
    assert rows["0.5"][1] == "0.190985932"
    assert rows["0.5"][1] == fmt9(0.19098593171027442)


def test_trajectory_json_roundtrip(tmp_path):
    out = tmp_path / "traj.json"
    rc = run_main(["trajectory", "--samples", "100", "--format", "json",
                   "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"params", "rows", "turning_points", "events"}
    assert len(doc["rows"]) == 100
    # bit-identical round trip through the serialized text
    again = json.loads(json.dumps(doc))
    assert again == doc
    from eprtraj import validate_params
    from eprtraj.dataset import build_trajectory_dataset
    p = validate_params(1.0, 1.0, 0.5, 0.0, math.pi / 2)
    ds = build_trajectory_dataset(p, 0.0, 4.0, 100)
    assert len(ds) == 100
    for row, x, t, s in zip(doc["rows"], ds.x, ds.t, ds.dtdx):
        assert row["x"] == x and row["t"] == t and row["dtdx"] == s
    for tp_doc, tp in zip(doc["turning_points"], ds.turning_points):
        assert tp_doc["x"] == tp.x and tp_doc["t"] == tp.t


def _directions(ds):
    """forward, retrograde or turning per row, from the sign of its dt/dx (NaN: turning)."""
    return np.where(ds.dtdx > 0.0, "forward", np.where(ds.dtdx < 0.0, "retrograde", "turning"))


def _trajectory_doc(ds):
    """The trajectory JSON document as a dict, for the generic encoder."""
    from eprtraj import pair_events
    from eprtraj.dataset import params_dict
    return {
        "params": params_dict(ds.params),
        "rows": [{"x": x, "t": t, "dtdx": s, "branch_id": b, "direction": d}
                 for x, t, s, b, d in zip(ds.x.tolist(), ds.t.tolist(), ds.dtdx.tolist(),
                                          ds.branch_id.tolist(), _directions(ds).tolist())],
        "turning_points": [{"x": tp.x, "t": tp.t, "kind": tp.kind}
                           for tp in ds.turning_points],
        "events": [{"kind": ev.kind, "x": ev.x, "t": ev.t,
                    "branch_ids": list(ev.branch_ids)} for ev in pair_events(ds.turning_points)],
    }


def _turning_points(x=(), t=(), maximum=()):
    from eprtraj import TurningPoints
    return TurningPoints(x=np.array(x, dtype=float), t=np.array(t, dtype=float),
                         maximum=np.array(maximum, dtype=bool))


def _odd_trajectory(p, turning_points):
    """Columns with non-finite, signed-zero and subnormal cells."""
    from eprtraj.dataset import TrajectoryDataset
    return TrajectoryDataset(
        params=p, x=np.array([0.0, 1e300, -1e-300, 2.0]),
        t=np.array([math.nan, 5e-324, -math.inf, 1.0]),
        dtdx=np.array([-0.0, math.inf, math.nan, -2.5]),
        branch_id=np.array([0, 7, 3, 1]), turning_points=turning_points)


def test_trajectory_json_matches_generic_encoder():
    from eprtraj import pair_events, validate_params
    from eprtraj.dataset import build_trajectory_dataset, trajectory_json
    from eprtraj.trajectory import TurningPoint
    p = validate_params(1.0, 1.0, 0.5, 0.0, math.pi / 2)
    tps = _turning_points([1.0, 2.0], [math.inf, -math.inf], [True, False])
    assert list(tps) == [TurningPoint(1.0, math.inf, "temporal_max"),
                         TurningPoint(2.0, -math.inf, "temporal_min")]
    odd = _odd_trajectory(p, tps)
    assert _directions(odd).tolist() == ["turning", "forward", "turning", "retrograde"]
    assert [(ev.kind, ev.branch_ids) for ev in pair_events(odd.turning_points)] == [
        ("annihilation", (0, 1)), ("creation", (1, 2))]
    for ds in (build_trajectory_dataset(p, 0.0, 4.0, 41), build_trajectory_dataset(p, 0.0, 0.5, 5),
               odd, _odd_trajectory(p, _turning_points())):
        assert _written(trajectory_json, ds) == json.dumps(_trajectory_doc(ds), indent=2) + "\n"


def _sweep_doc(ds):
    from eprtraj.dataset import params_dict
    return {
        "params": params_dict(ds.params),
        "curves": [{"beta": beta, "rows": [{"x": x, "t": t}
                                           for x, t in zip(ds.xs.tolist(), ts.tolist())]}
                   for beta, ts in zip(ds.betas, ds.t)],
        "wedge": [{"x": x, "t_lower": lo, "t_upper": hi}
                  for x, lo, hi in zip(ds.xs.tolist(), ds.t_lower.tolist(),
                                       ds.t_upper.tolist()) if x >= 0.0],
    }


def test_sweep_json_matches_generic_encoder():
    from eprtraj import validate_params
    from eprtraj.dataset import SweepDataset, build_sweep_dataset, sweep_json
    p = validate_params(1.0, 1.0, 0.5, 0.0, math.pi / 2)
    odd = SweepDataset(params=p, betas=[math.nan, -0.0], xs=np.array([-1.0, -0.0, 5e-324]),
                       t=np.array([[math.inf, -math.inf, 1e300], [math.nan, -0.0, 0.1]]),
                       t_lower=np.array([math.nan, 0.0, -math.inf]),
                       t_upper=np.array([math.nan, math.inf, math.nan]))
    cases = [build_sweep_dataset(p, [0.0, 1.0], -2.0, 3.0, 11),  # wedge starts mid-grid
             build_sweep_dataset(p, [0.5], -3.0, -1.0, 4),  # no wedge at all
             build_sweep_dataset(p.replace(alpha=1.0), [0.3], 0.5, 1.5, 3),  # t_upper = inf
             build_sweep_dataset(p.replace(alpha=1.5, tau=1.0), [2.0], -1.0, 2.0, 7), odd]
    assert np.isnan(cases[0].t_lower[:4]).all() and not np.isnan(cases[0].t_lower[4:]).any()
    for ds in cases:
        assert len(ds) == ds.t.size
        assert _written(sweep_json, ds) == json.dumps(_sweep_doc(ds), indent=2) + "\n"


def test_decompose_json_matches_generic_encoder():
    from eprtraj import validate_params
    from eprtraj.dataset import build_decompose_rows, decompose_json, params_dict
    p = validate_params(1.0, 1.0, 0.5, 0.0, math.pi / 2)
    odd = np.array([[math.nan, math.inf, -math.inf, -0.0, 5e-324],
                    [1e300, -1e-300, 0.0, 2.5, math.nan]])
    for rows in (build_decompose_rows(p, -2.0, 3.0, 21), odd):
        doc = {"params": params_dict(p),
               "rows": [dict(zip(("x", "c_p1", "c_p2", "c_ent", "total"), row))
                        for row in rows.tolist()]}
        assert _written(decompose_json, p, rows) == json.dumps(doc, indent=2) + "\n"


def _many_positions():
    from eprtraj import positions_at_time, validate_params
    p = validate_params(1.0, 1.0, 0.5, 0.0, 2000.0)
    return positions_at_time(2e-4, 0.0, 1.0, p) + [-0.0, 5e-324, 1e300]


@pytest.mark.parametrize("positions", [[], [0.8266341165551545], [-0.0, 5e-324, 1e300],
                                       _many_positions()])
def test_invert_writers_match_generic_encoder(positions):
    from eprtraj import validate_params
    from eprtraj.dataset import invert_csv, invert_json, params_dict
    p = validate_params(1.0, 1.0, 0.5, 0.0, math.pi / 2)
    for t in (1.0, -0.0, 5e-324, 1e300):
        doc = {"params": params_dict(p), "t": t, "positions": positions}
        assert _written(invert_json, p, t, positions) == json.dumps(doc, indent=2) + "\n"
    assert _written(invert_csv, positions) == "\n".join(["x"] + [fmt9(x) for x in positions]) + "\n"


def test_parser_shared_across_calls(tmp_path, capsys):
    from eprtraj.cli import build_parser
    calls = [["trajectory", "--samples", "5"], ["trajectory", "--samples", "five"],
             ["sweep", "--betas", "0,1", "--samples", "5"]]

    def run(fresh):
        results = []
        for i, argv in enumerate(calls):
            if fresh:
                build_parser.cache_clear()
            out = tmp_path / f"{fresh}-{i}.csv"
            rc = main(argv + ["--out", str(out)])
            results.append((rc, out.read_text() if out.exists() else None,
                            capsys.readouterr().err))
        return results

    build_parser.cache_clear()
    shared = run(fresh=False)
    assert build_parser.cache_info().misses == 1
    assert [rc for rc, _, _ in shared] == [0, 2, 0]
    assert shared == run(fresh=True)


_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, -1e300]
_BULK = 2 ** 15 + 1  # one row past the first chunk


@pytest.fixture(scope="module")
def bulk_cells():
    """Cells over +-1e+-300, special values among them and on rows at both
    chunk edges, and their per-row fmt9 reference lines."""
    rng = np.random.default_rng(7)
    cells = rng.uniform(-1.0, 1.0, (_BULK, 5)) * 10.0 ** rng.uniform(-300, 300, (_BULK, 5))
    flat = cells.ravel()
    flat[rng.choice(flat.size, 200, replace=False)] = rng.choice(_SPECIAL, 200)
    for row in (0, 1, 2 ** 15 - 2, 2 ** 15 - 1, 2 ** 15):
        cells[row] = rng.choice(_SPECIAL, 5)
    ref = [",".join(map(fmt9, row)) + "\n" for row in cells.tolist()]
    return cells, ref


@pytest.mark.parametrize("n", [1, 2, 2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1])
def test_chunked_csv_matches_per_row_reference(n, bulk_cells):
    from eprtraj.dataset import decompose_csv
    cells, ref = bulk_cells
    assert _written(decompose_csv, cells[:n]) == "x,c_p1,c_p2,c_ent,total\n" + "".join(ref[:n])


def test_chunked_csv_mixed_template(bulk_cells):
    from eprtraj import validate_params
    from eprtraj.dataset import TrajectoryDataset, trajectory_csv
    cells, _ = bulk_cells
    ds = TrajectoryDataset(params=validate_params(1.0, 1.0, 0.5, 0.0, 1.0), x=cells[:, 0],
                           t=cells[:, 1], dtdx=cells[:, 2],
                           branch_id=np.arange(_BULK) * 977 % 5003,
                           turning_points=_turning_points())
    ref = "".join(f"{fmt9(x)},{fmt9(t)},{fmt9(s)},{b},{d}\n" for x, t, s, b, d in
                  zip(ds.x.tolist(), ds.t.tolist(), ds.dtdx.tolist(), ds.branch_id.tolist(),
                      _directions(ds).tolist()))
    assert _written(trajectory_csv, ds) == "x,t,dtdx,branch_id,direction\n" + ref


def _rows_of(cells, width):
    """``cells`` as a float block of ``width`` columns, repeated to fill its last row."""
    return np.resize(np.array(cells, dtype=float), (-(-len(cells) // width), width))


def _fmt9_rows(block):
    return [",".join(map(fmt9, row)) for row in block.tolist()]


def _tie9(j, k, step=0):
    """The double nearest the rounding tie (2j + 1) / 2 * 10^-k of a 9-digit j, or the
    ``step``-th one next to it."""
    v = (2 * j + 1) / (2 * 10 ** k)  # int / int: correctly rounded
    for _ in range(abs(step)):
        v = math.nextafter(v, math.copysign(math.inf, step))
    return v


def _fixed_csv_cells():
    rng = np.random.default_rng(25)
    tens = [float(f"1e{k}") for k in range(-5, 11)]
    ties = [_tie9(int(j), int(k), step) for j, k in zip(rng.integers(10 ** 8, 10 ** 9, 700),
                                                        rng.integers(0, 13, 700))
            for step in (-1, 0, 1)]
    big = 999999999.5
    special = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e-310, -1e-310, 1.0, -1.0, 12.0, -12.0, 1e8, 123456789.0, 2.0 ** 53, 1e300,
               big, math.nextafter(big, 0.0), math.nextafter(big, math.inf), -big]
    cells = np.concatenate([
        rng.integers(0, 2 ** 64, 2000, dtype=np.uint64).view(np.float64),  # raw bit patterns
        10.0 ** rng.uniform(-8.0, 20.0, 4000) * rng.choice([-1.0, 1.0], 4000),
        tens, [math.nextafter(v, 0.0) for v in tens], [math.nextafter(v, math.inf) for v in tens],
        ties, np.negative(ties), special, np.arange(-1000.0, 1000.0, 7.0)])  # integer-valued
    return rng.permutation(cells)


@pytest.mark.parametrize("width", [1, 2, 3, 5])
def test_csv_rows_are_fmt9_cells_fixed(width):
    from eprtraj.dataset import _csv_rows
    block = _rows_of(_fixed_csv_cells(), width)
    assert _csv_rows(block).tolist() == _fmt9_rows(block)


def test_csv_rows_take_ordinary_cells_from_orjson(monkeypatch):
    # a cell in [1e-4, 1e9) whose 9 digits are no integer is orjson's text (not null): % is
    # only the fallback
    from eprtraj.dataset import _csv_rows
    real, texts = orjson.dumps, []
    monkeypatch.setattr(orjson, "dumps", lambda values, option: texts.append(
        real(values, option=option)) or texts[-1])
    rng = np.random.default_rng(5)
    cells = 10.0 ** rng.uniform(-4.0, 9.0, 6000) * rng.choice([-1.0, 1.0], 6000)
    cells = cells[["." in fmt9(v) for v in cells.tolist()]][:5000]
    for width in (1, 5):
        block = cells.reshape(-1, width)
        assert _csv_rows(block).tolist() == _fmt9_rows(block)
        assert b"null" not in texts[-1] and b"e" not in texts[-1]


def _float_of_bits(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0].item()


_CSV_CELLS = st.one_of(
    st.floats(1e-4, 1e9),  # the range orjson writes, and its edges
    st.floats(),
    st.integers(0, 2 ** 64 - 1).map(_float_of_bits),
    st.builds(lambda e, sign: sign * 10.0 ** e, st.floats(-8.0, 20.0), st.sampled_from([-1, 1])),
    st.builds(_tie9, st.integers(10 ** 8, 10 ** 9 - 1), st.integers(0, 12),
              st.sampled_from([-1, 0, 1])),
    st.integers(-10 ** 9, 10 ** 9).map(float),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(cells=st.lists(_CSV_CELLS, min_size=1, max_size=40), width=st.sampled_from([1, 2, 3, 5]))
def test_csv_rows_are_fmt9_cells(cells, width):
    from eprtraj.dataset import _csv_rows
    block = _rows_of(cells, width)
    assert _csv_rows(block).tolist() == _fmt9_rows(block)


def test_csv_chunk_in_percent_bytes_where_orjson_writes_exponents(bulk_cells, monkeypatch):
    # an orjson that writes every number in exponent form ("1.5" as "1.5e0"): the chunk is
    # written by % as a whole, the same bytes
    from eprtraj.dataset import decompose_csv, invert_csv, trajectory_csv
    real = orjson.dumps
    monkeypatch.setattr(orjson, "dumps", lambda values, option: re.sub(
        rb"(\d)(?=[],])", rb"\1e0", real(values, option=option)))
    assert b"1.5e0]" in orjson.dumps(np.array([1.5]), option=orjson.OPT_SERIALIZE_NUMPY)
    cells = np.column_stack([np.linspace(0.5, 7.5, 1000)] * 5)
    cells[::3] = bulk_cells[0][:334]
    assert _written(decompose_csv, cells) == "x,c_p1,c_p2,c_ent,total\n" + "".join(
        row + "\n" for row in _fmt9_rows(cells))
    ds, ref = _trajectory_rows(cells, np.arange(1000) // 7, cells[:, 2])
    assert _written(trajectory_csv, ds) == ref
    assert _written(invert_csv, cells[:, 0]) == "x\n" + "".join(
        row + "\n" for row in _fmt9_rows(cells[:, :1]))


def _first_difference(text, ref):
    """None, or the first line where ``text`` differs from ``ref`` (no diff of megabytes)."""
    return next(((i, a, b) for i, (a, b) in enumerate(itertools.zip_longest(
        text.split("\n"), ref.split("\n"))) if a != b), None)


def _trajectory_rows(cells, branch_id, dtdx):
    """A dataset of these labels, x and t from ``cells``, and its per-row fmt9 CSV."""
    from eprtraj.dataset import TrajectoryDataset
    ds = TrajectoryDataset(params=_params_ref(), x=cells[:, 0], t=cells[:, 1], dtdx=dtdx,
                           branch_id=branch_id, turning_points=_turning_points())
    return ds, "x,t,dtdx,branch_id,direction\n" + "".join(
        f"{fmt9(x)},{fmt9(t)},{fmt9(s)},{b},{d}\n" for x, t, s, b, d in
        zip(ds.x.tolist(), ds.t.tolist(), ds.dtdx.tolist(), ds.branch_id.tolist(),
            _directions(ds).tolist()))


def test_trajectory_csv_runs_of_odd_cells():
    # runs of 5 rows (one label entry each) over the odd cells, turning rows (-0.0, NaN) inside
    # branch 0; the odd dataset itself starts a run at every row
    import dataclasses
    from eprtraj.dataset import trajectory_csv, trajectory_json
    odd = _odd_trajectory(_params_ref(), _turning_points())
    cells = np.repeat(np.column_stack((odd.x, odd.t)), 5, axis=0)
    for ds, ref in (_trajectory_rows(np.column_stack((odd.x, odd.t)), odd.branch_id, odd.dtdx),
                    _trajectory_rows(cells, np.repeat([0, 0, 0, 1], 5), np.repeat(odd.dtdx, 5))):
        assert _first_difference(_written(trajectory_csv, ds), ref) is None
        # float ids: "%d" in CSV, the float itself in JSON; negative ids
        floats = dataclasses.replace(ds, branch_id=ds.branch_id.astype(float))
        assert _written(trajectory_csv, floats) == ref
        below, below_ref = _trajectory_rows(np.column_stack((ds.x, ds.t)), ds.branch_id - 2,
                                            ds.dtdx)
        assert _written(trajectory_csv, below) == below_ref
        for other in (floats, below):
            assert _written(trajectory_json, other) == json.dumps(_trajectory_doc(other),
                                                                  indent=2) + "\n"
    assert _directions(ds)[:15].tolist() == ["turning"] * 5 + ["forward"] * 5 + ["turning"] * 5


def test_csv_writers_of_no_rows_write_the_header():
    from eprtraj.dataset import TrajectoryDataset, invert_csv, trajectory_csv
    empty = np.array([])
    ds = TrajectoryDataset(params=_params_ref(), x=empty, t=empty, dtdx=empty,
                           branch_id=empty.astype(int), turning_points=_turning_points())
    assert _written(trajectory_csv, ds) == "x,t,dtdx,branch_id,direction\n"
    assert _written(invert_csv, []) == "x\n"


@pytest.mark.parametrize("starts", [(1, 2 ** 16 + 50),  # one run over three chunks
                                    (2 ** 15 - 1, 2 ** 15), (2 ** 15, 2 ** 15 + 1),
                                    (2 ** 15 + 1, 2 ** 15 + 2), (2 ** 15, 2 ** 16)])
def test_trajectory_csv_run_edges_by_chunk_edges(starts, bulk_cells):
    # branches start at ``starts``: on, before and after the chunk edge at row 2**15
    from eprtraj.dataset import trajectory_csv
    n = 2 ** 16 + 100
    cells = np.concatenate([bulk_cells[0][:, :2]] * 3)[:n]
    branch_id = np.searchsorted(starts, np.arange(n), side="right")
    ds, ref = _trajectory_rows(cells, branch_id, np.full(n, 0.5))
    chunks = []
    trajectory_csv(ds, chunks.append)
    assert _first_difference("".join(chunks), ref) is None and len(chunks) == 3


@pytest.mark.parametrize("lengths", [
    {"x": 2 ** 16 + 2, "t": 2 ** 16 + 2, "dtdx": 2 ** 16 + 2, "branch_id": 2 ** 16 + 100},
    {"x": 2 ** 16 + 100, "t": 2 ** 16 + 100, "dtdx": 2 ** 16 + 100, "branch_id": 2 ** 16 + 2},
    {"x": 5, "t": 4, "dtdx": 5, "branch_id": 5}, {"x": 5, "t": 5, "dtdx": 6, "branch_id": 5},
])
def test_trajectory_dataset_rejects_columns_of_unequal_length(lengths):
    # the writers take the row count from x: extra labels were dropped, missing ones failed
    # inside % with "not enough arguments"
    from eprtraj.dataset import TrajectoryDataset
    columns = {name: np.zeros(n, dtype=int if name == "branch_id" else float)
               for name, n in lengths.items()}
    with pytest.raises(ValueError, match=re.escape(f"columns differ in length: {lengths}")):
        TrajectoryDataset(params=_params_ref(), turning_points=_turning_points(), **columns)


def test_dataset_branch_ids_match_segments():
    from eprtraj import segment_trajectory, validate_params
    from eprtraj.dataset import build_trajectory_dataset
    p = validate_params(1.0, 1.0, 0.5, 0.0, math.pi / 2)
    ds = build_trajectory_dataset(p, 0.0, 4.0, 801)
    segments = segment_trajectory(0.0, 4.0, p)
    for x, branch_id, direction in zip(ds.x, ds.branch_id, _directions(ds)):
        seg = segments[branch_id]
        assert seg.x_start <= x <= seg.x_end
        if direction != "turning":
            assert direction == seg.direction


def test_sweep_curve_count_and_containment(tmp_path):
    out = tmp_path / "sweep.json"
    betas = ",".join(str(j * math.pi / 4) for j in range(8))
    rc = run_main(["sweep", "--betas", betas, "--xmax", "6",
                   "--samples", "300", "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["curves"]) == 8
    bounds = {w["x"]: (w["t_lower"], w["t_upper"]) for w in doc["wedge"]}
    for curve in doc["curves"]:
        for row in curve["rows"]:
            lo, hi = bounds[row["x"]]
            assert lo - 1e-9 <= row["t"] <= hi + 1e-9


def test_sweep_empty_betas_exit_2(tmp_path):
    assert run_main(["sweep", "--betas", "", "--out", str(tmp_path / "x.csv")]) == 2


def test_figure_one_styles(tmp_path):
    out = tmp_path / "fig1.svg"
    assert run_main(["figure", "1", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("<polyline") == 2
    assert text.count("stroke-dasharray") == 1
    assert "<svg" in text and 'version="1.1"' in text


def test_figure_two_eight_solid_curves(tmp_path):
    out = tmp_path / "fig2.svg"
    assert run_main(["figure", "2", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("<polyline") == 8
    assert "stroke-dasharray" not in text


_DESC = re.compile(r"<desc>t-range (\S+) (\S+) px (\S+) (\S+) ; "
                   r"x-range (\S+) (\S+) py (\S+) (\S+)</desc>")


@pytest.mark.parametrize("argv", [["1", "--alpha", "1.5", "--samples", "5"],
                                  ["1", "--alpha", "1.5", "--tau", "-2"],
                                  ["2", "--xmin", "-2", "--markers"]])
def test_figure_points_inside_plot_box(argv, tmp_path):
    # negative times (alpha > 1, x < 0, tau < 0) widen the time axis leftward
    out = tmp_path / "fig.svg"
    assert run_main(["figure", *argv, "--out", str(out)]) == 0
    text = out.read_text()
    t_lo, t_hi, px_l, px_r, _, _, py_b, py_t = (float(v) for v in _DESC.search(text).groups())
    assert t_lo < 0.0 <= t_hi
    points = [pair.split(",") for pts in re.findall(r' points="([^"]+)"', text)
              for pair in pts.split()]
    points += re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', text)
    assert len(points) > 5
    for px, py in points:
        assert px_l <= float(px) <= px_r and py_t <= float(py) <= py_b, (px, py)


def test_figure_markers_flag(tmp_path):
    out = tmp_path / "fig1m.svg"
    assert run_main(["figure", "1", "--markers", "--out", str(out)]) == 0
    assert "<circle" in out.read_text()


def test_figure_markers_at_near_nodes(tmp_path):
    # alpha = 1 - 1e-8: D = 1e-16 at the beta = 0 curve's trigger points x = 1, 3, where t
    # spikes to 1e8; one marker per turning point of either curve, each exact
    from eprtraj import find_turning_points, validate_params
    from eprtraj.svgfig import FIGURES
    out = tmp_path / "f.svg"
    assert run_main(["figure", "1", "--alpha", "0.99999999", "--xmin", "0.1", "--xmax", "3.9",
                     "--samples", "2000", "--markers", "--out", str(out)]) == 0
    p = validate_params(1.0, 1.0, 0.99999999, 0.0, math.pi / 2)
    count = 0
    for q in (p.replace(beta=beta) for beta in FIGURES[1][0]):
        for x in find_turning_points(0.1, 3.9, q).x.tolist():
            assert x == pytest.approx(float(mp_turning_point(x, q)), abs=4 * math.ulp(x))
            count += 1
    assert out.read_text().count("<circle") == count > 0


def test_figure_invalid_id(tmp_path):
    assert run_main(["figure", "3", "--out", str(tmp_path / "x.svg")]) == 2


def test_decompose_reference_row(tmp_path):
    out = tmp_path / "dec.csv"
    rc = run_main(["decompose", "--xmin", "0", "--xmax", "2", "--samples", "3",
                   "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,c_p1,c_p2,c_ent,total"
    x, c1, c2, ce, tot = (float(v) for v in lines[2].split(","))
    assert x == 1.0
    assert c1 == pytest.approx(0.509295818, rel=1e-8)
    assert c2 == pytest.approx(-0.127323954, rel=1e-8)
    assert ce == pytest.approx(1.52788745, rel=1e-8)
    assert tot == pytest.approx(1.90985932, rel=1e-8)
    for line in lines[1:]:
        _, c1, c2, ce, tot = (float(v) for v in line.split(","))
        assert c1 + c2 + ce == pytest.approx(tot, abs=1e-8)


def test_limit_below_ratio_column(tmp_path):
    out = tmp_path / "limit.csv"
    rc = run_main(["limit", "--side", "below", "--alphas", "0.9,0.99,0.999999",
                   "--x", "1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "alpha,x,t,m_q,ratio"
    last = lines[-1].split(",")
    assert float(last[4]) == pytest.approx(0.9999995, abs=1e-9)


def test_limit_ratio_is_of_time_since_tau(capsys):
    argv = ["limit", "--tau", "1", "--side", "below", "--alphas", "0.9,0.99", "--x", "1"]
    assert run_main(argv) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert [line.split(",")[4] for line in lines] == ["0.95", "0.995"]


def test_limit_above_side_positive_times(tmp_path):
    # x < 0 with alpha > 1 flips both signs in the motion, so t stays positive
    out = tmp_path / "limit.csv"
    rc = run_main(["limit", "--side", "above", "--alphas", "1.1,1.01",
                   "--x", "-0.5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")[1:]
    for line in lines:
        fields = line.split(",")
        assert float(fields[2]) > 0
        assert fields[4] == ""  # x=-0.5 is not a trigger point


def test_limit_malformed_side():
    assert run_main(["limit", "--side", "sideways", "--alphas", "0.9",
                     "--x", "1"]) == 2


def test_limit_side_sequence_mismatch():
    # declared side must match the direction the alphas approach 1 from
    assert run_main(["limit", "--side", "below", "--alphas", "1.5,1.1",
                     "--x", "1"]) == 2


def test_invert_positions(tmp_path):
    out = tmp_path / "roots.csv"
    rc = run_main(["invert", "--t", "1.0", "--xmin", "0", "--xmax", "3",
                   "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x"
    roots = [float(v) for v in lines[1:]]
    assert len(roots) == 3
    assert roots[0] == pytest.approx(0.826634117, abs=1e-6)


def test_params_echo(capsys):
    assert run_main(["params"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["M"] == 1.25
    assert doc["E"] == pytest.approx(math.pi ** 2 / 10, rel=1e-14)


# a small valid argv for each command of cli._COMMANDS
_COMMAND_ARGV = {"trajectory": [], "sweep": ["--betas", "0,1"], "figure": ["2", "--markers"],
                 "decompose": [], "limit": ["--side", "below", "--alphas", "0.9", "--x", "1"],
                 "invert": ["--t", "1"], "params": []}


def test_argument_errors_exit_2(tmp_path, capsys):
    assert run_main(["trajectory", "--alpha", "-1"]) == 2
    assert run_main(["trajectory", "--samples", "1"]) == 2
    assert run_main(["trajectory", "--xmin", "2", "--xmax", "1"]) == 2
    # every format a command does not write: argparse's own choices, before any build
    out = tmp_path / "out"
    for name, (*_, writers) in cli._COMMANDS.items():
        for fmt in sorted({"csv", "json", "svg"} - set(writers)):
            capsys.readouterr()
            argv = [name, *_COMMAND_ARGV[name], "--format", fmt, "--out", str(out)]
            assert run_main(argv) == 2
            assert f"argument --format: invalid choice: '{fmt}'" in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize("name", cli._COMMANDS)
def test_command_help_and_default_format(name, tmp_path, capsys):
    writers = cli._COMMANDS[name][-1]
    assert run_main([name, "--help"]) == 0
    choices = re.findall(r"--format \{([^}]*)\}", capsys.readouterr().out)
    assert choices and set(choices) == {",".join(writers)}
    outs = {fmt: tmp_path / f"{fmt or 'default'}.out" for fmt in (None, *writers)}
    for fmt, out in outs.items():
        argv = [name, *_COMMAND_ARGV[name], "--samples", "5", "--out", str(out)]
        assert run_main(argv + (["--format", fmt] if fmt else [])) == 0
    texts = {fmt: out.read_bytes() for fmt, out in outs.items()}
    assert [fmt for fmt in writers if texts[fmt] == texts[None]] == [next(iter(writers))]


@pytest.mark.parametrize("x", ["nan", "inf"])
def test_limit_non_finite_x_exit_2(x, capsys):
    argv = ["limit", "--side", "below", "--alphas", "0.9,0.99", "--x", x]
    assert run_main(argv) == 2
    assert f"x must be finite, got x={float(x)}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--alphas", "0.9,0.99", "--x", "1e308"],
                                  ["--alphas", "0.9", "--x", "1e154", "--k", "1e154"]])
def test_limit_phase_overflow_exit_2(argv, tmp_path, capsys):
    # the phase 2kx + beta is inf while x is finite: named, not math.sin's "math domain error"
    out = tmp_path / "limit.csv"
    assert run_main(["limit", "--side", "below", *argv, "--out", str(out)]) == 2
    x = float(argv[argv.index("--x") + 1])
    assert capsys.readouterr().err == f"error: the phase 2kx + beta overflows at x = {x}\n"
    assert not out.exists()


@pytest.mark.parametrize("spaced, joined", [
    (["limit", "--side", "above", "--alphas", "1.1", "--x", "-1e-3"],
     ["limit", "--side", "above", "--alphas", "1.1", "--x=-1e-3"]),
    (["invert", "--t", "-1e-3", "--xmin", "-3", "--xmax", "0"],
     ["invert", "--t=-1e-3", "--xmin=-3", "--xmax", "0"]),
    (["trajectory", "--xmin", "-1e1", "--xmax", "-9.99", "--samples", "5"],
     ["trajectory", "--xmin=-1e1", "--xmax=-9.99", "--samples", "5"]),
    (["sweep", "--betas", "-1e-3,0.5", "--samples", "3"],
     ["sweep", "--betas=-1e-3,0.5", "--samples", "3"]),
])
def test_negative_exponent_values_parse_as_numbers(spaced, joined, capsys):
    # argparse alone takes "-1e-3" for an unknown option: "expected one argument"
    assert run_main(joined) == 0
    expected = capsys.readouterr().out
    assert run_main(spaced) == 0
    assert capsys.readouterr().out == expected


def test_negative_extreme_values_parse(capsys):
    assert run_main(["params", "--xmin", "-1e308", "--beta", "-1e-300"]) == 0
    assert json.loads(capsys.readouterr().out)["beta"] == -1e-300
    assert run_main(["params", "--tau", "-inf"]) == 2
    assert "tau must be finite, got -inf" in capsys.readouterr().err
    argv = ["limit", "--side", "below", "--alphas", "0.9", "--x", "-inf"]
    assert run_main(argv) == 2
    assert "x must be finite, got x=-inf" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["trajectory", "--xmin=-1e308"],
    ["sweep", "--betas", "0,1", "--xmax", "1e308"],
    ["figure", "2", "--xmin=-1e308"],
    ["decompose", "--xmin=-1e308"],
    ["invert", "--t", "1", "--xmin=-1e308", "--xmax", "0"],
    ["trajectory", "--xmin", "1e307", "--xmax", "1.0001e307", "--k", "10", "--samples", "3"],
])
def test_range_with_overflowing_phase_exit_2(argv, capsys):
    assert run_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the phase 2kx + beta overflows on [")
    assert err.count("\n") == 1


def test_limit_sequence_ending_at_one(capsys):
    from eprtraj import validate_params
    argv = ["limit", "--side", "below", "--alphas", "0.9,1", "--x", "0.5"]
    assert run_main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("1,0.5,0,")
    # x = 1 is a node at alpha = 1 (D = 1.5e-32): t = tau = 0, the ratio 0, m_q finite
    assert run_main(argv[:-1] + ["1", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    for row in rows:
        p = validate_params(1.0, 1.0, row["alpha"], 0.0, math.pi / 2)
        assert row["t"] == pytest.approx(float(mp_time(1.0, p)), rel=1e-12, abs=0.0)
        assert row["m_q"] == pytest.approx(mp_effective_mass(1.0, p), rel=1e-12)
    assert (rows[-1]["t"], rows[-1]["ratio"]) == (0.0, 0.0)


def test_limit_malformed_sequence_on_a_node_exit_2(capsys):
    # 1 - 1e-8 puts x = 1 on a near-node (D = 1e-16); the order is checked first
    argv = ["limit", "--side", "below", "--alphas", "0.99999999,0.9", "--x", "1"]
    assert run_main(argv) == 2
    assert "monotonic" in capsys.readouterr().err


def test_invert_alpha_one_at_tau_exit_2(capsys):
    assert run_main(["invert", "--t", "0", "--alpha", "1", "--xmax", "0.5"]) == 2
    assert "every position is at t = tau" in capsys.readouterr().err


def test_numerical_failure_exit_3(tmp_path, monkeypatch, capsys):
    # alpha = 1 puts standing-wave nodes (x = 1, 3) inside the sampled range, where
    # D = 1.5e-32; c = 0 there, so every sample has t = tau and dt/dx = 0
    from eprtraj import InfiniteVelocityError, dataset
    out = tmp_path / "x.csv"
    assert run_main(["trajectory", "--alpha", "1", "--tau", "0.5", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 2001 and "1" in {r[0] for r in rows} and "3" in {r[0] for r in rows}
    assert {r[1] for r in rows} == {"0.5"} and {r[2] for r in rows} <= {"0", "-0"}
    # an ArithmeticError in a build exits 3, names itself and writes no file
    def fail(*args):
        raise InfiniteVelocityError("dt/dx is 0 at x=1")

    monkeypatch.setattr(dataset, "build_trajectory_dataset", fail)
    out.unlink()
    assert run_main(["trajectory", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "numerical failure: dt/dx is 0 at x=1\n"
    assert not out.exists()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "eprtraj.cli", "params"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["M"] == 1.25


_NOT_NUMBERS = "must be a comma-separated list of numbers: could not convert string to float"


@pytest.mark.parametrize("argv, message", [
    # 10**15 samples are 7.1 PiB, past the 128 TiB user address space of x86-64: the
    # allocator refuses them at once and no memory is touched
    *[(argv + ["--samples", str(10 ** 15)], "samples = 1000000000000000: too many for an array")
      for argv in (["trajectory"], ["sweep", "--betas", "0"], ["decompose"], ["figure", "2"])],
    (["trajectory", "--samples", "9" * 23], f"samples = {'9' * 23}: too many for an array"),
    (["sweep", "--betas", "0,abc"], f"--betas {_NOT_NUMBERS}: 'abc'"),
    (["limit", "--side", "below", "--alphas", "0.9,x", "--x", "1"], f"--alphas {_NOT_NUMBERS}: 'x'"),
])
def test_unbuildable_request_exits_2_naming_it(argv, message, tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert run_main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_out_of_memory_in_a_build_exits_2(tmp_path, monkeypatch, capsys):
    from eprtraj import dataset
    out = tmp_path / "x.csv"
    for exc, err in ((MemoryError("Unable to allocate 1.90 GiB"), "Unable to allocate 1.90 GiB"),
                     (MemoryError(), "out of memory")):
        def fail(*args, exc=exc):
            raise exc

        monkeypatch.setattr(dataset, "build_invert_positions", fail)
        assert run_main(["invert", "--t", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not out.exists()


def test_unwritable_output_exits_1(tmp_path, monkeypatch, capsys):
    # --out in a missing directory: the open fails
    assert run_main(["params", "--out", str(tmp_path / "missing" / "p.json")]) == 1
    assert capsys.readouterr().err.startswith(
        "cannot write output: [Errno 2] No such file or directory")
    if Path("/dev/full").exists():  # every write fails with ENOSPC
        assert run_main(["trajectory", "--out", "/dev/full"]) == 1
        assert capsys.readouterr().err.startswith("cannot write output: [Errno 28]")
    # a sink that fails on the second of two chunks
    from eprtraj import cli
    chunks = []

    def sink(text, handle):
        if chunks:
            raise OSError(5, "Input/output error")
        chunks.append(text)

    monkeypatch.setattr(cli, "_emit", sink)
    assert run_main(["trajectory", "--samples", str(2 ** 15 + 1)]) == 1
    assert capsys.readouterr().err == "cannot write output: [Errno 5] Input/output error\n"
    assert len(chunks) == 1


def test_figure_of_constant_time_spans_one_time_unit(capsys):
    # alpha = 1: c = 0 and every t is tau = 0, so the axis is [0, 1] and every point sits on
    # its left edge
    assert run_main(["figure", "1", "--alpha", "1", "--samples", "5"]) == 0
    svg = capsys.readouterr().out
    assert "<desc>t-range 0.0 1.0 px 70.0 695.0 ;" in svg
    points = re.findall(r'points="([^"]*)"', svg)
    assert len(points) == 2 and {p.split(",")[0] for p in " ".join(points).split()} == {"70.000"}


def test_console_entry_point_exit_code():
    # the __main__ guard passes main's return code to the process
    proc = subprocess.run([sys.executable, "-m", "eprtraj.cli", "trajectory", "--samples", "1"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: samples must be at least 2, got 1\n"



def _params_ref():
    from eprtraj import validate_params
    return validate_params(1.0, 1.0, 0.5, 0.0, math.pi / 2)


@pytest.mark.parametrize("n", [2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1])
def test_invert_json_at_chunk_edges(n, bulk_cells):
    from eprtraj.dataset import invert_json, params_dict
    p, positions = _params_ref(), bulk_cells[0][:n, 0].tolist()
    doc = {"params": params_dict(p), "t": math.inf, "positions": positions}
    assert _written(invert_json, p, math.inf, positions) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("n", [7, 8, 9, 17])
def test_json_writers_match_generic_encoder_at_chunk_edges(n, bulk_cells, monkeypatch):
    # The generic encoder takes seconds per 2**15 records, so the writers' chunk edges
    # are checked on an 8-record chunk (test_invert_json_at_chunk_edges keeps 2**15).
    from eprtraj import dataset
    from eprtraj import validate_params
    from eprtraj.dataset import (SweepDataset, TrajectoryDataset, decompose_json, limit_json,
                                 params_dict, sweep_json, trajectory_json, write_json)
    monkeypatch.setattr(dataset, "_CHUNK_ROWS", 8)
    cells, p = bulk_cells[0][-n:], _params_ref()  # the last three rows are special
    tps = _turning_points(np.arange(n) / 7.0, cells[:, 4], np.arange(n) % 2 == 0)
    for rows, turning_points in ((n, tps), (n, _turning_points()), (3, tps)):
        ds = TrajectoryDataset(params=p, x=cells[:rows, 0], t=cells[:rows, 1],
                               dtdx=cells[:rows, 2], branch_id=np.arange(rows) * 977 % 5003,
                               turning_points=turning_points)
        assert _written(trajectory_json, ds) == json.dumps(_trajectory_doc(ds), indent=2) + "\n"
    sweep = SweepDataset(params=p, betas=[0.5, math.nan], xs=cells[:, 0], t=cells[:, 1:3].T,
                         t_lower=cells[:, 3], t_upper=cells[:, 4])
    assert _written(sweep_json, sweep) == json.dumps(_sweep_doc(sweep), indent=2) + "\n"
    doc = {"params": params_dict(p),
           "rows": [dict(zip(("x", "c_p1", "c_p2", "c_ent", "total"), row))
                    for row in cells.tolist()]}
    assert _written(decompose_json, p, cells) == json.dumps(doc, indent=2) + "\n"
    names = ("alpha", "x", "t", "m_q", "ratio")
    rows = [(*row[:4], None if i % 3 else row[4]) for i, row in enumerate(cells.tolist())]
    for side in ("below", "above"):
        doc = {"params": params_dict(p), "side": side, "rows": [dict(zip(names, row))
                                                                for row in rows]}
        assert _written(limit_json, p, side, rows) == json.dumps(doc, indent=2) + "\n"
    for params in (p, validate_params(1e-300, 5e-324, 1.5, -0.0, 1e300, tau=-1e300)):
        doc = params_dict(params)  # the params command's document
        assert _written(write_json, doc) == json.dumps(doc, indent=2) + "\n"


# Where orjson's float text can differ from repr's: two ulp either side of repr's exponent
# range edges, both zeros and the non-finite values
_EDGES = (np.array([1e-4, 1e16]).view(np.int64)[:, None] + np.arange(-2, 3)).view(np.float64)
_EDGES = np.concatenate([_EDGES.ravel(), [0.0, math.nan, math.inf]])
_EDGES = np.concatenate([_EDGES, -_EDGES])


class _StandInOrjson:
    """An orjson that writes a float ``v`` as ``text(v)``: exponent rules other than its own."""

    OPT_SERIALIZE_NUMPY = orjson.OPT_SERIALIZE_NUMPY

    def __init__(self, text):
        self.text = text

    def dumps(self, values, option):
        if values.dtype.kind != "f":
            return orjson.dumps(values, option=option)
        return ("[" + ",".join(map(self.text, values.tolist())) + "]").encode()


_STAND_INS = (_StandInOrjson("{:.17e}".format),  # exponent form everywhere, then nowhere
              _StandInOrjson(lambda v: f"{v:f}" if 0 < abs(v) < 1e-4 or abs(v) >= 1e16
                             else repr(v)))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(bits=st.lists(st.one_of(st.integers(0, 2 ** 64 - 1),  # any float64, then subnormals
                                st.integers(0, 2 ** 52 - 1),
                                st.integers(2 ** 63, 2 ** 63 + 2 ** 52 - 1)), max_size=24),
       step=st.integers(2, 3))
def test_json_cells_are_json_dumps_cells(bits, step):
    # each cell as json.dumps writes it, from orjson's text and, whatever orjson's exponent
    # rules are, from the stand-ins'
    from eprtraj.dataset import _json_cells
    raw = np.array(bits, dtype=np.uint64)
    floats = np.concatenate([raw.view(np.float64), _EDGES])
    size = np.abs(floats)
    int64 = np.iinfo(np.int64)
    for column in (floats, floats[(size >= 1e-4) & (size < 1e16)], raw.view(np.int64),
                   np.append(raw.view(np.int64), [int64.min, int64.max, 0]),
                   np.append(raw, [0, np.iinfo(np.uint64).max])):
        for view in (column, column[:0], column[::step], column[::-1],
                     np.column_stack([column, column])[:, 1]):
            want = [json.dumps(v) for v in view.tolist()]
            assert _json_cells(view).tolist() == want
            for stand_in in _STAND_INS:
                with mock.patch.dict(sys.modules, orjson=stand_in):
                    assert _json_cells(view).tolist() == want


@pytest.mark.parametrize("argv", [
    ["trajectory", "--m", "1e20", "--samples", "5"],  # t and dtdx cells past 1e16
    ["decompose", "--xmin=-1e-4", "--xmax", "1e-4", "--samples", "201"],  # cells below 1e-4
    ["invert", "--m", "1e20", "--t", "1e20", "--xmax", "3"],
])
def test_json_exponent_cells_match_generic_encoder(argv, capsys):
    assert run_main(argv + ["--format", "json"]) == 0
    text = capsys.readouterr().out
    assert "e+" in text or "e-" in text
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_writers_call_the_sink_once_per_chunk(bulk_cells):
    from eprtraj.dataset import TrajectoryDataset, decompose_csv, trajectory_json
    cells, n = bulk_cells[0], _BULK
    chunks = []
    decompose_csv(cells, chunks.append)
    assert [c.count("\n") for c in chunks] == [2 ** 15 + 1, 1]  # the header rides along
    ds = TrajectoryDataset(params=_params_ref(), x=cells[:, 0], t=cells[:, 1],
                           dtdx=cells[:, 2], branch_id=np.zeros(n, dtype=int),
                           turning_points=_turning_points(np.arange(n) / 7.0, cells[:, 4],
                                                          np.arange(n) % 2 == 1))
    chunks.clear()
    trajectory_json(ds, chunks.append)
    assert len(chunks) == 6  # two chunks per list, separators joined onto them
    assert chunks[0].startswith('{\n  "params": {') and chunks[-1].endswith("\n  ]\n}\n")


@pytest.mark.parametrize("n", [2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1])
def test_sweep_csv_matches_per_row_reference_at_chunk_edges(n):
    # x < 0 gives NaN wedge cells, alpha > 1 and tau = 1 both-signed times
    from eprtraj import validate_params
    from eprtraj.dataset import build_sweep_dataset, sweep_csv
    ds = build_sweep_dataset(validate_params(1.0, 1.0, 1.5, 0.0, math.pi / 2, tau=1.0),
                             [0.0, 2.5, -1e-7], -1.0, 4.0, n)
    assert np.isnan(ds.t_lower[0]) and np.isfinite(ds.t_lower[-1])
    head = "beta,x,t,t_lower,t_upper\n"
    ref = head + "".join(
        f"{fmt9(beta)},{fmt9(x)},{fmt9(t)},{fmt9(lo)},{fmt9(hi)}\n"
        for beta, ts in zip(ds.betas, ds.t.tolist())
        for x, t, lo, hi in zip(ds.xs.tolist(), ts, ds.t_lower.tolist(), ds.t_upper.tolist()))
    chunks = []
    sweep_csv(ds, chunks.append)
    assert "".join(chunks) == ref
    per_curve = [min(2 ** 15, n - lo) for lo in range(0, n, 2 ** 15)]
    assert [c.count("\n") for c in chunks] == [per_curve[0] + 1, *per_curve[1:]] + per_curve * 2
    assert chunks[0].startswith(head) and not any(head in c for c in chunks[1:])


@pytest.mark.parametrize("figure_id", [1, 2])
def test_figure_points_match_per_point_reference(figure_id):
    from eprtraj import validate_params
    from eprtraj.dataset import build_sweep_dataset
    from eprtraj.svgfig import FIGURES, render_figure
    from eprtraj.trajectory import find_turning_points, time_of_position
    p = validate_params(1.0, 1.0, 1.5, 0.0, math.pi / 2, tau=-1.0)
    betas = FIGURES[figure_id][0]
    markers = [find_turning_points(-2.0, 3.0, p.replace(beta=beta)) for beta in betas]
    chunks = []
    render_figure(figure_id, build_sweep_dataset(p, betas, -2.0, 3.0, 333), markers,
                  chunks.append)
    # one chunk per polyline with its markers, the head and </svg> riding along
    assert [(c.count("<polyline"), c.count("<circle")) for c in chunks] == [
        (1, len(tps)) for tps in markers]
    assert chunks[0].startswith("<?xml") and chunks[-1].endswith("</svg>\n")
    text = "".join(chunks)
    t_lo, t_hi, px_l, px_r, x_min, x_max, py_b, py_t = (
        float(v) for v in _DESC.search(text).groups())
    assert t_lo < 0.0
    xs = np.linspace(-2.0, 3.0, 333)
    assert betas == ([0.0, math.pi] if figure_id == 1 else [j * math.pi / 4.0 for j in range(8)])
    ref = []
    for beta in betas:
        ts = time_of_position(xs, p.replace(beta=beta), np)
        ref.append(" ".join("%.3f,%.3f" % (px_l + (t - t_lo) / (t_hi - t_lo) * (px_r - px_l),
                                           py_b - (x - x_min) / (x_max - x_min) * (py_b - py_t))
                            for t, x in zip(ts.tolist(), xs.tolist())))
    assert re.findall(r' points="([^"]+)"', text) == ref
    # the markers against the per-record loop they were once drawn with
    to_px = lambda t: px_l + (t - t_lo) / (t_hi - t_lo) * (px_r - px_l)  # noqa: E731
    to_py = lambda x: py_b - (x - x_min) / (x_max - x_min) * (py_b - py_t)  # noqa: E731
    assert re.findall(r"<circle [^>]*/>", text) == [
        f'<circle cx="{to_px(tp.t):.2f}" cy="{to_py(tp.x):.2f}" r="3.5" '
        f'fill="{"#b23434" if tp.kind == "temporal_max" else "#2c8c50"}"/>'
        for tps in markers for tp in tps]


@pytest.mark.parametrize("figure_id, betas", [(3, [0.0]), (1, [0.0]), (2, [0.0, math.pi])])
def test_figure_of_other_betas_raises(figure_id, betas):
    from eprtraj.dataset import build_sweep_dataset
    from eprtraj.svgfig import render_figure
    sweep = build_sweep_dataset(_params_ref(), betas, 0.0, 4.0, 11)
    with pytest.raises(ValueError, match=f"no figure {figure_id} of betas"):
        render_figure(figure_id, sweep, [()] * len(betas), lambda text: None)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_stdout_bytes_equal_out_bytes(name, tmp_path, capsysbinary):
    argv = GOLDEN_CASES[name]
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    capsysbinary.readouterr()
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


@pytest.mark.parametrize("argv, code", [
    (["trajectory", "--samples", "1"], 2),
    (["sweep", "--betas", ""], 2),
    (["invert", "--t", "1e308"], 2),
    (["limit", "--side", "below", "--alphas", "0.99,0.9", "--x", "1"], 2),
    # each fails after some values are computed, before --out opens: in the markers'
    # root search once the sweep is built, in the limit rows, in the sampled slopes
    (["figure", "1", "--xmin=-1e300", "--xmax", "0", "--samples", "3", "--markers"], 2),
    (["limit", "--side", "below", "--alphas", "0.9,0.9999", "--x", "1", "--m", "1e300",
      "--format", "json"], 2),
    (["trajectory", "--alpha", "0.9999", "--m", "1e303", "--xmin", "1.00001", "--xmax",
      "1.0001", "--samples", "4"], 2),
])
def test_failed_run_leaves_no_file(argv, code, tmp_path):
    out = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out)]) == code
    assert not out.exists()


@pytest.mark.parametrize("writer", ["trajectory_csv", "trajectory_json"])
def test_writer_peak_memory_is_flat_in_rows(writer, monkeypatch):
    # 2 and 8 chunks, as 2**16 and 2**18 rows make with 2**15-row chunks, at 1/16 of
    # the size: tracemalloc slows every allocation, and each cell makes one or two.
    import tracemalloc
    from eprtraj import dataset
    from eprtraj.dataset import TrajectoryDataset
    monkeypatch.setattr(dataset, "_CHUNK_ROWS", 2 ** 11)

    def peak(n):
        rng = np.random.default_rng(n)
        ds = TrajectoryDataset(params=_params_ref(), x=rng.uniform(-1.0, 1.0, n),
                               t=rng.uniform(-1.0, 1.0, n), dtdx=rng.uniform(-1.0, 1.0, n),
                               branch_id=np.arange(n) % 7, turning_points=_turning_points())
        tracemalloc.start()
        try:
            getattr(dataset, writer)(ds, lambda text: None)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2 ** 14) / peak(2 ** 12) < 1.5


def _finite_json(text):
    def reject(token):
        raise AssertionError(f"non-finite cell {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    (["trajectory", "--m", "1e308", "--samples", "3"], "c x overflows on [0.0, 4.0]"),
    (["trajectory", "--m", "3e307", "--samples", "3"], "g = c (D - x D') overflows on [0.0, 4.0]"),
    (["trajectory", "--hbar", "1e-320", "--samples", "3"],
     "c overflows for hbar=1e-320, m=1.0, alpha=0.5, k=1.5707963267948966"),
    (["params", "--hbar", "2e-309"],
     "c overflows for hbar=2e-309, m=1.0, alpha=0.5, k=1.5707963267948966"),
    (["params", "--hbar", "1e-320", "--k", "1e-10"],  # hbar k underflows to 0
     "c overflows for hbar=1e-320, m=1.0, alpha=0.5, k=1e-10"),
    (["params", "--k", "1e200"], "E overflows for hbar=1.0, m=1.0, alpha=0.5, k=1e+200"),
    (["invert", "--t", "1e308"], "4 alpha k (t - tau) overflows at t = 1e+308 on [0.0, 4.0]"),
    (["invert", "--t", "6e307"], "4 alpha k (t - tau) overflows at t = 6e+307 on [0.0, 4.0]"),
    (["invert", "--t", "1e308", "--k", "1e-3"],
     "(t - tau)(1 + alpha)^2 overflows at t = 1e+308 on [0.0, 4.0]"),
    # |t - tau| <= |c| reach / (1 - alpha)^2 passes the float range; t was written as inf
    (["trajectory", "--m", "1e301", "--alpha", "0.9999998", "--samples", "5"],
     "t = tau + c x / D overflows on [0.0, 4.0]"),
    (["figure", "1", "--m", "1e301", "--alpha", "0.9999998", "--samples", "5"],
     "t = tau + c x / D overflows on [0.0, 4.0]"),
    (["trajectory", "--tau", "1.7e308", "--m", "1e307", "--samples", "3"],
     "t = tau + c x / D overflows on [0.0, 4.0]"),
    # h = c x - (t - tau) D adds its two terms' bounds: each alone is finite
    (["invert", "--t", "-7e307", "--k", "1e-3", "--m", "5e304"],
     "h = c x - (t - tau) D overflows at t = -7e+307 on [0.0, 4.0]"),
    (["invert", "--t", "7e307", "--xmin", "-4", "--xmax", "0", "--k", "1e-3", "--m", "5e304"],
     "h = c x - (t - tau) D overflows at t = 7e+307 on [-4.0, 0.0]"),
    (["invert", "--t", "1e307", "--alpha", "2", "--k", "1e-3", "--xmax", "100",
      "--m", "3.34e302"], "h = c x - (t - tau) D overflows at t = 1e+307 on [0.0, 100.0]"),
    # |g| and |t| are in range, |g| / D^2 is not
    (["trajectory", "--alpha", "0.9999", "--m", "1e303", "--xmin", "1.00001", "--xmax", "1.0001",
      "--samples", "4"], "dt/dx = g / D^2 overflows at x = 1.00001"),
    (["trajectory", "--xmin=-1e300", "--xmax", "0", "--samples", "3"],
     "[-1e+300, 0.0] spans 1e+300 half-periods of cos(2kx + beta): too many to search"),
    # a limit row past the float range: m_q = M (D - x D') / D^3 at a trigger point
    (["limit", "--side", "below", "--alphas", "0.9999", "--x", "1", "--m", "1e300"],
     "m_q overflows at alpha = 0.9999"),
    # listing 1e16 half-periods takes 71 PiB, more than a 64-bit user address space:
    # the request fails at once, before anything is allocated
    (["trajectory", "--xmin=-1e16", "--xmax", "0", "--samples", "3"],
     "[-1e+16, 0.0] spans 1e+16 half-periods of cos(2kx + beta): too many to search"),
    # 2 m x = 2e-600 underflows to 0 at the trigger point x = 1e-300 (cos(2kx + pi) = -1)
    (["limit", "--side", "below", "--alphas", "0.9", "--x", "1e-300", "--m", "1e-300",
      "--beta", "3.141592653589793"],
     "the divergence scale 2 m x underflows to 0 at x = 1e-300"),
    # every command over a range meets the range check of the stages it runs
    (["sweep", "--betas", "0", "--m", "1e308", "--samples", "3"], "c x overflows on [0.0, 4.0]"),
    (["decompose", "--m", "1e308", "--samples", "3"], "c x overflows on [0.0, 4.0]"),
    # |g| <= 6e308 passes the float range, |t| <= 1.2e307 stays inside it: the turning points
    # are refused, the samples alone are not (test_samples_not_refused_for_g)
    (["trajectory", "--m", "1e308", "--k", "100", "--samples", "3"],
     "g = c (D - x D') overflows on [0.0, 4.0]"),
    (["figure", "1", "--markers", "--m", "1e308", "--k", "100", "--samples", "5"],
     "g = c (D - x D') overflows on [0.0, 4.0]"),
])
def test_overflowing_parameters_exit_2(argv, message, capsys):
    assert run_main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.filterwarnings("error")
def test_samples_not_refused_for_g(capsys):
    # sweep, decompose and figure evaluate t, not g = c (D - x D'), whose bound passes the
    # float range here; each was refused with the g message
    from eprtraj import time_of_position, validate_params
    p = validate_params(1.0, 1e308, 0.5, 0.0, 100.0)
    ts = [fmt9(time_of_position(x, p)) for x in (0.0, 2.0, 4.0)]
    assert ts == ["0", "2.06981154e+306", "3.74124321e+306"]
    argv = ["--m", "1e308", "--k", "100", "--samples", "3"]
    for cmd, column in ((["sweep", "--betas", "0"], 2), (["decompose"], 4)):
        assert run_main([*cmd, *argv]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[column] for row in rows] == ts
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)
    assert run_main(["figure", "1", "--m", "1e308", "--k", "100", "--samples", "5"]) == 0
    svg = capsys.readouterr().out
    assert svg.count("<polyline") == 2 and "nan" not in svg and "inf" not in svg


@pytest.mark.filterwarnings("error")
def test_decompose_terms_where_m_x_passes_float_range(capsys):
    # m x = 4e308 at x = 4, but every term is finite: they were written inf, -inf, inf, nan
    from eprtraj import decompose_time, time_of_position, validate_params
    argv = ["--m", "1e308", "--alpha", "0.01", "--k", "100", "--samples", "3"]
    assert run_main(["decompose", *argv]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert run_main(["trajectory", *argv]) == 0
    ts = [line.split(",")[1] for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[4] for row in rows] == ts == ["0", "2.02082859e+306", "4.03536361e+306"]
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)
    p = validate_params(1.0, 1e308, 0.01, 0.0, 100.0)
    parts = decompose_time(4.0, p)
    assert parts.c_p1 == pytest.approx(1e308 * (4.0 / 100.0 / 1.0001), rel=1e-15)
    assert parts.total == pytest.approx(time_of_position(4.0, p), rel=1e-14)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("hbar, m, alpha, beta, k, ratio", [
    # (t - tau) hbar = 1.5e309 at the trigger point x = 1: the ratio was inf
    (100.0, 5e306, 0.5, 3.121592653589793, 0.01, "0.75"),
    # the scale 2 m x = 2e308 passes the float range: the ratio was 0
    (1.0, 1e308, 0.1, -2.0796628238430515, 100.0, "0.55"),
])
def test_limit_ratio_where_a_product_passes_float_range(hbar, m, alpha, beta, k, ratio, capsys):
    from eprtraj import entanglon_divergence, validate_params
    assert run_main(["limit", "--side", "below", "--x", "1", "--alphas", repr(alpha),
                     "--hbar", repr(hbar), "--m", repr(m), "--k", repr(k),
                     f"--beta={beta!r}"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[4] == ratio
    p = validate_params(hbar, m, alpha, beta, k)
    assert entanglon_divergence(1.0, p, [alpha]).values == (pytest.approx(float(ratio)),)


def test_figure_time_axis_past_float_range_exits_2(tmp_path, capsys):
    # t spans +-1.53e308, so t_hi - t_lo passes the float range: every point was drawn at
    # px 70, some cells nan; on [0, 3] t reaches 1.77e308 and 1.02 t passes it
    out = tmp_path / "f.svg"
    for argv, t_range in ((["--m", "2e307", "--xmin=-4"],
                           "-1.5278874536821951e+308, 1.5278874536821951e+308"),
                          (["--m", "3.089e307", "--xmax", "3"], "0.0, 1.7698666291591129e+308")):
        assert run_main(["figure", "1", *argv, "--samples", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: the time axis span overflows for t in [{t_range}]\n")
        assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_wedge_edge_past_float_range_is_inf(capsys):
    # the library reports the wedge edge as inf; the CLI range check refuses the sweep,
    # since t = tau + c x / D itself passes the float range at the trigger points x = 1, 3
    # (the sweep JSON's Infinity cells are covered at alpha = 1 by the generic-encoder test)
    from eprtraj import validate_params, wedge_bounds
    argv = ["sweep", "--betas", "0", "--m", "1e300", "--alpha", "0.9999999999999999",
            "--samples", "3"]
    p = validate_params(1.0, 1e300, 0.9999999999999999, 0.0, math.pi / 2)
    assert wedge_bounds(4.0, p).t_upper == math.inf
    assert mp_time(1.0, p) > sys.float_info.max and mp_time(3.0, p) > sys.float_info.max
    for fmt in ("csv", "json"):
        assert run_main(argv + ["--format", fmt]) == 2
        assert capsys.readouterr().err == "error: t = tau + c x / D overflows on [0.0, 4.0]\n"


@pytest.mark.filterwarnings("error")
def test_wedge_finite_where_m_x_overflows(tmp_path):
    # m x = 4e308 passes the float range, the edges (about 4e303) do not
    from eprtraj import validate_params, wedge_bounds
    from eprtraj.dataset import build_sweep_dataset
    out = tmp_path / "sweep.csv"
    assert run_main(["sweep", "--betas", "0", "--m", "1e308", "--alpha", "0.01", "--k", "1e5",
                     "--samples", "3", "--out", str(out)]) == 0
    p = validate_params(1.0, 1e308, 0.01, 0.0, 1e5)
    ds = build_sweep_dataset(p, [0.0], 0.0, 4.0, 3)
    rows = [line.split(",") for line in out.read_text().split("\n")[1:-1]]
    for x, t, lo, hi, row in zip(ds.xs.tolist(), ds.t[0].tolist(), ds.t_lower.tolist(),
                                 ds.t_upper.tolist(), rows):
        assert (lo, hi) == wedge_bounds(x, p) and -1.0 < lo <= t <= hi < 1e304
        assert row[2:] == [fmt9(t), fmt9(lo), fmt9(hi)]
    # m x / (hbar k) = 4e308 passes it too; the lower edge (about 2.1e307) does not
    from eprtraj import time_of_position
    from eprtraj.trajectory import _wedge_edges
    q = validate_params(1.0, 1e307, 0.9, 0.0, 1.0)
    with np.errstate(over="ignore"):
        edges = [e.tolist() for e in _wedge_edges(np.array([40.0]), q)]
    assert edges == [[v] for v in wedge_bounds(40.0, q)]
    lo, hi = wedge_bounds(40.0, q)
    assert 2.1e307 < lo < time_of_position(40.0, q) < hi == math.inf


def test_wedge_edges_bit_equal_where_m_x_is_finite():
    # bit for bit the edges of m x / (hbar k) wherever m x is finite
    from eprtraj import validate_params
    from eprtraj.trajectory import _wedge_edges
    xs = np.array([0.0, 1e-300, 0.37, 4.0, 1e100, 1.7e308])
    for m, hbar, k, alpha, tau in itertools.product((0.3, 1.0, 3.7, 1e10, 1e200, 1e307),
                                                    (1e-3, 1.0, 7.0), (0.3, 1.6, 1e5),
                                                    (0.3, 1.7), (0.0, -2.5)):
        try:
            p = validate_params(hbar, m, alpha, 0.0, k, tau=tau)
        except ValueError:  # E or c past the float range
            continue
        with np.errstate(over="ignore"):
            scale = m * xs / (hbar * k)
            ref = (p.tau + scale * (1.0 - alpha) / (1.0 + alpha),
                   p.tau + scale * (1.0 + alpha) / (1.0 - alpha))
            edges, finite = _wedge_edges(xs, p), np.isfinite(m * xs)
        for got, want in zip(edges, ref if alpha < 1.0 else ref[::-1]):
            assert np.array_equal(got[finite], want[finite])
        assert [_wedge_edges(x, p) for x in xs[finite].tolist()] == list(
            zip(*(e[finite].tolist() for e in edges)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["trajectory", "--m", "1e306", "--samples", "3", "--format", "json"],
    # root brackets' values near 1e307: regula falsi's lo f_hi - hi f_lo overflowed
    ["trajectory", "--m", "1e307", "--samples", "3", "--format", "json"],
    # subnormal values, whose halves round to 0: regula falsi must not divide by 0 - 0
    ["trajectory", "--m", "1e-320", "--k", "1e-10", "--xmax", "1e11", "--samples", "3",
     "--format", "json"],
    ["trajectory", "--hbar", "1e-300", "--samples", "3", "--format", "json"],
    ["params", "--hbar", "3e-309"],
    ["params", "--k", "1e150"],
    ["invert", "--t", "5e307", "--format", "json"],
    ["invert", "--t", "7e307", "--k", "1e-3", "--format", "json"],
    # Newton steps on brackets' values near 1e307: c must cancel in g / g', and the
    # root counts are those of plain bisection (5092 turning points, 4245 positions)
    ["trajectory", "--k", "2000", "--m", "1e307", "--samples", "3", "--format", "json"],
    ["invert", "--t", "1e304", "--k", "2000", "--m", "1e307", "--format", "json"],
])
def test_finite_next_to_overflow_bounds(argv, capsys):
    assert run_main(argv) == 0
    doc = _finite_json(capsys.readouterr().out)
    assert len(doc.get("rows", [])) == (3 if argv[0] == "trajectory" else 0)
    if "2000" in argv:
        roots = doc["turning_points"] if argv[0] == "trajectory" else doc["positions"]
        assert len(roots) == (5092 if argv[0] == "trajectory" else 4245)
