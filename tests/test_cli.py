import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from eprtraj.cli import main
from eprtraj.dataset import fmt9


def run_main(args):
    return main(args)


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


def _trajectory_doc(ds):
    """The trajectory JSON document as a dict, for the generic encoder."""
    from eprtraj.dataset import params_dict
    return {
        "params": params_dict(ds.params),
        "rows": [{"x": x, "t": t, "dtdx": s, "branch_id": b, "direction": d}
                 for x, t, s, b, d in zip(ds.x.tolist(), ds.t.tolist(), ds.dtdx.tolist(),
                                          ds.branch_id.tolist(), ds.direction.tolist())],
        "turning_points": [{"x": tp.x, "t": tp.t, "kind": tp.kind}
                           for tp in ds.turning_points],
        "events": [{"kind": ev.kind, "x": ev.x, "t": ev.t,
                    "branch_ids": list(ev.branch_ids)} for ev in ds.events],
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
    from eprtraj import validate_params
    from eprtraj.dataset import build_trajectory_dataset, trajectory_json
    from eprtraj.trajectory import TurningPoint
    p = validate_params(1.0, 1.0, 0.5, 0.0, math.pi / 2)
    tps = _turning_points([1.0, 2.0], [math.inf, -math.inf], [True, False])
    assert list(tps) == [TurningPoint(1.0, math.inf, "temporal_max"),
                         TurningPoint(2.0, -math.inf, "temporal_min")]
    odd = _odd_trajectory(p, tps)
    assert odd.direction.tolist() == ["turning", "forward", "turning", "retrograde"]
    assert [(ev.kind, ev.branch_ids) for ev in odd.events] == [("annihilation", (0, 1)),
                                                               ("creation", (1, 2))]
    for ds in (build_trajectory_dataset(p, 0.0, 4.0, 41), build_trajectory_dataset(p, 0.0, 0.5, 5),
               odd, _odd_trajectory(p, _turning_points())):
        assert trajectory_json(ds) == json.dumps(_trajectory_doc(ds), indent=2) + "\n"


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
        assert sweep_json(ds) == json.dumps(_sweep_doc(ds), indent=2) + "\n"


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
        assert decompose_json(p, rows) == json.dumps(doc, indent=2) + "\n"


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
        assert invert_json(p, t, positions) == json.dumps(doc, indent=2) + "\n"
    assert invert_csv(positions) == "\n".join(["x"] + [fmt9(x) for x in positions]) + "\n"


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
    assert decompose_csv(cells[:n]) == "x,c_p1,c_p2,c_ent,total\n" + "".join(ref[:n])


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
                      ds.direction.tolist()))
    assert trajectory_csv(ds) == "x,t,dtdx,branch_id,direction\n" + ref


def test_dataset_branch_ids_match_segments():
    from eprtraj import segment_trajectory, validate_params
    from eprtraj.dataset import build_trajectory_dataset
    p = validate_params(1.0, 1.0, 0.5, 0.0, math.pi / 2)
    ds = build_trajectory_dataset(p, 0.0, 4.0, 801)
    segments = segment_trajectory(0.0, 4.0, p)
    for x, branch_id, direction in zip(ds.x, ds.branch_id, ds.direction):
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


def test_argument_errors_exit_2():
    assert run_main(["trajectory", "--alpha", "-1"]) == 2
    assert run_main(["trajectory", "--format", "svg"]) == 2
    assert run_main(["trajectory", "--samples", "1"]) == 2
    assert run_main(["trajectory", "--xmin", "2", "--xmax", "1"]) == 2
    assert run_main(["figure", "1", "--format", "csv"]) == 2
    assert run_main(["params", "--format", "csv"]) == 2


@pytest.mark.parametrize("x", ["nan", "inf"])
def test_limit_non_finite_x_exit_2(x, capsys):
    argv = ["limit", "--side", "below", "--alphas", "0.9,0.99", "--x", x]
    assert run_main(argv) == 2
    assert f"x must be finite, got x={float(x)}" in capsys.readouterr().err


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


def test_limit_sequence_ending_at_one(capsys):
    argv = ["limit", "--side", "below", "--alphas", "0.9,1", "--x", "0.5"]
    assert run_main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("1,0.5,0,")
    assert run_main(argv[:-1] + ["1"]) == 3
    assert "standing-wave node" in capsys.readouterr().err


def test_limit_malformed_sequence_on_a_node_exit_2(capsys):
    # 1 - 1e-8 puts x = 1 on a node, but the wrong order is reported first
    argv = ["limit", "--side", "below", "--alphas", "0.99999999,0.9", "--x", "1"]
    assert run_main(argv) == 2
    assert "monotonic" in capsys.readouterr().err


def test_invert_alpha_one_at_tau_exit_2(capsys):
    assert run_main(["invert", "--t", "0", "--alpha", "1", "--xmax", "0.5"]) == 2
    assert "every position is at t = tau" in capsys.readouterr().err


def test_numerical_failure_exit_3(tmp_path):
    # alpha = 1 puts standing-wave nodes inside the sampled range
    assert run_main(["trajectory", "--alpha", "1", "--out",
                     str(tmp_path / "x.csv")]) == 3


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "eprtraj.cli", "params"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["M"] == 1.25
