import json
import math
import subprocess
import sys

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
    for row, ref in zip(doc["rows"], ds.rows):
        assert row["x"] == ref.x and row["t"] == ref.t and row["dtdx"] == ref.dtdx
    for tp_doc, tp in zip(doc["turning_points"], ds.turning_points):
        assert tp_doc["x"] == tp.x and tp_doc["t"] == tp.t


def _trajectory_doc(ds):
    """The trajectory JSON document as a dict, for the generic encoder."""
    from eprtraj.dataset import params_dict
    return {
        "params": params_dict(ds.params),
        "rows": [{"x": r.x, "t": r.t, "dtdx": r.dtdx, "branch_id": r.branch_id,
                  "direction": r.direction} for r in ds.rows],
        "turning_points": [{"x": tp.x, "t": tp.t, "kind": tp.kind}
                           for tp in ds.turning_points],
        "events": [{"kind": ev.kind, "x": ev.x, "t": ev.t,
                    "branch_ids": list(ev.branch_ids)} for ev in ds.events],
    }


def test_trajectory_json_matches_generic_encoder():
    from eprtraj import pair_events, validate_params
    from eprtraj.dataset import (DatasetRow, TrajectoryDataset, build_trajectory_dataset,
                                 trajectory_json)
    from eprtraj.trajectory import TurningPoint
    p = validate_params(1.0, 1.0, 0.5, 0.0, math.pi / 2)
    tps = [TurningPoint(1.0, math.inf, "temporal_max"),
           TurningPoint(2.0, -math.inf, "temporal_min")]
    rows = [DatasetRow(0.0, math.nan, -0.0, 0, "turning"),
            DatasetRow(1e300, 5e-324, math.inf, 7, "forward")]
    odd = TrajectoryDataset(params=p, rows=rows, turning_points=tps, events=pair_events(tps))
    for ds in (build_trajectory_dataset(p, 0.0, 4.0, 41),
               build_trajectory_dataset(p, 0.0, 0.5, 5), odd):
        assert trajectory_json(ds) == json.dumps(_trajectory_doc(ds), indent=2) + "\n"


def test_dataset_branch_ids_match_segments():
    from eprtraj import segment_trajectory, validate_params
    from eprtraj.dataset import build_trajectory_dataset
    p = validate_params(1.0, 1.0, 0.5, 0.0, math.pi / 2)
    ds = build_trajectory_dataset(p, 0.0, 4.0, 801)
    segments = segment_trajectory(0.0, 4.0, p)
    for row in ds.rows:
        seg = segments[row.branch_id]
        assert seg.x_start <= row.x <= seg.x_end
        if row.direction != "turning":
            assert row.direction == seg.direction


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
