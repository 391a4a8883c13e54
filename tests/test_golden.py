"""Golden CLI outputs: every case must reproduce its stored file byte for byte.

Each ``tests/golden/<name>`` file is the output of ``eprtraj <argv> --out
<name>`` written before the effective quantum mass became a closed form and
before the roots were refined on analytic brackets.  Two kinds of cells are
exempt from byte equality and compared with a 50-digit mpmath reference
instead:

- the ``m_q`` cells of the ``limit`` cases, which the stored files took from
  a central difference in the energy (1e-8 relative);
- the root cells: turning-point and event ``x``/``t`` in ``trajectory.json``
  and ``positions`` in ``invert.json``.  The stored files hold roots refined
  to 1e-10, so ``x`` must lie within 4 ulp of the true root and ``t`` within
  1e-12 relative of ``t`` at that root.
"""

import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from eprtraj import find_turning_points, pair_events
from eprtraj.cli import main
from eprtraj.trajectory import TEMPORAL_MAX, TEMPORAL_MIN, TurningPoint, TurningPoints

from conftest import make_params, mp_effective_mass, mp_root, mp_time, mp_turning_point

GOLDEN = Path(__file__).parent / "golden"

_BETAS = "0,0.7853981633974483,1.5707963267948966"
_ALPHAS = "0.9,0.99,0.999"

CASES = {
    "trajectory.csv": ["trajectory", "--samples", "401"],
    "trajectory.json": ["trajectory", "--samples", "401", "--format", "json"],
    "sweep.csv": ["sweep", "--betas", _BETAS, "--samples", "201"],
    "sweep.json": ["sweep", "--betas", _BETAS, "--samples", "201", "--format", "json"],
    "figure1.svg": ["figure", "1", "--samples", "401"],
    "figure2.svg": ["figure", "2", "--markers", "--samples", "401"],
    "decompose.csv": ["decompose", "--xmax", "3", "--samples", "301"],
    "decompose.json": ["decompose", "--xmax", "3", "--samples", "301", "--format", "json"],
    "limit_below.csv": ["limit", "--side", "below", "--alphas", _ALPHAS, "--x", "1"],
    "limit_below.json": ["limit", "--side", "below", "--alphas", _ALPHAS, "--x", "1",
                         "--format", "json"],
    "limit_above.csv": ["limit", "--side", "above", "--alphas", "1.1,1.01,1.001",
                        "--x", "1"],
    "invert.csv": ["invert", "--t", "1.0", "--xmin", "0", "--xmax", "3"],
    "invert.json": ["invert", "--t", "1.0", "--xmin", "0", "--xmax", "3",
                    "--format", "json"],
    "params.json": ["params"],
}

_BETAS_8 = ",".join(repr(j * math.pi / 4) for j in range(8))

# sha256 of large outputs written by the per-row writers that the columnar
# datasets and chunked writers replaced, and (the figure) by the figure path that
# sampled and evaluated its own curves; no root cell appears in them.
BULK = {
    "trajectory": (["trajectory", "--samples", "100000", "--xmax", "100"],
                   "37153d7a05db65d56fb0de22fc40c194968a84bf143ed347e3a9217bb920f995"),
    "sweep": (["sweep", "--betas", _BETAS_8, "--samples", "20000", "--xmin", "-5",
               "--alpha", "1.5", "--tau", "1"],
              "531a34797e8b47950d2d2a9c7a945f69e04e288846f051b5449e67b4bfe14151"),
    "decompose": (["decompose", "--samples", "100000", "--xmin", "-50", "--xmax", "50"],
                  "c57b2b696e66c5010bd1cdfacd911a84d8b44ebcb75f83d4cf935116c20022d8"),
    # negative times and no markers, 2.5 MB
    "figure": (["figure", "2", "--samples", "20001", "--xmin", "-2", "--alpha", "1.5",
                "--tau", "1"],
               "29415ff2ace50d91b5216e6ef98e4411f96c53907acb7a1a6fb35c5625d7a3fe"),
    # 808 markers, 556 kB, written while each curve's markers were refined in a root call
    # of their own and drawn one record at a time
    "figure_markers": (["figure", "2", "--markers", "--k", "20", "--xmin", "-2", "--xmax", "6",
                        "--alpha", "1.5", "--tau", "1", "--samples", "4001"],
                       "18ab5b2096f6276ace2fd10f1f1421d99708e25c2ed877316df58dc9087abcbc"),
    # every one of the 8001 rows its own run of branch_id and direction, written by the writer
    # that filled one %-template per run
    "trajectory_short_runs": (["trajectory", "--k", "2000", "--xmax", "20", "--samples", "8001"],
                              "d00c5c6afe506924bf7855cbc7eb294218397a201c7f3c951bdc0a373da6ef36"),
}

# Where the root cells start, and a pattern for each root cell after that.
_ROOT_CELLS = {"trajectory.json": ('"turning_points": ', re.compile(r'("[xt]": )([^,\n]+)')),
               "invert.json": ('"positions": ', re.compile(r'(\n +)([-0-9][^,\n]*)'))}

_JSON_MQ = re.compile(r'("m_q": )([^,\n]+)')


def _split_mass(name: str, text: str):
    """Text with every m_q cell blanked, and the (alpha, m_q) pairs taken out."""
    if name.endswith(".json"):
        masses = [float(v) for _, v in _JSON_MQ.findall(text)]
        alphas = [row["alpha"] for row in json.loads(text)["rows"]]
        return _JSON_MQ.sub(r"\1_", text), list(zip(alphas, masses))
    lines = text.splitlines(keepends=True)
    col = lines[0].rstrip("\n").split(",").index("m_q")
    pairs, kept = [], [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        pairs.append((float(cells[0]), float(cells[col])))
        cells[col] = "_"
        kept.append(",".join(cells))
    return "".join(kept), pairs


def _blank_roots(name: str, text: str) -> str:
    marker, cell = _ROOT_CELLS[name]
    head, tail = text.split(marker, 1)
    return head + marker + cell.sub(r"\1_", tail)


def _check_roots(name: str, text: str) -> None:
    doc, p = json.loads(text), make_params()
    if name == "invert.json":
        for x in doc["positions"]:
            assert abs(x - mp_root(lambda v: mp_time(v, p) - doc["t"], x)) <= 4 * math.ulp(x), x
        return
    for cell in doc["turning_points"] + doc["events"]:
        root = mp_turning_point(cell["x"], p)
        assert abs(cell["x"] - root) <= 4 * math.ulp(cell["x"]), cell
        assert abs(cell["t"] - mp_time(root, p)) <= 1e-12 * abs(mp_time(root, p)), cell


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    got, want = out.read_text(), (GOLDEN / name).read_text()
    if name in _ROOT_CELLS:
        assert _blank_roots(name, got) == _blank_roots(name, want)
        _check_roots(name, got)
        return
    if not name.startswith("limit"):
        assert got == want
        return
    got_text, got_mass = _split_mass(name, got)
    want_text, _ = _split_mass(name, want)
    assert got_text == want_text
    x = float(CASES[name][CASES[name].index("--x") + 1])
    for alpha, m_q in got_mass:
        ref = mp_effective_mass(x, make_params(alpha=alpha))
        assert math.isclose(m_q, ref, rel_tol=1e-8), (alpha, m_q, ref)


@pytest.mark.parametrize("name", sorted(BULK))
def test_bulk_output_hash(name, tmp_path):
    argv, digest = BULK[name]
    out = tmp_path / f"{name}.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_turning_points_records_match_golden():
    tps = find_turning_points(0.0, 4.0, make_params())  # the golden trajectory's range
    records = list(tps)
    # the list find_turning_points returned before it returned columns
    old = [TurningPoint(x=x, t=t, kind=TEMPORAL_MAX if top else TEMPORAL_MIN)
           for x, t, top in zip(tps.x.tolist(), tps.t.tolist(), tps.maximum.tolist())]
    assert records == [tps[i] for i in range(len(tps))] == old
    assert all(type(r.x) is float and type(r.t) is float for r in records)
    assert tps[-1] == records[-1]
    assert isinstance(tps[1:], TurningPoints) and list(tps[1:]) == records[1:]
    assert pair_events(tps) == pair_events(records)
    golden = json.loads((GOLDEN / "trajectory.json").read_text())["turning_points"]
    assert [r.kind for r in records] == [g["kind"] for g in golden]
    for r, g in zip(records, golden):
        assert abs(r.x - g["x"]) <= 1e-10 and math.isclose(r.t, g["t"], rel_tol=1e-9)
