"""Check every operation's output against the closed forms in ``oracle``.

``check_op`` never raises: a parse error, a wrong value or a missing file
becomes a problem string, and any problem makes the operation count as
failed.  CSV numbers are compared at 9 significant digits, JSON and library
values at full precision (1e-12 relative, with an absolute floor where the
closed form cancels).  ``m_q`` is compared at 1e-4: the library takes it by a
central difference in the energy, which is that accurate up to alpha = 0.999
at trigger points.
"""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle as O

REL9 = 6e-9
REL_FULL = 1e-12
REL_MQ = 1e-4
TRIGGER_TOL = 1e-9
REJECTED_BY_DESIGN = ("PrecisionError", "SingularityError")
_SVG = "{http://www.w3.org/2000/svg}"
_DESC = re.compile(r"t-range (\S+) (\S+) px (\S+) (\S+) ; x-range (\S+) (\S+) py (\S+) (\S+)")


@dataclass
class Outcome:
    problems: list = field(default_factory=list)
    rejected: bool = False
    rows: int = 0
    roots_reported: int = 0
    roots_expected: int = 0


class CheckFailure(Exception):
    pass


def _params(p: dict) -> dict:
    return {**p, "beta": O.normalize_beta(p["beta"])}


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _close(label: str, got, want, rel: float, floor=0.0) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    # NaN matches NaN (sweep wedge columns are NaN for x < 0).
    bad = ~((np.abs(got - want) <= rel * np.abs(want) + floor)
            | (np.isnan(got) & np.isnan(want)))
    if np.any(bad):
        i = int(np.flatnonzero(bad.ravel())[0])
        raise CheckFailure(f"{label}[{i}] = {float(got.ravel()[i])!r}, "
                           f"expected {float(want.ravel()[i])!r}")


def _fmt9(v: float) -> str:
    return format(v, ".9g")


def _csv(text: str, header: str, rows: int | None) -> list:
    lines = text.split("\n")
    _require(lines[0] == header, f"header {lines[0]!r}, expected {header!r}")
    _require(lines[-1] == "", "output does not end with a newline")
    data = lines[1:-1]
    if rows is not None:
        _require(len(data) == rows, f"{len(data)} rows, expected {rows}")
    return data


def _table(text: str, header: str, rows: int, words: dict | None = None) -> np.ndarray:
    """Every row of an all-numeric CSV as a (rows, columns) array, parsed in C.

    ``words`` maps the text columns (such as ``direction``) to numeric codes.
    """
    _require(text.startswith(header + "\n"), f"header {text[:80]!r}, expected {header!r}")
    _require(text.endswith("\n"), "output does not end with a newline")
    body = text[len(header) + 1:-1]
    ncols = header.count(",") + 1
    _require(body.count("\n") + 1 == rows, f"{body.count(chr(10)) + 1} rows, expected {rows}")
    _require(body.count(",") == rows * (ncols - 1), "rows with a wrong number of columns")
    for word, code in (words or {}).items():
        body = body.replace(word, code)
    try:
        values = np.fromstring(body.replace("\n", ","), sep=",")
    except ValueError as exc:
        raise CheckFailure(f"unparsable cell: {exc}") from None
    _require(values.size == rows * ncols, "unparsable cell")
    return values.reshape(rows, ncols)


def _brackets(label: str, f, xs, rel_delta: float) -> None:
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        return
    ok = O.brackets_sign_change(f, xs, rel_delta * np.maximum(1.0, np.abs(xs)))
    if not np.all(ok):
        i = int(np.flatnonzero(~ok)[0])
        raise CheckFailure(f"{label} {float(xs[i])!r} is not a root")


def _directions(slopes: np.ndarray) -> np.ndarray:
    return np.where(slopes > 0.0, "forward", np.where(slopes < 0.0, "retrograde", "turning"))


# --- trajectory -----------------------------------------------------------

def _trajectory_csv(op, text, P, out: Outcome) -> None:
    n = op["samples"]
    tab = _table(text, "x,t,dtdx,branch_id,direction", n,
                 {"forward": "1", "retrograde": "-1", "turning": "0"})
    x, t, s, branch, sign = tab.T
    xs = np.linspace(op["xmin"], op["xmax"], n)
    _close("x", x, xs, REL9)
    _close("t", t, O.time(xs, P), REL9)
    _close("dtdx", s, O.slope(xs, P), REL9, 1e-12 * O.slope_scale(xs, P))
    bad = np.flatnonzero(sign != np.sign(s))
    _require(bad.size == 0, f"rows {bad[:1]}: direction does not follow the sign of dtdx")
    _require(np.array_equal(branch, branch.round()) and branch[0] == 0,
             "branch_id is not a count starting at 0")
    step = np.diff(branch)
    _require(np.all(step >= 0), "branch_id decreases")
    # An odd number of turning points lies between two rows exactly when the
    # direction flips between them.
    bad = np.flatnonzero((sign[1:] != sign[:-1]) != (step % 2 == 1))
    _require(bad.size == 0, f"rows {bad[:1]}: branch_id step does not match direction change")
    out.rows = n
    out.roots_reported = int(branch[-1])


def _check_turning_points(tps: list, P: dict) -> np.ndarray:
    xs = np.array([tp["x"] for tp in tps], dtype=float)
    _require(np.all(np.diff(xs) > 0.0), "turning points not strictly increasing")
    _brackets("turning point", lambda v: O.turning_function(v, P), xs, 1e-9)
    if xs.size:
        delta = 1e-9 * np.maximum(1.0, np.abs(xs))
        rising = O.turning_function(xs - delta, P) < 0.0
        kinds = np.array([tp["kind"] for tp in tps])
        want = np.where(rising, "temporal_min", "temporal_max")
        bad = np.flatnonzero(kinds != want)
        _require(bad.size == 0, f"turning point {bad[:1]} has the wrong kind")
        _close("turning point t", [tp["t"] for tp in tps], O.time(xs, P), REL_FULL)
    return xs


def _trajectory_json(op, text, P, out: Outcome) -> None:
    doc = json.loads(text)
    _check_params_doc(doc["params"], op["p"])
    rows = doc["rows"]
    n = op["samples"]
    _require(len(rows) == n, f"{len(rows)} rows, expected {n}")
    xs = np.linspace(op["xmin"], op["xmax"], n)
    got_x = np.array([r["x"] for r in rows])
    _require(np.array_equal(got_x, xs), "x column differs from the sample grid")
    slopes = np.array([r["dtdx"] for r in rows])
    _close("t", [r["t"] for r in rows], O.time(xs, P), REL_FULL)
    _close("dtdx", slopes, O.slope(xs, P), REL_FULL, 1e-12 * O.slope_scale(xs, P))
    _require(list(_directions(slopes)) == [r["direction"] for r in rows],
             "direction does not follow the sign of dtdx")

    tp_x = _check_turning_points(doc["turning_points"], P)
    want_branch = np.searchsorted(tp_x, xs)
    _require(np.array_equal([r["branch_id"] for r in rows], want_branch),
             "branch_id does not count the turning points below x")
    events = doc["events"]
    _require(len(events) == len(tp_x), f"{len(events)} events for {len(tp_x)} turning points")
    for i, (ev, tp) in enumerate(zip(events, doc["turning_points"])):
        kind = "creation" if tp["kind"] == "temporal_min" else "annihilation"
        _require(ev["kind"] == kind and ev["x"] == tp["x"] and ev["t"] == tp["t"]
                 and ev["branch_ids"] == [i, i + 1], f"event {i} does not match its turning point")
    out.rows = n
    out.roots_reported = len(tp_x)


# --- sweep, decompose, limit, invert, params --------------------------------

def _sweep_csv(op, text, P, out: Outcome) -> None:
    n, betas = op["samples"], op["betas"]
    tab = _table(text, "beta,x,t,t_lower,t_upper", n * len(betas))
    xs = np.linspace(op["xmin"], op["xmax"], n)
    lo, hi = O.wedge(xs, P)
    for j, beta in enumerate(betas):
        block = tab[j * n:(j + 1) * n]
        _close(f"curve {j} beta", block[:, 0], np.full(n, beta), REL9)
        _close(f"curve {j} x", block[:, 1], xs, REL9)
        _close(f"curve {j} t", block[:, 2], O.time(xs, _params({**P, "beta": beta})), REL9)
        _close(f"curve {j} t_lower", block[:, 3], np.where(xs >= 0, lo, np.nan), REL9)
        _close(f"curve {j} t_upper", block[:, 4], np.where(xs >= 0, hi, np.nan), REL9)
    out.rows = len(tab)


def _sweep_json(op, text, P, out: Outcome) -> None:
    doc = json.loads(text)
    _check_params_doc(doc["params"], op["p"])
    xs = np.linspace(op["xmin"], op["xmax"], op["samples"])
    _require(len(doc["curves"]) == len(op["betas"]), "wrong number of curves")
    for curve, beta in zip(doc["curves"], op["betas"]):
        _require(curve["beta"] == beta, f"curve beta {curve['beta']!r}, expected {beta!r}")
        rows = curve["rows"]
        _require(np.array_equal([r["x"] for r in rows], xs), "x column differs from the grid")
        _close("t", [r["t"] for r in rows], O.time(xs, _params({**P, "beta": beta})), REL_FULL)
    wx = xs[xs >= 0.0]
    wedge = doc["wedge"]
    _require(np.array_equal([w["x"] for w in wedge], wx), "wedge x differs from the grid")
    lo, hi = O.wedge(wx, P)
    _close("t_lower", [w["t_lower"] for w in wedge], lo, REL_FULL)
    _close("t_upper", [w["t_upper"] for w in wedge], hi, REL_FULL)
    out.rows = len(xs) * len(op["betas"])


def _decompose_csv(op, text, P, out: Outcome) -> None:
    n = op["samples"]
    tab = _table(text, "x,c_p1,c_p2,c_ent,total", n)
    xs = np.linspace(op["xmin"], op["xmax"], n)
    _close("x", tab[:, 0], xs, REL9)
    c1, c2, c_ent, total = O.decompose(xs, P)
    scale = np.abs(c1) + np.abs(c2) + np.abs(total)
    _close("c_p1", tab[:, 1], c1, REL9)
    _close("c_p2", tab[:, 2], c2, REL9)
    _close("c_ent", tab[:, 3], c_ent, REL9, REL9 * scale)
    _close("total", tab[:, 4], total, REL9)
    out.rows = n


def _limit_rows(x: float, alphas: list, P: dict):
    for a in alphas:
        Pa = O.with_alpha(P, a)
        t = float(O.time(x, Pa))
        trigger = abs(math.cos(2.0 * Pa["k"] * x + Pa["beta"]) + 1.0) < TRIGGER_TOL and x != 0.0
        ratio = t * Pa["hbar"] * Pa["k"] * (1.0 - a) / (2.0 * Pa["m"] * x) if trigger else None
        yield a, t, float(O.quantum_mass(x, Pa)), ratio


def _limit_csv(op, text, P, out: Outcome) -> None:
    data = _csv(text, "alpha,x,t,m_q,ratio", len(op["alphas"]))
    for line, (a, t, m_q, ratio) in zip(data, _limit_rows(op["x"], op["alphas"], P)):
        cells = line.split(",")
        _require(cells[0] == _fmt9(a) and cells[1] == _fmt9(op["x"]), f"row {line!r}: alpha or x")
        _close("t", float(cells[2]), t, REL9)
        _close("m_q", float(cells[3]), m_q, REL_MQ)
        if ratio is None:
            _require(cells[4] == "", f"ratio {cells[4]!r} off a trigger point")
        else:
            _close("ratio", float(cells[4]), ratio, REL9)
    out.rows = len(data)


def _positions(op, xs: list, P: dict, rel_delta: float, out: Outcome) -> None:
    xs = np.asarray(xs, dtype=float)
    _require(np.all(np.diff(xs) > 0.0), "positions not strictly increasing")
    lo, hi = (op["lo"], op["hi"]) if op["kind"] == "lib" else (op["xmin"], op["xmax"])
    _require(xs.size == 0 or (xs[0] >= lo and xs[-1] <= hi), "position outside range")
    _brackets("position", lambda v: O.crossing_function(v, P, op["t"]), xs, rel_delta)
    out.rows = len(xs)
    out.roots_reported = len(xs)


def _invert_csv(op, text, P, out: Outcome) -> None:
    data = _csv(text, "x", None)
    _positions(op, [float(v) for v in data], P, 1e-8, out)


def _invert_json(op, text, P, out: Outcome) -> None:
    doc = json.loads(text)
    _check_params_doc(doc["params"], op["p"])
    _require(doc["t"] == op["t"], "t differs from the request")
    _positions(op, doc["positions"], P, 1e-9, out)


def _check_params_doc(doc: dict, p: dict) -> None:
    for name in ("hbar", "m", "alpha", "k", "tau"):
        _require(doc[name] == p[name], f"params.{name} = {doc[name]!r}, expected {p[name]!r}")
    _close("params.beta", doc["beta"], O.normalize_beta(p["beta"]), 0.0, 1e-15)
    _require(-math.pi < doc["beta"] <= math.pi, "params.beta not in (-pi, pi]")
    _close("params.M", doc["M"], O.composite_mass(p), REL_FULL)
    _close("params.E", doc["E"], O.energy(p), REL_FULL)


def _params_json(op, text, P, out: Outcome) -> None:
    _check_params_doc(json.loads(text), op["p"])
    out.rows = 1


# --- figures --------------------------------------------------------------

def _figure(op, text, P, out: Outcome) -> None:
    root = ET.fromstring(text)
    desc = root.find(_SVG + "desc")
    _require(desc is not None and desc.text, "no <desc> calibration")
    match = _DESC.fullmatch(desc.text.strip())
    _require(match, f"calibration {desc.text!r} not understood")
    t_lo, t_hi, px_l, px_r, x_lo, x_hi, py_b, py_t = (float(v) for v in match.groups())
    _require(x_lo == op["xmin"] and x_hi == op["xmax"], "calibration x-range differs")
    n = op["samples"]
    betas = [0.0, math.pi] if op["figure_id"] == 1 else [j * math.pi / 4 for j in range(8)]
    curves = [_params({**P, "beta": b}) for b in betas]
    xs = np.linspace(op["xmin"], op["xmax"], n)
    _close("calibration t_hi", t_hi, max(float(O.time(xs, c).max()) for c in curves) * 1.02,
           REL_FULL)

    def to_px(t):
        return px_l + (t - t_lo) / (t_hi - t_lo) * (px_r - px_l)

    def to_py(x):
        return py_b - (x - x_lo) / (x_hi - x_lo) * (py_b - py_t)

    def from_py(py):
        return x_lo + (py_b - py) / (py_b - py_t) * (x_hi - x_lo)

    lines = root.findall(_SVG + "polyline")
    _require(len(lines) == len(betas), f"{len(lines)} polylines, expected {len(betas)}")
    curve = -1
    markers = 0
    for el in root:
        if el.tag == _SVG + "polyline":
            curve += 1
            pts = np.array([[float(v) for v in pt.split(",")]
                            for pt in el.get("points").split()])
            _require(len(pts) == n, f"curve {curve}: {len(pts)} points, expected {n}")
            _close(f"curve {curve} px", pts[:, 0], to_px(O.time(xs, curves[curve])), 0.0, 1.5e-3)
            _close(f"curve {curve} py", pts[:, 1], to_py(xs), 0.0, 1.5e-3)
        elif el.tag == _SVG + "circle":
            _require(op["markers"] and curve >= 0, "marker without --markers")
            Pc = curves[curve]
            x = from_py(float(el.get("cy")))
            _brackets("marker", lambda v: O.turning_function(v, Pc), [x], 1e-4)
            _close("marker cx", float(el.get("cx")), to_px(float(O.time(x, Pc))), 0.0, 0.02)
            creation = O.turning_function(x - 1e-4, Pc) < 0.0
            _require(el.get("fill") == ("#2c8c50" if creation else "#b23434"),
                     "marker colour does not match its kind")
            markers += 1
    if op["markers"]:
        out.roots_reported = markers


def expected_roots(op: dict, roots: O.RootOracle) -> int:
    """Roots an op's output reveals, per the dense-grid oracle (0: reveals none)."""
    P = _params(op["p"])
    if op["kind"] == "lib":
        if op["fn"] != "positions_at_time":
            return 0
        return roots.positions(P, op["t"], op["lo"], op["hi"])
    if op["cmd"] == "trajectory":
        return roots.turning(P, op["xmin"], op["xmax"])
    if op["cmd"] == "invert":
        return roots.positions(P, op["t"], op["xmin"], op["xmax"])
    if op["cmd"] == "figure" and op["markers"]:
        betas = [j * math.pi / 4 for j in range(8)] if op["figure_id"] == 2 else [0.0, math.pi]
        return sum(roots.turning(_params({**P, "beta": b}), op["xmin"], op["xmax"])
                   for b in betas)
    return 0


_CLI = {
    ("trajectory", "csv"): _trajectory_csv,
    ("trajectory", "json"): _trajectory_json,
    ("sweep", "csv"): _sweep_csv,
    ("sweep", "json"): _sweep_json,
    ("decompose", "csv"): _decompose_csv,
    ("limit", "csv"): _limit_csv,
    ("invert", "csv"): _invert_csv,
    ("invert", "json"): _invert_json,
    ("params", "json"): _params_json,
    ("figure", "svg"): _figure,
}


# --- library calls ----------------------------------------------------------

def _library(op, summary, P, out: Outcome) -> None:
    fn = op["fn"]
    vals = summary["values"]
    out.rows = summary["n"]
    if fn == "positions_at_time":
        _positions(op, vals, P, 1e-9, out)  # the returned sample of positions
        out.rows = out.roots_reported = summary["n"]
        return
    if fn in ("epr_limit_time", "epr_limit_mass"):
        _require([a for a, _ in vals] == op["alphas"], "series alphas differ from the request")
        x = op["x"]
        if fn == "epr_limit_time":
            want = [O.time(x, O.with_alpha(P, a)) for a in op["alphas"]]
            _close(fn, [v for _, v in vals], want, REL_FULL)
        else:
            want = [O.quantum_mass(x, O.with_alpha(P, a)) for a in op["alphas"]]
            _close(fn, [v for _, v in vals], want, REL_MQ)
        return
    if "xs" in op:
        x = np.array(op["xs"])[summary["idx"]]
        _require(summary["n"] == len(op["xs"]), "wrong number of results")
    else:
        _require(summary["n"] == op["n"], f"{summary['n']} results, expected {op['n']}")
        x = np.linspace(op["lo"], op["hi"], op["n"])[summary["idx"]]
    v = np.array(vals, dtype=float)
    d = O.amp2(x, P)
    e_scale = O.energy(P) / (d * d)
    if fn == "time_of_position":
        _close(fn, v[:, 0], O.time(x, P), REL_FULL)
    elif fn == "dtdx":
        _close(fn, v[:, 0], O.slope(x, P), REL_FULL, 1e-12 * O.slope_scale(x, P))
    elif fn == "amplitude_squared":
        _close(fn, v[:, 0], d, REL_FULL)
    elif fn == "quantum_potential":
        _close(fn, v[:, 0], O.quantum_potential(x, P), REL_FULL, 1e-12 * e_scale)
    elif fn == "decompose_time":
        c1, c2, c_ent, total = O.decompose(x, P)
        scale = np.abs(c1) + np.abs(c2) + np.abs(total)
        _close("c_p1", v[:, 0], c1, REL_FULL)
        _close("c_p2", v[:, 1], c2, REL_FULL)
        _close("c_ent", v[:, 2], c_ent, REL_FULL, 1e-12 * scale)
        _close("total", v[:, 3], total, REL_FULL)
    elif fn == "effective_quantum_mass":
        _close("q", v[:, 0], O.quantum_potential(x, P), REL_FULL, 1e-12 * e_scale)
        _close("m_q", v[:, 1], O.quantum_mass(x, P), REL_MQ)
    elif fn == "psi_polar":
        _close("amplitude", v[:, 0], np.sqrt(d), REL_FULL)
        turn = np.angle(np.exp(1j * (v[:, 1] - O.phase(x, P))))
        _close("phase", turn, 0.0, 0.0, 1e-12)
        _close("amplitude_squared", v[:, 2], d, REL_FULL)
    elif fn == "psi_bipolar":
        k, a, b = P["k"], P["alpha"], P["beta"]
        _close("re", v[:, 0], np.cos(k * x) + a * np.cos(k * x + b), 0.0, 1e-12)
        _close("im", v[:, 1], np.sin(k * x) - a * np.sin(k * x + b), 0.0, 1e-12)
    elif fn == "wedge_bounds":
        lo, hi = O.wedge(x, P)
        _close("t_lower", v[:, 0], lo, REL_FULL)
        _close("t_upper", v[:, 1], hi, REL_FULL)
    elif fn == "reduced_action_unwrapped":
        want = O.action_unwrapped(x, P)
        _close(fn, v[:, 0], want, 0.0, 1e-9 * np.maximum(1.0, np.abs(want)))
    elif fn == "action_sample":
        w_p, w_u = O.action_principal(x, P), O.action_unwrapped(x, P)
        _close("w_principal", v[:, 0], w_p, REL_FULL, 1e-15)
        _close("w_unwrapped", v[:, 1], w_u, 0.0, 1e-9 * np.maximum(1.0, np.abs(w_u)))
        _close("sheet", v[:, 2], np.round((w_u - w_p) / (math.pi * P["hbar"])), 0.0)
    else:
        raise CheckFailure(f"no checker for library call {fn}")


def check_op(op: dict, result: dict, out_path: Path | None, roots: O.RootOracle) -> Outcome:
    """Check one operation; every problem found is listed, none is raised."""
    out = Outcome(roots_expected=expected_roots(op, roots))
    error = result.get("error")
    if error is not None:
        out.problems.append(error)
        out.rejected = error.startswith(REJECTED_BY_DESIGN)
        return out
    P = _params(op["p"])
    try:
        if op["kind"] == "lib":
            _library(op, result["summary"], P, out)
        else:
            rc = result["rc"]
            if rc != 0:
                out.problems.append(f"exit code {rc}")
                out.rejected = rc == 3
                return out
            checker = _CLI.get((op["cmd"], op["fmt"]))
            _require(checker is not None, f"no checker for {op['cmd']} {op['fmt']}")
            checker(op, out_path.read_text(), P, out)
    except Exception as exc:  # a checker problem is a failed check, never fatal
        out.problems.append(f"{type(exc).__name__}: {exc}")
    return out
