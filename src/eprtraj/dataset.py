"""Dataset assembly and CSV/JSON serialization.

Datasets are numpy columns.  Writers call ``write`` once per chunk of 2**15 rows, built with no
Python loop over the rows, and render a cell rows share once: a trajectory run's labels into its
rows' CSV template, a branch id into JSON.  CSV numbers carry 9 significant digits (C locale); a
JSON document is a dict laid out by :func:`write_json`, its floats re-read bit-identically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .action import effective_quantum_mass
# decompose_time and wedge_bounds are not called here; perfbench/tracing.py
# counts their calls through this module, so they stay importable from it.
from .entanglon import (_divergence_ratio, _time_parts,  # noqa: F401
                        decompose_time, is_trigger_point)
from .model import LimitSeries, ModelParams
from .trajectory import (_DIRECTIONS, ANNIHILATION, CREATION, TEMPORAL_MAX,  # noqa: F401
                         TEMPORAL_MIN, TrajectoryEvent, TurningPoints, _direction_index,
                         _dtdx_array, _require_finite, _time_array, _validate_range,
                         _wedge_edges, find_turning_points, pair_events, positions_at_time,
                         time_of_position, turning_points_by_beta, wedge_bounds)

_CHUNK_ROWS = 2 ** 15


def fmt9(value: float) -> str:
    """Format a float with 9 significant digits."""
    return format(value, ".9g")


def params_dict(params: ModelParams) -> dict:
    return {"hbar": params.hbar, "m": params.m, "alpha": params.alpha,
            "beta": params.beta, "k": params.k, "E": params.E, "M": params.M,
            "tau": params.tau}


def _fill(write, template, *columns, head: str = "") -> None:
    """``write`` ``template % row`` per row of the equal-length ``columns``, one call per 2**15
    rows (``head`` joined onto the first): one ``%`` on the row template repeated, or on
    ``template(rows)``, the chunk's own; ``"%.9g" % v`` is ``fmt9(v)``."""
    n = len(columns[0])
    buf = np.empty((min(n, _CHUNK_ROWS), len(columns)), dtype=object)
    for lo in range(0, max(n, 1), _CHUNK_ROWS):  # no rows: one call with ``head``
        m = min(n - lo, _CHUNK_ROWS)
        for j, column in enumerate(columns):
            buf[:m, j] = column[lo:lo + m]
        text = template(slice(lo, lo + m)) if callable(template) else template * m
        write(head + text % tuple(buf[:m].ravel()))
        head = ""


def _json_cells(values) -> np.ndarray:
    """A column as ``json.dumps`` writes its cells, in an object array: text (an object
    array) as it is, words quoted, integers by ``str``, floats by repr or NaN/Infinity."""
    values = np.asarray(values)
    if values.dtype == object:
        return values
    if values.dtype.kind == "U":
        return np.array(list(map(json.dumps, values.tolist())), dtype=object)
    cells = np.fromiter(map(repr, values.tolist()), dtype=object, count=values.size)
    bad = ~np.isfinite(values)
    cells[bad] = [json.dumps(v) for v in values[bad].tolist()]
    return cells


class _Records:
    """A list of records laid out as ``record``: a dict or list (or a bare leaf) whose leaves
    are the equal-length columns (arrays) filling one record per row, in order."""

    HOLE = "\0"  # where a leaf is laid out: no key or text of a document is this string

    def __init__(self, record):
        self.record, self.columns = record, []
        json.dumps(record, default=self.columns.append)  # the leaves, in layout order


def write_json(doc, write) -> None:
    """``write`` ``json.dumps(doc, indent=2) + "\\n"``, each :class:`_Records` a list, one call
    per chunk of 2**15 records.  ``json.dumps`` lays each list out as two records of holes; the
    text between holes is the text around the lists, inside a record and between two records."""
    lists = []

    def holes(value):  # a list of records or a leaf of one
        if not isinstance(value, _Records):
            return _Records.HOLE
        if not len(value.columns[0]):
            return []
        lists.append(value)
        return [value.record] * 2

    pieces = (json.dumps(doc, indent=2, default=holes) + "\n").split(json.dumps(_Records.HOLE))
    if not lists:
        return write(pieces[0])
    lead, at = pieces[0], 0  # the text before a list rides on its first chunk, after on its last
    for records in lists:
        width, n = len(records.columns), len(records.columns[0])
        buf = np.empty((min(n, _CHUNK_ROWS), 2 * width), dtype=object)
        buf[:, 1::2] = pieces[at + 1:at + width + 1]  # the inner pieces, then the separator
        at += 2 * width
        for lo in range(0, n, _CHUNK_ROWS):
            m = min(n - lo, _CHUNK_ROWS)
            for j, column in enumerate(records.columns):
                buf[:m, 2 * j] = _json_cells(column[lo:lo + m])
            buf[0, 0], lead = lead + buf[0, 0], ""
            if lo + m == n:
                buf[m - 1, -1] = pieces[at]
            write("".join(buf[:m].ravel().tolist()))
        del buf  # the last chunk's cells, before the next list's buffer is made


@dataclass(frozen=True, eq=False)
class TrajectoryDataset:
    """Sampled motion as columns of one length (else ValueError), with its turning points."""

    params: ModelParams
    x: np.ndarray
    t: np.ndarray
    dtdx: np.ndarray
    branch_id: np.ndarray
    turning_points: TurningPoints

    def __post_init__(self):
        lengths = {name: len(getattr(self, name)) for name in ("x", "t", "dtdx", "branch_id")}
        if len(set(lengths.values())) > 1:  # the writers take the row count from x
            raise ValueError(f"columns differ in length: {lengths}")

    def __len__(self) -> int:
        return len(self.x)

    @property
    def direction(self) -> np.ndarray:
        """forward, retrograde or turning per sample, from the sign of dt/dx."""
        return np.array(_DIRECTIONS, dtype=object)[_direction_index(self.dtdx)]

    @property
    def events(self) -> list[TrajectoryEvent]:
        """The turning points as creation/annihilation events."""
        return pair_events(self.turning_points)


def _sample_grid(x_min: float, x_max: float, samples: int, params: ModelParams) -> np.ndarray:
    if samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples}")
    _validate_range(x_min, x_max, params)
    return np.linspace(x_min, x_max, samples)


def build_trajectory_dataset(params: ModelParams, x_min: float, x_max: float,
                             samples: int) -> TrajectoryDataset:
    xs = _sample_grid(x_min, x_max, samples, params)
    with np.errstate(over="ignore"):  # _validate_range bounds |g| and |t|, not |g| / D^2
        ts, slopes = _time_array(xs, params), _dtdx_array(xs, params)
    if np.isinf(slopes).any():
        raise ValueError(f"dt/dx = g / D^2 overflows at x = {xs[np.isinf(slopes).argmax()]}")
    tps = find_turning_points(x_min, x_max, params)
    return TrajectoryDataset(params, xs, ts, slopes, turning_points=tps,
                             branch_id=np.searchsorted(tps.x, xs))


def trajectory_csv(ds: TrajectoryDataset, write) -> None:
    ids, dirs = ds.branch_id.astype(np.intp, copy=False), _direction_index(ds.dtdx)
    tails = [f",{name}\n" for name in _DIRECTIONS]
    def template(rows):  # a run (rows of one branch_id and direction) has its labels in it
        b, d = ids[rows], dirs[rows]
        start = np.flatnonzero(np.r_[True, (b[1:] != b[:-1]) | (d[1:] != d[:-1])])
        runs = zip(b[start].tolist(), d[start].tolist(), np.diff(start, append=len(b)).tolist())
        return "".join([f"%.9g,%.9g,%.9g,{n}{tails[j]}" * k for n, j, k in runs])
    _fill(write, template, ds.x, ds.t, ds.dtdx, head="x,t,dtdx,branch_id,direction\n")


def trajectory_json(ds: TrajectoryDataset, write) -> None:
    """Event ``i`` shares turning point ``i``'s cells and joins branches ``i`` and ``i + 1``."""
    tps, (b, row) = ds.turning_points, np.unique(ds.branch_id, return_inverse=True)
    x, t, top = _json_cells(tps.x), _json_cells(tps.t), tps.maximum.astype(np.intp)
    ids = _json_cells(np.arange(len(tps) + 1))
    write_json({"params": params_dict(ds.params), "rows": _Records(
                    {"x": ds.x, "t": ds.t, "dtdx": ds.dtdx, "branch_id": _json_cells(b)[row],
                     "direction": _json_cells(_DIRECTIONS)[_direction_index(ds.dtdx)]}),
                "turning_points": _Records(
                    {"x": x, "t": t, "kind": _json_cells((TEMPORAL_MIN, TEMPORAL_MAX))[top]}),
                "events": _Records({"kind": _json_cells((CREATION, ANNIHILATION))[top],
                                    "x": x, "t": t, "branch_ids": [ids[:-1], ids[1:]]})}, write)


@dataclass(frozen=True, eq=False)
class SweepDataset:
    """One trajectory per phase shift on a shared grid, plus the wedge envelope."""

    params: ModelParams
    betas: list[float]
    xs: np.ndarray
    t: np.ndarray  # (len(betas), len(xs)): row i is the motion for betas[i]
    t_lower: np.ndarray  # NaN where x < 0
    t_upper: np.ndarray

    def __len__(self) -> int:
        return self.t.size


def build_sweep_dataset(params: ModelParams, betas, x_min: float, x_max: float,
                        samples: int) -> SweepDataset:
    beta_list = list(betas)
    if not beta_list:
        raise ValueError("beta list must not be empty")
    xs = _sample_grid(x_min, x_max, samples, params)
    t = np.array([_time_array(xs, params.replace(beta=beta)) for beta in beta_list])
    with np.errstate(over="ignore"):  # an edge past the float range is inf, as wedge_bounds says
        edges = _wedge_edges(xs, params)
    lower, upper = (np.where(xs < 0.0, math.nan, edge) for edge in edges)
    return SweepDataset(params, beta_list, xs, t, t_lower=lower, t_upper=upper)


def sweep_csv(ds: SweepDataset, write) -> None:
    """The x and wedge cells every curve shares, rendered once into row templates."""
    rows = list(map(",%.9g,%%.9g,%.9g,%.9g\n".__mod__,
                    zip(ds.xs.tolist(), ds.t_lower.tolist(), ds.t_upper.tolist())))
    head = "beta,x,t,t_lower,t_upper\n"
    for beta, t in zip(map(fmt9, ds.betas), ds.t):
        for lo in range(0, len(rows), _CHUNK_ROWS):
            chunk = slice(lo, lo + _CHUNK_ROWS)
            write(head + (beta + beta.join(rows[chunk])) % tuple(t[chunk].tolist()))
            head = ""


def sweep_json(ds: SweepDataset, write) -> None:
    """The wedge lists x >= 0 only; ``x`` is rendered once for all curves."""
    x, keep = _json_cells(ds.xs), ds.xs >= 0.0
    write_json({"params": params_dict(ds.params),
                "curves": [{"beta": beta, "rows": _Records({"x": x, "t": t})}
                           for beta, t in zip(ds.betas, ds.t)],
                "wedge": _Records({"x": x[keep], "t_lower": ds.t_lower[keep],
                                   "t_upper": ds.t_upper[keep]})}, write)


def build_decompose_rows(params: ModelParams, x_min: float, x_max: float,
                         samples: int) -> np.ndarray:
    """Columns x, c_p1, c_p2, c_ent, total of :func:`decompose_time`, shape (samples, 5)."""
    xs = _sample_grid(x_min, x_max, samples, params)
    return np.column_stack((xs, *_time_parts(xs, params, np)))


def decompose_csv(rows: np.ndarray, write) -> None:
    _fill(write, "%.9g,%.9g,%.9g,%.9g,%.9g\n", *rows.T, head="x,c_p1,c_p2,c_ent,total\n")


def decompose_json(params: ModelParams, rows: np.ndarray, write) -> None:
    write_json({"params": params_dict(params), "rows": _Records(
        dict(zip(("x", "c_p1", "c_p2", "c_ent", "total"), rows.T)))}, write)


def build_limit_rows(params: ModelParams, x: float, alphas, side: str):
    """Rows (alpha, x, t, m_q, ratio) of the one-sided limit study.

    ``ratio`` is the divergence diagnostic (t - tau) / (2mx/(hbar k (1-alpha))); it
    is only meaningful at trigger points and is None elsewhere.  A ``t`` or
    ``m_q`` past the float range raises ValueError naming it and its alpha.
    """
    def row(x, p):
        t, m_q = time_of_position(x, p), effective_quantum_mass(x, p).m_q
        _require_finite(f"at alpha = {p.alpha}", ("t", t), ("m_q", m_q))
        ratio = _divergence_ratio(t, x, p) if is_trigger_point(x, p) and x != 0.0 else None
        return p.alpha, x, t, m_q, ratio
    return list(LimitSeries.study(x, params, alphas, side, row).values)


def limit_csv(rows, write) -> None:
    a, x, t, m_q, ratio = zip(*rows)
    _fill(write, "%.9g,%.9g,%.9g,%.9g,%s\n", a, x, t, m_q,
          ["" if r is None else fmt9(r) for r in ratio], head="alpha,x,t,m_q,ratio\n")


def limit_json(params: ModelParams, side: str, rows, write) -> None:
    """No ratio is ``null``."""
    alpha, x, t, m_q, ratio = map(np.array, zip(*rows))
    write_json({"params": params_dict(params), "side": side, "rows": _Records(
        {"alpha": alpha, "x": x, "t": t, "m_q": m_q,
         "ratio": np.array(list(map(json.dumps, ratio.tolist())), dtype=object)})}, write)


def build_invert_positions(params: ModelParams, t: float, x_min: float,
                           x_max: float) -> list[float]:
    return positions_at_time(t, x_min, x_max, params)


def invert_csv(positions, write) -> None:
    _fill(write, "%.9g\n", positions, head="x\n")


def invert_json(params: ModelParams, t: float, positions, write) -> None:
    write_json({"params": params_dict(params), "t": t,
                "positions": _Records(np.asarray(positions, dtype=float))}, write)
