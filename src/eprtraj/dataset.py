"""Dataset assembly and CSV/JSON serialization.

Datasets are numpy columns.  Writers call ``write`` once per chunk of 2**15 rows, built with no
Python loop over the rows, and render a cell rows share once (a run's labels, a sweep's x and
wedge).  Number cells come from one ``orjson.dumps`` per column or chunk, as
``repr`` (JSON) or ``"%.9g"`` (CSV: first rounded to ``r / 10^p``, ``r = rint(|v| 10^p)``, ``p =
8 - floor(log10 |v|)``) writes them; Python writes the cells where they may differ: NaN, +-inf,
exponent form, and CSV rows with a cell near a tie, of ``r`` not 9 digits or an integer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .action import effective_quantum_mass
# decompose_time and wedge_bounds are not called here; perfbench/tracing.py
# counts their calls through this module, so they stay importable from it.
from .entanglon import (_divergence_ratio, _time_parts,  # noqa: F401
                        decompose_time, is_trigger_point)
from .model import LimitSeries, ModelParams
from .trajectory import (_DIRECTIONS, _EVENTS, _KINDS, TurningPoints,  # noqa: F401
                         _check_range, _direction_index, _dtdx_array, _time_array,
                         _wedge_edges, find_turning_points, positions_at_time,
                         time_of_position, turning_points_by_beta, wedge_bounds)

_CHUNK_ROWS = 2 ** 15
_POW10 = np.array([float(10 ** p) for p in range(13)])  # each exact


def fmt9(value: float) -> str:
    """Format a float with 9 significant digits."""
    return format(value, ".9g")


def params_dict(params: ModelParams) -> dict:
    """The fields that ``repr`` shows (not the motion coefficient), in declaration order."""
    return {f.name: getattr(params, f.name) for f in fields(params) if f.repr}


def _json_cells(values, redo=None, render=None) -> np.ndarray:
    """A column as ``json.dumps`` writes its cells, in an object array: text (an object array)
    as it is, words quoted, numbers split from one ``orjson.dumps``, but by ``json.dumps`` where
    the two may differ (NaN, +-inf, nonzero ``|v| < 1e-4``, ``|v| >= 1e16``) or, given ``redo``,
    by ``render(at)`` where it flags (rows of 2-D ``values``); all if orjson writes an ``e``."""
    values = np.asarray(values)
    if values.dtype.kind in "OU":
        return values if values.dtype == object else np.array(list(map(json.dumps, values)), object)
    if redo is None:
        v = np.ascontiguousarray(values, dtype=float if values.dtype.kind == "f" else None)
        redo = ~((1e-4 <= abs(v)) & (abs(v) < 1e16) | (v == 0.0)) if v.dtype == float else v[:0] < 0
        values = np.where(redo, math.nan, v) if redo.any() else v  # NaN's redo is True
        render = lambda at: json.dumps(v[at].tolist())[1:-1].split(", ")  # noqa: E731
    import orjson  # on first use: a process that writes no CSV or JSON never loads it
    raw = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    cut, sep = (2, "],[") if values.ndim == 2 else (1, ",")
    items = np.array(str(memoryview(raw)[cut:-cut], "ascii").split(sep), object)[:len(values)]
    at = np.flatnonzero(redo) if b"e" not in raw else np.arange(len(values))
    if at.size:
        items[at] = render(at)
    return items


def _csv_rows(v) -> np.ndarray:
    """Each row of the 2-D float array ``v`` as its ``fmt9`` cells joined by ``,``."""
    q = np.abs(v)
    fast = (q >= 1e-4) & (q < 1e9)
    q[~fast] = 1.0  # no log10 of 0, inf or NaN
    scale = _POW10.take(8 - np.floor(np.log10(q)).astype(np.intp), mode="clip")
    r = np.rint(np.multiply(q, scale, out=q))
    fast &= (np.abs(np.subtract(q, r, out=q), out=q) < 0.5 - 1e-6) & (r >= 1e8) & (r < 1e9)
    q = np.copysign(np.divide(r, scale, out=r), v, out=r)
    fast &= np.trunc(q, out=scale) != q
    q[~fast] = math.nan  # orjson writes null, and % the row
    return _json_cells(q if v.shape[1] > 1 else q[:, 0], ~fast.all(axis=1), lambda at: ("\n".join(
        [",".join(["%.9g"] * v.shape[1])] * len(at)) % tuple(v[at].ravel().tolist())).split("\n"))


def _write_rows(write, head: str, n: int, *pieces, last=None) -> None:
    """``write`` ``n`` rows, one call per 2**15 rows (``head`` on the first, ``last`` for the last
    row's last piece): each piece's CSV cells (columns), items (a function of rows) or text."""
    for lo in range(0, max(n, 1), _CHUNK_ROWS):  # no rows: one call with ``head``
        rows = slice(lo, min(n, lo + _CHUNK_ROWS))
        buf = np.empty((rows.stop - lo, len(pieces)), dtype=object)
        for j, piece in enumerate(pieces):
            buf[:, j] = piece(rows) if callable(piece) else piece if isinstance(piece, str) else (
                _csv_rows(np.column_stack([c[rows] for c in piece])))
        if rows.stop == n and last is not None:
            buf[-1, -1] = last
        buf[:1, 0] = [("" if lo else head) + cell for cell in buf[:1, 0]]  # not a text copy
        write("".join(buf.ravel().tolist()) or head)


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
        cells = [lambda rows, c=c: _json_cells(c[rows]) for c in records.columns]
        _write_rows(write, lead, len(records.columns[0]), *sum(zip(cells, pieces[at + 1:]), ()),
                    last=pieces[at + 2 * len(cells)])  # each cell then the text after it
        lead, at = "", at + 2 * len(cells)


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


def _sample_grid(x_min: float, x_max: float, samples: int, params: ModelParams,
                 g=False) -> np.ndarray:
    if samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples}")
    _check_range(x_min, x_max, params, g=g)
    try:
        return np.linspace(x_min, x_max, samples)
    except (ValueError, MemoryError):  # more samples than an array can index or hold
        raise ValueError(f"samples = {samples}: too many for an array") from None


def build_trajectory_dataset(params: ModelParams, x_min: float, x_max: float,
                             samples: int) -> TrajectoryDataset:
    xs = _sample_grid(x_min, x_max, samples, params, g=True)  # dt/dx = g / D^2 is sampled too
    with np.errstate(over="ignore"):  # _check_range bounds |g| and |t|, not |g| / D^2
        ts, slopes = _time_array(xs, params), _dtdx_array(xs, params)
    if np.isinf(slopes).any():
        raise ValueError(f"dt/dx = g / D^2 overflows at x = {xs[np.isinf(slopes).argmax()]}")
    tps = find_turning_points(x_min, x_max, params)
    return TrajectoryDataset(params, xs, ts, slopes, turning_points=tps,
                             branch_id=np.searchsorted(tps.x, xs))


def trajectory_csv(ds: TrajectoryDataset, write) -> None:
    def labels(rows):  # one text per run of rows of one branch_id and direction
        b, d = ds.branch_id[rows].astype(np.intp), _direction_index(ds.dtdx[rows])
        new = np.r_[True, (b[1:] != b[:-1]) | (d[1:] != d[:-1])][:len(b)]  # no rows: none
        table = [f",{n},{_DIRECTIONS[j]}\n" for n, j in zip(b[new].tolist(), d[new].tolist())]
        return np.array(table, dtype=object)[new.cumsum() - 1]
    _write_rows(write, "x,t,dtdx,branch_id,direction\n", len(ds), (ds.x, ds.t, ds.dtdx), labels)


def trajectory_json(ds: TrajectoryDataset, write) -> None:
    """Event ``i`` shares turning point ``i``'s cells and joins branches ``i`` and ``i + 1``."""
    tps = ds.turning_points
    x, t, top = _json_cells(tps.x), _json_cells(tps.t), tps.maximum.astype(np.intp)
    ids = _json_cells(np.arange(len(tps) + 1))
    write_json({"params": params_dict(ds.params), "rows": _Records(
                    {"x": ds.x, "t": ds.t, "dtdx": ds.dtdx, "branch_id": ds.branch_id,
                     "direction": _json_cells(_DIRECTIONS)[_direction_index(ds.dtdx)]}),
                "turning_points": _Records({"x": x, "t": t, "kind": _json_cells(_KINDS)[top]}),
                "events": _Records({"kind": _json_cells(_EVENTS)[top],
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
    """The x and wedge cells every curve shares are rendered once."""
    wedge, chunks = np.column_stack((ds.t_lower, ds.t_upper)), range(0, len(ds.xs), _CHUNK_ROWS)
    x = {lo: _csv_rows(ds.xs[lo:lo + _CHUNK_ROWS, None]) + "," for lo in chunks}
    lohi = {lo: "," + _csv_rows(wedge[lo:lo + _CHUNK_ROWS]) + "\n" for lo in chunks}
    for i, (beta, t) in enumerate(zip(map("%.9g,".__mod__, ds.betas), ds.t)):
        _write_rows(write, "" if i else "beta,x,t,t_lower,t_upper\n", len(t), beta,
                    lambda rows: x[rows.start], (t,), lambda rows: lohi[rows.start])


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
    with np.errstate(over="ignore"):  # m x past the float range is rescaled, not written
        return np.column_stack((xs, *_time_parts(xs, params, np)))


def decompose_csv(rows: np.ndarray, write) -> None:
    _write_rows(write, "x,c_p1,c_p2,c_ent,total\n", len(rows), tuple(rows.T), "\n")


def decompose_json(params: ModelParams, rows: np.ndarray, write) -> None:
    write_json({"params": params_dict(params), "rows": _Records(
        dict(zip(("x", "c_p1", "c_p2", "c_ent", "total"), rows.T)))}, write)


def build_limit_rows(params: ModelParams, x: float, alphas, side: str):
    """Rows (alpha, x, t, m_q, ratio) of the one-sided limit study.

    ``ratio`` is the divergence diagnostic (t - tau) / (2mx/(hbar k (1-alpha))); it
    is only meaningful at trigger points and is None elsewhere.  A phase ``2kx + beta`` past
    the float range raises ValueError naming it, a ``t`` or ``m_q`` naming it and its alpha.
    """
    def row(x, p):
        if not math.isfinite(p._two_k * x + p.beta):  # the kernels' math.sin raises on it
            raise ValueError(f"the phase 2kx + beta overflows at x = {x}")
        t, m_q = time_of_position(x, p), effective_quantum_mass(x, p).m_q
        if not (math.isfinite(t) and math.isfinite(m_q)):
            raise ValueError(f"{'m_q' if math.isfinite(t) else 't'} overflows at alpha = {p.alpha}")
        ratio = _divergence_ratio(t, x, p) if is_trigger_point(x, p) and x != 0.0 else None
        return p.alpha, x, t, m_q, ratio
    return list(LimitSeries.study(x, params, alphas, side, row).values)


def limit_csv(rows, write) -> None:
    _write_rows(write, "alpha,x,t,m_q,ratio\n", len(rows), tuple(zip(*rows))[:4], ",", lambda at: [
        "" if row[4] is None else fmt9(row[4]) for row in rows[at]], "\n")  # no ratio: blank


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
    _write_rows(write, "x\n", len(positions), (positions,), "\n")


def invert_json(params: ModelParams, t: float, positions, write) -> None:
    write_json({"params": params_dict(params), "t": t,
                "positions": _Records(np.asarray(positions, dtype=float))}, write)
