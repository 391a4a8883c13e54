"""Dataset assembly and CSV/JSON serialization.

Datasets are numpy columns.  Writers call ``write`` once per chunk of 2**15
rows, built with no Python loop over the rows.  CSV numbers carry 9 significant
digits with C-locale formatting; JSON floats use Python's shortest round-trip
representation, so a re-read reproduces every value bit-identically.
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
from .trajectory import (_DIRECTIONS, ANNIHILATION, CREATION,  # noqa: F401
                         TEMPORAL_MAX, TEMPORAL_MIN, TrajectoryEvent, TurningPoints,
                         _direction_index, _dtdx_array, _time_array, _validate_range,
                         _wedge_edges, find_turning_points, pair_events, positions_at_time,
                         time_of_position, wedge_bounds)

_CHUNK_ROWS = 2 ** 15


def fmt9(value: float) -> str:
    """Format a float with 9 significant digits."""
    return format(value, ".9g")


def params_dict(params: ModelParams) -> dict:
    return {"hbar": params.hbar, "m": params.m, "alpha": params.alpha,
            "beta": params.beta, "k": params.k, "E": params.E, "M": params.M,
            "tau": params.tau}


def _fill(write, template: str, *columns, head: str = "") -> None:
    """``write`` ``template % row`` for every row of the equal-length ``columns``, one call
    per chunk of 2**15 rows (``head`` joined onto the first): one ``%`` on the repeated
    template, cells from an object buffer.  ``"%.9g" % v`` equals :func:`fmt9` of ``v``."""
    n = len(columns[0])
    buf = np.empty((min(n, _CHUNK_ROWS), len(columns)), dtype=object)
    for lo in range(0, max(n, 1), _CHUNK_ROWS):  # no rows: one call with ``head``
        m = min(n - lo, _CHUNK_ROWS)
        for j, column in enumerate(columns):
            buf[:m, j] = column[lo:lo + m]
        write(head + (template * m) % tuple(buf[:m].ravel()))
        head = ""


def _json_cells(values) -> np.ndarray:
    """A column as ``json.dumps`` writes its cells, in an object array: text (an object
    array) as it is, integers by ``str``, floats by repr or NaN/Infinity/-Infinity."""
    values = np.asarray(values)
    if values.dtype == object:
        return values
    cells = np.fromiter(map(repr, values.tolist()), dtype=object, count=values.size)
    bad = ~np.isfinite(values)
    cells[bad] = [json.dumps(v) for v in values[bad].tolist()]
    return cells


def _json_list(write, head: str, record: str, *columns, indent="  ", tail="") -> None:
    """``write`` ``head``, one ``record`` (a ``%s`` per column) per row as ``json.dumps(
    indent=2)`` lays out a list closing at ``indent``, then ``tail``.  Each chunk is one
    ``join`` of an object buffer: the record's pieces in its even columns (the first and
    last also open and close the list), the cells in the odd ones."""
    n = len(columns[0])
    if not n:
        return write(head + "[]" + tail)
    pieces = record.split("%s")
    buf = np.empty((min(n, _CHUNK_ROWS), 2 * len(pieces) - 1), dtype=object)
    buf[:, ::2] = np.array(pieces[:-1] + [pieces[-1] + ",\n"], dtype=object)
    for lo in range(0, n, _CHUNK_ROWS):
        m = min(n - lo, _CHUNK_ROWS)
        for j, column in enumerate(columns):
            buf[:m, 2 * j + 1] = _json_cells(column[lo:lo + m])
        buf[0, 0] = (head + "[\n" if lo == 0 else "") + pieces[0]
        if lo + m == n:
            buf[m - 1, -1] = pieces[-1] + "\n" + indent + "]" + tail
        write("".join(buf[:m].ravel().tolist()))


def _json_head(params: ModelParams) -> str:
    """``json.dumps({"params": ...}, indent=2)`` up to the params' closing brace."""
    return json.dumps({"params": params_dict(params)}, indent=2)[:-2]


@dataclass(frozen=True, eq=False)
class TrajectoryDataset:
    """Sampled motion as columns, with its turning points."""

    params: ModelParams
    x: np.ndarray
    t: np.ndarray
    dtdx: np.ndarray
    branch_id: np.ndarray
    turning_points: TurningPoints

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
    ts, slopes = _time_array(xs, params), _dtdx_array(xs, params)
    tps = find_turning_points(x_min, x_max, params)
    return TrajectoryDataset(params, xs, ts, slopes, turning_points=tps,
                             branch_id=np.searchsorted(tps.x, xs))


def trajectory_csv(ds: TrajectoryDataset, write) -> None:
    _fill(write, "%.9g,%.9g,%.9g,%d,%s\n", ds.x, ds.t, ds.dtdx, ds.branch_id, ds.direction,
          head="x,t,dtdx,branch_id,direction\n")


_ROW_JSON = ('    {\n      "x": %s,\n      "t": %s,\n      "dtdx": %s,\n'
             '      "branch_id": %s,\n      "direction": "%s"\n    }')
_TURNING_JSON = '    {\n      "x": %s,\n      "t": %s,\n      "kind": "%s"\n    }'
_EVENT_JSON = ('    {\n      "kind": "%s",\n      "x": %s,\n      "t": %s,\n'
               '      "branch_ids": [\n        %s,\n        %s\n      ]\n    }')


def trajectory_json(ds: TrajectoryDataset, write) -> None:
    """Byte-identical to ``json.dumps(doc, indent=2) + "\\n"``.  Event ``i`` sits on turning
    point ``i``, joins branches ``i`` and ``i + 1`` and shares its rendered cells."""
    tps = ds.turning_points
    x, t, top = _json_cells(tps.x), _json_cells(tps.t), tps.maximum.astype(np.intp)
    ids = _json_cells(np.arange(len(tps) + 1))
    _json_list(write, _json_head(ds.params) + ',\n  "rows": ', _ROW_JSON,
               ds.x, ds.t, ds.dtdx, ds.branch_id, ds.direction)
    _json_list(write, ',\n  "turning_points": ', _TURNING_JSON, x, t,
               np.array((TEMPORAL_MIN, TEMPORAL_MAX), dtype=object)[top])
    _json_list(write, ',\n  "events": ', _EVENT_JSON,
               np.array((CREATION, ANNIHILATION), dtype=object)[top], x, t, ids[:-1], ids[1:],
               tail="\n}\n")


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


_POINT_JSON = '        {\n          "x": %s,\n          "t": %s\n        }'
_WEDGE_JSON = '    {\n      "x": %s,\n      "t_lower": %s,\n      "t_upper": %s\n    }'


def sweep_json(ds: SweepDataset, write) -> None:
    """Byte-identical to ``json.dumps(doc, indent=2) + "\\n"``; the wedge lists x >= 0
    only.  Each curve's rows are written as they are rendered; ``x`` once for all."""
    x = _json_cells(ds.xs)
    head = _json_head(ds.params) + ',\n  "curves": [\n'
    for beta, t in zip(_json_cells(ds.betas), ds.t):
        _json_list(write, f'{head}    {{\n      "beta": {beta},\n      "rows": ', _POINT_JSON,
                   x, t, indent="      ")
        head = "\n    },\n"
    keep = ds.xs >= 0.0
    _json_list(write, '\n    }\n  ],\n  "wedge": ', _WEDGE_JSON, x[keep], ds.t_lower[keep],
               ds.t_upper[keep], tail="\n}\n")


def build_decompose_rows(params: ModelParams, x_min: float, x_max: float,
                         samples: int) -> np.ndarray:
    """Columns x, c_p1, c_p2, c_ent, total of :func:`decompose_time`, shape (samples, 5)."""
    xs = _sample_grid(x_min, x_max, samples, params)
    return np.column_stack((xs, *_time_parts(xs, params, np)))


def decompose_csv(rows: np.ndarray, write) -> None:
    _fill(write, "%.9g,%.9g,%.9g,%.9g,%.9g\n", *rows.T, head="x,c_p1,c_p2,c_ent,total\n")


_DECOMPOSE_JSON = ('    {\n      "x": %s,\n      "c_p1": %s,\n      "c_p2": %s,\n'
                   '      "c_ent": %s,\n      "total": %s\n    }')


def decompose_json(params: ModelParams, rows: np.ndarray, write) -> None:
    """Byte-identical to ``json.dumps(doc, indent=2) + "\\n"``."""
    _json_list(write, _json_head(params) + ',\n  "rows": ', _DECOMPOSE_JSON, *rows.T,
               tail="\n}\n")


def build_limit_rows(params: ModelParams, x: float, alphas, side: str):
    """Rows (alpha, x, t, m_q, ratio) of the one-sided limit study.

    ``ratio`` is the divergence diagnostic t / (2mx/(hbar k (1-alpha))); it
    is only meaningful at trigger points and is None elsewhere.
    """
    def row(x, p):
        t, m_q = time_of_position(x, p), effective_quantum_mass(x, p).m_q
        ratio = _divergence_ratio(t, x, p) if is_trigger_point(x, p) and x != 0.0 else None
        return p.alpha, x, t, m_q, ratio
    return list(LimitSeries.study(x, params, alphas, side, row).values)


def limit_csv(rows, write) -> None:
    a, x, t, m_q, ratio = zip(*rows)
    _fill(write, "%.9g,%.9g,%.9g,%.9g,%s\n", a, x, t, m_q,
          ["" if r is None else fmt9(r) for r in ratio], head="alpha,x,t,m_q,ratio\n")


_LIMIT_JSON = ('    {\n      "alpha": %s,\n      "x": %s,\n      "t": %s,\n      "m_q": %s,\n'
               '      "ratio": %s\n    }')


def limit_json(params: ModelParams, side: str, rows, write) -> None:
    """Byte-identical to ``json.dumps(doc, indent=2) + "\\n"``; no ratio is ``null``."""
    *columns, ratio = zip(*rows)
    _json_list(write, f'{_json_head(params)},\n  "side": {json.dumps(side)},\n  "rows": ',
               _LIMIT_JSON, *columns, np.array(list(map(json.dumps, ratio)), dtype=object),
               tail="\n}\n")


def build_invert_positions(params: ModelParams, t: float, x_min: float,
                           x_max: float) -> list[float]:
    return positions_at_time(t, x_min, x_max, params)


def invert_csv(positions, write) -> None:
    _fill(write, "%.9g\n", positions, head="x\n")


def invert_json(params: ModelParams, t: float, positions, write) -> None:
    """Byte-identical to ``json.dumps(doc, indent=2) + "\\n"``."""
    _json_list(write, f'{_json_head(params)},\n  "t": {json.dumps(t)},\n  "positions": ',
               "    %s", positions, tail="\n}\n")
