"""Dataset assembly and CSV/JSON serialization.

Datasets are numpy columns.  Writers repeat one ``%`` template per row and
fill a chunk of rows per ``%`` operation, with no Python loop over the rows.
CSV numbers carry 9 significant digits with C-locale formatting; JSON floats
use Python's shortest round-trip representation, so a re-read reproduces
every value bit-identically.
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


def _fill(template: str, *columns) -> str:
    """``template % row`` for every row of the equal-length ``columns``, joined.

    Each chunk of rows is one ``%`` on the template repeated, its cells taken
    from an object buffer.  ``"%.9g" % v`` equals :func:`fmt9` of ``v``.
    """
    n = len(columns[0])
    buf = np.empty((min(n, _CHUNK_ROWS), len(columns)), dtype=object)
    parts = []
    for lo in range(0, n, _CHUNK_ROWS):
        m = min(n - lo, _CHUNK_ROWS)
        for j, column in enumerate(columns):
            buf[:m, j] = column[lo:lo + m]
        parts.append((template * m) % tuple(buf[:m].ravel()))
    return "".join(parts)


def _json_num(values) -> np.ndarray:
    """Floats as ``json.dumps`` writes them (repr, or NaN/Infinity/-Infinity),
    rendered once into an object array of text for ``%s`` cells."""
    values = np.asarray(values, dtype=float)
    cells = np.fromiter(map(repr, values.ravel().tolist()), dtype=object,
                        count=values.size).reshape(values.shape)
    bad = ~np.isfinite(values)
    cells[bad] = [json.dumps(v) for v in values[bad].tolist()]
    return cells


def _json_list(record: str, *columns, indent: str = "  ") -> str:
    """One ``record`` per row, laid out as ``json.dumps(indent=2)`` lays out a
    list whose closing bracket sits at ``indent``."""
    if not len(columns[0]):
        return "[]"
    return "[\n" + _fill(record + ",\n", *columns)[:-2] + "\n" + indent + "]"


def _json_doc(params: ModelParams, **lists: str) -> str:
    """``json.dumps({"params": ..., **lists}, indent=2) + "\\n"``, lists pre-rendered."""
    head = json.dumps({"params": params_dict(params)}, indent=2)[:-2]
    return head + "".join(f',\n  "{key}": {text}' for key, text in lists.items()) + "\n}\n"


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


def trajectory_csv(ds: TrajectoryDataset) -> str:
    return "x,t,dtdx,branch_id,direction\n" + _fill(
        "%.9g,%.9g,%.9g,%d,%s\n", ds.x, ds.t, ds.dtdx, ds.branch_id, ds.direction)


_ROW_JSON = ('    {\n      "x": %s,\n      "t": %s,\n      "dtdx": %s,\n'
             '      "branch_id": %d,\n      "direction": "%s"\n    }')
_TURNING_JSON = '    {\n      "x": %s,\n      "t": %s,\n      "kind": "%s"\n    }'
_EVENT_JSON = ('    {\n      "kind": "%s",\n      "x": %s,\n      "t": %s,\n'
               '      "branch_ids": [\n        %d,\n        %d\n      ]\n    }')


def trajectory_json(ds: TrajectoryDataset) -> str:
    """Byte-identical to ``json.dumps(doc, indent=2) + "\\n"``, one template per record:
    the indenting encoder's token list takes many times the memory of the text.
    Event ``i`` sits on turning point ``i`` and joins branches ``i`` and ``i + 1``.
    """
    tps = ds.turning_points
    x, t, top = _json_num(tps.x), _json_num(tps.t), tps.maximum
    ids = np.arange(len(tps))
    return _json_doc(
        ds.params,
        rows=_json_list(_ROW_JSON, _json_num(ds.x), _json_num(ds.t), _json_num(ds.dtdx),
                        ds.branch_id, ds.direction),
        turning_points=_json_list(_TURNING_JSON, x, t,
                                  np.where(top, TEMPORAL_MAX, TEMPORAL_MIN)),
        events=_json_list(_EVENT_JSON, np.where(top, ANNIHILATION, CREATION), x, t, ids,
                          ids + 1))


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
    lower, upper = (np.where(xs < 0.0, math.nan, edge) for edge in _wedge_edges(xs, params))
    return SweepDataset(params, beta_list, xs, t, t_lower=lower, t_upper=upper)


def sweep_csv(ds: SweepDataset) -> str:
    xs = _fill("%.9g\n", ds.xs).split("\n")[:-1]
    wedge = _fill("%.9g,%.9g\n", ds.t_lower, ds.t_upper).split("\n")[:-1]
    return "beta,x,t,t_lower,t_upper\n" + "".join(
        _fill(fmt9(beta) + ",%s,%.9g,%s\n", xs, t, wedge) for beta, t in zip(ds.betas, ds.t))


_CURVE_JSON = '    {\n      "beta": %s,\n      "rows": %s\n    }'
_POINT_JSON = '        {\n          "x": %s,\n          "t": %s\n        }'
_WEDGE_JSON = '    {\n      "x": %s,\n      "t_lower": %s,\n      "t_upper": %s\n    }'


def sweep_json(ds: SweepDataset) -> str:
    """Byte-identical to ``json.dumps(doc, indent=2) + "\\n"``; the wedge lists x >= 0 only."""
    x = _json_num(ds.xs)
    rows = [_json_list(_POINT_JSON, x, _json_num(t), indent="      ") for t in ds.t]
    keep = ds.xs >= 0.0
    return _json_doc(
        ds.params,
        curves=_json_list(_CURVE_JSON, _json_num(ds.betas), rows),
        wedge=_json_list(_WEDGE_JSON, x[keep], _json_num(ds.t_lower[keep]),
                         _json_num(ds.t_upper[keep])))


def build_decompose_rows(params: ModelParams, x_min: float, x_max: float,
                         samples: int) -> np.ndarray:
    """Columns x, c_p1, c_p2, c_ent, total of :func:`decompose_time`, shape (samples, 5)."""
    xs = _sample_grid(x_min, x_max, samples, params)
    return np.column_stack((xs, *_time_parts(xs, params, np)))


def decompose_csv(rows: np.ndarray) -> str:
    return "x,c_p1,c_p2,c_ent,total\n" + _fill("%.9g,%.9g,%.9g,%.9g,%.9g\n", *rows.T)


_DECOMPOSE_JSON = ('    {\n      "x": %s,\n      "c_p1": %s,\n      "c_p2": %s,\n'
                   '      "c_ent": %s,\n      "total": %s\n    }')


def decompose_json(params: ModelParams, rows: np.ndarray) -> str:
    """Byte-identical to ``json.dumps(doc, indent=2) + "\\n"``."""
    return _json_doc(params, rows=_json_list(_DECOMPOSE_JSON, *_json_num(rows).T))


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


def limit_csv(rows) -> str:
    lines = ["alpha,x,t,m_q,ratio"]
    for a, x, t, m_q, ratio in rows:
        tail = fmt9(ratio) if ratio is not None else ""
        lines.append(f"{fmt9(a)},{fmt9(x)},{fmt9(t)},{fmt9(m_q)},{tail}")
    return "\n".join(lines) + "\n"


def limit_json(params: ModelParams, side: str, rows) -> str:
    doc = {"params": params_dict(params), "side": side,
           "rows": [{"alpha": a, "x": x, "t": t, "m_q": m_q, "ratio": ratio}
                    for a, x, t, m_q, ratio in rows]}
    return json.dumps(doc, indent=2) + "\n"


def build_invert_positions(params: ModelParams, t: float, x_min: float,
                           x_max: float) -> list[float]:
    return positions_at_time(t, x_min, x_max, params)


def invert_csv(positions) -> str:
    return "x\n" + _fill("%.9g\n", positions)


def invert_json(params: ModelParams, t: float, positions) -> str:
    """Byte-identical to ``json.dumps(doc, indent=2) + "\\n"``."""
    return _json_doc(params, t=json.dumps(t),
                     positions=_json_list("    %s", _json_num(positions)))
