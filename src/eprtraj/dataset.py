"""Dataset assembly and CSV/JSON serialization.

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
from .entanglon import _check_alphas, _divergence_ratio, decompose_time, is_trigger_point
from .model import ModelParams
from .trajectory import (
    FORWARD,
    RETROGRADE,
    TURNING,
    TrajectoryEvent,
    TurningPoint,
    _dtdx_array,
    _time_array,
    find_turning_points,
    pair_events,
    positions_at_time,
    time_of_position,
    wedge_bounds,
)


def fmt9(value: float) -> str:
    """Format a float with 9 significant digits."""
    return format(value, ".9g")


def params_dict(params: ModelParams) -> dict:
    return {"hbar": params.hbar, "m": params.m, "alpha": params.alpha,
            "beta": params.beta, "k": params.k, "E": params.E, "M": params.M,
            "tau": params.tau}


@dataclass(frozen=True)
class DatasetRow:
    x: float
    t: float
    dtdx: float
    branch_id: int
    direction: str


@dataclass(frozen=True)
class TrajectoryDataset:
    """Sampled motion with its turning points and paired events."""

    params: ModelParams
    rows: list[DatasetRow]
    turning_points: list[TurningPoint]
    events: list[TrajectoryEvent]


def _sample_grid(x_min: float, x_max: float, samples: int) -> np.ndarray:
    if samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples}")
    if not (math.isfinite(x_min) and math.isfinite(x_max) and x_min < x_max):
        raise ValueError(f"need x_min < x_max, got [{x_min}, {x_max}]")
    return np.linspace(x_min, x_max, samples)


def build_trajectory_dataset(params: ModelParams, x_min: float, x_max: float,
                             samples: int) -> TrajectoryDataset:
    xs = _sample_grid(x_min, x_max, samples)
    ts = _time_array(xs, params)
    slopes = _dtdx_array(xs, params)
    turning = find_turning_points(x_min, x_max, params)
    edges = np.array([tp.x for tp in turning])
    branch = np.searchsorted(edges, xs)
    rows = []
    for x, t, s, b in zip(xs, ts, slopes, branch):
        direction = FORWARD if s > 0.0 else RETROGRADE if s < 0.0 else TURNING
        rows.append(DatasetRow(float(x), float(t), float(s), int(b), direction))
    return TrajectoryDataset(params=params, rows=rows, turning_points=turning,
                             events=pair_events(turning))


def trajectory_csv(ds: TrajectoryDataset) -> str:
    lines = ["x,t,dtdx,branch_id,direction"]
    for r in ds.rows:
        lines.append(f"{fmt9(r.x)},{fmt9(r.t)},{fmt9(r.dtdx)},{r.branch_id},{r.direction}")
    return "\n".join(lines) + "\n"


_ROW_JSON = ('    {{\n      "x": {},\n      "t": {},\n      "dtdx": {},\n'
             '      "branch_id": {},\n      "direction": "{}"\n    }}')
_TURNING_JSON = '    {{\n      "x": {},\n      "t": {},\n      "kind": "{}"\n    }}'
_EVENT_JSON = ('    {{\n      "kind": "{}",\n      "x": {},\n      "t": {},\n'
               '      "branch_ids": [\n        {},\n        {}\n      ]\n    }}')


def _json_num(value: float) -> str:
    """A float as ``json.dumps`` writes it: its repr, or NaN/Infinity/-Infinity."""
    return repr(value) if math.isfinite(value) else json.dumps(value)


def _json_list(records) -> str:
    """A list of pre-rendered records as ``json.dumps(indent=2)`` lays it out at depth 1."""
    return "[\n" + ",\n".join(records) + "\n  ]" if records else "[]"


def trajectory_json(ds: TrajectoryDataset) -> str:
    """Byte-identical to ``json.dumps(doc, indent=2) + "\\n"``, one template per record:
    the indenting encoder's token list takes many times the memory of the text.
    """
    num = _json_num
    rows = _json_list([_ROW_JSON.format(num(r.x), num(r.t), num(r.dtdx), r.branch_id,
                                        r.direction) for r in ds.rows])
    turning = _json_list([_TURNING_JSON.format(num(tp.x), num(tp.t), tp.kind)
                          for tp in ds.turning_points])
    events = _json_list([_EVENT_JSON.format(ev.kind, num(ev.x), num(ev.t), *ev.branch_ids)
                         for ev in ds.events])
    head = json.dumps({"params": params_dict(ds.params)}, indent=2)[:-2]
    return (f'{head},\n  "rows": {rows},\n  "turning_points": {turning},\n'
            f'  "events": {events}\n}}\n')


@dataclass(frozen=True)
class SweepCurve:
    beta: float
    xs: list[float]
    ts: list[float]


@dataclass(frozen=True)
class SweepDataset:
    """One trajectory per phase shift, plus the shared wedge envelope."""

    params: ModelParams
    curves: list[SweepCurve]
    wedge: list[tuple[float, float, float]]  # (x, t_lower, t_upper)


def build_sweep_dataset(params: ModelParams, betas, x_min: float, x_max: float,
                        samples: int) -> SweepDataset:
    beta_list = list(betas)
    if not beta_list:
        raise ValueError("beta list must not be empty")
    xs = _sample_grid(x_min, x_max, samples)
    curves = []
    for beta in beta_list:
        ts = _time_array(xs, params.replace(beta=beta))
        curves.append(SweepCurve(beta=beta, xs=[float(v) for v in xs],
                                 ts=[float(v) for v in ts]))
    wedge = []
    for x in xs:
        wb = wedge_bounds(float(x), params) if x >= 0.0 else None
        if wb is not None:
            wedge.append((float(x), wb.t_lower, wb.t_upper))
    return SweepDataset(params=params, curves=curves, wedge=wedge)


def sweep_csv(ds: SweepDataset) -> str:
    bounds = {x: (lo, hi) for x, lo, hi in ds.wedge}
    lines = ["beta,x,t,t_lower,t_upper"]
    for curve in ds.curves:
        for x, t in zip(curve.xs, curve.ts):
            lo, hi = bounds.get(x, (math.nan, math.nan))
            lines.append(f"{fmt9(curve.beta)},{fmt9(x)},{fmt9(t)},{fmt9(lo)},{fmt9(hi)}")
    return "\n".join(lines) + "\n"


def sweep_json(ds: SweepDataset) -> str:
    doc = {
        "params": params_dict(ds.params),
        "curves": [{"beta": c.beta,
                    "rows": [{"x": x, "t": t} for x, t in zip(c.xs, c.ts)]}
                   for c in ds.curves],
        "wedge": [{"x": x, "t_lower": lo, "t_upper": hi} for x, lo, hi in ds.wedge],
    }
    return json.dumps(doc, indent=2) + "\n"


def build_decompose_rows(params: ModelParams, x_min: float, x_max: float,
                         samples: int) -> list[tuple[float, float, float, float, float]]:
    xs = _sample_grid(x_min, x_max, samples)
    rows = []
    for x in xs:
        d = decompose_time(float(x), params)
        rows.append((float(x), d.c_p1, d.c_p2, d.c_ent, d.total))
    return rows


def decompose_csv(rows) -> str:
    lines = ["x,c_p1,c_p2,c_ent,total"]
    for row in rows:
        lines.append(",".join(fmt9(v) for v in row))
    return "\n".join(lines) + "\n"


def decompose_json(params: ModelParams, rows) -> str:
    doc = {"params": params_dict(params),
           "rows": [{"x": x, "c_p1": a, "c_p2": b, "c_ent": c, "total": t}
                    for x, a, b, c, t in rows]}
    return json.dumps(doc, indent=2) + "\n"


def build_limit_rows(params: ModelParams, x: float, alphas, side: str):
    """Rows (alpha, x, t, m_q, ratio) of the one-sided limit study.

    ``ratio`` is the divergence diagnostic t / (2mx/(hbar k (1-alpha))); it
    is only meaningful at trigger points and is None elsewhere.
    """
    alphas = list(alphas)
    _check_alphas(alphas, side, "limit")
    rows = []
    for a in alphas:
        p = params.replace(alpha=a)
        t = time_of_position(x, p)
        m_q = effective_quantum_mass(x, p).m_q
        ratio = _divergence_ratio(t, x, p) if is_trigger_point(x, p) and x != 0.0 else None
        rows.append((a, x, t, m_q, ratio))
    return rows


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
    return "\n".join(["x"] + [fmt9(x) for x in positions]) + "\n"


def invert_json(params: ModelParams, t: float, positions) -> str:
    doc = {"params": params_dict(params), "t": t, "positions": list(positions)}
    return json.dumps(doc, indent=2) + "\n"
