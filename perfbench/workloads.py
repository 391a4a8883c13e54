"""Seeded operation lists for the four workloads.

An operation is a dict.  ``kind == "cli"`` ops carry the ``argv`` handed to
``eprtraj.cli.main`` (the runner appends ``--out``) plus the decoded inputs the
checker needs; ``kind == "lib"`` ops name a library call in ``child.LIBRARY``.
Every pass of a run repeats the same list.  The seed only jitters
parameters inside narrow bands, so the work per pass stays about the same
from seed to seed while the inputs differ.
"""

from __future__ import annotations

import functools
import math
import random

DEFAULTS = {"hbar": 1.0, "m": 1.0, "alpha": 0.5, "beta": 0.0, "k": math.pi / 2, "tau": 0.0}


def _params(rng: random.Random, alpha=(0.4, 0.6), k=(1.45, 1.7), beta=(-math.pi, math.pi)):
    return {**DEFAULTS, "alpha": rng.uniform(*alpha), "beta": rng.uniform(*beta),
            "k": rng.uniform(*k)}


def cli_op(cmd: str, p: dict, fmt: str, *, xmin=0.0, xmax=4.0, samples=2001,
         extra=(), **fields) -> dict:
    argv = [cmd] + list(extra)
    if cmd != "figure":
        argv += ["--format", fmt]
    for name in ("hbar", "m", "alpha", "beta", "k", "tau"):
        argv += [f"--{name}", repr(p[name])]
    argv += ["--xmin", repr(xmin), "--xmax", repr(xmax), "--samples", str(samples)]
    return {"kind": "cli", "cmd": cmd, "argv": argv, "fmt": fmt, "p": p,
            "xmin": xmin, "xmax": xmax, "samples": samples, **fields}


def _grid(n: int, lo: float = 0.0, hi: float = 10.0) -> dict:
    return {"lo": lo, "hi": hi, "n": n}


def _lib(fn: str, layer: str, p: dict, **args) -> dict:
    return {"kind": "lib", "fn": fn, "layer": layer, "p": p, **args}


def sweep_op(p: dict, betas: list, fmt: str, **grid) -> dict:
    return cli_op("sweep", p, fmt, extra=["--betas", ",".join(repr(b) for b in betas)],
                betas=betas, **grid)


def figure_op(p: dict, figure_id: int, markers: bool, **grid) -> dict:
    extra = [str(figure_id)] + (["--markers"] if markers else [])
    return cli_op("figure", p, "svg", extra=extra, figure_id=figure_id, markers=markers,
                **grid)


def limit_op(p: dict, x: float, alphas: list, side: str) -> dict:
    extra = ["--side", side, "--alphas", ",".join(repr(a) for a in alphas), "--x", repr(x)]
    return cli_op("limit", p, "csv", extra=extra, x=x, alphas=alphas, side=side)


def invert_op(p: dict, t: float, fmt: str, xmin: float, xmax: float) -> dict:
    return cli_op("invert", p, fmt, extra=["--t", repr(t)], xmin=xmin, xmax=xmax, t=t)


def _band_time(p: dict, x_center: float) -> float:
    """A time whose inversion band sits around ``x_center`` (mid-wedge)."""
    a = p["alpha"]
    return p["tau"] + p["m"] * (1.0 - a * a) / (p["hbar"] * p["k"]) * x_center / (1.0 + a * a)


def bulk_emit(rng: random.Random) -> list:
    """Large CSV datasets: assembly and serialize dominate, rows and RSS are high."""
    offset = rng.uniform(0.0, math.pi / 4)
    betas = [offset + j * math.pi / 4 for j in range(8)]
    return [
        cli_op("trajectory", _params(rng), "csv", xmax=rng.uniform(95.0, 105.0),
               samples=400_000),
        sweep_op(_params(rng), betas, "csv", xmax=rng.uniform(95.0, 105.0), samples=40_000),
        cli_op("decompose", _params(rng), "csv", xmax=rng.uniform(95.0, 105.0),
               samples=80_000),
    ]


def root_scan(rng: random.Random) -> list:
    """High-k inversions and turning-point scans with thousands of roots per call."""
    ops = []
    # The k=2000 scan over [0, 20] runs twice so that it holds the top fifth of
    # the latencies and latency_p90_ms lands inside it, not on a cluster edge.
    for k0, xmax, samples in ((2000.0, 20.0, 201), (2000.0, 20.0, 201), (2000.0, 1.0, 101),
                              (200.0, 100.0, 201), (50.0, 100.0, 201)):
        p = _params(rng, alpha=(0.48, 0.52), k=(0.99 * k0, 1.01 * k0))
        ops.append(cli_op("trajectory", p, "json", xmax=xmax, samples=samples))
    # Four times within 2 % of one band at k ~ 2000 cost about the same and
    # hold ranks 3-6 of the ten latencies of a pass, so latency_p50_ms lands
    # in the middle of their cluster.
    for k0, xmax, centers in ((2000.0, 20.0, (8.0,) * 4), (200.0, 100.0, (50.0,))):
        p = _params(rng, alpha=(0.48, 0.52), k=(0.99 * k0, 1.01 * k0))
        for c in centers:
            t = _band_time(p, c * rng.uniform(0.98, 1.02))
            ops.append(invert_op(p, t, "json", 0.0, xmax))
    return ops


def interactive_mix(rng: random.Random) -> list:
    """The README invocations at default sizes, repeated to fill a pass.

    Weights: six ``trajectory --format json`` per set form the middle latency
    cluster, with six faster calls below it and six slower ones (``sweep`` and
    ``figure 2``, about equal) above, so latency_p50_ms lands in the middle of
    the JSON cluster and latency_p90_ms in the middle of the top one.  With
    one of each, both percentiles sit on the edge between two clusters and
    jump from seed to seed.
    """
    p = functools.partial(_params, rng)
    ops = []
    for _ in range(3):
        betas = [0.0, math.pi / 4, math.pi / 2]
        ops += [
            cli_op("params", p(), "json"),
            invert_op(p(), rng.uniform(0.8, 1.2), "csv", 0.0, 3.0),
            limit_op(p(), rng.uniform(0.5, 2.0), [0.9, 0.99, 0.999], "below"),
            cli_op("decompose", p(), "csv", xmax=3.0, samples=301),
            figure_op(p(), 1, False),
            cli_op("trajectory", p(), "csv", samples=4000),
            *[cli_op("trajectory", p(), "json") for _ in range(6)],
            *[sweep_op(p(), betas, "json") for _ in range(3)],
            *[figure_op(p(), 2, True) for _ in range(3)],
        ]
    return ops


def _trigger_x(p: dict, n: int) -> float:
    """n-th positive position with cos(2 k x + beta) = -1."""
    return ((math.pi - p["beta"]) % (2.0 * math.pi) + 2.0 * math.pi * n) / (2.0 * p["k"])


def _unwrap_x(p: dict, steps: float) -> float:
    """Position whose unwrap from 0 takes about ``steps`` marching steps."""
    a, k = p["alpha"], p["k"]
    return steps * math.pi * (1.0 - a) / (8.0 * k * (1.0 + a))


# Loop lengths chosen so each loop takes about the same time (about 12 ms on
# a shared 2-core VM).  Per set, the ten loops form the middle latency cluster
# with seven fast calls below and seven unwraps above, so latency_p50_ms lands
# in the middle of the loops and latency_p90_ms in the middle of the unwraps.
_LOOPS = {"time_of_position": 16_000, "dtdx": 14_000, "decompose_time": 4_000,
          "effective_quantum_mass": 3_000, "quantum_potential": 20_000,
          "amplitude_squared": 36_000, "psi_polar": 4_400, "psi_bipolar": 17_000,
          "wedge_bounds": 8_000}


def kernel_library(rng: random.Random) -> list:
    """In-process kernel calls; one small ``limit`` CLI call is the only CLI path.

    Unwraps draw alpha in [0.999, 0.9995] and place x (|x| about 37-90) so the
    march length is fixed; the alpha -> 1 series at trigger points stop where
    the library's node threshold (D >= 1e-14) and its finite-difference m_q
    still hold.
    """
    p = functools.partial(_params, rng)
    below = [1.0 - 10.0 ** -j for j in range(1, 10)]
    ops = []
    for _ in range(4):
        unwrap = [_params(rng, alpha=(0.999, 0.9995)) for _ in range(7)]
        q = p()
        lp = p()
        ops += [
            *[_lib(fn, "kernel", p(), **_grid(n)) for fn, n in _LOOPS.items()],
            *[_lib("reduced_action_unwrapped", "kernel", pa,
                   xs=[math.copysign(_unwrap_x(pa, rng.uniform(5.8e5, 6.2e5)), j % 2 - 0.5)])
              for j, pa in enumerate(unwrap)],
            _lib("action_sample", "kernel", _params(rng, alpha=(0.99, 0.99)),
                 xs=[rng.uniform(75.0, 85.0), -rng.uniform(75.0, 85.0)]),
            _lib("epr_limit_time", "kernel", q, x=rng.uniform(0.5, 3.0), alphas=below,
                 side="below"),
            _lib("epr_limit_time", "kernel", q, x=-rng.uniform(0.5, 3.0),
                 alphas=[1.0 + 10.0 ** -j for j in range(1, 10)], side="above"),
            _lib("epr_limit_time", "kernel", q, x=_trigger_x(q, 1), alphas=below[:6],
                 side="below"),
            _lib("epr_limit_mass", "kernel", q, x=_trigger_x(q, 2), alphas=below[:3]),
            _lib("epr_limit_mass", "kernel", q, x=rng.uniform(0.5, 3.0), alphas=below),
            _lib("positions_at_time", "roots", p(), t=rng.uniform(15.0, 20.0),
                 lo=0.0, hi=50.0),
            limit_op(lp, _trigger_x(lp, 1), below[:3], "below"),
        ]
    return ops


WORKLOADS = {
    "bulk_emit": bulk_emit,
    "root_scan": root_scan,
    "interactive_mix": interactive_mix,
    "kernel_library": kernel_library,
}


def build(name: str, seed: int) -> list:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
