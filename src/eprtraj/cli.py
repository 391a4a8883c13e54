"""Command-line interface: datasets, figures and limit/decomposition reports.

Exit codes: 0 on success, 2 on argument/validation errors, 3 on numerical
failures (standing-wave nodes, turning-point singularities).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import dataset as ds
from .model import ModelParams, validate_params
from .svgfig import render_figure

_TABULAR = ("csv", "json")


@dataclass
class RunConfig:
    """Normalized invocation: subcommand, parameters, range, output, format."""

    command: str
    params: ModelParams
    x_min: float
    x_max: float
    samples: int
    fmt: str
    out: Path | None

    def validate(self) -> None:
        if self.samples < 2:
            raise ValueError(f"samples must be at least 2, got {self.samples}")
        if not self.x_min < self.x_max:
            raise ValueError(f"need xmin < xmax, got [{self.x_min}, {self.x_max}]")
        if self.command == "figure":
            if self.fmt != "svg":
                raise ValueError(f"figure emits svg only, got format {self.fmt!r}")
        elif self.fmt not in _TABULAR:
            raise ValueError(f"{self.command} emits csv or json, got {self.fmt!r}")


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"{flag} must be a comma-separated list of numbers: {exc}")
    if not values:
        raise ValueError(f"{flag} must not be empty")
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--hbar", type=float, default=1.0)
    common.add_argument("--m", type=float, default=1.0)
    common.add_argument("--alpha", type=float, default=0.5)
    common.add_argument("--beta", type=float, default=0.0)
    common.add_argument("--k", type=float, default=math.pi / 2)
    common.add_argument("--tau", type=float, default=0.0)
    common.add_argument("--xmin", type=float, default=0.0)
    common.add_argument("--xmax", type=float, default=4.0)
    common.add_argument("--samples", type=int, default=2001)
    common.add_argument("--format", choices=("csv", "json", "svg"), default=None)
    common.add_argument("--out", type=Path, default=None,
                        help="output path (stdout when omitted)")

    parser = argparse.ArgumentParser(
        prog="eprtraj",
        description="Quantum-trajectory datasets and figures for an entangled "
                    "two-particle recoil molecule.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("trajectory", parents=[common],
                   help="sampled motion with turning points and events")
    sweep = sub.add_parser("sweep", parents=[common],
                           help="one trajectory per phase shift, wedge appended")
    sweep.add_argument("--betas", required=True,
                       help="comma-separated phase shifts")
    figure = sub.add_parser("figure", parents=[common],
                            help="render figure 1 or 2 as SVG")
    figure.add_argument("figure_id", type=int, choices=(1, 2))
    figure.add_argument("--markers", action="store_true",
                        help="draw creation/annihilation markers")
    sub.add_parser("decompose", parents=[common],
                   help="particle/entanglon time contributions over the range")
    limit = sub.add_parser("limit", parents=[common],
                           help="one-sided alpha -> 1 study at a fixed position")
    limit.add_argument("--side", choices=("below", "above"), required=True)
    limit.add_argument("--alphas", required=True,
                       help="comma-separated alpha sequence")
    limit.add_argument("--x", type=float, required=True)
    invert = sub.add_parser("invert", parents=[common],
                            help="all positions occupied at a fixed time")
    invert.add_argument("--t", type=float, required=True)
    sub.add_parser("params", parents=[common],
                   help="echo the validated parameter set")
    return parser


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _default_format(command: str) -> str:
    if command == "figure":
        return "svg"
    if command == "params":
        return "json"
    return "csv"


def _run(args: argparse.Namespace) -> None:
    params = validate_params(args.hbar, args.m, args.alpha, args.beta, args.k,
                             args.tau)
    fmt = args.format or _default_format(args.command)
    config = RunConfig(command=args.command, params=params, x_min=args.xmin,
                       x_max=args.xmax, samples=args.samples, fmt=fmt,
                       out=args.out)
    config.validate()

    if args.command == "trajectory":
        data = ds.build_trajectory_dataset(params, config.x_min, config.x_max,
                                           config.samples)
        text = ds.trajectory_csv(data) if fmt == "csv" else ds.trajectory_json(data)
    elif args.command == "sweep":
        betas = _parse_float_list(args.betas, "--betas")
        data = ds.build_sweep_dataset(params, betas, config.x_min, config.x_max,
                                      config.samples)
        text = ds.sweep_csv(data) if fmt == "csv" else ds.sweep_json(data)
    elif args.command == "figure":
        text = render_figure(args.figure_id, params, config.x_min, config.x_max,
                             config.samples, markers=args.markers)
    elif args.command == "decompose":
        rows = ds.build_decompose_rows(params, config.x_min, config.x_max,
                                       config.samples)
        text = ds.decompose_csv(rows) if fmt == "csv" else ds.decompose_json(params, rows)
    elif args.command == "limit":
        alphas = _parse_float_list(args.alphas, "--alphas")
        rows = ds.build_limit_rows(params, args.x, alphas, args.side)
        text = ds.limit_csv(rows) if fmt == "csv" else ds.limit_json(params, args.side, rows)
    elif args.command == "invert":
        positions = ds.build_invert_positions(params, args.t, config.x_min,
                                              config.x_max)
        text = ds.invert_csv(positions) if fmt == "csv" \
            else ds.invert_json(params, args.t, positions)
    else:  # params
        import json
        text = json.dumps(ds.params_dict(params), indent=2) + "\n"
    _emit(text, config.out)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
