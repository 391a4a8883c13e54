"""Command-line interface: datasets, figures and limit/decomposition reports.

Exit codes: 0 success, 1 output not writable, 2 argument/validation error (a quantity past the
float range or a build too large for memory included), 3 numerical failure (any ArithmeticError).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import re
import sys
from pathlib import Path

from . import dataset as ds
from .model import validate_params
from .svgfig import FIGURES, render_figure, time_axis


def _parse_float_list(text: str, flag: str) -> list[float]:
    """The numbers of ``text``; an empty list is left to the study or sweep to reject."""
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"{flag} must be a comma-separated list of numbers: {exc}")


def _join_negative_values(argv: list[str]) -> list[str]:
    """``--flag -1e-3`` as ``--flag=-1e-3``: argparse (3.11, for one) reads a
    dash-led option value as a number only in plain decimal form, so ``-1e-3``,
    ``-inf`` or ``-1e-3,0.5`` would be taken for an unknown option."""
    out = [""]
    for tok in argv:
        if re.fullmatch(r"--[^=]+", out[-1]) and re.match(r"-([.\d]|inf|nan)", tok, re.I):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out[1:]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process from ``_COMMANDS``; parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    for name, default in (("hbar", 1.0), ("m", 1.0), ("alpha", 0.5), ("beta", 0.0),
                          ("k", math.pi / 2), ("tau", 0.0), ("xmin", 0.0), ("xmax", 4.0)):
        common.add_argument(f"--{name}", type=float, default=default)
    common.add_argument("--samples", type=int, default=2001)
    common.add_argument("--out", type=Path, default=None,
                        help="output path (stdout when omitted)")

    parser = argparse.ArgumentParser(
        prog="eprtraj",
        description="Quantum-trajectory datasets and figures for an entangled "
                    "two-particle recoil molecule.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, arguments, _, writers) in _COMMANDS.items():
        command = sub.add_parser(name, parents=[common], help=help_)
        for argument, options in arguments.items():
            command.add_argument(argument, **options)
        command.add_argument("--format", choices=tuple(writers), default=next(iter(writers)))
    return parser


def _emit(text: str, handle) -> None:
    handle.write(text)


def _figure_data(a: argparse.Namespace, params, betas):
    """The figure's sweep, its time axis checked before the file is opened, and markers."""
    sweep = ds.build_sweep_dataset(params, betas, a.xmin, a.xmax, a.samples)
    time_axis(sweep.t)
    return sweep, (ds.turning_points_by_beta(a.xmin, a.xmax, params, betas) if a.markers
                   else [()] * len(betas))


# command: (help, {argument: add_argument options}, builder, {format: writer(args, params,
# data, write)}), the one declaration of a command: its subparser takes the common options,
# its own arguments and a --format of exactly its writers' formats, the first the default.
# Names are looked up when a command runs, so wrappers installed after import (as
# perfbench/tracing.py installs them) see every call.
_COMMANDS = {
    "trajectory": ("sampled motion with turning points and events", {},
                   lambda a, p: ds.build_trajectory_dataset(p, a.xmin, a.xmax, a.samples),
                   {"csv": lambda a, p, data, w: ds.trajectory_csv(data, w),
                    "json": lambda a, p, data, w: ds.trajectory_json(data, w)}),
    "sweep": ("one trajectory per phase shift, wedge appended",
              {"--betas": dict(required=True, help="comma-separated phase shifts")},
              lambda a, p: ds.build_sweep_dataset(p, _parse_float_list(a.betas, "--betas"),
                                                  a.xmin, a.xmax, a.samples),
              {"csv": lambda a, p, data, w: ds.sweep_csv(data, w),
               "json": lambda a, p, data, w: ds.sweep_json(data, w)}),
    "figure": ("render figure 1 or 2 as SVG",
               {"figure_id": dict(type=int, choices=sorted(FIGURES)),
                "--markers": dict(action="store_true", help="draw creation/annihilation markers")},
               lambda a, p: _figure_data(a, p, FIGURES[a.figure_id][0]),
               {"svg": lambda a, p, data, w: render_figure(a.figure_id, *data, w)}),
    "decompose": ("particle/entanglon time contributions over the range", {},
                  lambda a, p: ds.build_decompose_rows(p, a.xmin, a.xmax, a.samples),
                  {"csv": lambda a, p, rows, w: ds.decompose_csv(rows, w),
                   "json": lambda a, p, rows, w: ds.decompose_json(p, rows, w)}),
    "limit": ("one-sided alpha -> 1 study at a fixed position",
              {"--side": dict(choices=("below", "above"), required=True),
               "--alphas": dict(required=True, help="comma-separated alpha sequence"),
               "--x": dict(type=float, required=True)},
              lambda a, p: ds.build_limit_rows(p, a.x, _parse_float_list(a.alphas, "--alphas"),
                                               a.side),
              {"csv": lambda a, p, rows, w: ds.limit_csv(rows, w),
               "json": lambda a, p, rows, w: ds.limit_json(p, a.side, rows, w)}),
    "invert": ("all positions occupied at a fixed time", {"--t": dict(type=float, required=True)},
               lambda a, p: ds.build_invert_positions(p, a.t, a.xmin, a.xmax),
               {"csv": lambda a, p, xs, w: ds.invert_csv(xs, w),
                "json": lambda a, p, xs, w: ds.invert_json(p, a.t, xs, w)}),
    "params": ("echo the validated parameter set", {}, lambda a, p: ds.params_dict(p),
               {"json": lambda a, p, doc, w: ds.write_json(doc, w)}),
}


def _run(args: argparse.Namespace) -> None:
    """Build (roots included), then stream to ``--out`` or stdout: a failed build makes no file."""
    params = validate_params(args.hbar, args.m, args.alpha, args.beta, args.k,
                             args.tau)
    _, _, build, writers = _COMMANDS[args.command]
    data = build(args, params)
    with (args.out.open("w") if args.out else contextlib.nullcontext(sys.stdout)) as handle:
        writers[args.format](args, params, data, lambda text: _emit(text, handle))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _run(args)
    except (ValueError, MemoryError) as exc:  # a build too large to hold: before --out opens
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
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
