"""Layer spans and counters recorded from outside the eprtraj package.

``install`` replaces each traced name in the module where its caller looks it
up (for example ``eprtraj.dataset.find_turning_points``), so ``src/`` needs no
hooks.  Entry points that run once per operation get a span; scalar kernel
calls made inside bisection and row loops only bump a counter, because a span
per call would cost more than the call.  Spans stay in memory until
``export``; ``layer_totals`` turns them into per-layer self time.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter
from time import perf_counter

LAYERS = ("kernel", "roots", "assembly", "serialize", "cli")


def _points(tracer, bound, result):
    tracer.counts["kernel.points"] += len(next(iter(bound.values())))


def _turning(tracer, bound, result):
    tracer.root_calls.append(("tp", bound["params"], None, bound["x_min"], bound["x_max"],
                              result))


def _positions(tracer, bound, result):
    tracer.root_calls.append(("inv", bound["params"], bound["t"], bound["x_min"],
                              bound["x_max"], result))


def _rows(tracer, bound, result):
    if hasattr(result, "rows"):
        n = len(result.rows)
    elif hasattr(result, "curves"):
        n = sum(len(c.xs) for c in result.curves)
    else:
        n = len(result)
    tracer.counts["assembly.rows"] += n


def _bytes(tracer, bound, result):
    tracer.counts["serialize.bytes"] += len(bound["text"].encode())


_DATASET_WRITERS = ("trajectory_csv", "trajectory_json", "sweep_csv", "sweep_json",
                    "decompose_csv", "decompose_json", "limit_csv", "limit_json",
                    "invert_csv", "invert_json")
_DATASET_BUILDERS = ("build_trajectory_dataset", "build_sweep_dataset",
                     "build_decompose_rows", "build_limit_rows", "build_invert_positions")

# (module, name, layer, hook): one span per call; the hook, if any, derives
# counts and root lists from the call's arguments and result.
SPANS = [
    ("eprtraj.trajectory", "_time_array", "kernel", _points),
    ("eprtraj.trajectory", "_dtdx_array", "kernel", _points),
    ("eprtraj.dataset", "_time_array", "kernel", _points),
    ("eprtraj.dataset", "_dtdx_array", "kernel", _points),
    ("eprtraj", "reduced_action_unwrapped", "kernel", None),
    ("eprtraj", "action_sample", "kernel", None),
    ("eprtraj", "epr_limit_time", "kernel", None),
    ("eprtraj", "epr_limit_mass", "kernel", None),
    ("eprtraj", "find_turning_points", "roots", _turning),
    ("eprtraj", "positions_at_time", "roots", _positions),
    ("eprtraj", "segment_trajectory", "roots", None),
    ("eprtraj.trajectory", "find_turning_points", "roots", _turning),
    ("eprtraj.dataset", "find_turning_points", "roots", _turning),
    ("eprtraj.dataset", "positions_at_time", "roots", _positions),
    *[("eprtraj.dataset", name, "assembly", _rows) for name in _DATASET_BUILDERS],
    ("eprtraj.svgfig", "build_trajectory_dataset", "assembly", _rows),
    *[("eprtraj.dataset", name, "serialize", None) for name in _DATASET_WRITERS],
    ("eprtraj.cli", "render_figure", "serialize", None),
    ("eprtraj.cli", "_emit", "serialize", _bytes),
    ("eprtraj.cli", "main", "cli", None),
]

# (module, name, counter): a counter bump per call and no span.
COUNTS = [
    *[("eprtraj", name, "kernel.scalar_calls")
      for name in ("time_of_position", "dtdx", "amplitude_squared", "psi_polar", "psi_bipolar",
                   "reduced_action_principal", "quantum_potential", "effective_quantum_mass",
                   "decompose_time", "wedge_bounds")],
    ("eprtraj.trajectory", "time_of_position", "kernel.scalar_calls"),
    ("eprtraj.trajectory", "dtdx", "kernel.scalar_calls"),
    ("eprtraj.trajectory", "bisect_root", "roots.bisect_calls"),
    *[("eprtraj.dataset", name, "kernel.scalar_calls")
      for name in ("time_of_position", "wedge_bounds", "decompose_time",
                   "effective_quantum_mass")],
    ("eprtraj.entanglon", "time_of_position", "kernel.scalar_calls"),
    ("eprtraj.entanglon", "effective_quantum_mass", "kernel.scalar_calls"),
]


class Tracer:
    """Spans ``[name, layer, start, end, parent]`` and counters of one pass."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.root_calls: list = []
        self._stack: list = []

    def span(self, name: str, layer: str, fn, hook=None):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if hook else None

        def wrapper(*args, **kwargs):
            record = [name, layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return wrapper

    def count(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def export(self) -> dict:
        roots = []
        for kind, params, t, lo, hi, result in self.root_calls:
            xs = [r if isinstance(r, float) else r.x for r in result]
            p = {f: getattr(params, f) for f in ("hbar", "m", "alpha", "beta", "k", "tau")}
            roots.append({"kind": kind, "p": p, "t": t, "lo": lo, "hi": hi, "xs": xs})
        return {"spans": self.spans, "counts": dict(self.counts), "roots": roots}


def install(tracer: Tracer) -> None:
    """Wrap every traced name; originals are looked up before any is replaced."""
    originals = []
    for modname, name, *rest in SPANS + COUNTS:
        module = importlib.import_module(modname)
        originals.append((module, name, getattr(module, name), rest))
    for module, name, fn, rest in originals:
        if len(rest) == 2:
            layer, hook = rest
            setattr(module, name, tracer.span(f"{module.__name__}.{name}", layer, fn, hook))
        else:
            setattr(module, name, tracer.count(rest[0], fn))


def layer_totals(spans: list) -> tuple:
    """Self time per layer: span duration minus the part its children cover."""
    child_time = [0.0] * len(spans)
    for name, layer, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for (name, layer, start, end, parent), covered in zip(spans, child_time):
        self_s[layer] += end - start - covered
        calls[layer] += 1
    return self_s, calls
