"""eprtraj benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Run from the root of a checkout that holds ``src/eprtraj``:

    python3 perfbench/run.py --workload bulk_emit --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Each pass runs in a fresh child interpreter (``child.py``), one at a time: a
closed loop with one client.  Passes repeat until ``--seconds`` have gone by.
Every output is checked (``check.py``) after its pass.  With ``--trace 0``
the end-to-end metrics are reported; with ``--trace 1`` traced and untraced
passes alternate and the per-layer metrics are reported.  Every reported
time is scaled by the run's host reference (``calibrate.py``), so that a
host that runs everything slower for a while does not move it.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import check
import oracle
import tracing
import workloads

CHILD = Path(__file__).resolve().parent / "child.py"
# Children may write byte code, so the warm-up child caches it and set-up
# measures the cached import an installed package gets, whatever the caller's
# PYTHONDONTWRITEBYTECODE.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
SETUP_PROBES = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "wall_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms", "rows_per_s": "1/s",
    "peak_rss_mb": "MB", "setup_s": "s", "root_recall": "ratio",
}


class Runner:
    """One workload at one seed: set-up, timed passes, checks, metrics."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool):
        self.root = root
        self.src = root / "src"
        self.seconds = seconds
        self.trace = trace
        self.work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.ops = workloads.build(workload, seed)
        self.roots = oracle.RootOracle()
        self.ready_s: list = []
        self.reference_s: list = []
        self.passes: list = []
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.problems: list = []
        self.spans: list = []

    # --- child processes ----------------------------------------------------

    def _spawn(self, ops: list, traced: bool, tag: str):
        """Run one child to completion; return (result doc, ru_maxrss in KB, error).

        The time from spawn to the child's ``ready`` line is one set-up sample.
        """
        pass_dir = self.work / tag
        pass_dir.mkdir(parents=True)
        job = {"ops": ops, "trace": traced, "out_dir": str(pass_dir),
               "result": str(pass_dir / "result.json")}
        job_path = pass_dir / "job.json"
        job_path.write_text(json.dumps(job))
        with open(pass_dir / "stderr.txt", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(CHILD), str(self.src), str(job_path)],
                                    stdout=subprocess.PIPE, stderr=err, cwd=self.root,
                                    env=CHILD_ENV)
            try:
                ready = proc.stdout.readline()
                ready_s = time.perf_counter() - start
                status, usage = self._wait(proc)
            finally:
                if proc.returncode is None:  # interrupted: end the child before leaving
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
        if ready == b"ready\n":
            self.ready_s.append(ready_s)
        if status != 0 or not (pass_dir / "result.json").is_file():
            tail = (pass_dir / "stderr.txt").read_text()[-2000:]
            return None, usage.ru_maxrss, f"child exited with {status}: {tail.strip()}"
        return json.loads((pass_dir / "result.json").read_text()), usage.ru_maxrss, None

    def scale(self) -> float:
        """Factor from this host's measured times to the nominal host's (``calibrate``)."""
        return calibrate.NOMINAL_S / statistics.median(self.reference_s)

    @staticmethod
    def _wait(proc):
        """Block until the child ends (killed after CHILD_TIMEOUT_S); return its rusage.

        ``os.wait4`` gives the child's own peak RSS; RUSAGE_CHILDREN would be
        the maximum over every child of the run.
        """
        def expire(signum, frame):
            proc.kill()

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    # --- phases -------------------------------------------------------------

    def setup(self) -> None:
        """Oracle root counts, a warm-up import, then the set-up probes (untimed work)."""
        for op in self.ops:
            check.expected_roots(op, self.roots)
        _, _, error = self._spawn([], False, "warmup")
        if error:
            raise RuntimeError(f"cannot import eprtraj from {self.src}: {error}")
        self.ready_s.clear()
        for i in range(SETUP_PROBES):
            _, _, error = self._spawn([], False, f"probe{i}")
            if error:
                raise RuntimeError(error)

    def run_pass(self, index: int, traced: bool) -> None:
        tag = f"pass{index}"
        doc, maxrss_kb, error = self._spawn(self.ops, traced, tag)
        record = {"traced": traced, "rss_mb": maxrss_kb / 1024.0, "wall": None,
                  "latencies": [], "rows": 0, "reported": 0, "expected": 0}
        self.attempted += len(self.ops)
        if doc is None:
            self.failed += len(self.ops)
            self.problems.append(f"{tag}: {error}")
        else:
            record["wall"] = doc["wall"]
            self.reference_s += doc["reference"]
            for i, (op, res) in enumerate(zip(self.ops, doc["ops"])):
                out_path = self.work / tag / f"op{i:04d}.{op['fmt']}" if op["kind"] == "cli" else None
                outcome = check.check_op(op, res, out_path, self.roots)
                record["latencies"].append(res["latency"])
                record["rows"] += outcome.rows
                record["reported"] += outcome.roots_reported
                record["expected"] += outcome.roots_expected
                if outcome.problems:
                    self.failed += 1
                    self.rejected += outcome.rejected
                    self.problems.append(f"{tag} op{i} {op.get('cmd', op.get('fn'))}: "
                                         + "; ".join(outcome.problems))
            if traced:
                record["layers"] = self._layer_metrics(doc)
                self.spans += [[*span, index] for span in doc["trace"]["spans"]]
        shutil.rmtree(self.work / tag)
        self.passes.append(record)

    def run(self) -> None:
        try:
            self.setup()
            start = time.monotonic()
            index = 0
            while True:
                traced = self.trace and index % 2 == 1
                self.run_pass(index, traced)
                index += 1
                done = index >= (2 * MIN_TRACED_PASSES if self.trace else MIN_PASSES)
                if done and time.monotonic() - start >= self.seconds:
                    break
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                self.work.parent.rmdir()
            except OSError:  # another run still uses it
                pass

    # --- metrics ------------------------------------------------------------

    def _layer_metrics(self, doc: dict) -> dict:
        trace = doc["trace"]
        self_s, calls = tracing.layer_totals(trace["spans"])
        counts = trace["counts"]
        m = {}
        for layer in tracing.LAYERS:
            m[f"{layer}.self_s"] = self_s[layer]
            m[f"{layer}.share"] = self_s[layer] / doc["wall"]
            m[f"{layer}.calls"] = calls[layer]
        scalar = counts.get("kernel.scalar_calls", 0)
        m["kernel.calls"] += scalar
        m["kernel.points"] = counts.get("kernel.points", 0) + scalar
        m["roots.bisect_calls"] = counts.get("roots.bisect_calls", 0)
        found = expected = 0
        residual = 0.0
        for call in trace["roots"]:
            P = call["p"]
            xs = np.asarray(call["xs"], dtype=float)
            found += xs.size
            if call["kind"] == "tp":
                expected += self.roots.turning(P, call["lo"], call["hi"])
                r = np.abs(oracle.slope(xs, P))
            else:
                expected += self.roots.positions(P, call["t"], call["lo"], call["hi"])
                r = np.abs(oracle.time(xs, P) - call["t"])
            if xs.size:
                residual = max(residual, float(r.max()))
        m["roots.found"] = found
        m["roots.expected"] = expected
        m["roots.max_residual"] = residual
        m["assembly.rows"] = counts.get("assembly.rows", 0)
        m["serialize.bytes"] = counts.get("serialize.bytes", 0)
        busy = self_s["serialize"]
        m["serialize.mb_per_s"] = m["serialize.bytes"] / 1e6 / busy if busy > 0 else 0.0
        return m

    def metrics(self) -> dict:
        """Medians over passes; every time (and rate) is scaled to the nominal host."""
        scale = self.scale()
        plain = [p for p in self.passes if not p["traced"] and p["wall"] is not None]
        if not plain:
            raise RuntimeError("no pass completed: " + "; ".join(self.problems[:3]))
        if self.trace:
            traced = [p for p in self.passes if p["traced"] and p["wall"] is not None]
            if not traced:
                raise RuntimeError("no traced pass completed")
            names = traced[0]["layers"].keys()
            m = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
            for layer in tracing.LAYERS:
                m[f"{layer}.self_s"] *= scale
            m["serialize.mb_per_s"] /= scale
            m["trace.overhead_frac"] = (statistics.median(p["wall"] for p in traced)
                                        / statistics.median(p["wall"] for p in plain) - 1.0)
            return m
        latencies_ms = sorted(1000.0 * scale * v for p in plain for v in p["latencies"])
        q = statistics.quantiles(latencies_ms, n=10, method="inclusive")
        return {
            "wall_s": scale * statistics.median(p["wall"] for p in plain),
            "latency_p50_ms": statistics.median(latencies_ms),
            "latency_p90_ms": q[8],
            "rows_per_s": statistics.median(p["rows"] / p["wall"] for p in plain) / scale,
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
            "setup_s": scale * statistics.median(self.ready_s),
            "root_recall": (sum(p["reported"] for p in plain)
                            / max(1, sum(p["expected"] for p in plain))),
        }


def per_layer_units() -> dict:
    units = {}
    for layer in tracing.LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
        units[f"{layer}.calls"] = "count"
    units.update({"kernel.points": "count", "roots.bisect_calls": "count",
                  "roots.found": "count", "roots.expected": "count", "roots.max_residual": "abs",
                  "assembly.rows": "count", "serialize.bytes": "B",
                  "serialize.mb_per_s": "MB/s", "trace.overhead_frac": "ratio"})
    return units


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(root, name, seed, seconds, trace)
    runner.run()
    values = runner.metrics()
    if trace:
        out = root / ".perfbench_out" / f"trace-{name}-{seed}.json"
        out.parent.mkdir(exist_ok=True)
        fields = ["name", "layer", "start", "end", "parent", "pass"]
        out.write_text(json.dumps({"fields": fields, "spans": runner.spans}))
    units = per_layer_units() if trace else END_TO_END
    passes = [p for p in runner.passes if p["wall"] is not None]
    print(f"# {name} seed={seed}: {len(passes)} passes "
          f"({sum(p['traced'] for p in passes)} traced), {len(runner.ops)} ops per pass, "
          f"{len(runner.ready_s)} set-up samples; measured pass walls "
          + " ".join(f"{p['wall']:.3f}{'t' if p['traced'] else ''}" for p in passes))
    print(f"# measured times are scaled by {runner.scale():.4f}, the nominal over the median "
          f"of {len(runner.reference_s)} host reference timings")
    for metric, unit in units.items():
        print(f"{name} {metric} {values[metric]:.6g} {unit}")
    error_rate = runner.failed / runner.attempted
    print(f"{name} error_rate {error_rate:.6g} ratio "
          f"({runner.failed} failed of {runner.attempted}, {runner.rejected} rejected by design)")
    for problem in runner.problems[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {metric: {"value": values[metric], "unit": unit}
                        for metric, unit in units.items()}}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "eprtraj" / "__init__.py").is_file():
        print(f"error: no eprtraj sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{name}.{metric}": value for name, r in results.items()
                               for metric, value in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
