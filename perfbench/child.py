"""Run one pass of a workload in a fresh interpreter.

Usage: python3 perfbench/child.py SRC_DIR JOB_JSON

Imports ``eprtraj.cli`` from SRC_DIR, prints ``ready`` (the runner times
interpreter start to this line as set-up), then runs the job's operations in
order and writes the result JSON the job names.  The host reference
(``calibrate``) is timed between operations, never inside one.  Nothing else
goes to stdout.  With ``trace`` set in the job, layer spans are installed
first.
"""

import os
import sys


def _sample(values: list) -> dict:
    """Every value of a short result, 64 evenly spaced ones of a long one."""
    n = len(values)
    idx = list(range(n)) if n <= 64 else sorted({round(i * (n - 1) / 63) for i in range(64)})
    return {"n": n, "idx": idx, "values": [values[i] for i in idx]}


def _grid(op):
    import numpy as np

    return np.linspace(op["lo"], op["hi"], op["n"]).tolist()


def _loop(name, convert):
    def prepare(pkg, op, params):
        xs = _grid(op)

        def run():
            f = getattr(pkg, name)
            return [f(x, params) for x in xs]

        return run, lambda result: [convert(v) for v in result]

    return prepare


def _per_x(name, convert):
    def prepare(pkg, op, params):
        def run():
            f = getattr(pkg, name)
            return [f(x, params) for x in op["xs"]]

        return run, lambda result: [convert(v) for v in result]

    return prepare


def _limit(name):
    def prepare(pkg, op, params):
        extra = (op["side"],) if "side" in op else ()

        def run():
            return getattr(pkg, name)(op["x"], params, op["alphas"], *extra)

        return run, lambda series: [list(e) for e in series.entries]

    return prepare


def _positions(pkg, op, params):
    def run():
        return pkg.positions_at_time(op["t"], op["lo"], op["hi"], params)

    return run, list


def _scalar(v):
    return [v]


LIBRARY = {
    "time_of_position": _loop("time_of_position", _scalar),
    "dtdx": _loop("dtdx", _scalar),
    "amplitude_squared": _loop("amplitude_squared", _scalar),
    "quantum_potential": _loop("quantum_potential", _scalar),
    "decompose_time": _loop("decompose_time", lambda d: [d.c_p1, d.c_p2, d.c_ent, d.total]),
    "effective_quantum_mass": _loop("effective_quantum_mass", lambda s: [s.q, s.m_q]),
    "psi_polar": _loop("psi_polar", lambda s: [s.amplitude, s.phase, s.amplitude_squared]),
    "psi_bipolar": _loop("psi_bipolar", lambda z: [z.real, z.imag]),
    "wedge_bounds": _loop("wedge_bounds", lambda w: [w.t_lower, w.t_upper]),
    "reduced_action_unwrapped": _per_x("reduced_action_unwrapped", _scalar),
    "action_sample": _per_x("action_sample",
                            lambda s: [s.w_principal, s.w_unwrapped, s.sheet]),
    "epr_limit_time": _limit("epr_limit_time"),
    "epr_limit_mass": _limit("epr_limit_mass"),
    "positions_at_time": _positions,
}


def _prepare(pkg, op, out_dir, i, tracer):
    """Return ``(run, summarize)`` for one operation, built outside the timer."""
    if op["kind"] == "cli":
        argv = op["argv"] + ["--out", os.path.join(out_dir, f"op{i:04d}.{op['fmt']}")]
        return (lambda: pkg.cli.main(argv)), None
    params = pkg.validate_params(**op["p"])
    run, summarize = LIBRARY[op["fn"]](pkg, op, params)
    if tracer is not None:
        run = tracer.span(f"lib.{op['fn']}", op["layer"], run)
    return run, summarize


def main() -> int:
    src, job_path = sys.argv[1], sys.argv[2]
    # One CPU for the whole pass, so the operations and the host reference
    # between them run on the same CPU; on a shared host the CPUs of one
    # machine can run at different speeds.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, src)
    import eprtraj.cli

    sys.stdout.write("ready\n")
    sys.stdout.flush()

    import json
    from time import perf_counter

    if not os.path.realpath(eprtraj.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"eprtraj imported from {eprtraj.__file__}, not {src}", file=sys.stderr)
        return 4
    with open(job_path) as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    prepared = [_prepare(eprtraj, op, job["out_dir"], i, tracer)
                for i, op in enumerate(job["ops"])]

    import calibrate

    results = []
    references = []
    wall = since_reference = 0.0
    for run, summarize in prepared:
        if since_reference >= calibrate.REFERENCE_EVERY_S:
            references.append(calibrate.reference_seconds())
            since_reference = 0.0
        rc, error, summary = None, None, None
        t0 = perf_counter()
        try:
            value = run()
        except Exception as exc:  # an op failure is recorded, never fatal
            latency = perf_counter() - t0
            error = f"{type(exc).__name__}: {exc}"
        else:
            latency = perf_counter() - t0
            if summarize is None:
                rc = value
            else:
                summary = _sample(summarize(value))
        results.append({"latency": latency, "rc": rc, "error": error, "summary": summary})
        wall += latency
        since_reference += latency
    references.append(calibrate.reference_seconds())

    doc = {"wall": wall, "ops": results, "reference": references}
    if tracer is not None:
        doc["trace"] = tracer.export()
    with open(job["result"], "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
