"""Self-test of the output checker: planted faults must be flagged.

Run from the root of a checkout:  python3 perfbench/selftest.py

Writes three small outputs with the real CLI, confirms the checker accepts
them untouched, then plants one fault per copy and confirms each is caught:
a wrong ``t`` in one CSV row, a turning point dropped from a trajectory JSON,
a root dropped from an inversion and a position that is not a root.  Exits 0
when every expectation holds, 1 otherwise.
"""

import json
import shutil
import sys
from pathlib import Path

import check
import oracle
import workloads


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import eprtraj.cli

    work = root / ".perfbench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    p = dict(workloads.DEFAULTS)
    ops = {
        "csv": workloads.cli_op("trajectory", p, "csv", xmax=20.0, samples=2001),
        "json": workloads.cli_op("trajectory", p, "json", xmax=20.0, samples=401),
        "invert": workloads.invert_op(p, 5.0, "json", 0.0, 20.0),
    }
    paths = {name: work / f"{name}.{op['fmt']}" for name, op in ops.items()}
    for name, op in ops.items():
        if eprtraj.cli.main(op["argv"] + ["--out", str(paths[name])]) != 0:
            print(f"FAIL {name}: the CLI call itself failed")
            return 1
    roots = oracle.RootOracle()
    results = []

    def outcome(name, text=None):
        if text is not None:
            paths[name].write_text(text)
        return check.check_op(ops[name], {"rc": 0, "error": None}, paths[name], roots)

    def expect(label, cond):
        results.append(cond)
        print(f"{'ok  ' if cond else 'FAIL'} {label}")

    clean = {name: outcome(name) for name in ops}
    for name, out in clean.items():
        expect(f"untouched {name} output passes ({out.problems or 'no problems'})",
               not out.problems and out.roots_reported == out.roots_expected > 0)

    lines = paths["csv"].read_text().split("\n")
    cells = lines[1001].split(",")
    cells[1] = format(float(cells[1]) * (1.0 + 1e-6), ".9g")
    lines[1001] = ",".join(cells)
    out = outcome("csv", "\n".join(lines))
    expect(f"wrong t in CSV row 1000 is flagged: {out.problems}",
           any(pr.startswith("CheckFailure: t[1000]") for pr in out.problems))

    doc = json.loads(paths["json"].read_text())
    del doc["turning_points"][3]
    del doc["events"][3]
    out = outcome("json", json.dumps(doc))
    expect(f"dropped turning point is flagged: {out.problems}",
           any("branch_id" in pr for pr in out.problems))

    doc = json.loads(paths["invert"].read_text())
    original = list(doc["positions"])
    del doc["positions"][2]
    out = outcome("invert", json.dumps(doc))
    expect(f"dropped inversion root lowers recall: {out.roots_reported}/{out.roots_expected}",
           out.roots_reported == out.roots_expected - 1)
    doc["positions"] = original
    doc["positions"][2] += 1e-3
    out = outcome("invert", json.dumps(doc))
    expect(f"position that is not a root is flagged: {out.problems}",
           any("is not a root" in pr for pr in out.problems))

    out = check.check_op(ops["csv"], {"rc": 3, "error": None}, paths["csv"], roots)
    expect("exit code 3 counts as a failure rejected by design", out.problems and out.rejected)

    shutil.rmtree(work)
    print(f"{sum(results)} of {len(results)} expectations hold")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
