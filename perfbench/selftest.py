"""Self-test of the output checks: one correct item per workload passes,
and every perturbed copy of its output files fails.

    python3 perfbench/selftest.py

Run from the repository root.  Exits 0 when every check behaves as
intended.  Also confirms that ``BENCHMARK.json`` names the metrics that
``run.py`` reports.
"""

from __future__ import annotations

import csv
import json
import logging
import shutil
import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import workloads  # noqa: E402


def scale(factor):
    return lambda x: x * factor


def shift(delta):
    return lambda x: x + delta


def far_end(x):
    """Move a [0, 1] Monte Carlo mean to the opposite end of the interval."""
    return 1.0 if x < 0.5 else 0.0


# (file, row filter or JSON path, column, change): deterministic values move
# by far more than their tolerance, Monte Carlo values far outside their band
PERTURBATIONS = {
    "bag-sparse": [
        ("pips.csv", {"method": "standard"}, "pip", scale(1 + 1e-4)),
        ("pips.csv", {"method": "bayesbag"}, "pip", far_end),
    ],
    "select-allsubsets": [
        ("pips_full.csv", {"method": "standard"}, "pip", scale(1 + 1e-4)),
        ("pips_splits.csv", {"method": "standard", "split": "1"}, "pip", scale(1 + 1e-4)),
        ("reproducibility.csv", {}, "pip_range", shift(0.01)),
    ],
    "mismatch-tall": [
        ("mismatch.json", ("per_coordinate", "beta_3"), None, shift(-1.0)),
        ("mismatch.json", ("overall",), None, shift(0.01)),
    ],
    "asymptotics-3model": [
        ("two_model_density.csv", {}, "density", scale(1 + 1e-6)),
        ("two_model_events.csv", {}, "p_bagged_below", scale(1 + 1e-6)),
        ("three_model_curves.csv", {}, "frac_bagged_below", far_end),
        ("three_model_curves.csv", {}, "p_std_wrong", far_end),
    ],
}


def perturb(path: Path, where, column, change) -> None:
    if column is None:  # JSON path
        report = json.loads(path.read_text(encoding="utf-8"))
        node = report
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = change(node[where[-1]])
        path.write_text(json.dumps(report), encoding="utf-8")
        return
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    # the largest matching value, so a relative change exceeds the absolute floor
    row = max((r for r in rows if all(r[k] == v for k, v in where.items())),
              key=lambda r: abs(float(r[column])))
    row[column] = repr(change(float(row[column])))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def check_benchmark_json() -> bool:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for section, ours in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        theirs = {m["name"]: m["unit"] for m in spec[section]}
        ok &= theirs == ours
        print(f"{'PASS' if theirs == ours else 'FAIL'} BENCHMARK.json {section} matches run.py")
    names = {w["name"] for w in spec["workloads"]}
    ok &= names == set(workloads.WORKLOADS)
    print(f"{'PASS' if names == set(workloads.WORKLOADS) else 'FAIL'} BENCHMARK.json workloads")
    return ok


def main() -> int:
    logging.basicConfig(level=logging.WARNING)
    from bayesbag import cli

    work = run.ROOT / ".bench_work" / "selftest"
    ok = check_benchmark_json()
    try:
        for name, cases in PERTURBATIONS.items():
            workload = workloads.WORKLOADS[name](0, work / name)
            item = workload.next_item()
            clean = work / name / "clean"
            if cli.main([*item.argv, "--out", str(clean)]) != 0:
                print(f"FAIL {name}: item exited nonzero")
                ok = False
                continue
            problems = checks.manifest_files(clean) + workload.check(item, clean)
            ok &= not problems
            print(f"{'PASS' if not problems else 'FAIL'} {name}: unperturbed output passes"
                  + "".join(f"\n    {p}" for p in problems[:5]))
            for i, (filename, where, column, change) in enumerate(cases):
                copy = work / name / f"perturbed{i}"
                shutil.copytree(clean, copy)
                perturb(copy / filename, where, column, change)
                problems = workload.check(item, copy)
                ok &= bool(problems)
                print(f"{'PASS' if problems else 'FAIL'} {name}: perturbed {filename} "
                      f"{column or '.'.join(where)} is caught"
                      + (f": {problems[0]}" if problems else ""))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
