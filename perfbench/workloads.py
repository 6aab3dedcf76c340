"""The four benchmark workloads.

Each workload is a closed loop of *items*; an item is one
``bayesbag.cli.main([...])`` call with its own seed and output directory.
A workload builds its inputs from the run seed and checks every item's
output files against the references in ``refs/<workload>.json``, which
``make_refs.py`` writes.

Items whose reference depends on the generated data come from a fixed
pool of item seeds; the run seed picks the order in which the pool is
visited.  ``asymptotics-3model`` has seed-independent references, so its
item seeds are fresh for every item.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from bayesbag.simgen import SimConfig, sample_dataset

import checks

REFS = Path(__file__).resolve().parent / "refs"


@dataclass(frozen=True)
class Item:
    key: int  # pool index, or sweep row for asymptotics-3model
    seed: int  # the --seed the CLI call receives
    argv: tuple[str, ...]


def _pool_order(run_seed: int, pool: int):
    order = np.random.default_rng(run_seed).permutation(pool)
    while True:
        yield from (int(i) for i in order)


def _load(name: str) -> dict:
    return checks.read_json(REFS / f"{name}.json")


def _pips_by_key(rows, *keys) -> dict:
    return {tuple(row[k] for k in keys): float(row["pip"]) for row in rows}


def _check_pips(label: str, got: dict, ref: dict, b: int, b_ref: int) -> list[str]:
    """Standard pips to a tight tolerance; bagged pips as B-replicate means."""
    problems = []
    for method in ("standard", "bayesbag"):
        for comp, ref_value in enumerate(ref[method], start=1):
            value = got.get((method, str(comp)))
            name = f"{label} {method} pip {comp}"
            if value is None:
                problems.append(f"{name}: missing")
            elif method == "standard":
                problems += checks.close(name, value, ref_value)
            else:
                problems += checks.bounded_mc(name, value, b, ref_value, b_ref)
    return problems


class BagSparse:
    """``simulate`` at the paper's synthetic-study setting, one dataset per item."""

    name = "bag-sparse"
    pool = 64
    b = 100
    flags = ("simulate", "--D", "10", "--k", "1", "--N", "5000", "--response", "nonlinear",
             "--k-star", "2", "--q0", "0.1", "--lambda", "16", "--B", str(b), "--replicates", "1")

    def __init__(self, run_seed: int, workdir: Path):
        self.refs = _load(self.name)
        self._order = _pool_order(run_seed, self.pool)

    def next_item(self) -> Item:
        key = next(self._order)
        return Item(key, key, self.flags + ("--seed", str(key)))

    def check(self, item: Item, out: Path) -> list[str]:
        ref = self.refs["items"][str(item.key)]
        rows = checks.read_csv(out / "pips.csv")
        got = _pips_by_key(rows, "method", "component")
        problems = _check_pips("pips.csv", got, ref, self.b, self.refs["b_ref"])
        for row in checks.read_csv(out / "summary.csv"):
            pip = got.get((row["method"], row["component"]), math.nan)
            problems += checks.close(f"summary.csv {row['method']} {row['component']} pip_mean",
                                     float(row["pip_mean"]), pip, checks.CURVE_REL_TOL)
        return problems


def select_dataset(key: int):
    """The regression data behind select item ``key``."""
    config = SimConfig(d=SelectAllSubsets.d, k=2, n=1000, response_kind="nonlinear")
    return sample_dataset(config, rng=np.random.default_rng(10_000 + key))


class SelectAllSubsets:
    """``select`` on a generated CSV with the default k* = D: every one of
    2^D models, few replicates and splits."""

    name = "select-allsubsets"
    pool = 16
    d = 11
    b = 3
    splits = 2

    def __init__(self, run_seed: int, workdir: Path):
        self.refs = _load(self.name)
        self._order = _pool_order(run_seed, self.pool)
        self.csv_dir = workdir / "inputs"
        self.csv_dir.mkdir(parents=True, exist_ok=True)
        header = ",".join([f"z{j}" for j in range(1, self.d + 1)] + ["y"])
        for key in range(self.pool):
            data = select_dataset(key)
            np.savetxt(self._csv(key), np.column_stack([data.z, data.y]), fmt="%.17g",
                       delimiter=",", header=header, comments="")

    def _csv(self, key: int) -> Path:
        return self.csv_dir / f"select_{key:02d}.csv"

    def next_item(self) -> Item:
        key = next(self._order)
        return Item(key, key, ("select", "--data", str(self._csv(key)), "--target", "y",
                               "--B", str(self.b), "--splits", str(self.splits),
                               "--seed", str(key)))

    def check(self, item: Item, out: Path) -> list[str]:
        ref = self.refs["items"][str(item.key)]
        b_ref = self.refs["b_ref"]
        got = _pips_by_key(checks.read_csv(out / "pips_full.csv"), "method", "component")
        problems = _check_pips("pips_full.csv", got, ref["full"], self.b, b_ref)
        split_rows = checks.read_csv(out / "pips_splits.csv")
        by_split = _pips_by_key(split_rows, "split", "method", "component")
        for s, split_ref in enumerate(ref["splits"]):
            got = {k[1:]: v for k, v in by_split.items() if k[0] == str(s)}
            problems += _check_pips(f"pips_splits.csv split {s}", got, split_ref, self.b, b_ref)
        for row in checks.read_csv(out / "reproducibility.csv"):
            values = [v for k, v in by_split.items() if k[1:] == (row["method"], row["component"])]
            lo, hi = (min(values), max(values)) if values else (math.nan, math.nan)
            for column, expected in (("pip_min", lo), ("pip_max", hi), ("pip_range", hi - lo)):
                problems += checks.close(
                    f"reproducibility.csv {row['method']} {row['component']} {column}",
                    float(row[column]), expected, checks.CURVE_REL_TOL)
        return problems


class MismatchTall:
    """``mismatch`` on a tall simulated dataset, one report per item."""

    name = "mismatch-tall"
    pool = 24
    b = 50
    n = 50_000
    d = 10
    flags = ("mismatch", "--D", str(d), "--k", "1", "--N", str(n), "--response", "nonlinear",
             "--B", str(b))

    def __init__(self, run_seed: int, workdir: Path):
        self.refs = _load(self.name)
        self._order = _pool_order(run_seed, self.pool)

    def next_item(self) -> Item:
        key = next(self._order)
        return Item(key, key, self.flags + ("--seed", str(key)))

    def check(self, item: Item, out: Path) -> list[str]:
        ref = self.refs["items"][str(item.key)]
        report = checks.read_json(out / "mismatch.json")
        problems = [f"mismatch.json {key} = {report.get(key)!r}, expected {want!r}"
                    for key, want in (("b", self.b), ("m", self.n), ("n", self.n),
                                      ("d", self.d), ("seed", item.seed))
                    if report.get(key) != want]
        per = report.get("per_coordinate", {})
        if sorted(per) != sorted(ref["center"]):
            return problems + [f"mismatch.json coordinates {sorted(per)} != {sorted(ref['center'])}"]
        overall = report.get("overall")
        if None in per.values() or overall is None:
            return problems + ["mismatch index is NA; the reference has no NA"]
        # log(1 - I) = log(2 v / v_bb): the log of a variance ratio, close to
        # normal where I itself has a long tail on heavy-tailed data
        for label, value in per.items():
            problems += checks.normal_mc(f"mismatch index {label} ({value!r}) as log(1 - I)",
                                         math.log(1.0 - value) if value < 1.0 else math.nan,
                                         ref["center"][label], ref["se"][label])
        problems += checks.close("mismatch.json overall (max over coordinates)",
                                 overall, max(per.values()), checks.CURVE_REL_TOL)
        return problems


def _check_curve(out: Path, filename: str, keys, columns, ref: dict) -> list[str]:
    """Every row of a closed-form curve file against its reference, matched
    on the key columns."""
    problems, seen = [], 0
    for row in checks.read_csv(out / filename):
        key = tuple(round(float(row[k]), 9) for k in keys)
        if key not in ref:
            problems.append(f"{filename}: unexpected row {key}")
            continue
        seen += 1
        for column, want in zip(columns, ref[key]):
            problems += checks.close(f"{filename} {key} {column}", float(row[column]), want,
                                     checks.CURVE_REL_TOL)
    if seen != len(ref):
        problems.append(f"{filename}: {seen} rows, expected {len(ref)}")
    return problems


def three_model_rows() -> list[tuple[str, float]]:
    """The rows of the default three-model sweep of ``bayesbag asymptotics``."""
    grids = {
        "vary_mean": np.arange(-2.0, 2.0 + 0.25, 0.5),
        "vary_variance": [0.5, 0.75, 1.0, 1.5, 2.0, 3.0],
        "vary_correlation": [-0.4, -0.2, 0.0, 0.2, 0.4, 0.6, 0.8],
    }
    return [(kind, float(v)) for kind, grid in grids.items() for v in grid]


class Asymptotics3Model:
    """``asymptotics`` at default sample sizes and c = 1, one row of the
    three-model sweep per item, cycling over the sweep."""

    name = "asymptotics-3model"
    grid_flags = {"vary_mean": "--mu3-grid", "vary_variance": "--sigma3-grid",
                  "vary_correlation": "--rho-grid"}

    def __init__(self, run_seed: int, workdir: Path):
        self.refs = _load(self.name)
        self.rows = three_model_rows()
        self._rng = np.random.default_rng(run_seed)
        self._next = int(self._rng.integers(len(self.rows)))
        two = self.refs["two_model"]
        self.events = {(round(d, 9), round(c, 9)): (two["p_std_wrong"][i], two["p_bagged_below"][i][j])
                       for i, d in enumerate(two["delta_grid"]) for j, c in enumerate(two["c_grid"])}
        self.density = {(round(d, 9), round(c, 9), round(u, 9)): (two["density"][i][j][k],)
                        for i, d in enumerate(two["delta_grid"]) for j, c in enumerate(two["c_grid"])
                        for k, u in enumerate(two["u_grid"])}

    def next_item(self) -> Item:
        key = self._next % len(self.rows)
        self._next += 1
        kind, value = self.rows[key]
        seed = int(self._rng.integers(2**31))
        grids = [f"{flag}={repr(value) if k == kind else ''}" for k, flag in self.grid_flags.items()]
        return Item(key, seed, ("asymptotics", *grids, "--seed", str(seed)))

    def check(self, item: Item, out: Path) -> list[str]:
        problems = _check_curve(out, "two_model_events.csv", ("delta", "c"),
                                ("p_std_wrong", "p_bagged_below"), self.events)
        problems += _check_curve(out, "two_model_density.csv", ("delta", "c", "u"),
                                 ("density",), self.density)
        checkpoints = {row["name"]: float(row["value"])
                       for row in checks.read_csv(out / "checkpoints.csv")}
        for name, ref in self.refs["checkpoints"].items():
            problems += checks.close(f"checkpoints.csv {name}", checkpoints.get(name, math.nan),
                                     ref, checks.CURVE_REL_TOL)

        rows = checks.read_csv(out / "three_model_curves.csv")
        ref = self.refs["rows"][item.key]
        if len(rows) != 1:
            return problems + [f"three_model_curves.csv: {len(rows)} rows, expected 1"]
        row = rows[0]
        if row["scenario"] != ref["kind"]:
            problems.append(f"three_model_curves.csv scenario {row['scenario']!r} != {ref['kind']!r}")
        for column, want in (("value", ref["value"]), ("c", 1.0), ("threshold", 0.1)):
            problems += checks.close(f"three_model_curves.csv {column}", float(row[column]),
                                     want, checks.CURVE_REL_TOL)
        n_samples = self.refs["n_samples"]
        # p_std_wrong averages antithetic pairs, each a mean of two indicators
        problems += checks.bounded_mc("three_model_curves.csv p_std_wrong",
                                      float(row["p_std_wrong"]), (n_samples + 1) // 2,
                                      ref["p_std_wrong"], math.inf)
        problems += checks.bounded_mc("three_model_curves.csv frac_bagged_below",
                                      float(row["frac_bagged_below"]), n_samples,
                                      ref["frac_bagged_below"], ref["n_ref"])
        return problems


WORKLOADS = {w.name: w for w in (BagSparse, SelectAllSubsets, MismatchTall, Asymptotics3Model)}
