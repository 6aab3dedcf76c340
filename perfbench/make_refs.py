"""Write the stored references in ``refs/`` that the benchmark checks against.

    python3 perfbench/make_refs.py [workload ...]

Run from the repository root; all four workloads take about 15 minutes
on 2 cores.  Deterministic references (standard pips) are the outputs of
the CLI item itself at the commit that wrote them, cross-checked against a
library recomputation on the re-derived data.  Monte Carlo references use
a bootstrap stream that no benchmark item uses and many more replicates:
bagged pips keep their mean, mismatch indices I keep the mean and spread of
log(1 - I) = log(2 v / v_bb) over B-replicate batches.  Two-model curves and three-model orthant
probabilities come from closed forms and ``scipy.stats``, independent of
bayesbag.
"""

from __future__ import annotations

import json
import logging
import math
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
from scipy.stats import multivariate_normal, norm  # noqa: E402

import bayesbag as bb  # noqa: E402
from bayesbag import cli  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402

REF_ENTROPY = 2**40  # bootstrap streams for references; no CLI item derives these
WORK = HERE.parent / ".bench_work" / "make_refs"


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """The CLI's per-dataset stream convention."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def run_item(argv) -> Path:
    shutil.rmtree(WORK, ignore_errors=True)
    if cli.main([*argv, "--out", str(WORK)]) != 0:
        raise SystemExit(f"item failed: {argv}")
    return WORK


def selection(data, hyper, b_ref: int, seed: int, cli_standard: list[float]) -> dict:
    models = bb.enumerate_models(data.d, hyper.k_star)
    log_prior = bb.log_priors(models, hyper)
    stats = bb.weighted_stats(data, np.ones(data.n))
    standard = bb.pips(bb.standard_model_posterior(
        bb.model_log_marginals(stats, models, hyper), log_prior), models)
    for comp, (mine, theirs) in enumerate(zip(standard, cli_standard), start=1):
        if checks.close(f"standard pip {comp}", theirs, mine):
            raise SystemExit(f"re-derived data disagree with the CLI: {mine} vs {theirs}")
    bagged = bb.bagged_model_posterior(
        bb.make_evaluator(data, models, hyper), data.n, log_prior,
        bb.BootstrapConfig(m=data.n, b=b_ref, seed=seed))
    return {"standard": cli_standard, "bayesbag": bb.pips(bagged.mean_probs, models).tolist()}


def standard_pips(rows, d: int, **match) -> list[float]:
    by_comp = {int(r["component"]): float(r["pip"]) for r in rows
               if r["method"] == "standard" and all(r[k] == v for k, v in match.items())}
    return [by_comp[c] for c in range(1, d + 1)]


def bag_sparse() -> dict:
    w = wl.BagSparse
    b_ref = 1000
    hyper = bb.NIGHyperparams(a0=2.0, b0=1.0, lam=16.0, q0=0.1, k_star=2)
    items = {}
    for key in range(w.pool):
        out = run_item(w.flags + ("--seed", str(key)))
        config = bb.SimConfig(d=10, k=1, n=5000, response_kind="nonlinear", seed=key)
        data = bb.sample_dataset(config, rng=child_rng(key, 0, 0))
        items[str(key)] = selection(data, hyper, b_ref, REF_ENTROPY + key,
                                    standard_pips(checks.read_csv(out / "pips.csv"), 10))
    return {"b_ref": b_ref, "items": items}


def select_allsubsets() -> dict:
    w = wl.SelectAllSubsets
    b_ref = 40
    hyper = bb.NIGHyperparams(a0=2.0, b0=1.0, lam=1.0, q0=min(3.0 / w.d, 0.5), k_star=w.d)
    items = {}
    WORK.parent.mkdir(parents=True, exist_ok=True)
    for key in range(w.pool):
        raw = wl.select_dataset(key)
        csv_path = WORK.parent / "select.csv"
        np.savetxt(csv_path, np.column_stack([raw.z, raw.y]), fmt="%.17g", delimiter=",",
                   header=",".join([f"z{j}" for j in range(1, w.d + 1)] + ["y"]), comments="")
        out = run_item(("select", "--data", str(csv_path), "--target", "y", "--B", str(w.b),
                        "--splits", str(w.splits), "--seed", str(key)))
        data = cli.standardize_regressors(raw, [f"z{j}" for j in range(1, w.d + 1)])
        full = selection(data, hyper, b_ref, REF_ENTROPY + 100 * key,
                         standard_pips(checks.read_csv(out / "pips_full.csv"), w.d))
        # the CLI's split convention: a seeded permutation cut into near-equal parts
        perm = child_rng(key, 99).permutation(data.n)
        split_rows = checks.read_csv(out / "pips_splits.csv")
        splits = []
        for s, idx in enumerate(np.array_split(perm, w.splits)):
            idx = np.sort(idx)
            sub = bb.RegressionDataset(z=data.z[idx], y=data.y[idx])
            splits.append(selection(sub, hyper, b_ref, REF_ENTROPY + 100 * key + s + 1,
                                    standard_pips(split_rows, w.d, split=str(s))))
        items[str(key)] = {"full": full, "splits": splits}
    return {"b_ref": b_ref, "items": items}


def mismatch_tall() -> dict:
    w = wl.MismatchTall
    batches = 16
    hyper = bb.NIGHyperparams(a0=2.0, b0=1.0, lam=16.0, q0=0.5, k_star=w.d)
    gamma = np.ones(w.d, dtype=np.uint8)
    items = {}
    for key in range(w.pool):
        config = bb.SimConfig(d=w.d, k=1, n=w.n, response_kind="nonlinear", seed=key)
        data = bb.sample_dataset(config, rng=child_rng(key, 0))
        standard = bb.linreg.param_moments_from_stats(
            bb.weighted_stats(data, np.ones(data.n)), gamma, hyper)
        rng = np.random.default_rng(REF_ENTROPY + key)
        pvec = np.full(data.n, 1.0 / data.n)
        values: dict[str, list[float]] = {}
        for _ in range(batches):
            reps = [bb.linreg.param_moments_from_stats(
                bb.weighted_stats(data, rng.multinomial(data.n, pvec)), gamma, hyper)
                for _ in range(w.b)]
            _, per = bb.mismatch_index_proj(standard, reps)
            for label, item in per.items():
                if item.is_na:
                    raise SystemExit(f"mismatch item {key}: NA in a reference batch")
                values.setdefault(label, []).append(math.log(1.0 - item.value))
        items[str(key)] = {
            "center": {k: float(np.mean(v)) for k, v in values.items()},
            # spread of one B-replicate estimate, widened for the error of the center
            "se": {k: float(np.std(v, ddof=1) * math.sqrt(1 + 1 / batches))
                   for k, v in values.items()},
        }
    return {"batches": batches, "items": items}


def contrasts(kind: str, value: float) -> tuple[np.ndarray, np.ndarray]:
    """Anchor-0 contrast mean and covariance of one three-model scenario."""
    base = 0.5 + 0.5 * np.eye(3)
    mu = np.zeros(3)
    if kind == "vary_mean":
        mu[2], sigma = value, base
    elif kind == "vary_variance":
        scale = np.array([1.0, 1.0, value])
        sigma = base * np.outer(scale, scale)
    else:
        sigma = np.eye(3)
        sigma[0, 1] = sigma[1, 0] = value
    a = np.array([[1.0, -1.0, 0.0], [1.0, 0.0, -1.0]])
    return a @ mu, a @ sigma @ a.T


def asymptotics_3model() -> dict:
    n_ref, threshold, c = 400_000, 0.1, 1.0
    delta = np.arange(0.0, 3.0 + 0.125, 0.25)
    c_grid = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    u = np.arange(0.02, 0.98 + 0.01, 0.02)
    z = norm.ppf(u)
    rows = []
    for row, (kind, value) in enumerate(wl.three_model_rows()):
        mu, sigma = contrasts(kind, value)
        law = multivariate_normal(mean=np.zeros(2), cov=sigma)
        w = mu + np.random.default_rng(REF_ENTROPY + row).standard_normal((n_ref, 2)) @ np.linalg.cholesky(sigma).T
        rows.append({
            "kind": kind, "value": value,
            "p_std_wrong": float(1.0 - law.cdf(mu)),
            "frac_bagged_below": float(np.mean(law.cdf(math.sqrt(c) * w) < threshold)),
            "n_ref": n_ref,
        })
    return {
        "n_samples": 4000,
        "two_model": {
            "delta_grid": delta.tolist(), "c_grid": c_grid.tolist(), "u_grid": u.tolist(),
            "p_std_wrong": norm.sf(delta).tolist(),
            "p_bagged_below": norm.cdf(norm.ppf(threshold) / np.sqrt(c_grid)[None, :]
                                       - delta[:, None]).tolist(),
            "density": (norm.pdf(z[None, None, :] / np.sqrt(c_grid)[None, :, None]
                                 - delta[:, None, None])
                        / np.sqrt(c_grid)[None, :, None] / norm.pdf(z)[None, None, :]).tolist(),
        },
        "checkpoints": {"p_std_wrong_delta2": float(norm.sf(2.0)),
                        "ubb_cdf_0.1_delta2_c1": float(norm.cdf(norm.ppf(0.1) - 2.0))},
        "rows": rows,
    }


BUILDERS = {"bag-sparse": bag_sparse, "select-allsubsets": select_allsubsets,
            "mismatch-tall": mismatch_tall, "asymptotics-3model": asymptotics_3model}


def main(names) -> None:
    logging.basicConfig(level=logging.WARNING)
    (HERE / "refs").mkdir(exist_ok=True)
    for name in names or BUILDERS:
        t0 = time.perf_counter()
        refs = BUILDERS[name]()
        path = HERE / "refs" / f"{name}.json"
        path.write_text(json.dumps(refs, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{name}: wrote {path.name} in {time.perf_counter() - t0:.0f} s", flush=True)
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK.parent / "select.csv").unlink(missing_ok=True)


if __name__ == "__main__":
    main(sys.argv[1:])
