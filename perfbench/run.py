"""bayesbag benchmark: closed-loop CLI workloads with output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  One
process runs one workload: items (one ``bayesbag.cli.main`` call each) run
one after another until ``--seconds`` of wall clock have passed, and every
item's output files are checked against ``refs/``.  ``--workload all``
runs each workload in its own process, one after another.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` each item runs untraced and then traced, and the last line
reports per-layer metrics from the traced calls (see ``tracing.py``), per
item, plus the tracing overhead.  Spans are written to
``.bench_work/trace-<workload>-seed<N>.json``.  BLAS threading is left at
the machine default and recorded in the ``meta`` line.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

END_TO_END = {
    "items_per_s": "1/s",
    "item_s_p50": "s",
    "item_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

# per-item calls and self time of the functions the layer predictions name
TRACED_FUNCTIONS = (
    "linreg.model_log_marginals",
    "linreg.weighted_stats",
    "linreg.evaluator",
    "linreg.param_moments_from_stats",
    "core.bagged_model_posterior",
    "core.replicate_rng",
    "simgen.sample_dataset",
    "asymptotics.sample_ubb_K",
    "asymptotics.mvn_cdf_at_zero",
    "mismatch.mismatch_index_proj",
)
TWO_MODEL = ("asymptotics.ubb_cdf", "asymptotics.ubb_density")
LAYER_SELF = ("cli", "core", "linreg", "simgen", "asymptotics", "mismatch")
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYER_SELF},
    **{f"{fn}.{kind}": unit for fn in TRACED_FUNCTIONS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "asymptotics.two_model.self_s": "s",
    "linreg.models_evaluated": "count",
    "linreg.us_per_model": "us",
    "linreg.weighted_stats.bytes": "B",
    "core.replicates": "count",
    "trace.overhead_frac": "frac",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fresh_import_s() -> float:
    """Wall time of a new interpreter importing the CLI, as every CLI call pays."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import bayesbag.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def _openblas_threads(module) -> dict:
    """Live thread count of each OpenBLAS bundled with numpy or scipy."""
    out = {}
    for lib in sorted((Path(module.__file__).parent.parent / f"{module.__name__}.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[lib.name] = fn()
                break
    return out


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_metadata(args) -> dict:
    import numpy
    import scipy

    blas = {}
    for module in (numpy, scipy):
        config = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[module.__name__] = {
            "name": config.get("name"), "version": config.get("version"),
            "config": config.get("openblas configuration"),
            "threads": _openblas_threads(module),
        }
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
    }


def run_item(workload, item, outdir: Path) -> tuple[bool, float, float]:
    """One CLI call, timed, then its output check.  Returns (ok, wall, cpu)."""
    import checks
    from bayesbag import cli

    shutil.rmtree(outdir, ignore_errors=True)
    argv = [*item.argv, "--out", str(outdir)]
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:  # an item that raises counts as failed; the loop goes on
        traceback.print_exc()
        code = None
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if code != 0:
        problems = [f"exit code {code}"]
    else:
        try:
            problems = checks.manifest_files(outdir) + workload.check(item, outdir)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    for problem in problems[:5]:
        print(f"FAIL item {item.key} seed {item.seed}: {problem}", file=sys.stderr)
    return not problems, wall, cpu


def run_workload(args) -> int:
    import bayesbag
    import workloads
    from tracing import Tracer

    if Path(bayesbag.__file__).resolve().parent != SRC / "bayesbag":
        print(f"bayesbag imported from {bayesbag.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    meta = run_metadata(args)
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    outdir = workdir / "out"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            setups.append(time.perf_counter() - t0 + fresh_import_s())

        tracer = Tracer() if args.trace else None
        walls, cpus, traced_walls, oks = [], [], [], []
        t_loop = time.perf_counter()
        while time.perf_counter() - t_loop < args.seconds:
            item = workload.next_item()
            ok, wall, cpu = run_item(workload, item, outdir)
            oks.append(ok)
            walls.append(wall)
            cpus.append(cpu)
            if tracer is not None:
                tracer.item = len(traced_walls)
                tracer.install()
                try:
                    ok, wall, _ = run_item(workload, item, outdir)
                finally:
                    tracer.uninstall()
                oks.append(ok)
                traced_walls.append(wall)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, passed = len(oks), sum(oks)
    meta["items"] = len(walls)
    if len(walls) >= 100:  # ten samples beyond the 90th percentile
        meta["item_s_p90"] = statistics.quantiles(walls, n=10)[-1]
    if tracer is None:
        metrics = {
            "items_per_s": passed / sum(walls),
            "item_s_p50": statistics.median(walls),
            "item_cpu_s": sum(cpus) / len(cpus),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": passed / attempted,
        }
        units = END_TO_END
    else:
        metrics = layer_metrics(tracer, traced_walls, walls, meta)
        units = PER_LAYER
        spans_path = ROOT / ".bench_work" / f"trace-{args.workload}-seed{args.seed}.json"
        spans_path.parent.mkdir(exist_ok=True)
        tracer.write(spans_path)
        meta["spans"] = str(spans_path.relative_to(ROOT))

    print(f"meta {json.dumps(meta, sort_keys=True)}")
    print(f"{args.workload} seed {args.seed}: {attempted} items attempted, "
          f"{attempted - passed} failed (failed_frac {(attempted - passed) / attempted:g})")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    result = {
        "correct": passed == attempted,
        "attempted": attempted,
        "failed": attempted - passed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, traced_walls, untraced_walls, meta) -> dict:
    per_item = tracer.summary(len(traced_walls))
    absent = sorted(fn for fn in (*TRACED_FUNCTIONS, *TWO_MODEL) if fn not in tracer.functions)
    meta["absent"] = absent  # removed from the package: reported as 0
    meta["not_called"] = sorted(fn for fn in TRACED_FUNCTIONS
                                if fn in tracer.functions and f"{fn}.calls" not in per_item)
    metrics = {name: per_item.get(name, 0.0) for name in PER_LAYER}
    metrics["asymptotics.two_model.self_s"] = sum(per_item.get(f"{fn}.self_s", 0.0) for fn in TWO_MODEL)
    models = per_item.get("linreg.models_evaluated", 0.0)
    metrics["linreg.us_per_model"] = (
        1e6 * per_item.get("linreg.model_log_marginals.total_s", 0.0) / models if models else 0.0)
    metrics["trace.overhead_frac"] = (
        sum(traced_walls) / sum(untraced_walls[:len(traced_walls)]) - 1.0)
    return metrics


def run_all(args) -> int:
    """Every workload in its own process, so peak memory stays per workload."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"{name}: exit code {done.returncode}", file=sys.stderr)
            code = 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    if code == 0:
        print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bayesbag" / "__init__.py").is_file():
        print(f"no bayesbag package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the CLI configures INFO logging only if nothing is configured yet
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
