"""Command-line front end: simulation studies, real-data feature selection
with split reproducibility, limit-law sweeps, mismatch reports, and
discrete-posterior overlap.

Every subcommand is deterministic given its configuration and seed, and
writes plot-ready CSV/JSON files plus a manifest describing their schemas
and every setting of the run through one writer, ``_write_results``;
``schema-check`` re-validates a result directory against the manifest.
The writer renders every file, checking each float cell as it formats a
CSV column whole, before it makes the directory.
Each setting has one name, its flag in lower case without the leading
dashes and with ``_`` for ``-``: that is its argparse dest, its
``@FILE`` line and its manifest key.  An argument ``@FILE`` stands for the
lines of FILE, one argument a line, so a flag after it overrides the file.

Every command runs with numpy's OpenBLAS at one thread, unless the
environment sets a thread count, and the caller's count is restored
afterwards: the block products gain no wall time from more threads, and
one thread makes the results the same on any number of cores.  The
manifest's ``run`` block records the count a command ran with.

``simulate`` and ``mismatch`` without ``--data`` generate the synthetic
dataset on one worker thread while the main thread draws the first block
of bootstrap counts, which needs only N; the evaluator waits for the
dataset when it first needs it.  The two use separate seeded streams and
BLAS stays at one thread, so the results do not depend on thread timing.
The worker is joined before the command returns, and an error of the
generation is reported as itself.

``select``, ``simulate`` and ``mismatch`` run each bagging run (the full
data and each split; each replicate dataset; the dataset) in two stages.
``evaluate_replicates`` gathers the run's ``weighted_stats`` rows, the
one statistics format, as one (1 + B)-row array, row 0 of the data and
row i of its replicate i, the numbering errors use; only ``linreg`` reads
the fields of a row.  ``select`` and ``simulate`` then evaluate the
rows of consecutive runs by one ``model_log_marginals`` call, up to
``_PASS_FLOATS`` log evidences (a larger run alone), and normalize each
run by ``bagged_from_log_evidence``; ``mismatch`` takes the moments of
all its rows by one ``param_moments_from_stats`` call.  A row's values do
not depend on the rows beside it, so passes change no result.  ``read_regression_csv``
parses a ``--data`` CSV's body with one ``np.loadtxt`` call and falls back
to a row loop that gives the same arrays or the line-numbered error.

Exit codes: 0 success, 1 usage error, 2 data error, 3 resource-guard
rejection.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import io
import json
import logging
import os
import sys
import threading
import warnings
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from . import __version__, core
from .asymptotics import (
    STRONG_FAVOR_THRESHOLD,
    KModelLaw,
    TwoModelLaw,
    mvn_cdf_at_zero,
    reduce_to_contrasts,
    sample_ubb_K,
    std_limit_bernoulli_2,
    three_model_scenarios,
    ubb_cdf,
    ubb_density,
)
from .compare import count_matrices, hpd_overlap, load_posterior_samples, overlap_ci
from .core import (
    BootstrapConfig,
    bagged_from_log_evidence,
    evaluate_replicates,
    replicate_rng,
)
from .errors import (
    BayesBagError,
    IngestionError,
    InvalidArgumentError,
    NumericDomainError,
    ResourceLimitError,
)
from .linreg import (
    NIGHyperparams,
    RegressionDataset,
    enumerate_models,
    log_priors,
    model_log_marginals,
    param_moments_from_stats,
    pips,
    weighted_stats,
)
from .mismatch import mismatch_index_proj
from .simgen import SimConfig, sample_dataset

log = logging.getLogger("bayesbag")

SCHEMA_VERSION = 1

# column kinds: int, float, str; "float?" permits an empty cell
SCHEMAS = {
    "pips-v1": [("replicate", "int"), ("method", "str"), ("component", "int"), ("pip", "float")],
    "pip-summary-v1": [
        ("method", "str"),
        ("component", "int"),
        ("pip_mean", "float"),
        ("pip_var", "float"),
        ("frac_mid", "float"),
    ],
    "pips-full-v1": [("method", "str"), ("component", "int"), ("pip", "float")],
    "pips-splits-v1": [
        ("split", "int"),
        ("method", "str"),
        ("component", "int"),
        ("pip", "float"),
    ],
    "reproducibility-v1": [
        ("method", "str"),
        ("component", "int"),
        ("pip_min", "float"),
        ("pip_max", "float"),
        ("pip_range", "float"),
    ],
    "two-model-events-v1": [
        ("delta", "float"),
        ("c", "float"),
        ("p_std_wrong", "float"),
        ("threshold", "float"),
        ("p_bagged_below", "float"),
    ],
    "two-model-density-v1": [("delta", "float"), ("c", "float"), ("u", "float"), ("density", "float")],
    "three-model-curves-v1": [
        ("scenario", "str"),
        ("value", "float"),
        ("c", "float"),
        ("p_std_wrong", "float"),
        ("p_std_wrong_se", "float"),
        ("threshold", "float"),
        ("frac_bagged_below", "float"),
        ("frac_bagged_below_se", "float"),
    ],
    "checkpoint-v1": [("name", "str"), ("value", "float")],
    "overlap-v1": [
        ("label_a", "str"),
        ("label_b", "str"),
        ("level", "float"),
        ("mass_a", "float"),
        ("mass_b", "float"),
        ("mass_avg", "float"),
        ("count", "int"),
        ("ci_lo", "float?"),
        ("ci_hi", "float?"),
    ],
}

MISMATCH_REPORT_SCHEMA = "mismatch-report-v1"
MISMATCH_REPORT_KEYS = ("overall", "per_coordinate", "b", "m", "seed", "n", "d")

DATASET_SCHEMA = "dataset-v1"

# row order of a (2, D) array of pips; summaries sort by method name instead
METHODS = ("standard", "bayesbag")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidArgumentError(message)


def _fmt(value) -> str:
    return format(float(value), ".12g")


def _child_seed(seed: int, *key: int) -> int:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return int(seq.generate_state(1, np.uint64)[0])


def _bootstrap_size(text: str) -> int | str:
    """An argparse type for ``--M``: a positive integer, or the literal "N"
    meaning the size of the dataset (or split) being analyzed."""
    if text.strip().upper() == "N":
        return "N"
    try:
        m = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a positive integer or 'N', got {text!r}") from None
    if m < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {m}")
    return m


def _resolve_m(m: int | str, n: int) -> int:
    """The bootstrap size: ``m``, or ``n`` for "N"."""
    return n if m == "N" else m


def _int_at_least(low: int):
    """An argparse type: an integer that is at least ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


_GRID_GUARD = 10_000_000  # most cells of a grid or a table, the model guard's scale


def _parse_grid(text: str) -> np.ndarray:
    """Grid syntax: comma-separated values, or start:stop:step (inclusive).
    A range of more than ``_GRID_GUARD`` points is a ``ResourceLimitError``."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"grid ranges need start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise argparse.ArgumentTypeError("grid step must be positive")
        if (stop + 0.5 * step - start) / step > _GRID_GUARD:
            raise ResourceLimitError(f"grid {text!r} has more than {_GRID_GUARD} points; use a larger step")
        return np.arange(start, stop + 0.5 * step, step)
    return np.array([float(p) for p in text.split(",") if p.strip() != ""])


def _read_text(path) -> str:
    """A file's text, decoded as UTF-8 with its line endings kept; a file
    that cannot be read or decoded is a data error that names it."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc


def _read_json_object(path) -> dict:
    """A JSON file that holds an object; anything else is a data error."""
    try:
        value = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise IngestionError(f"cannot load {path}: {exc}") from exc
    if not isinstance(value, dict):
        raise IngestionError(f"{path}: expected a JSON object, got {type(value).__name__}")
    return value


def _expand_arg_files(argv: list[str]) -> list[str]:
    """``argv`` with each ``@PATH`` token replaced, in place, by the lines
    of that file: one token a line, stripped, blank and ``#`` lines dropped.
    Lines end at ``\n``, ``\r\n`` or ``\r`` only, so a U+2028 or form feed
    inside a value stays in it."""
    tokens = []
    for token in argv:
        if not token.startswith("@"):
            tokens.append(token)
            continue
        text = _read_text(token[1:]).replace("\r\n", "\n").replace("\r", "\n")
        lines = (line.strip() for line in text.split("\n"))
        tokens += [line for line in lines if line and not line.startswith("#")]
    return tokens


# ---------------------------------------------------------------------------
# result files


def _dataset_spec(d: int) -> list[tuple[str, str]]:
    """Columns of a generated dataset: z1..zD then y, every cell a float."""
    return [(f"z{j}", "float") for j in range(1, d + 1)] + [("y", "float")]


def _spec(schema: str, columns: list) -> list[tuple[str, str]]:
    """The (name, kind) columns of a CSV result of this schema."""
    return _dataset_spec(len(columns) - 1) if schema == DATASET_SCHEMA else SCHEMAS[schema]


def _quote(cell: str) -> str:
    """A str cell as ``csv.QUOTE_MINIMAL`` writes it with a ``"\\r\\n"`` line
    terminator: quoted, with each ``"`` doubled, if it holds a comma, a
    quote, a newline or a carriage return, so a reader that ends records
    at either one reads the cell whole."""
    if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _format_column(filename: str, name: str, values, kind: str) -> list[str]:
    """The cells of column ``name`` of the CSV file ``filename``, each kind
    formatted by one C-level call: a float as ``%.12g`` (an empty cell for
    ``None`` in a ``float?`` column), an int as ``%d``, a str quoted by
    ``_quote``.  Any other float cell that is not finite is a
    ``NumericDomainError`` naming the file and column."""
    if kind == "str":
        return [_quote(str(v)) for v in values]
    if kind == "int":
        ints = np.asarray(values).tolist()
        return ("%d\n" * len(ints) % tuple(ints)).split("\n")[:-1]
    floats = np.array(values, dtype=float)  # None becomes nan
    empty = np.array([v is None for v in values], bool) if kind == "float?" else np.zeros(floats.shape, bool)
    if not np.all(np.isfinite(floats) | empty):
        raise NumericDomainError(f"{filename}: column {name!r} has a non-finite value")
    # each distinct bit pattern is formatted once; bits keep -0.0 apart from 0.0
    bits, inverse = np.unique(floats.view(np.int64), return_inverse=True)
    text = ("%.12g\n" * bits.size % tuple(bits.view(np.float64).tolist())).split("\n")
    cells = np.array(text, dtype=object)[inverse]
    cells[empty] = ""
    return cells.tolist()


# namespace entries that are plumbing, not settings of the run
_NOT_SETTINGS = ("command", "func", "out")


def _write_results(args: argparse.Namespace, files: dict, **resolved) -> None:
    """Write every result file of a run, then the manifest that lists them.

    ``files`` maps a filename to ``(schema, content)``.  The manifest's
    ``config`` is every setting in ``args`` under its dest, with the values
    the command ``resolved`` from the data written over it.  Each file is
    rendered before the directory is made, so a non-finite float cell that
    ``_format_column`` refuses leaves nothing written: a dict as JSON, a
    list of columns as CSV, its rows joined by ``str.join`` (no rows: the
    header line).  Each file is written by one ``write`` call.  A directory
    that cannot be made or written, such as a path that is or runs through a
    file, is an ``InvalidArgumentError`` naming it.
    """
    config = {key: value for key, value in vars(args).items() if key not in _NOT_SETTINGS}
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool": "bayesbag",
        "command": args.command,
        "files": {filename: schema for filename, (schema, _) in files.items()},
        "config": {**config, **resolved},
        "run": _run_record(),
    }
    texts = {}
    for filename, (schema, content) in {**files, "manifest.json": (None, manifest)}.items():
        if isinstance(content, dict):
            texts[filename] = json.dumps(content, indent=2, sort_keys=True, default=np.ndarray.tolist)
            continue
        spec = _spec(schema, content)
        columns = [_format_column(filename, name, v, kind) for v, (name, kind) in zip(content, spec)]
        texts[filename] = "\n".join([",".join(name for name, _ in spec), *map(",".join, zip(*columns))])
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for filename, text in texts.items():
            with open(outdir / filename, "w", newline="\n", encoding="utf-8") as fh:
                fh.write(text + "\n")
    except OSError as exc:
        raise InvalidArgumentError(f"--out {outdir} cannot be written: {exc}") from None
    log.info("wrote %s", outdir)


# ---------------------------------------------------------------------------
# CSV ingestion


def _csv_rows(path, text: str):
    """``(line number, row)`` for each record of ``text``, the contents of
    the CSV file ``path``; a record the csv module cannot parse is a data
    error that names the file and line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise IngestionError(f"{path}:{reader.line_num}: {exc}") from None


def _table_by_rows(path, rows, width: int) -> np.ndarray:
    """The data records ``rows`` as a (records, width) float table, one
    ``float`` call a cell; blank records are skipped, and a ragged, unparsable
    or non-finite record is a data error naming its line."""
    table, linenos = [], []
    for lineno, row in rows:
        if not row or all(cell.strip() == "" for cell in row):
            continue
        if len(row) != width:
            raise IngestionError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        try:
            table.append([float(cell) for cell in row])
        except ValueError as exc:
            raise IngestionError(f"{path}:{lineno}: {exc}") from None
        linenos.append(lineno)
    if not table:
        raise IngestionError(f"{path}: no data rows")
    table = np.array(table)
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        line, cells = linenos[bad[0]], table[bad[0]].tolist()
        raise IngestionError(f"{path}:{line}: values must be finite, got {cells}")
    return table


def read_regression_csv(path, target: str) -> tuple[RegressionDataset, list[str]]:
    """Read a header-first CSV into regressors/response, with line-numbered
    parse errors.  Returns the dataset and the regressor column names.

    The file is read once; ``csv`` parses the header.  One ``np.loadtxt``
    call parses every line after it, on the text with its line ends read as
    ``\\n``, so that loadtxt counts the lines the csv module counts.  Where
    a line may be longer than ``csv.field_size_limit()`` (some
    ``field_size_limit() // 2`` characters hold no ``\\n``), or loadtxt
    refuses the text, or its table is empty, narrower or wider than the
    header, or not finite, the records are parsed one ``float`` call a cell
    instead, which skips blank records and raises the line-numbered error.
    Both parses round each number correctly, so an accepted file gives the
    same arrays either way.
    """
    text = _read_text(path)
    rows = _csv_rows(path, text)
    header_line, header = next(rows, (0, None))
    if header is None:
        raise IngestionError(f"{path}: empty file")
    header = [h.strip() for h in header]
    repeated = sorted({h for h in header if header.count(h) > 1})
    if repeated:
        raise IngestionError(f"{path}: header repeats column(s) {repeated}")
    if target not in header:
        raise IngestionError(f"{path}: target column {target!r} not in header {header}")
    if len(header) == 1:
        raise IngestionError(f"{path}: no regressor columns besides target {target!r}")
    table = None
    # loadtxt has no field size limit, so a text that may hold a line longer
    # than the csv module's limit, and so a cell it refuses, goes to the row
    # loop: every such line holds a whole window [k half, (k + 1) half) with no "\n"
    half = csv.field_size_limit() // 2
    if all(text.find("\n", i, i + half) >= 0 for i in range(0, len(text) - half + 1, half)):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # loadtxt warns on a header-only file
                table = np.loadtxt(io.StringIO(text, newline=None), delimiter=",", comments=None,
                                   quotechar='"', skiprows=header_line, ndmin=2)
        except ValueError:
            pass
    if table is None or table.size == 0 or table.shape[1] != len(header) or not np.isfinite(table).all():
        table = _table_by_rows(path, rows, len(header))
    t_idx = header.index(target)
    names = [h for i, h in enumerate(header) if i != t_idx]
    return RegressionDataset(z=np.delete(table, t_idx, axis=1), y=table[:, t_idx].copy()), names


def standardize_regressors(data: RegressionDataset, names) -> RegressionDataset:
    """Center and scale each regressor to mean 0, variance 1.  A constant
    column is a data error; it is found by its extremes, since its computed
    standard deviation can round to a tiny nonzero value."""
    dead = np.flatnonzero(data.z.max(axis=0) == data.z.min(axis=0))
    if dead.size:
        bad = ", ".join(names[i] for i in dead)
        raise IngestionError(f"zero-variance column(s) cannot be standardized: {bad}")
    return RegressionDataset(z=(data.z - data.z.mean(axis=0)) / data.z.std(axis=0), y=data.y)


# ---------------------------------------------------------------------------
# shared selection machinery


def _selection_hyper(args, d: int, default_q0: float, default_lam: float) -> NIGHyperparams:
    """Prior settings; unset q0 and lambda take the subcommand's default,
    an unset k* means every size up to D."""
    lam = getattr(args, "lambda")
    return NIGHyperparams(
        a0=args.a0,
        b0=args.b0,
        lam=default_lam if lam is None else lam,
        q0=default_q0 if args.q0 is None else args.q0,
        k_star=d if args.k_star is None else min(args.k_star, d),
    )


@contextmanager
def _dataset_ahead(config: SimConfig, rng: np.random.Generator):
    """Generate ``sample_dataset(config, rng)`` on one worker thread while
    the body goes on, and yield a function that waits for the dataset and
    returns it.  The worker is joined before the context exits.  If the
    body fails, an error of the generation is raised in its place, as it
    would have been raised first had the dataset been generated first.
    A bare thread costs about half the CPU of a one-worker
    ``ThreadPoolExecutor``, and its module is already loaded."""
    made = {}

    def generate():
        try:
            made["data"] = sample_dataset(config, rng)
        except BaseException as exc:
            made["error"] = exc

    worker = threading.Thread(target=generate, name="bayesbag-dataset")
    worker.start()

    def dataset():
        worker.join()
        if "error" in made:
            raise made["error"]
        return made["data"]

    try:
        yield dataset
    except Exception:
        dataset()
        raise
    finally:
        worker.join()


def _replicate_stats(dataset, n: int, d: int, m: int, b: int, boot_seed: int) -> np.ndarray:
    """Stage one of a bagging run: the ``weighted_stats`` rows of the
    ``n``-row, ``d``-regressor dataset ``dataset()``, row 0 at unit weights
    and row i at bootstrap replicate i.  ``dataset`` is first called once
    the first block of counts is drawn."""
    config = BootstrapConfig(m=m, b=b, seed=boot_seed)
    return evaluate_replicates(lambda w: weighted_stats(dataset(), w), n, config, d * d + d + 2)


# Floats of (weight row, model) log evidences one model-layer pass holds:
# consecutive runs share a pass while their rows x K fit, and a run is never
# split, so no pass is larger than this or than one run alone.
_PASS_FLOATS = 1 << 19


def _run_error(run: int, exc: NumericDomainError) -> NumericDomainError:
    """The model-layer error ``exc`` on the rows of bagging run ``run``, naming the run."""
    return NumericDomainError(
        f"run {run} (weight row 0 is its unit-weight row, row i its replicate i): {exc}"
    )


def _selection_pips(runs, models: np.ndarray, hyper: NIGHyperparams) -> np.ndarray:
    """Stage two: standard and bagged posterior inclusion probabilities,
    (runs, 2, D) in ``METHODS`` order, of the ``weighted_stats`` rows of
    each run of the iterable ``runs``.  One ``model_log_marginals`` call
    evaluates the rows of consecutive runs together, up to
    ``_PASS_FLOATS`` log evidences; each row's evidences do not depend on
    the rows beside it.
    If the pass fails, its runs are evaluated one at a time, and the error
    names the first failing run and a weight row counted within it."""
    k = models.shape[0]
    log_prior = log_priors(models, hyper)
    table, batch = [], []

    def evaluate():
        try:
            log_ml = model_log_marginals(np.concatenate(batch), models, hyper)
        except NumericDomainError:
            for run, rows in enumerate(batch, start=len(table)):
                try:
                    model_log_marginals(rows, models, hyper)
                except NumericDomainError as exc:
                    raise _run_error(run, exc) from exc
            raise
        for run in np.split(log_ml, np.cumsum([len(rows) for rows in batch[:-1]])):
            bagged = bagged_from_log_evidence(run, log_prior)
            table.append([pips(bagged.standard_probs, models), pips(bagged.mean_probs, models)])
        batch.clear()

    for rows in runs:
        if batch and (sum(map(len, batch)) + len(rows)) * k > _PASS_FLOATS:
            evaluate()
        batch.append(rows)
    evaluate()
    return np.array(table)


def _pip_columns(table: np.ndarray) -> list:
    """(runs, 2, D) pips as the columns run, method, component, pip, in
    (run, ``METHODS``, component) row order."""
    runs, _, d = table.shape
    return [
        np.repeat(np.arange(runs), 2 * d),
        np.tile(np.repeat(METHODS, d), runs),
        np.tile(np.arange(1, d + 1), 2 * runs),
        table.ravel(),
    ]


def _by_method_name(table: np.ndarray):
    """(runs, 2, D) pips regrouped by (method name, component), so bayesbag
    comes before standard: the columns method, component, and a contiguous
    (2 D, runs) array whose last axis is reduced as a whole (numpy then sums
    pairwise, exactly as over one run list)."""
    runs, _, d = table.shape
    values = np.ascontiguousarray(table[:, ::-1].transpose(1, 2, 0)).reshape(2 * d, runs)
    return [np.repeat(METHODS[::-1], d), np.tile(np.arange(1, d + 1), 2)], values


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    d, k, n, seed, b = args.d, args.k, args.n, args.seed, args.b
    config = SimConfig(d=d, k=k, n=n, response_kind=args.response, h=args.h, seed=seed)
    hyper = _selection_hyper(args, d, default_q0=k / d, default_lam=16.0)

    models = enumerate_models(d, hyper.k_star)
    m = _resolve_m(args.m, n)
    log.info(
        "runtime guard: %d models x %d posterior evaluations x %d replicates "
        "= %d weighted-likelihood evaluations",
        models.shape[0], b + 1, args.replicates, models.shape[0] * (b + 1) * args.replicates,
    )

    files = {}

    def runs():
        for r in range(args.replicates):
            with _dataset_ahead(config, replicate_rng(seed, r, 0)) as dataset:
                stats = _replicate_stats(dataset, n, d, m, b, _child_seed(seed, r, 1))
            if args.export_data:
                data = dataset()
                files[f"dataset_{r:03d}.csv"] = (DATASET_SCHEMA, [*data.z.T, data.y])
            yield stats

    table = _selection_pips(runs(), models, hyper)
    keys, values = _by_method_name(table)
    spread = values.var(axis=1, ddof=1) if args.replicates > 1 else np.zeros(2 * d)
    frac_mid = np.mean((values > 0.1) & (values < 0.9), axis=1)
    files["pips.csv"] = ("pips-v1", _pip_columns(table))
    files["summary.csv"] = ("pip-summary-v1", [*keys, values.mean(axis=1), spread, frac_mid])
    _write_results(
        args, files, **{"q0": hyper.q0, "lambda": hyper.lam, "k_star": hyper.k_star, "m": m}
    )
    return 0


def _split_indices(n: int, n_splits: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Seeded random partition into parts whose sizes differ by at most 1."""
    return [np.sort(part) for part in np.array_split(rng.permutation(n), n_splits)]


def cmd_select(args) -> int:
    n_splits, seed, b = args.splits, args.seed, args.b
    data, names = read_regression_csv(args.data, args.target)
    if n_splits > data.n:
        raise InvalidArgumentError(f"--splits {n_splits} exceeds the {data.n} data rows")
    if args.standardize:
        data = standardize_regressors(data, names)
    if data.n < data.d:
        log.warning("N=%d < D=%d: marginal likelihoods rely heavily on the prior", data.n, data.d)
    # q0 = 3/D, clamped so the default stays a valid probability for tiny D
    hyper = _selection_hyper(args, data.d, default_q0=min(3.0 / data.d, 0.5), default_lam=1.0)
    models = enumerate_models(data.d, hyper.k_star)
    log.info(
        "runtime guard: %d models x %d posterior evaluations x %d runs",
        models.shape[0], b + 1, n_splits + 1,
    )

    # run 0 is the full data, run s + 1 split s
    parts = _split_indices(data.n, n_splits, replicate_rng(seed, 99))
    subsets = [data, *(RegressionDataset(z=data.z[idx], y=data.y[idx]) for idx in parts)]
    runs = (
        _replicate_stats(lambda: sub, sub.n, data.d, _resolve_m(args.m, sub.n), b,
                         _child_seed(seed, s, 1))
        for s, sub in enumerate(subsets)
    )
    table = _selection_pips(runs, models, hyper)
    full, splits = table[0], table[1:]

    keys, values = _by_method_name(splits)
    lo, hi = values.min(axis=1), values.max(axis=1)
    _write_results(
        args,
        {
            "pips_full.csv": ("pips-full-v1", _pip_columns(full[None])[1:]),
            "pips_splits.csv": ("pips-splits-v1", _pip_columns(splits)),
            "reproducibility.csv": ("reproducibility-v1", [*keys, lo, hi, hi - lo]),
        },
        **{"q0": hyper.q0, "lambda": hyper.lam, "k_star": hyper.k_star},
    )
    return 0


def cmd_asymptotics(args) -> int:
    seed, threshold = args.seed, args.threshold
    n_samples, three_model_c = args.n_samples, args.three_model_c

    # one law over the (delta, c) cells, one over the (delta, c, u) cells;
    # rows run over delta, then c, then u
    size = args.delta_grid.size * args.c_grid.size * max(1, args.u_grid.size)
    if size > _GRID_GUARD:
        raise ResourceLimitError(f"the (delta, c, u) table would hold {size} cells, more than {_GRID_GUARD}")
    delta, c = (g.ravel() for g in np.meshgrid(args.delta_grid, args.c_grid, indexing="ij"))
    cells = TwoModelLaw(delta, c)
    events = [delta, c, 1.0 - std_limit_bernoulli_2(cells), [threshold] * delta.size,
              ubb_cdf(threshold, cells)]
    delta, c, u = (g.ravel() for g in np.meshgrid(args.delta_grid, args.c_grid, args.u_grid,
                                                  indexing="ij"))
    # the law broadcasts over a (delta, c, u) box, so Phi^{-1} runs once per u
    law = TwoModelLaw(args.delta_grid[:, None, None], args.c_grid[:, None])
    density = [delta, c, u, ubb_density(args.u_grid, law).ravel()]

    checkpoint_law = TwoModelLaw(2.0, 1.0)
    checkpoints = [
        ("p_std_wrong_delta2", 1.0 - std_limit_bernoulli_2(checkpoint_law)),
        ("ubb_cdf_0.1_delta2_c1", ubb_cdf(0.1, checkpoint_law)),
    ]
    for name, value in checkpoints:
        log.info("checkpoint %s = %s", name, _fmt(value))

    scenario_grids = {
        "vary_mean": args.mu3_grid,
        "vary_variance": args.sigma3_grid,
        "vary_correlation": args.rho_grid,
    }
    scenario_records = []
    row = 0
    for kind, grid in scenario_grids.items():
        for value, (mu_prime, sigma_prime) in zip(grid, three_model_scenarios(kind, grid)):
            mu, sigma = reduce_to_contrasts(mu_prime, sigma_prime, anchor=0)
            # three models give bivariate contrasts: the orthant is exact (se 0)
            pick = mvn_cdf_at_zero(-mu, sigma)
            samples = sample_ubb_K(KModelLaw(mu, sigma, three_model_c), n_samples, _child_seed(seed, 2, row))
            frac = float(np.mean(samples < threshold))
            frac_se = float(np.sqrt(frac * (1.0 - frac) / samples.size))
            scenario_records.append((kind, value, three_model_c, 1.0 - pick, 0.0, threshold, frac, frac_se))
            row += 1

    _write_results(
        args,
        {
            "two_model_events.csv": ("two-model-events-v1", events),
            "two_model_density.csv": ("two-model-density-v1", density),
            "three_model_curves.csv": ("three-model-curves-v1", list(zip(*scenario_records))),
            "checkpoints.csv": ("checkpoint-v1", list(zip(*checkpoints))),
        },
    )
    return 0


def cmd_mismatch(args) -> int:
    seed, b = args.seed, args.b
    if args.data:
        if not args.target:
            raise InvalidArgumentError("--data requires --target")
        data, names = read_regression_csv(args.data, args.target)
        if args.standardize:
            data = standardize_regressors(data, names)
        d, n = data.d, data.n
        source = {"data": str(args.data), "target": args.target}
        loading = nullcontext(lambda: data)
    else:
        d, k, n = args.d, args.k, args.n
        if d is None or k is None or n is None:
            raise InvalidArgumentError("mismatch requires --data/--target or --D/--k/--N")
        config = SimConfig(d=d, k=k, n=n, response_kind=args.response, h=args.h, seed=seed)
        source = {"d": d, "k": k, "n": n, "response": config.response_kind}
        loading = _dataset_ahead(config, replicate_rng(seed, 0))

    lam = getattr(args, "lambda")
    hyper = NIGHyperparams(
        a0=args.a0,
        b0=args.b0,
        lam=(1.0 if args.data else 16.0) if lam is None else lam,
        q0=0.5,  # unused by the full-model moments
        k_star=d,
    )
    m = n  # the index is defined with M = N

    with loading as dataset:
        rows = _replicate_stats(dataset, n, d, m, b, _child_seed(seed, 1))
    try:
        moments = param_moments_from_stats(rows, np.ones(d), hyper)
    except NumericDomainError as exc:
        raise _run_error(0, exc) from exc
    overall, per_coord = mismatch_index_proj(moments[0], moments[1:])

    def rounded(item):  # at %.12g, like every CSV cell; NA stays null
        return None if item.is_na else float(_fmt(item.value))

    report = {
        "schema": MISMATCH_REPORT_SCHEMA,
        "overall": rounded(overall),
        "per_coordinate": {label: rounded(item) for label, item in per_coord.items()},
        "b": b,
        "m": m,
        "seed": seed,
        "n": n,
        "d": d,
        "source": source,
    }
    _write_results(
        args, {"mismatch.json": (MISMATCH_REPORT_SCHEMA, report)},
        **{"d": d, "n": n, "m": m, "lambda": hyper.lam},
    )
    log.info("overall mismatch index: %s", "NA" if overall.is_na else _fmt(overall.value))
    return 0


def cmd_overlap(args) -> int:
    level, seed, n_boot, ci_level = args.level, args.seed, args.n_boot, args.ci_level
    if not 0.0 < level <= 1.0:
        raise InvalidArgumentError(f"--level must be in (0, 1], got {level}")
    if not 0.0 < ci_level < 1.0:
        raise InvalidArgumentError(f"--ci-level must be in (0, 1), got {ci_level}")
    _, counts_a, counts_b = count_matrices(
        *([load_posterior_samples(p) for p in paths] for paths in (args.a, args.b)))
    result = hpd_overlap(counts_a.sum(0), counts_b.sum(0), level)
    ci_lo = ci_hi = None
    if args.ci:
        ci_lo, ci_hi = overlap_ci(counts_a, counts_b, level, n_boot=n_boot, ci_level=ci_level, seed=seed)

    label_a = ";".join(Path(p).name for p in args.a)
    label_b = ";".join(Path(p).name for p in args.b)
    row = (label_a, label_b, level, *result, ci_lo, ci_hi)
    _write_results(args, {"overlap.csv": ("overlap-v1", [[value] for value in row])})
    log.info(
        "overlap mass_avg=%s count=%d%s",
        _fmt(result.mass_avg), result.count,
        f" ci=({_fmt(ci_lo)}, {_fmt(ci_hi)})" if ci_lo is not None else "",
    )
    return 0


def _check_cell(value: str, kind: str, where: str) -> None:
    if kind == "str":
        return
    if value == "":
        if kind.endswith("?"):
            return
        raise IngestionError(f"{where}: empty cell not allowed")
    try:
        number = int(value) if kind == "int" else float(value)
    except ValueError:
        raise IngestionError(f"{where}: {value!r} is not {kind}") from None
    if kind != "int" and not np.isfinite(number):
        raise IngestionError(f"{where}: {value!r} is not finite")


def cmd_schema_check(args) -> int:
    outdir = Path(args.out)
    where = outdir / "manifest.json"
    manifest = _read_json_object(where)
    version = manifest.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise IngestionError(f"{where}: schema_version {version!r} is not {SCHEMA_VERSION}")
    files = manifest.get("files")
    if not isinstance(files, dict):
        raise IngestionError(f"{where}: 'files' must be an object")
    for filename, schema in files.items():
        # results are plain names in the directory; nothing outside it is read
        if filename in ("", ".", "..") or filename != Path(filename).name:
            raise IngestionError(f"{where}: {filename!r} is not a file name in the result directory")
        if not isinstance(schema, str):
            raise IngestionError(f"{where}: schema of {filename!r} must be a string")
        path = outdir / filename
        if schema == MISMATCH_REPORT_SCHEMA:
            report = _read_json_object(path)
            missing = [key for key in MISMATCH_REPORT_KEYS if key not in report]
            if missing:
                raise IngestionError(f"{path}: missing keys {missing}")
            continue
        if schema != DATASET_SCHEMA and schema not in SCHEMAS:
            raise IngestionError(f"{path}: unknown schema {schema!r}")
        rows = _csv_rows(path, _read_text(path))
        _, header = next(rows, (0, None))
        if schema == DATASET_SCHEMA:
            # a dataset has at least one regressor column
            spec = _dataset_spec(max(len(header or []) - 1, 1))
        else:
            spec = SCHEMAS[schema]
        if header != [name for name, _ in spec]:
            raise IngestionError(f"{path}: header {header} does not match {schema}")
        for lineno, row in rows:
            if len(row) != len(spec):
                raise IngestionError(f"{path}:{lineno}: wrong field count")
            for (name, kind), value in zip(spec, row):
                _check_cell(value, kind, f"{path}:{lineno}:{name}")
        log.info("%s conforms to %s", path, schema)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p: _Parser) -> None:
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="base random seed (default 0)")
    p.add_argument("--out", required=True, help="output directory")


def _add_prior(p: _Parser) -> None:
    p.add_argument("--a0", type=float, default=2.0, help="inverse-gamma shape (default 2)")
    p.add_argument("--b0", type=float, default=1.0, help="inverse-gamma scale (default 1)")
    p.add_argument("--lambda", type=float, help="coefficient precision scale")


def _add_simulation(p: _Parser, required: bool) -> None:
    p.add_argument("--D", dest="d", type=int, required=required, help="number of regressors")
    p.add_argument("--k", type=int, required=required, help="number of causal components")
    p.add_argument("--N", dest="n", type=int, required=required, help="dataset size per replicate")
    p.add_argument("--response", choices=["linear", "nonlinear"], default="linear")
    p.add_argument("--h", type=float, default=10.0, help="chi-squared dof of the scale mixture")


def _add_selection(p: _Parser) -> None:
    p.add_argument("--q0", type=float, default=None, help="prior inclusion probability")
    _add_prior(p)
    p.add_argument("--k-star", type=_int_at_least(1), help="max regressors per model")
    p.add_argument("--M", dest="m", type=_bootstrap_size, default="N",
                   help="bootstrap dataset size; integer or 'N' (default N)")
    _add_replicates(p)


def _add_replicates(p: _Parser, low: int = 1) -> None:
    p.add_argument("--B", dest="b", type=_int_at_least(low), default=core.DEFAULT_REPLICATES,
                   help=f"bootstrap replicates (default {core.DEFAULT_REPLICATES})")


@functools.cache  # built once per process and never changed
def build_parser() -> _Parser:
    # allow_abbrev=False: a prefix such as --b must not bind to --b0
    parser = _Parser(prog="bayesbag", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> _Parser:
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    p = command("simulate", cmd_simulate, "synthetic feature-selection study")
    _add_simulation(p, required=True)
    p.add_argument("--replicates", type=_int_at_least(1), default=50, help="replicate datasets (default 50)")
    p.add_argument("--export-data", action="store_true",
                   help="also write each generated dataset (columns z1..zD, y)")
    _add_selection(p)
    p.set_defaults(k_star=2)
    _add_common(p)

    p = command("select", cmd_select, "feature selection on a CSV dataset with splits")
    p.add_argument("--data", required=True, help="CSV file with a header row")
    p.add_argument("--target", required=True, help="response column name")
    p.add_argument("--standardize", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--splits", type=_int_at_least(1), default=3, help="random splits (default 3)")
    _add_selection(p)
    _add_common(p)

    p = command("asymptotics", cmd_asymptotics, "limit-law curve sweeps")
    for flag, default in (("--delta-grid", "0:3:0.25"), ("--c-grid", "0.25,0.5,1,2,4"),
                          ("--u-grid", "0.02:0.98:0.02"), ("--mu3-grid", "-2:2:0.5"),
                          ("--sigma3-grid", "0.5,0.75,1,1.5,2,3"),
                          ("--rho-grid", "-0.4,-0.2,0,0.2,0.4,0.6,0.8")):
        p.add_argument(flag, type=_parse_grid, default=default, help=f"grid (default {default})")
    p.add_argument("--threshold", type=float, default=STRONG_FAVOR_THRESHOLD,
                   help=f"'strongly favors' cutoff (default {STRONG_FAVOR_THRESHOLD})")
    p.add_argument("--three-model-c", type=float, default=1.0)
    p.add_argument("--n-samples", type=_int_at_least(1), default=4000)
    _add_common(p)

    p = command("mismatch", cmd_mismatch, "model-data mismatch report (full model)")
    p.add_argument("--data", default=None, help="CSV file (otherwise simulate)")
    p.add_argument("--target", default=None)
    p.add_argument("--standardize", action=argparse.BooleanOptionalAction, default=True)
    _add_simulation(p, required=False)
    _add_prior(p)
    _add_replicates(p, 2)  # a bagged variance needs two replicates
    _add_common(p)

    p = command("overlap", cmd_overlap, "HPD-region overlap of discrete posteriors")
    p.add_argument("--a", nargs="+", required=True, help="sample file(s) for side a")
    p.add_argument("--b", nargs="+", required=True, help="sample file(s) for side b")
    p.add_argument("--level", type=float, default=0.99, help="HPD level (default 0.99)")
    p.add_argument("--ci", action="store_true",
                   help="bootstrap CI resampling the files of each side (a one-file side is held fixed)")
    p.add_argument("--n-boot", type=_int_at_least(100), default=1000)
    p.add_argument("--ci-level", type=float, default=0.8)
    _add_common(p)

    p = command("schema-check", cmd_schema_check, "validate a result directory against its manifest")
    p.add_argument("--out", required=True, help="result directory to validate")

    return parser


# ---------------------------------------------------------------------------
# BLAS threads and the run record

# a thread count the user set in the environment is left alone
_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                   "openblas_{}_num_threads64_", "openblas_{}_num_threads")


@functools.cache
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS numpy vendors, if
    numpy has loaded one; None otherwise (another BLAS, or a system build)."""
    root = Path(np.__file__).parent
    for lib in sorted([*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]):
        try:
            handle = ctypes.CDLL(str(lib), mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for name in _THREAD_SYMBOLS:
            get = getattr(handle, name.format("get"), None)
            put = getattr(handle, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return get, put
    return None


@contextmanager
def _one_blas_thread():
    """numpy's OpenBLAS at one thread inside the context and the caller's
    count again on exit, however the context ends; nothing changes if the
    environment sets a count or no OpenBLAS is reachable."""
    blas = None if any(os.environ.get(name) for name in _THREAD_ENV) else _openblas()
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


@functools.cache  # the metadata lookup scans sys.path; once per process
def _scipy_version() -> str | None:
    """scipy's installed version, read from its metadata without importing
    scipy; None if scipy is not installed."""
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("scipy")
    except PackageNotFoundError:
        return None


def _run_record() -> dict:
    """How the run computed: package, numpy, scipy and BLAS versions, and
    the OpenBLAS thread count in effect (None if no OpenBLAS is reachable)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = {}
    threads = _openblas()
    return {
        "bayesbag": __version__,
        "numpy": np.__version__,
        "scipy": _scipy_version(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": None if threads is None else threads[0](),
    }


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr)
    with _one_blas_thread():
        return _run_command(argv)


def _run_command(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_expand_arg_files(argv))
        return args.func(args)
    except InvalidArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except BayesBagError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
