"""Standard and bagged posterior probabilities over a finite model set.

The bagged posterior is the average of standard posteriors computed on
bootstrap resamples of the data.  Resamples are represented as integer
weight vectors (multinomial counts over the original observations), never
as materialized datasets.  The count vectors of one bagging run are
consecutive draws from one random stream, so replicate i depends only on
(seed, i) and the first B replicates are the same for any larger B.  The
exact bagged posterior, by enumeration of every count vector, is the
tests' oracle for this engine and lives with them (``tests/oracles.py``).

Replicates are evaluated in blocks.  An *evaluator* is a callable mapping
an (r, N) block of weight rows (each row nonnegative integer counts
summing to M) to the (r, K) block of per-model weighted log marginal
likelihoods; row i of the output belongs to row i of the input.  A block
holds its counts in the smallest unsigned type that holds M, and at most
``BLOCK_BYTES`` of replicate counts, so memory stays O(N) for any B.  The
first block is led by one more row, the original data (every weight 1), so
the standard posterior comes from the same evaluator call as the first
replicates.  An evaluator built on weighted sufficient statistics forms
them for the whole block at once and shares them across all models.

A bagging run is one (1 + B, width) array of evaluator rows, numbered as
errors name them: row 0 is the original data (unit weights) and row i is
bootstrap replicate i.  ``evaluate_replicates`` fills it, and
``bagged_from_log_evidence`` normalizes its (1 + B, K) log evidences by
one row-wise log-sum-exp; ``bagged_model_posterior`` is the two stages in
turn.  A caller whose evaluator returns statistics rows instead of log
evidences (``linreg.weighted_stats``, whose rows ``linreg`` alone reads)
can evaluate the models of several runs at once between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegenerateInputError,
    InvalidArgumentError,
    ReplicateEvaluationError,
)

__all__ = [
    "DEFAULT_REPLICATES",
    "ModelPosterior",
    "BootstrapConfig",
    "BaggedPosterior",
    "bootstrap_counts",
    "replicate_rng",
    "standard_model_posterior",
    "bagged_model_posterior",
    "bagged_from_log_evidence",
    "evaluate_replicates",
]

# B: this many bootstrap replicates keep the Monte Carlo error of the
# averaged posterior small for typical model-selection use.
DEFAULT_REPLICATES = 100

# Bytes of counts one block of replicates holds: a block has as many rows
# as fit (at least one), so memory stays O(N) for any B.
BLOCK_BYTES = 1 << 23

# bootstrap_counts draws its indices max(n, _DRAW_CHUNK) at a time.
_DRAW_CHUNK = 1 << 16

# A block draws several rows per call when their indices and cells fit in
# _DRAW_GROUP; at 2^14 both arrays (128 KiB each) stay in cache, and 2^16
# measured 20 % slower at N = M = 5000.
_DRAW_GROUP = 1 << 14

Evaluator = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class ModelPosterior:
    """Normalized posterior over an enumerated model set.

    ``log_evidence[k]`` is log(marginal likelihood of model k) plus the
    log prior probability of model k (unnormalized, in nats). ``probs``
    is its log-sum-exp normalized softmax.
    """

    probs: np.ndarray
    log_evidence: np.ndarray


@dataclass(frozen=True)
class BootstrapConfig:
    """Bootstrap settings: ``m`` draws per resample, ``b`` replicates.

    ``m`` is the bootstrap dataset size M (M = N, the original dataset
    size, is the recommended default and is the caller's responsibility
    to supply).  ``b`` defaults to ``DEFAULT_REPLICATES``.
    """

    m: int
    b: int = DEFAULT_REPLICATES
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise InvalidArgumentError(f"bootstrap size m must be >= 1, got {self.m}")
        if self.b < 1:
            raise InvalidArgumentError(f"replicate count b must be >= 1, got {self.b}")


@dataclass(frozen=True, eq=False)
class BaggedPosterior:
    """Per-replicate posteriors plus their average and Monte Carlo errors.

    ``replicate_probs`` has one row per bootstrap replicate.  ``std_errors``
    is the per-model sample standard deviation across replicates divided by
    sqrt(b); with a single replicate it is reported as zeros and
    ``se_defined`` is False.  ``standard_probs`` is the standard posterior
    of the original data (the evaluator at unit weights), row 0 of the run
    whose rows 1..b are ``replicate_probs``.
    """

    replicate_probs: np.ndarray
    mean_probs: np.ndarray
    std_errors: np.ndarray
    se_defined: bool = True
    standard_probs: np.ndarray | None = None


def replicate_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic random stream for ``key`` under ``seed``.

    Streams are derived by hashing (seed, key), so streams with different
    keys are independent.  A bagging run draws all its count vectors in
    order from the one stream ``replicate_rng(seed)``; callers use keys for
    the other streams of a run (generated datasets, splits).
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def bootstrap_counts(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw multinomial(m, uniform over n cells) resampling weights.

    Entry i counts how many times observation i appears in the bootstrap
    dataset; the counts sum to m.  The draw picks m observation indices
    uniformly with replacement and counts them with ``bincount``, which
    has the multinomial law.  At most max(n, 2^16) indices are held at a
    time, so memory stays O(max(n, 2^16)) for any m (time is O(m)).  The
    generator's index stream does not depend on how it is split into
    calls, so the chunking does not change the counts.
    """
    if n < 1:
        raise InvalidArgumentError(f"number of observations n must be >= 1, got {n}")
    if m < 1:
        raise InvalidArgumentError(f"bootstrap size m must be >= 1, got {m}")
    chunk = max(n, _DRAW_CHUNK)
    counts = np.bincount(rng.integers(0, n, min(m, chunk)), minlength=n)
    for drawn in range(chunk, m, chunk):
        counts += np.bincount(rng.integers(0, n, min(chunk, m - drawn)), minlength=n)
    return counts


def _draw_counts(block: np.ndarray, m: int, rng: np.random.Generator) -> None:
    """Fill each row of ``block`` with the next ``bootstrap_counts(n, m, rng)``.

    When g = min(2^14 // m, 2^14 // n) is at least 2, g rows share one
    ``integers`` call and one ``bincount`` of ``row * n + index``; otherwise
    each row is drawn alone.  The index stream does not depend on how it
    is split into calls, so the rows are the ones drawn one at a time.
    """
    rows, n = block.shape
    group = min(_DRAW_GROUP // m, _DRAW_GROUP // n)
    if group < 2:
        for row in block:
            row[:] = bootstrap_counts(n, m, rng)
        return
    for start in range(0, rows, group):
        g = min(group, rows - start)
        cells = rng.integers(0, n, (g, m))
        cells += np.arange(0, g * n, n)[:, None]
        block[start : start + g] = np.bincount(cells.ravel(), minlength=g * n).reshape(g, n)


def _block_rows(n: int, dtype: np.dtype, total: int) -> int:
    """Rows per block: as many (up to ``total``) as fit in ``BLOCK_BYTES``."""
    return max(1, min(total, BLOCK_BYTES // (n * dtype.itemsize)))


def _evaluate_block(evaluator: Evaluator, start: int, block: np.ndarray, width: int):
    """The evaluator's (r, width) output for one block whose first row is
    row ``start`` of the run; any failure is a ``ReplicateEvaluationError``."""
    try:
        values = np.asarray(evaluator(block), dtype=float)
    except Exception as exc:
        raise ReplicateEvaluationError(start, exc) from exc
    expected = (block.shape[0], width)
    if values.shape != expected:
        raise ReplicateEvaluationError(
            start, InvalidArgumentError(f"evaluator returned shape {values.shape}, expected {expected}")
        )
    return values


def _normalized_probs(log_evidence: np.ndarray) -> np.ndarray:
    """Softmax of log evidences via the log-sum-exp shift, along the last
    axis: one vector, or one row per replicate."""
    shift = np.max(log_evidence, axis=-1, keepdims=True)
    if not np.all(np.isfinite(shift)):
        raise DegenerateInputError(
            "all log evidences are -inf (or contain NaN); posterior undefined"
        )
    weights = np.exp(log_evidence - shift)
    return weights / weights.sum(axis=-1, keepdims=True)


def standard_model_posterior(log_ml, log_prior) -> ModelPosterior:
    """Posterior model probabilities proportional to exp(log_ml + log_prior).

    Both inputs are length-K vectors whose entries are finite or -inf
    (at least one sum must be finite).  Normalization is overflow-safe
    for magnitudes up to ~1e6 and beyond.
    """
    log_ml = np.asarray(log_ml, dtype=float)
    log_prior = np.asarray(log_prior, dtype=float)
    if log_ml.ndim != 1 or log_ml.shape != log_prior.shape:
        raise InvalidArgumentError(
            f"log_ml and log_prior must be 1-D of equal length, got shapes "
            f"{log_ml.shape} and {log_prior.shape}"
        )
    if log_ml.size == 0:
        raise InvalidArgumentError("need at least one model")
    for name, vec in (("log_ml", log_ml), ("log_prior", log_prior)):
        if np.any(np.isnan(vec)) or np.any(vec == np.inf):
            raise InvalidArgumentError(f"{name} entries must be finite or -inf")
    log_evidence = log_ml + log_prior
    return ModelPosterior(probs=_normalized_probs(log_evidence), log_evidence=log_evidence)


def evaluate_replicates(evaluator: Evaluator, n_obs: int, config: BootstrapConfig, width: int) -> np.ndarray:
    """The (1 + config.b, width) evaluator rows of one bagging run: row 0 at
    unit weights (the original data) and row i at bootstrap replicate i.

    The unit-weight row leads the first block, so the evaluator sees the
    data once for the standard and the bagged posterior.  The replicate
    weight rows are drawn in replicate order from the one stream
    ``replicate_rng(config.seed)``: replicate ``i`` depends only on
    ``(config.seed, i)``, and a run with more replicates repeats the first
    ``config.b`` of this one.  They reach the evaluator in blocks (see the
    module docstring); a failing block raises ``ReplicateEvaluationError``
    naming its first row.
    """
    if n_obs < 1:
        raise InvalidArgumentError(f"number of observations must be >= 1, got {n_obs}")
    rng = replicate_rng(config.seed)
    dtype = np.min_scalar_type(config.m)
    rows = _block_rows(n_obs, dtype, config.b)
    out = np.empty((1 + config.b, width))
    for first in range(0, config.b, rows):
        lead = int(first == 0)  # the unit-weight row
        block = np.empty((lead + min(rows, config.b - first), n_obs), dtype=dtype)
        block[:lead] = 1
        _draw_counts(block[lead:], config.m, rng)
        start = first + 1 - lead
        out[start : start + len(block)] = _evaluate_block(evaluator, start, block, width)
    return out


def bagged_model_posterior(
    evaluator: Evaluator,
    n_obs: int,
    log_prior,
    config: BootstrapConfig,
) -> BaggedPosterior:
    """Average the standard posterior over bootstrap-resampled datasets,
    evaluated by ``evaluate_replicates`` and normalized by
    ``bagged_from_log_evidence``; the standard posterior of the original
    data comes with it."""
    log_prior = np.asarray(log_prior, dtype=float)
    log_ml = evaluate_replicates(evaluator, n_obs, config, log_prior.size)
    return bagged_from_log_evidence(log_ml, log_prior)


def bagged_from_log_evidence(log_ml, log_prior) -> BaggedPosterior:
    """The bagged posterior of one run from its (1 + B, K) log marginal
    likelihoods, row 0 of the original data and row i of replicate i, all
    normalized with ``log_prior`` (K,) added by one row-wise log-sum-exp."""
    probs = _normalized_probs(np.asarray(log_ml, dtype=float) + np.asarray(log_prior, dtype=float))
    replicate_probs = probs[1:]
    b = replicate_probs.shape[0]
    mean_probs = replicate_probs.mean(axis=0)
    if b >= 2:
        std_errors = replicate_probs.std(axis=0, ddof=1) / np.sqrt(b)
        se_defined = True
    else:
        std_errors = np.zeros(replicate_probs.shape[1])
        se_defined = False
    return BaggedPosterior(
        replicate_probs=replicate_probs,
        mean_probs=mean_probs,
        std_errors=std_errors,
        se_defined=se_defined,
        standard_probs=probs[0],
    )
