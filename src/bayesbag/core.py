"""Standard and bagged posterior probabilities over a finite model set.

The bagged posterior is the average of standard posteriors computed on
bootstrap resamples of the data.  Resamples are represented as integer
weight vectors (multinomial counts over the original observations), never
as materialized datasets: a replicate costs one count draw plus one
evaluator call, and an evaluator built on weighted sufficient statistics
forms them once per replicate and shares them across all models.

An *evaluator* is a callable mapping a weight vector (length-N integer
array summing to M) to the vector of per-model weighted log marginal
likelihoods.  One weight vector per replicate is shared by all models.
The (b, K) log evidences of all replicates are normalized together by one
row-wise log-sum-exp.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import comb, lgamma, log
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateInputError,
    InsufficientReplicatesError,
    InvalidArgumentError,
    ReplicateEvaluationError,
    ResourceLimitError,
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
    "exact_bagged_posterior",
    "mc_standard_error",
]

# B: this many bootstrap replicates keep the Monte Carlo error of the
# averaged posterior small for typical model-selection use.
DEFAULT_REPLICATES = 100

# Guard for exact enumeration of all count vectors: C(M+N-1, N-1) at most this.
EXACT_ENUMERATION_GUARD = 100_000

Evaluator = Callable[[np.ndarray], Sequence[float]]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class BaggedPosterior:
    """Per-replicate posteriors plus their average and Monte Carlo errors.

    ``replicate_probs`` has one row per bootstrap replicate.  ``std_errors``
    is the per-model sample standard deviation across replicates divided by
    sqrt(b); with a single replicate it is reported as zeros and
    ``se_defined`` is False.
    """

    replicate_probs: np.ndarray
    mean_probs: np.ndarray
    std_errors: np.ndarray
    se_defined: bool = True


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    """Independent deterministic random stream for one bootstrap replicate.

    Streams are derived by hashing (seed, replicate index), so replicate
    results do not depend on evaluation order or parallelism degree.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(replicate,))
    )


def bootstrap_counts(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw multinomial(m, uniform over n cells) resampling weights.

    Entry i counts how many times observation i appears in the bootstrap
    dataset; the counts sum to m.
    """
    if n < 1:
        raise InvalidArgumentError(f"number of observations n must be >= 1, got {n}")
    if m < 1:
        raise InvalidArgumentError(f"bootstrap size m must be >= 1, got {m}")
    return rng.multinomial(m, np.full(n, 1.0 / n))


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


def bagged_model_posterior(
    evaluator: Evaluator,
    n_obs: int,
    log_prior,
    config: BootstrapConfig,
    n_jobs: int = 1,
) -> BaggedPosterior:
    """Average the standard posterior over bootstrap-resampled datasets.

    Replicate ``i`` draws its weight vector from an independent random
    stream derived from ``(config.seed, i)``; results are bit-identical
    for any ``n_jobs``.  The evaluator must be safe for concurrent calls
    when ``n_jobs > 1``.
    """
    if n_obs < 1:
        raise InvalidArgumentError(f"number of observations must be >= 1, got {n_obs}")
    log_prior = np.asarray(log_prior, dtype=float)
    pvec = np.full(n_obs, 1.0 / n_obs)

    def run(i: int) -> np.ndarray:
        counts = replicate_rng(config.seed, i).multinomial(config.m, pvec)
        try:
            log_ml = np.asarray(evaluator(counts), dtype=float)
        except Exception as exc:
            raise ReplicateEvaluationError(i, exc) from exc
        if log_ml.shape != log_prior.shape:
            raise ReplicateEvaluationError(
                i, InvalidArgumentError(
                    f"evaluator returned shape {log_ml.shape}, expected {log_prior.shape}"
                ),
            )
        return log_ml

    if n_jobs == 1:
        rows = [run(i) for i in range(config.b)]
    else:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            rows = list(pool.map(run, range(config.b)))

    replicate_probs = _normalized_probs(np.asarray(rows) + log_prior)
    mean_probs = replicate_probs.mean(axis=0)
    if config.b >= 2:
        std_errors = replicate_probs.std(axis=0, ddof=1) / np.sqrt(config.b)
        se_defined = True
    else:
        std_errors = np.zeros(replicate_probs.shape[1])
        se_defined = False
    return BaggedPosterior(
        replicate_probs=replicate_probs,
        mean_probs=mean_probs,
        std_errors=std_errors,
        se_defined=se_defined,
    )


def _count_vectors(m: int, n: int):
    """Yield every length-n nonnegative integer vector summing to m."""
    if n == 1:
        yield (m,)
        return
    for first in range(m + 1):
        for rest in _count_vectors(m - first, n - 1):
            yield (first, *rest)


def exact_bagged_posterior(evaluator: Evaluator, n_obs: int, m: int, log_prior) -> np.ndarray:
    """Exact bagged posterior: the expectation over all bootstrap resamples.

    Enumerates every multinomial count vector, weighting each posterior by
    its multinomial pmf.  Feasible only for tiny problems; guarded at
    C(m+n-1, n-1) <= 1e5 enumerated vectors.  Serves as the oracle for
    ``bagged_model_posterior``.
    """
    if n_obs < 1:
        raise InvalidArgumentError(f"number of observations must be >= 1, got {n_obs}")
    if m < 1:
        raise InvalidArgumentError(f"bootstrap size m must be >= 1, got {m}")
    n_vectors = comb(m + n_obs - 1, n_obs - 1)
    if n_vectors > EXACT_ENUMERATION_GUARD:
        raise ResourceLimitError(
            f"{n_vectors} count vectors exceed the enumeration guard "
            f"({EXACT_ENUMERATION_GUARD}); reduce n or m"
        )
    log_prior = np.asarray(log_prior, dtype=float)
    log_m_fact = lgamma(m + 1)
    log_n = log(n_obs)
    total = np.zeros_like(log_prior)
    for counts in _count_vectors(m, n_obs):
        arr = np.asarray(counts)
        log_pmf = log_m_fact - sum(lgamma(c + 1) for c in counts) - m * log_n
        log_ml = np.asarray(evaluator(arr), dtype=float)
        total += np.exp(log_pmf) * _normalized_probs(log_ml + log_prior)
    return total


def mc_standard_error(bagged: BaggedPosterior) -> np.ndarray:
    """Per-model Monte Carlo standard error of the bagged mean probabilities."""
    b = bagged.replicate_probs.shape[0]
    if b < 2:
        raise InsufficientReplicatesError(
            f"standard errors need at least 2 replicates, got {b}"
        )
    return bagged.replicate_probs.std(axis=0, ddof=1) / np.sqrt(b)
