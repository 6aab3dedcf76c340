"""Oracles that only the tests use: the exact bagged posterior by
enumeration of every bootstrap count vector, the KL-optimal parameters of
the misspecified linear fit by Monte Carlo moments, a degenerate two-model
Bernoulli testbed for validating the limit laws by simulation against the
bagging engine, and the bivariate normal CDF by Owen's T function."""

from dataclasses import dataclass, replace
from itertools import islice
from math import asin, comb, lgamma, log, pi, sqrt

import numpy as np
from scipy.special import ndtr, owens_t

from bayesbag.core import Evaluator, _block_rows, _evaluate_block, _normalized_probs
from bayesbag.errors import InvalidArgumentError, NumericDomainError, ResourceLimitError
from bayesbag.simgen import SimConfig, _response_map, make_beta_dagger, sample_regressors

# Guard for exact enumeration of all count vectors: C(M+N-1, N-1) at most this.
EXACT_ENUMERATION_GUARD = 100_000

_MOMENT_BATCHES = 20


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
    its multinomial pmf; the vectors reach the evaluator in blocks, as in
    ``evaluate_replicates``, and an error names a block by its first vector,
    counted from 0 (there is no unit-weight row).  Feasible only for tiny
    problems; guarded at C(m+n-1, n-1) <= 1e5 enumerated vectors.  Serves as
    the oracle for ``bagged_model_posterior``.
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
    log_fact = np.array([lgamma(c + 1) for c in range(m + 1)])
    log_n = log(n_obs)
    dtype = np.min_scalar_type(m)
    rows = _block_rows(n_obs, dtype, n_vectors)
    vectors = _count_vectors(m, n_obs)
    total = np.zeros_like(log_prior)
    for first in range(0, n_vectors, rows):
        block = np.array(list(islice(vectors, rows)), dtype=dtype)
        log_ml = _evaluate_block(evaluator, first, block, log_prior.size)
        log_pmf = log_fact[m] - log_fact[block].sum(axis=1) - m * log_n
        total += np.exp(log_pmf) @ _normalized_probs(log_ml + log_prior)
    return total


@dataclass(frozen=True, eq=False)
class KLOptimal:
    """KL-optimal linear fit under the true generator: coefficients,
    noise variance (clamped at zero; the unclamped value is kept for
    diagnostics) and the Monte Carlo standard error of the estimates."""

    beta_circ: np.ndarray
    sigma2_circ: float
    sigma2_circ_raw: float
    moment_se: float


def kl_optimal_params(
    config: SimConfig,
    n_mc: int,
    seed: int,
    regressor_sampler=None,
) -> KLOptimal:
    """Monte Carlo estimate of the KL-optimal linear-fit parameters.

    With S_zz = E(Z Z'), S_zf = E(Z f(Z)') and S_ff = E(f(Z) f(Z)'), the
    optimal coefficients are beta = S_zz^{-1} S_zf beta_dagger and the
    optimal noise variance is the positive part of
    1 + b' S_ff b - b' S_zf' S_zz^{-1} S_zf b  (b = beta_dagger).

    Moments are estimated from ``n_mc`` generator draws split into batches;
    ``moment_se`` is the largest batch-means standard error across the
    coefficient coordinates and the variance.  ``regressor_sampler`` may
    replace the default generator with any callable ``(n, rng) -> (n, d)``.
    """
    if n_mc < 10_000:
        raise InvalidArgumentError(f"n_mc must be >= 10000, got {n_mc}")
    rng = np.random.default_rng(seed)
    beta_dag = make_beta_dagger(config.d, config.k)
    per_batch = n_mc // _MOMENT_BATCHES

    szz_total = np.zeros((config.d, config.d))
    szf_total = np.zeros((config.d, config.d))
    sff_total = np.zeros((config.d, config.d))
    batch_betas = np.empty((_MOMENT_BATCHES, config.d))
    batch_sigma2 = np.empty(_MOMENT_BATCHES)

    for i in range(_MOMENT_BATCHES):
        if regressor_sampler is None:
            z = sample_regressors(replace(config, n=per_batch), rng)
        else:
            z = np.asarray(regressor_sampler(per_batch, rng), dtype=float)
        f = _response_map(z, config.response_kind)
        szz = z.T @ z / per_batch
        szf = z.T @ f / per_batch
        sff = f.T @ f / per_batch
        szz_total += szz
        szf_total += szf
        sff_total += sff
        batch_betas[i], batch_sigma2[i] = _optimal_from_moments(szz, szf, sff, beta_dag)

    szz_total /= _MOMENT_BATCHES
    szf_total /= _MOMENT_BATCHES
    sff_total /= _MOMENT_BATCHES
    beta_circ, sigma2_raw = _optimal_from_moments(szz_total, szf_total, sff_total, beta_dag)

    se_beta = batch_betas.std(axis=0, ddof=1) / np.sqrt(_MOMENT_BATCHES)
    se_sigma2 = batch_sigma2.std(ddof=1) / np.sqrt(_MOMENT_BATCHES)
    return KLOptimal(
        beta_circ=beta_circ,
        sigma2_circ=max(sigma2_raw, 0.0),
        sigma2_circ_raw=sigma2_raw,
        moment_se=float(max(se_beta.max(), se_sigma2)),
    )


def _optimal_from_moments(szz, szf, sff, beta_dag) -> tuple[np.ndarray, float]:
    target = szf @ beta_dag
    try:
        beta = np.linalg.solve(szz, target)
    except np.linalg.LinAlgError:
        raise NumericDomainError("estimated E(ZZ') is singular") from None
    sigma2 = 1.0 + float(beta_dag @ (sff @ beta_dag)) - float(target @ beta)
    return beta, sigma2




def bernoulli_two_model_problem(p1: float, p2: float, n: int, seed: int):
    """Degenerate two-model testbed: data x ~ Bernoulli(1/2), model m
    claiming x ~ Bernoulli(p_m) with no free parameters.

    Returns ``(x, evaluator)`` where the evaluator maps weight rows (..., n)
    to the pairs of weighted log likelihoods (..., 2).  With p2 = 1 - p1 the
    effect size is exactly zero by symmetry.
    """
    for p in (p1, p2):
        if not 0.0 < p < 1.0:
            raise InvalidArgumentError(f"success probabilities must be in (0, 1), got {p}")
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n}")
    x = (np.random.default_rng(seed).random(n) < 0.5).astype(float)
    logits = np.array([[log(p1), log(1.0 - p1)], [log(p2), log(1.0 - p2)]])

    def evaluate(weights) -> np.ndarray:
        w = np.asarray(weights, dtype=float)
        ones = w @ x
        total = w.sum(axis=-1)
        return np.stack([ones, total - ones], axis=-1) @ logits.T

    return x, evaluate


def owens_t_bvn_cdf(h, k, rho: float) -> np.ndarray:
    """P(X <= h, Y <= k) for standard normals with correlation |rho| < 1,
    exact to rounding by Owen's (1956) T-function identity."""
    h, k = np.asarray(h, dtype=float), np.asarray(k, dtype=float)
    s = sqrt(1.0 - rho * rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        # on an axis (-0.0 included) T takes its limit from the positive side
        t_h = np.where(h == 0.0, np.sign(k) / 4, owens_t(h, (k - rho * h) / (h * s)))
        t_k = np.where(k == 0.0, np.sign(h) / 4, owens_t(k, (h - rho * k) / (k * s)))
    beta = 0.5 * ((h < 0.0) != (k < 0.0))  # hk < 0, or hk = 0 and h + k < 0
    out = 0.5 * (ndtr(h) + ndtr(k)) - t_h - t_k - beta
    return np.where((h == 0.0) & (k == 0.0), 0.25 + asin(rho) / (2.0 * pi), out)
