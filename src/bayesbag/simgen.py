"""Synthetic regression data in a fine-mapping style.  (The KL-optimal
parameter oracle for the misspecified linear fit, which only the tests
use, is in ``tests/oracles.py``.)

Regressors are correlated with unit variance but different tails: draw
xi ~ chi-squared(h) per observation, set the scale xi_d = sqrt(xi/(h-2))
for odd components d (1-based) and 1 otherwise, and sample
Z | xi ~ Normal(0, Sigma) with Sigma_{dd'} = exp(-(d-d')^2/64)/(xi_d xi_d').
Marginally the odd components are rescaled Student-t with h degrees of
freedom and variance 1; the even components are standard normal.

Responses are y_n = f(Z_n)' beta + eps_n with eps ~ Normal(0, 1), where f
is the identity (well-specified) or the componentwise cube (misspecified),
and beta is a k-sparse vector of ones at evenly spread positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericDomainError
from .linreg import RegressionDataset

__all__ = [
    "SimConfig",
    "make_beta_dagger",
    "sample_regressors",
    "sample_dataset",
]

RESPONSE_KINDS = ("linear", "nonlinear")


@dataclass(frozen=True)
class SimConfig:
    """Generator settings: dimension, sparsity, sample size, response map,
    chi-squared degrees of freedom h (> 2 keeps the odd-component scales
    mean-square 1), and seed."""

    d: int
    k: int
    n: int
    response_kind: str = "linear"
    h: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.d < 1 or self.n < 1:
            raise InvalidArgumentError("d and n must be >= 1")
        make_beta_dagger(self.d, self.k)  # 1 <= k <= d, and the sparsity pattern fits
        if self.response_kind not in RESPONSE_KINDS:
            raise InvalidArgumentError(
                f"response_kind must be one of {RESPONSE_KINDS}, got {self.response_kind!r}"
            )
        if not 2 < self.h < np.inf:
            raise InvalidArgumentError(f"h must be finite and exceed 2, got {self.h}")


def make_beta_dagger(d: int, k: int) -> np.ndarray:
    """k-sparse coefficient vector with ones at components
    floor(j (d + 1/2) / (k + 1)), j = 1..k (1-based)."""
    if not 1 <= k <= d:
        raise InvalidArgumentError(f"need 1 <= k <= d, got k={k}, d={d}")
    positions = [(j * (2 * d + 1)) // (2 * (k + 1)) for j in range(1, k + 1)]
    if len(set(positions)) != k or min(positions) < 1 or max(positions) > d:
        raise InvalidArgumentError(
            f"sparsity pattern for d={d}, k={k} collides or leaves [1, {d}]: {positions}"
        )
    beta = np.zeros(d)
    beta[np.array(positions) - 1] = 1.0
    return beta


def _base_correlation(d: int) -> np.ndarray:
    idx = np.arange(d)
    diff = idx[:, None] - idx[None, :]
    return np.exp(-(diff * diff) / 64.0)


def sample_regressors(config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw ``config.n`` i.i.d. regressor rows from the scale-mixture generator."""
    # the squared-exponential kernel's smallest eigenvalues round to
    # (slightly negative) float noise from d = 14 on; a diagonal jitter of
    # 1e-12, or 1e-10 if that fails, restores positive definiteness without
    # moving the law
    kernel = _base_correlation(config.d)
    for jitter in (0.0, 1e-12, 1e-10):
        try:
            chol = np.linalg.cholesky(kernel + jitter * np.eye(config.d))
            break
        except np.linalg.LinAlgError:
            pass
    else:
        raise NumericDomainError(f"the d = {config.d} kernel is not positive definite with jitter")
    v = rng.standard_normal((config.n, config.d)) @ chol.T
    xi = rng.chisquare(config.h, size=config.n)
    scale = np.sqrt(xi / (config.h - 2.0))
    z = v
    z[:, 0::2] /= scale[:, None]  # odd components in 1-based numbering
    return z


def _response_map(z: np.ndarray, kind: str) -> np.ndarray:
    return z if kind == "linear" else z**3


def sample_dataset(config: SimConfig, rng: np.random.Generator | None = None) -> RegressionDataset:
    """One synthetic dataset; deterministic given the seed (or the rng)."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    beta = make_beta_dagger(config.d, config.k)
    z = sample_regressors(config, rng)
    support = np.flatnonzero(beta)  # only the k causal columns enter the response
    signal = _response_map(z[:, support], config.response_kind) @ beta[support]
    y = signal + rng.standard_normal(config.n)
    return RegressionDataset(z=z, y=y)
