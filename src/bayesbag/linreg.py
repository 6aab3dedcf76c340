"""Conjugate normal-inverse-gamma linear regression feature selection.

A model is a binary inclusion vector ``gamma`` selecting columns of the
regressor matrix.  Conditional on ``gamma`` with ``d = sum(gamma)`` active
columns Z_g, the assumed model is::

    sigma^2                    ~ InvGamma(a0, b0)
    beta_j | sigma^2           ~ Normal(0, sigma^2 / lam)   iid, j = 1..d
    y_n | z_n, beta, sigma^2   ~ Normal(z_{g,n}' beta, sigma^2)

Integrating out (beta, sigma^2) gives a closed-form marginal likelihood.
With integer resampling weights w (observation n counted w_n times) the
data enter only through M = sum(w), Lam_g = Z_g' W Z_g + lam I and
b_g = b0 + (y' W y - y' W Z_g Lam_g^{-1} Z_g' W y) / 2, where W = diag(w):

    log ml = a0 log b0 + lgamma(a0 + M/2) - (M/2) log 2pi - lgamma(a0)
             + (d/2) log lam - (a0 + M/2) log b_g - (1/2) log |Lam_g|

so weighting is exactly equivalent to evaluating the unit-weight formula
on the dataset with rows replicated per their counts.

All models of a set are evaluated in one batched pass: models are grouped
by size j, each group's Lam_g blocks are gathered into one (n_j, j, j)
stack and factored by a single stacked Cholesky, and quad, log|Lam_g|,
b_g and log ml are formed as arrays.  The gather indices (the *plan*)
depend only on the model set, so ``make_evaluator`` builds them once and
reuses them for every weight vector.  ``param_moments_from_stats``
factors its one model through the same stacked path, so jitter reaches
moments exactly as it reaches evidences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, lgamma, log, pi

import numpy as np
from scipy.special import digamma, polygamma

from .errors import (
    InvalidArgumentError,
    NumericDomainError,
    ResourceLimitError,
    VarianceUndefinedError,
)

__all__ = [
    "RegressionDataset",
    "NIGHyperparams",
    "ParamMoments",
    "SuffStats",
    "weighted_stats",
    "model_log_marginals",
    "make_evaluator",
    "enumerate_models",
    "log_priors",
    "pips",
    "param_moments_from_stats",
]

LOG_2PI = log(2.0 * pi)

# Total admissible models sum_{j<=k*} C(D, j) must not exceed this.
MODEL_ENUMERATION_GUARD = 10_000_000

# Diagonal jitter escalation before declaring a matrix non-PD; lam > 0
# guarantees positive definiteness in exact arithmetic, so jitter only
# covers float edge cases.
_JITTERS = (0.0, 1e-12, 1e-10)


@dataclass(frozen=True)
class RegressionDataset:
    """Regressors ``z`` (n x d) and responses ``y`` (length n)."""

    z: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        z = np.atleast_2d(np.asarray(self.z, dtype=float))
        y = np.asarray(self.y, dtype=float)
        if z.ndim != 2 or y.ndim != 1 or z.shape[0] != y.shape[0]:
            raise InvalidArgumentError(
                f"z must be (n, d) and y length n; got {z.shape} and {y.shape}"
            )
        if z.shape[0] < 1 or z.shape[1] < 1:
            raise InvalidArgumentError("need n >= 1 observations and d >= 1 regressors")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(y))):
            raise InvalidArgumentError("z and y must be finite")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def d(self) -> int:
        return self.z.shape[1]


@dataclass(frozen=True)
class NIGHyperparams:
    """Prior settings: inverse-gamma (a0, b0), coefficient precision scale
    ``lam``, prior inclusion probability ``q0``, and sparsity cap ``k_star``."""

    a0: float
    b0: float
    lam: float
    q0: float
    k_star: int

    def __post_init__(self):
        if not (self.a0 > 0 and self.b0 > 0 and self.lam > 0):
            raise InvalidArgumentError("a0, b0 and lam must be positive")
        if not 0.0 < self.q0 < 1.0:
            raise InvalidArgumentError(f"q0 must be in (0, 1), got {self.q0}")
        if self.k_star < 1:
            raise InvalidArgumentError(f"k_star must be >= 1, got {self.k_star}")


@dataclass(frozen=True)
class ParamMoments:
    """Posterior moments of (log sigma^2, beta) for one inclusion vector.

    ``mean_beta``/``var_beta`` cover the active coordinates only, in the
    order of the included columns.
    """

    mean_log_sigma2: float
    var_log_sigma2: float
    mean_beta: np.ndarray
    var_beta: np.ndarray


@dataclass(frozen=True)
class SuffStats:
    """Weighted sufficient statistics: Z'WZ, Z'Wy, y'Wy and M = sum(w)."""

    zwz: np.ndarray
    zwy: np.ndarray
    ywy: float
    m: float


def weighted_stats(data: RegressionDataset, weights) -> SuffStats:
    """Precompute the weighted sufficient statistics for one weight vector."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (data.n,):
        raise InvalidArgumentError(
            f"weights must have length n={data.n}, got shape {w.shape}"
        )
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise InvalidArgumentError("weights must be finite and nonnegative")
    zw = data.z * w[:, None]
    return SuffStats(
        zwz=zw.T @ data.z,
        zwy=zw.T @ data.y,
        ywy=float(w @ (data.y * data.y)),
        m=float(w.sum()),
    )


def _spd_cholesky(a: np.ndarray) -> np.ndarray:
    """Cholesky factor of a symmetric matrix that is positive definite in
    exact arithmetic, escalating a diagonal jitter when rounding breaks it."""
    for jitter in _JITTERS:
        try:
            return np.linalg.cholesky(a if jitter == 0.0 else a + jitter * np.eye(a.shape[0]))
        except np.linalg.LinAlgError:
            continue
    raise NumericDomainError(
        "matrix is not positive definite even with diagonal jitter; "
        "inputs contain NaN or are corrupt"
    )


def _forward_substitute(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve chol[i] @ t[i] = rhs[i] for a (n, j, j) stack of lower
    triangular factors and a (n, j) stack of right-hand sides."""
    t = np.empty_like(rhs)
    for r in range(rhs.shape[1]):
        partial = np.einsum("ij,ij->i", chol[:, r, :r], t[:, :r])
        t[:, r] = (rhs[:, r] - partial) / chol[:, r, r]
    return t


@dataclass(frozen=True)
class _ModelPlan:
    """Gather indices of a model set, grouped by model size.

    Each group holds the model rows of size j >= 1, their active columns
    ``cols`` (n_j, j) and the flat indices ``flat`` (n_j, j, j) of their
    Z'WZ sub-blocks.  The empty model is in no group.
    """

    d: int
    sizes: np.ndarray
    groups: tuple

    @classmethod
    def build(cls, models) -> "_ModelPlan":
        mask = np.asarray(models) != 0
        if mask.ndim != 2:
            raise InvalidArgumentError(
                f"models must be a (count, d) inclusion matrix, got shape {mask.shape}"
            )
        d = mask.shape[1]
        sizes = mask.sum(axis=1)
        groups = []
        for j in np.unique(sizes[sizes > 0]):
            rows = np.flatnonzero(sizes == j)
            cols = np.nonzero(mask[rows])[1].reshape(rows.size, j)
            groups.append((rows, cols, cols[:, :, None] * d + cols[:, None, :]))
        return cls(d=d, sizes=sizes.astype(float), groups=tuple(groups))


def _factor(zwz: np.ndarray, zwy: np.ndarray, cols: np.ndarray, flat: np.ndarray, lam: float):
    """Factor one size group: gather its Z_g'WZ_g blocks by ``flat``,
    add lam I, take one stacked Cholesky ``chol`` (n_j, j, j) and solve
    chol t = Z_g'Wy for ``t`` (n_j, j).  If the stacked call fails, the
    group is refactored matrix by matrix, so jitter reaches only the
    failing matrices."""
    lam_mat = np.take(zwz, flat) + lam * np.eye(cols.shape[1])
    try:
        chol = np.linalg.cholesky(lam_mat)
    except np.linalg.LinAlgError:
        chol = np.stack([_spd_cholesky(a) for a in lam_mat])
    return chol, _forward_substitute(chol, np.take(zwy, cols))


def model_log_marginals(
    stats: SuffStats, models: np.ndarray, hyper: NIGHyperparams, *, plan=None
) -> np.ndarray:
    """Log marginal likelihoods for every row of an enumerated model set.

    Models of equal size share one stacked Cholesky factorization; see the
    module docstring.  ``plan`` is the model set's gather plan as built by
    ``make_evaluator``; it is built here when omitted.  Raises
    ``NumericDomainError`` when some b_g <= 0 (y'Wy - quad cancelled below
    -2 b0), lgamma(a0 + M/2) overflows or a log evidence is not finite,
    never returns NaN.
    """
    if plan is None:
        plan = _ModelPlan.build(models)
    zwz = np.asarray(stats.zwz, dtype=float)
    zwy = np.asarray(stats.zwy, dtype=float)
    if zwz.shape != (plan.d, plan.d):
        raise InvalidArgumentError(
            f"models have {plan.d} columns but Z'WZ has shape {zwz.shape}"
        )
    quad = np.zeros(plan.sizes.size)
    logdet = np.zeros(plan.sizes.size)
    for rows, cols, flat in plan.groups:
        chol, t = _factor(zwz, zwy, cols, flat, hyper.lam)
        quad[rows] = np.einsum("ij,ij->i", t, t)
        logdet[rows] = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    a_n = hyper.a0 + 0.5 * stats.m
    b_g = hyper.b0 + 0.5 * (stats.ywy - quad)
    if not np.all(b_g > 0.0):
        bad = int(np.flatnonzero(~(b_g > 0.0))[0])
        raise NumericDomainError(
            f"b_g = {b_g[bad]!r} is not positive for model row {bad}: "
            "y'Wy - quad cancelled or overflowed"
        )
    try:
        lgamma_a_n = lgamma(a_n)
    except OverflowError:
        raise NumericDomainError(f"lgamma(a0 + M/2) overflows at M = {stats.m!r}") from None
    log_ml = (
        hyper.a0 * log(hyper.b0)
        + lgamma_a_n
        - 0.5 * stats.m * LOG_2PI
        - lgamma(hyper.a0)
        + 0.5 * plan.sizes * log(hyper.lam)
        - a_n * np.log(b_g)
        - 0.5 * logdet
    )
    if not np.all(np.isfinite(log_ml)):
        bad = int(np.flatnonzero(~np.isfinite(log_ml))[0])
        raise NumericDomainError(f"log evidence of model row {bad} is {log_ml[bad]!r}")
    return log_ml


def make_evaluator(data: RegressionDataset, models: np.ndarray, hyper: NIGHyperparams):
    """Weighted log-marginal-likelihood evaluator over an enumerated model
    set, suitable for ``core.bagged_model_posterior``.

    The model set's gather plan is built once here.  Sufficient statistics
    are computed once per weight vector and shared by all models.  The
    returned callable is pure and thread-safe.
    """
    plan = _ModelPlan.build(models)

    def evaluate(weights) -> np.ndarray:
        return model_log_marginals(weighted_stats(data, weights), models, hyper, plan=plan)

    return evaluate


def enumerate_models(d: int, k_star: int) -> np.ndarray:
    """All inclusion vectors with at most ``k_star`` ones, as a (count, d)
    binary matrix ordered by model size then lexicographically."""
    if not 1 <= k_star <= d:
        raise InvalidArgumentError(f"need 1 <= k_star <= d, got k_star={k_star}, d={d}")
    counts = [comb(d, j) for j in range(k_star + 1)]
    total = sum(counts)
    if total > MODEL_ENUMERATION_GUARD:
        raise ResourceLimitError(
            f"{total} models exceed the enumeration guard "
            f"({MODEL_ENUMERATION_GUARD}); lower k_star or drop regressors"
        )
    out = np.zeros((total, d), dtype=np.uint8)
    start = 1  # row 0 is the empty model
    for j in range(1, k_star + 1):
        block = np.zeros((counts[j], d), dtype=np.uint8)
        for i, positions in enumerate(itertools.combinations(range(d), j)):
            block[i, list(positions)] = 1
        # combinations order is lexicographic in positions, which is
        # reverse-lexicographic in the binary vectors.
        out[start : start + counts[j]] = block[::-1]
        start += counts[j]
    return out


def log_priors(models: np.ndarray, hyper: NIGHyperparams) -> np.ndarray:
    """Unnormalized log priors for every row of an enumerated model set:
    d_g log q0 + (D - d_g) log(1 - q0)."""
    sizes = models.sum(axis=1).astype(float)
    return sizes * log(hyper.q0) + (models.shape[1] - sizes) * log(1.0 - hyper.q0)


def pips(posterior, models: np.ndarray) -> np.ndarray:
    """Posterior inclusion probabilities: pip_d = sum_g gamma_d * P(gamma).

    ``posterior`` is a ``ModelPosterior`` (or a bare probability vector)
    aligned with the rows of ``models``.
    """
    probs = np.asarray(getattr(posterior, "probs", posterior), dtype=float)
    if probs.shape != (models.shape[0],):
        raise InvalidArgumentError(
            f"posterior has {probs.shape} probabilities for {models.shape[0]} models"
        )
    return probs @ models.astype(float)


def param_moments_from_stats(stats: SuffStats, gamma, hyper: NIGHyperparams) -> ParamMoments:
    """Conjugate posterior moments from precomputed sufficient statistics.

    The posterior is sigma^2 ~ InvGamma(a_n, b_g) with a_n = a0 + M/2, and
    beta | sigma^2 ~ Normal(beta_hat, sigma^2 Lam_g^{-1}); marginally each
    beta_j is Student-t with variance b_g/(a_n - 1) * (Lam_g^{-1})_jj, and
    log sigma^2 has mean log b_g - digamma(a_n) and variance trigamma(a_n).

    The model is factored as a one-model size group of the evidence path;
    the mean and diag(Lam_g^{-1}) come from the inverse of its triangular
    factor.
    """
    a_n = hyper.a0 + 0.5 * stats.m
    if a_n <= 1.0:
        raise VarianceUndefinedError(
            f"posterior variance needs a0 + M/2 > 1, got {a_n}"
        )
    cols = np.flatnonzero(gamma)[None, :]
    if cols.size == 0:
        mean_beta = np.empty(0)
        var_beta = np.empty(0)
        b_g = hyper.b0 + 0.5 * stats.ywy
    else:
        zwz = np.asarray(stats.zwz, dtype=float)
        flat = cols[:, :, None] * zwz.shape[1] + cols[:, None, :]
        chol, t = _factor(zwz, np.asarray(stats.zwy, dtype=float), cols, flat, hyper.lam)
        # Lam_g^{-1} = L^{-T} L^{-1}: mean L^{-T} t, diagonal the column norms of L^{-1}
        inv_chol = np.linalg.inv(chol[0])
        mean_beta = inv_chol.T @ t[0]
        b_g = hyper.b0 + 0.5 * (stats.ywy - float(t[0] @ t[0]))
        var_beta = b_g / (a_n - 1.0) * np.sum(inv_chol * inv_chol, axis=0)
    if not b_g > 0.0:
        raise NumericDomainError(
            f"b_g = {b_g!r} is not positive: y'Wy - quad cancelled or overflowed"
        )
    return ParamMoments(
        mean_log_sigma2=log(b_g) - float(digamma(a_n)),
        var_log_sigma2=float(polygamma(1, a_n)),
        mean_beta=mean_beta,
        var_beta=var_beta,
    )
