"""Limit laws for standard and bagged posterior model probabilities.

Two asymptotically comparable models with effect size ``delta_inf`` (mean
over standard deviation of the per-observation log-likelihood ratio,
scaled by sqrt(N)) and bootstrap ratio ``c = lim M/N``:

* the standard posterior probability of model 1 converges to
  Bernoulli(Phi(delta_inf));
* the bagged posterior probability converges to Phi(c^{1/2} W) with
  W ~ Normal(delta_inf, 1), whose CDF for c > 0 is
  F(u) = Phi(c^{-1/2} Phi^{-1}(u) - delta_inf) and density
  f(u) = phi(c^{-1/2} Phi^{-1}(u) - delta_inf) c^{-1/2} / phi(Phi^{-1}(u)).

``TwoModelLaw`` may hold arrays: the two-model law functions broadcast over
u, delta_inf and c, so a whole table of cells is one call.

With K models the analogue replaces Phi by the (K-1)-dimensional normal
CDF of log-marginal-likelihood contrasts against an anchor model:
standard -> Bernoulli(Phi_{-mu, Sigma}(0)); bagged -> Phi_{0, Sigma}(c^{1/2} W)
with W ~ Normal(mu, Sigma).
The centered normal CDF is exact up to three models (K - 1 <= 2: ndtr, then
Owen's T-function identity for the bivariate CDF) and seeded Genz
quasi-Monte Carlo beyond.  ``scipy.special`` and ``scipy.stats`` are
imported inside the functions that use them, so importing this module
loads no scipy.

Non-finite inputs fail loudly: a NaN or infinite parameter, or u outside
(0, 1), raises ``InvalidArgumentError`` (``DegenerateLawError`` for c = 0 in
the CDF or density), a covariance that is not positive definite raises
``SingularLawError``, and a density beyond the float range raises
``NumericDomainError``.

Also provides a degenerate two-model Bernoulli testbed for validating the
laws by simulation against the bagging engine.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import asin, log, pi, sqrt

import numpy as np

from .errors import (
    DegenerateLawError,
    InvalidArgumentError,
    NumericDomainError,
    SingularLawError,
)

__all__ = [
    "TwoModelLaw",
    "KModelLaw",
    "std_limit_bernoulli_2",
    "ubb_cdf",
    "ubb_density",
    "reduce_to_contrasts",
    "mvn_cdf_at_zero",
    "sample_ubb_K",
    "three_model_scenarios",
    "bernoulli_two_model_problem",
]

# Default "strongly favors" probability threshold used by the sweep CLI.
STRONG_FAVOR_THRESHOLD = 0.1


def _require(ok, values, message: str) -> None:
    """Raise ``message`` with the first of ``values`` where ``ok`` is False."""
    if not np.all(ok):
        raise InvalidArgumentError(f"{message}, got {np.extract(~ok, values)[0]}")


def _ratio(c):
    """c = lim M/N, a float or a float array, checked finite and >= 0."""
    c = np.asarray(c, dtype=float)[()]
    _require(np.isfinite(c) & (c >= 0), c, "c must be finite and >= 0")
    return c


def _normal_law(mu, sigma, *, definite: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """A normal law's mean as (k,) and covariance as (k, k), checked finite,
    symmetric within 1e-12 and (if ``definite``) positive definite."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if mu.ndim != 1 or sigma.shape != (mu.size, mu.size):
        raise InvalidArgumentError(
            f"need a (k,) mean and a (k, k) covariance, got {mu.shape} and {sigma.shape}"
        )
    _require(np.isfinite(mu), mu, "mean must be finite")
    _require(np.isfinite(sigma), sigma, "covariance must be finite")
    if not np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-12):
        raise InvalidArgumentError("covariance must be symmetric within 1e-12")
    if definite:
        try:
            np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise SingularLawError("covariance is not positive definite") from None
    return mu, sigma


@dataclass(frozen=True, eq=False)
class TwoModelLaw:
    """Two-model limit law parameters: effect size and c = lim M/N, each a
    float or an array; the law functions broadcast over them and u."""

    delta_inf: float | np.ndarray
    c: float | np.ndarray

    def __post_init__(self):
        delta = np.asarray(self.delta_inf, dtype=float)[()]
        _require(np.isfinite(delta), delta, "delta_inf must be finite")
        object.__setattr__(self, "delta_inf", delta)
        object.__setattr__(self, "c", _ratio(self.c))


@dataclass(frozen=True, eq=False)
class KModelLaw:
    """K-model limit law: contrast mean (K-1,), covariance (K-1, K-1), c."""

    mu_inf: np.ndarray
    sigma_inf: np.ndarray
    c: float

    def __post_init__(self):
        mu, sigma = _normal_law(self.mu_inf, self.sigma_inf)
        object.__setattr__(self, "mu_inf", mu)
        object.__setattr__(self, "sigma_inf", sigma)
        object.__setattr__(self, "c", _ratio(self.c))


def std_limit_bernoulli_2(law: TwoModelLaw):
    """Bernoulli parameter Phi(delta_inf) of the limiting standard posterior.

    The limiting posterior mass on model 1 is 1 with this probability and
    0 otherwise; P(picks the other model) = 1 - Phi(delta_inf).
    """
    from scipy.special import ndtr

    return ndtr(law.delta_inf)


def _bagged_z(u, law: TwoModelLaw):
    """z = Phi^{-1}(u) and c^{-1/2} z - delta_inf, broadcast, for u strictly
    inside (0, 1) and c > 0."""
    from scipy.special import ndtri

    u = np.asarray(u, dtype=float)
    _require((u > 0.0) & (u < 1.0), u, "u must lie strictly inside (0, 1)")
    if np.any(law.c == 0.0):
        raise DegenerateLawError("c = 0 gives a point-mass law with no CDF or density on (0, 1)")
    z = ndtri(u)
    return z, z / np.sqrt(law.c) - law.delta_inf


def ubb_cdf(u, law: TwoModelLaw):
    """CDF of the limiting bagged posterior probability, for c > 0:
    F(u) = Phi(c^{-1/2} Phi^{-1}(u) - delta_inf)."""
    from scipy.special import ndtr

    return ndtr(_bagged_z(u, law)[1])


def ubb_density(u, law: TwoModelLaw):
    """Density of the limiting bagged posterior probability, for c > 0.  A
    density beyond the float range (large c at u near 0 or 1) raises
    ``NumericDomainError`` naming the first such (delta_inf, c, u) cell."""
    z, inner = _bagged_z(u, law)
    # phi(inner)/phi(z) in log space to stay finite near the endpoints
    with np.errstate(over="ignore"):
        density = np.exp(-0.5 * (inner * inner - z * z)) / np.sqrt(law.c)
    overflow = ~np.isfinite(density)
    if np.any(overflow):
        first = np.argmax(overflow)
        cell = tuple(float(g.flat[first]) for g in np.broadcast_arrays(law.delta_inf, law.c, u))
        raise NumericDomainError(f"density overflows the float range at (delta_inf, c, u) = {cell}")
    return density


def reduce_to_contrasts(mu_prime, sigma_prime, anchor: int = 0):
    """Reduce per-model log-likelihood moments to anchor-model contrasts.

    Given the mean vector and covariance of the K per-model log-likelihood
    terms, returns the (K-1)-dimensional mean and covariance of
    (anchor minus each other model), i.e. A mu' and A Sigma' A' for the
    contrast matrix A.
    """
    mu_prime, sigma_prime = _normal_law(mu_prime, sigma_prime, definite=False)
    k = mu_prime.size
    if k < 2:
        raise InvalidArgumentError("need K >= 2 models")
    if not 0 <= anchor < k:
        raise InvalidArgumentError(f"anchor must index a model in [0, {k}), got {anchor}")
    a = np.eye(k)[anchor] - np.delete(np.eye(k), anchor, axis=0)
    sigma_inf = a @ sigma_prime @ a.T
    return _normal_law(a @ mu_prime, 0.5 * (sigma_inf + sigma_inf.T))


def _bvn_cdf(h, k, rho: float) -> np.ndarray:
    """P(X <= h, Y <= k) for standard normals with correlation rho, exact to
    rounding by Owen's (1956) T-function identity."""
    from scipy.special import ndtr, owens_t

    h, k = np.asarray(h, dtype=float), np.asarray(k, dtype=float)
    s = sqrt(1.0 - rho * rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        # on an axis (-0.0 included) T takes its limit from the positive side
        t_h = np.where(h == 0.0, np.sign(k) / 4, owens_t(h, (k - rho * h) / (h * s)))
        t_k = np.where(k == 0.0, np.sign(h) / 4, owens_t(k, (h - rho * k) / (k * s)))
    beta = 0.5 * ((h < 0.0) != (k < 0.0))  # hk < 0, or hk = 0 and h + k < 0
    out = 0.5 * (ndtr(h) + ndtr(k)) - t_h - t_k - beta
    return np.where((h == 0.0) & (k == 0.0), 0.25 + asin(rho) / (2.0 * pi), out)


def _centered_cdf(sigma: np.ndarray, x: np.ndarray, seed) -> np.ndarray:
    """Phi_{0, sigma} at each row of x (n, d): exact for d <= 2, seeded Genz
    quasi-Monte Carlo for d >= 3."""
    from scipy.special import ndtr

    z = x / np.sqrt(np.diag(sigma))
    if x.shape[1] == 1:
        return ndtr(z[:, 0])
    if x.shape[1] == 2:
        return _bvn_cdf(z[:, 0], z[:, 1], sigma[0, 1] / sqrt(sigma[0, 0] * sigma[1, 1]))
    from scipy.stats import multivariate_normal  # a slow import: only d >= 3 pays it

    return np.atleast_1d(multivariate_normal(cov=sigma, seed=np.random.default_rng(seed)).cdf(x))


def mvn_cdf_at_zero(mu, sigma, *, seed=0) -> float:
    """P(X <= 0 componentwise) for X ~ Normal(mu, sigma); exact up to
    dimension 2, ``seed`` drives the quasi-Monte Carlo beyond."""
    mu, sigma = _normal_law(mu, sigma)
    return float(_centered_cdf(sigma, -mu[None, :], seed)[0])


def sample_ubb_K(law: KModelLaw, n_samples: int, seed: int) -> np.ndarray:
    """Draws from the limiting bagged posterior probability of the anchor
    model: Phi_{0, Sigma}(c^{1/2} W) with W ~ Normal(mu, Sigma).

    Each draw is exact for up to three models; with c = 0 every draw equals
    the deterministic Phi_{0, Sigma}(0).
    """
    if n_samples < 1:
        raise InvalidArgumentError("n_samples must be >= 1")
    dim = law.mu_inf.size
    outer_seq, qmc_seq = np.random.SeedSequence(entropy=seed).spawn(2)
    if law.c == 0.0:
        if np.any(law.mu_inf != 0.0):
            # The point-mass collapse is only established for centered
            # contrasts; report the natural limit value but flag the reach.
            warnings.warn(
                "c = 0 with nonzero contrast mean: returning the deterministic "
                "value Phi_{0,Sigma}(0) as an extrapolation",
                stacklevel=2,
            )
        return np.full(n_samples, _centered_cdf(law.sigma_inf, np.zeros((1, dim)), qmc_seq)[0])

    chol = np.linalg.cholesky(law.sigma_inf)
    w_rng = np.random.default_rng(outer_seq)
    w = law.mu_inf + w_rng.standard_normal((n_samples, dim)) @ chol.T
    return _centered_cdf(law.sigma_inf, sqrt(law.c) * w, qmc_seq)


def three_model_scenarios(kind: str, grid) -> list[tuple[np.ndarray, np.ndarray]]:
    """Three-model mean/covariance families swept by the asymptotics CLI.

    ``vary_mean``: mu' = (0, 0, g), unit variances, all correlations 0.5.
    ``vary_variance``: mu' = 0, third model's scale g > 0, correlations 0.5.
    ``vary_correlation``: mu' = 0, identity except corr(model1, model2) = g
    with |g| < 1.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    out = []
    if kind == "vary_mean":
        base = 0.5 + 0.5 * np.eye(3)
        for value in grid:
            out.append((np.array([0.0, 0.0, value]), base.copy()))
    elif kind == "vary_variance":
        for value in grid:
            if value <= 0:
                raise InvalidArgumentError(f"scale must be positive, got {value}")
            scale = np.array([1.0, 1.0, value])
            sigma = (0.5 + 0.5 * np.eye(3)) * np.outer(scale, scale)
            out.append((np.zeros(3), sigma))
    elif kind == "vary_correlation":
        for value in grid:
            if not -1.0 < value < 1.0:
                raise InvalidArgumentError(f"correlation must be in (-1, 1), got {value}")
            sigma = np.eye(3)
            sigma[0, 1] = sigma[1, 0] = value
            out.append((np.zeros(3), sigma))
    else:
        raise InvalidArgumentError(
            "kind must be one of vary_mean, vary_variance, vary_correlation"
        )
    return out


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

