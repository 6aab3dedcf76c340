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
The centered normal CDF is exact up to three models (K - 1 <= 2: Phi, then
Genz's Gauss-Legendre quadrature for the bivariate CDF) and seeded Genz
quasi-Monte Carlo beyond.  Phi is a numpy kernel here (an erfc
polynomial) and Phi^{-1} the standard library's ``NormalDist().inv_cdf``
(Wichura's AS241), so only the quasi-Monte Carlo for four or more models
imports scipy (``scipy.stats``, inside the function).

Non-finite inputs fail loudly: a NaN or infinite parameter, or u outside
(0, 1), raises ``InvalidArgumentError`` (``DegenerateLawError`` for c = 0 in
the CDF or density), a covariance that is not positive definite raises
``SingularLawError``, and a density beyond the float range raises
``NumericDomainError``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache
from math import asin, pi, sin, sqrt
from statistics import NormalDist

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
]

# Default "strongly favors" probability threshold used by the sweep CLI.
STRONG_FAVOR_THRESHOLD = 0.1

# Phi^{-1} is the standard library's (Wichura's AS241), one value at a
# time: the commands take it on a u grid of a few dozen points, where this
# is faster than a whole-array kernel.
_INV_CDF = np.frompyfunc(NormalDist().inv_cdf, 1, 1)


# Phi(x) = erfc(-x / sqrt(2)) / 2 and erfc(b) = erfcx(b) exp(-b^2).  For
# b >= 0, erfcx(b) = 2 P(s) / (b + 2) with s = (2 - b) / (2 + b) in (-1, 1]:
# P is the Chebyshev expansion of erfcx(b) (b + 2) / 2 in s, computed once
# with mpmath (50 digits, 64 Chebyshev-Gauss nodes), cut where every later
# coefficient is below 1e-18 (degree 28) and written in powers of s,
# highest first.
_ERFCX_POLY = (
    -2.0568250908502414e-10, -3.3888695546308687e-10, 2.6449441631835325e-09,
    1.2284536350186566e-09, -1.4244061512167162e-08, 6.353864669505139e-09,
    3.7320706434881306e-08, -5.760146697175624e-08, -1.1658608593196083e-08,
    1.6491163111184633e-07, -2.7732007857270964e-07, -3.0587196456747096e-09,
    9.961500261023896e-07, -1.8208078384029821e-06, -5.608703424323453e-07,
    8.060040491028146e-06, -1.0848610762481446e-05, -1.7074336530735702e-05,
    7.223545742893795e-05, -1.7185737594548938e-05, -0.0003315367609712795,
    0.0004186480332964868, 0.001545306030057245, -0.0032395925339865133,
    -0.010755330944755412, 0.018221115753442495, 0.1397360462780275,
    0.34358034220690525, 0.5107913526210115,
)
def _horner(coefs, s):
    """The polynomial with ``coefs`` (highest degree first) at each s."""
    y = coefs[0] * s + coefs[1]
    for c in coefs[2:]:  # in place on an array; a numpy scalar rebinds
        y *= s
        y += c
    return y


def _ndtr(x):
    """Phi(x), the standard normal CDF, elementwise; a float for a float.
    Below 0 it is erfc(|x| / sqrt(2)) / 2, with no cancellation; above 0,
    one minus that."""
    a = np.asarray(x, dtype=float)[()] * sqrt(0.5)
    b = np.minimum(np.abs(a), 40.0)  # erfc(40) underflows to 0: keeps b^2 finite
    d = 2.0 + b
    half = _horner(_ERFCX_POLY, (2.0 - b) / d) / d * np.exp(-b * b)
    return np.where(a > 0.0, 1.0 - half, half)[()]


def _ndtri(u):
    """Phi^{-1}(u), elementwise, for u strictly inside (0, 1); a float for a
    float."""
    return np.asarray(_INV_CDF(u), dtype=float)[()]


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
    return _ndtr(law.delta_inf)


def _bagged_z(u, law: TwoModelLaw):
    """z = Phi^{-1}(u) and c^{-1/2} z - delta_inf, broadcast, for u strictly
    inside (0, 1) and c > 0."""
    u = np.asarray(u, dtype=float)
    _require((u > 0.0) & (u < 1.0), u, "u must lie strictly inside (0, 1)")
    if np.any(law.c == 0.0):
        raise DegenerateLawError("c = 0 gives a point-mass law with no CDF or density on (0, 1)")
    z = _ndtri(u)
    return z, z / np.sqrt(law.c) - law.delta_inf


def ubb_cdf(u, law: TwoModelLaw):
    """CDF of the limiting bagged posterior probability, for c > 0:
    F(u) = Phi(c^{-1/2} Phi^{-1}(u) - delta_inf)."""
    return _ndtr(_bagged_z(u, law)[1])


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


@cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n Gauss-Legendre nodes on [-1, 1], shifted to (0, 2), and their
    weights."""
    from numpy.polynomial.legendre import leggauss  # importing the CLI loads no numpy.polynomial

    x, w = leggauss(n)
    return x + 1.0, w


def _bvn_cdf(h, k, rho: float):
    """P(X <= h, Y <= k) for standard normals with correlation rho, h and k
    broadcast; a float for floats.

    Genz's (2004) bvnu: Gauss-Legendre quadrature of the Drezner-Wesolowsky
    integral over the correlation (6, 12 or 20 nodes as |rho| grows), and
    for |rho| >= 0.925 its form that takes the near-singular part of the
    integrand out in closed form.
    """
    # moving h or k beyond +-40 changes the result by less than Phi(-40),
    # which underflows; the clip keeps every exponent finite
    h, k = (np.clip(np.asarray(v, dtype=float), -40.0, 40.0) for v in (h, k))
    x, w = _gauss_legendre(6 if abs(rho) < 0.3 else 12 if abs(rho) < 0.75 else 20)
    if abs(rho) < 0.925:
        hk, hs, asr = h * k, 0.5 * (h * h + k * k), 0.5 * asin(rho)
        total = 0.0
        for xi, wi in zip(x, w):
            sn = sin(asr * xi)
            total = total + wi * np.exp((sn * hk - hs) / (1.0 - sn * sn))
        return np.clip(_ndtr(h) * _ndtr(k) + total * (asr / (2.0 * pi)), 0.0, 1.0)[()]
    # Genz's variables: P(X <= h, Y <= k) = P(X' > hg, Y' > -k) with
    # (X', Y') = -(X, Y); for rho < 0, Y' flips sign so corr(X', Y') = |rho|
    hg, kg = -h, (-k if rho > 0.0 else k)
    hk = hg * kg
    bvn = 0.0
    if abs(rho) < 1.0:
        var = (1.0 - rho) * (1.0 + rho)
        a, bs = sqrt(var), (hg - kg) ** 2
        c, d = (4.0 - hk) / 8.0, (12.0 - hk) / 80.0
        bvn = a * np.exp(-0.5 * (bs / var + hk)) * (
            1.0 - c * (bs - var) * (1.0 - d * bs) / 3.0 + c * d * var * var)
        # Genz skips this term below hk = -100, where Phi(-b / a) underflows
        b = np.sqrt(bs)
        term = np.exp(-0.5 * np.maximum(hk, -100.0)) * _ndtr(-b / a) * b * (
            1.0 - c * bs * (1.0 - d * bs) / 3.0)
        bvn = bvn - np.where(hk > -100.0, sqrt(2.0 * pi) * term, 0.0)
        a = 0.5 * a
        for xi, wi in zip(x, w):
            xs = (a * xi) ** 2
            rs = sqrt(1.0 - xs)
            ep = np.exp(-0.5 * hk * xs / (1.0 + rs) ** 2) / rs
            sp = 1.0 + c * xs * (1.0 + 5.0 * d * xs)
            bvn = bvn + a * wi * np.exp(-0.5 * (bs / xs + hk)) * (ep - sp)
        bvn = -bvn / (2.0 * pi)
    # bvn is P(X' > hg, Y' > kg) at correlation |rho| less its value at 1
    if rho > 0.0:
        out = bvn + _ndtr(-np.maximum(hg, kg))
    else:
        # P(X' > hg, -Y' > -kg) = P(X' > hg) - P(X' > hg, Y' > kg), which at
        # rho = -1 is P(hg < X' < kg), taken from the tail nearer zero
        lo, hi = np.where(hg < 0.0, hg, -kg), np.where(hg < 0.0, kg, -hg)
        out = np.where(hg >= kg, -bvn, _ndtr(hi) - _ndtr(lo) - bvn)
    return np.clip(out, 0.0, 1.0)[()]


def _centered_cdf(sigma: np.ndarray, x: np.ndarray, seed):
    """Phi_{0, sigma} at each point x[..., :] of x (..., d): exact for
    d <= 2, seeded Genz quasi-Monte Carlo for d >= 3."""
    z = x / np.sqrt(np.diag(sigma))
    if x.shape[-1] == 1:
        return _ndtr(z[..., 0])
    if x.shape[-1] == 2:
        return _bvn_cdf(z[..., 0], z[..., 1], sigma[0, 1] / sqrt(sigma[0, 0] * sigma[1, 1]))
    from scipy.stats import multivariate_normal  # a slow import: only d >= 3 pays it

    cdf = multivariate_normal(cov=sigma, seed=np.random.default_rng(seed)).cdf(x)
    return np.reshape(cdf, x.shape[:-1])


def mvn_cdf_at_zero(mu, sigma, *, seed=0) -> float:
    """P(X <= 0 componentwise) for X ~ Normal(mu, sigma); exact up to
    dimension 2, ``seed`` drives the quasi-Monte Carlo beyond."""
    mu, sigma = _normal_law(mu, sigma)
    return float(_centered_cdf(sigma, -mu, seed))


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
        return np.full(n_samples, _centered_cdf(law.sigma_inf, np.zeros(dim), qmc_seq))

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
