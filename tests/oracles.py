"""Oracles that only the tests use: a degenerate two-model Bernoulli testbed
for validating the limit laws by simulation against the bagging engine, and
the bivariate normal CDF by Owen's T function."""

from math import asin, log, pi, sqrt

import numpy as np
from scipy.special import ndtr, owens_t

from bayesbag.errors import InvalidArgumentError


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
