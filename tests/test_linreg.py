"""Tests for the conjugate regression backend: marginal likelihood against a
quadrature oracle, replication equivalence, enumeration, priors, pips, and
posterior moments against conjugate sampling."""

from math import exp, lgamma, log, pi

import numpy as np
import pytest
from scipy import integrate
from scipy.special import polygamma

from bayesbag.core import standard_model_posterior
from bayesbag.errors import (
    InvalidArgumentError,
    NumericDomainError,
    ResourceLimitError,
    VarianceUndefinedError,
)
from bayesbag.linreg import (
    NIGHyperparams,
    RegressionDataset,
    SuffStats,
    enumerate_models,
    log_marginal_likelihood,
    log_marginal_likelihood_from_stats,
    log_prior_gamma,
    log_priors,
    make_evaluator,
    model_log_marginals,
    param_moments_from_stats,
    pips,
    posterior_param_moments,
    weighted_stats,
)


def quadrature_log_ml_ratio(z, y, hyper, shift):
    """Integrate the one-regressor evidence by adaptive 2-D quadrature over
    (log sigma^2, beta), scaled by exp(-shift).  Independent of the closed
    form used by the implementation."""
    zcol = np.asarray(z).ravel()
    n = len(y)

    def integrand(beta, t):
        s2 = exp(t)
        loglik = -0.5 * n * log(2 * pi * s2) - 0.5 * np.sum((y - zcol * beta) ** 2) / s2
        logpbeta = 0.5 * log(hyper.lam / (2 * pi * s2)) - 0.5 * hyper.lam * beta * beta / s2
        logps2 = (
            hyper.a0 * log(hyper.b0) - lgamma(hyper.a0)
            - (hyper.a0 + 1) * log(s2) - hyper.b0 / s2 + t
        )
        return exp(loglik + logpbeta + logps2 - shift)

    value, _ = integrate.dblquad(
        integrand, -15, 12, lambda t: -30, lambda t: 30, epsabs=1e-12, epsrel=1e-10
    )
    return value


def random_problem(rng, n=6, d=3):
    z = rng.standard_normal((n, d))
    y = z @ rng.standard_normal(d) + rng.standard_normal(n)
    return RegressionDataset(z=z, y=y)


HYPER = NIGHyperparams(a0=2.0, b0=1.0, lam=16.0, q0=0.1, k_star=3)


class TestLogMarginalLikelihood:
    def test_empty_weights_give_unit_evidence(self):
        data = random_problem(np.random.default_rng(0))
        value = log_marginal_likelihood(data, np.zeros(data.n), np.array([1, 0, 1]), HYPER)
        assert value == 0.0

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_matches_quadrature(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            z = rng.standard_normal((5, 1))
            y = 1.5 * rng.standard_normal(5)
            hyper = NIGHyperparams(
                a0=float(rng.uniform(1.5, 3)),
                b0=float(rng.uniform(0.5, 2)),
                lam=float(rng.uniform(0.5, 4)),
                q0=0.5,
                k_star=1,
            )
            data = RegressionDataset(z=z, y=y)
            lml = log_marginal_likelihood(data, np.ones(5), np.array([1]), hyper)
            ratio = quadrature_log_ml_ratio(z, y, hyper, shift=lml)
            assert abs(ratio - 1.0) < 1e-6

    def test_weighting_equals_replication(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            data = random_problem(rng)
            w = rng.integers(0, 4, size=data.n)
            if w.sum() == 0:
                w[0] = 1
            gamma = rng.integers(0, 2, size=data.d)
            weighted = log_marginal_likelihood(data, w, gamma, HYPER)
            replicated = RegressionDataset(
                z=np.repeat(data.z, w, axis=0), y=np.repeat(data.y, w)
            )
            unit = log_marginal_likelihood(
                replicated, np.ones(replicated.n), gamma, HYPER
            )
            # equality up to float summation order
            assert abs(weighted - unit) <= 1e-10 * max(1.0, abs(unit))

    def test_zero_column_leaves_evidence_unchanged(self):
        # a column of exact zeros adds (1/2)log(lam) to both the prior
        # volume term and log|Lam|, cancelling exactly
        rng = np.random.default_rng(31)
        z = rng.standard_normal((8, 2))
        z[:, 1] = 0.0
        y = z[:, 0] + rng.standard_normal(8)
        data = RegressionDataset(z=z, y=y)
        hyper = NIGHyperparams(a0=2.0, b0=1.0, lam=3.0, q0=0.5, k_star=2)
        with_col = log_marginal_likelihood(data, np.ones(8), np.array([1, 1]), hyper)
        without = log_marginal_likelihood(data, np.ones(8), np.array([1, 0]), hyper)
        assert abs(with_col - without) < 1e-10

    def test_bad_weights_rejected(self):
        data = random_problem(np.random.default_rng(1))
        with pytest.raises(InvalidArgumentError):
            log_marginal_likelihood(data, np.ones(data.n - 1), np.array([1, 0, 0]), HYPER)
        with pytest.raises(InvalidArgumentError):
            log_marginal_likelihood(data, -np.ones(data.n), np.array([1, 0, 0]), HYPER)


def per_model_log_ml(stats, gamma, hyper):
    """One model's log evidence from its own sub-block, by slogdet and a
    general solve; independent of the stacked Cholesky path."""
    idx = np.flatnonzero(gamma)
    quad, logdet = 0.0, 0.0
    if idx.size:
        lam_mat = stats.zwz[np.ix_(idx, idx)] + hyper.lam * np.eye(idx.size)
        sign, logdet = np.linalg.slogdet(lam_mat)
        assert sign > 0
        quad = stats.zwy[idx] @ np.linalg.solve(lam_mat, stats.zwy[idx])
    a_n = hyper.a0 + 0.5 * stats.m
    b_g = hyper.b0 + 0.5 * (stats.ywy - quad)
    return (
        hyper.a0 * log(hyper.b0) + lgamma(a_n) - 0.5 * stats.m * log(2 * pi)
        - lgamma(hyper.a0) + 0.5 * idx.size * log(hyper.lam)
        - a_n * log(b_g) - 0.5 * logdet
    )


# b_g = b0 + (0 - 100 / (1 + lam)) / 2 < 0: the evidence is undefined
NEGATIVE_B_G = SuffStats(zwz=[[1]], zwy=[10], ywy=0, m=1)
NEGATIVE_B_G_HYPER = NIGHyperparams(a0=2, b0=1e-3, lam=1e-6, q0=0.5, k_star=1)


class TestBatchedModelLayer:
    def test_all_subsets_match_per_model_reference(self):
        rng = np.random.default_rng(41)
        data = random_problem(rng, n=30, d=8)
        w = rng.integers(0, 4, size=data.n)
        assert np.any(w == 0)
        stats = weighted_stats(data, w)
        hyper = NIGHyperparams(a0=2.0, b0=1.0, lam=0.5, q0=0.3, k_star=8)
        # shuffled rows: results must come back in the caller's order
        models = enumerate_models(8, 8)[rng.permutation(256)]
        batched = model_log_marginals(stats, models, hyper)
        reference = np.array([per_model_log_ml(stats, g, hyper) for g in models])
        np.testing.assert_allclose(batched, reference, rtol=1e-10)
        single = [log_marginal_likelihood_from_stats(stats, g, hyper) for g in models]
        np.testing.assert_allclose(single, batched, rtol=1e-14)

    def test_evaluator_matches_direct_call(self):
        rng = np.random.default_rng(43)
        data = random_problem(rng, n=25, d=5)
        models = enumerate_models(5, 3)
        evaluate = make_evaluator(data, models, HYPER)
        for _ in range(3):
            w = rng.integers(0, 3, size=data.n)
            np.testing.assert_array_equal(
                evaluate(w), model_log_marginals(weighted_stats(data, w), models, HYPER)
            )

    def test_jitter_confined_to_failing_matrix(self):
        # z2 == z1 with z1'z1 = 4: the {1, 2} block [[4, 4], [4, 4]] + 1e-20 I
        # rounds to a singular matrix whose Cholesky fails without jitter
        rng = np.random.default_rng(47)
        z = np.column_stack([np.ones(4), np.ones(4), rng.standard_normal(4)])
        data = RegressionDataset(z=z, y=rng.standard_normal(4))
        hyper = NIGHyperparams(a0=2.0, b0=1.0, lam=1e-20, q0=0.5, k_star=3)
        stats = weighted_stats(data, np.ones(4))
        models = enumerate_models(3, 3)
        pair = [list(g) for g in models].index([1, 1, 0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(stats.zwz[:2, :2] + hyper.lam * np.eye(2))
        values = model_log_marginals(stats, models, hyper)
        assert np.all(np.isfinite(values))
        others = [k for k in range(len(models)) if models[k].sum() == 2 and k != pair]
        alone = model_log_marginals(stats, models[others], hyper)
        np.testing.assert_array_equal(values[others], alone)
        reference = [per_model_log_ml(stats, models[k], hyper) for k in others]
        np.testing.assert_allclose(alone, reference, rtol=1e-10)

    def test_negative_b_g_is_a_typed_error(self):
        with pytest.raises(NumericDomainError):
            model_log_marginals(NEGATIVE_B_G, np.array([[0], [1]]), NEGATIVE_B_G_HYPER)
        with pytest.raises(NumericDomainError):
            log_marginal_likelihood_from_stats(NEGATIVE_B_G, [1], NEGATIVE_B_G_HYPER)
        # the empty model leaves b_g = b0 and stays defined
        value = log_marginal_likelihood_from_stats(NEGATIVE_B_G, [0], NEGATIVE_B_G_HYPER)
        assert np.isfinite(value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_evidence_is_a_typed_error(self):
        # y'Wy overflows to inf, so the empty model's b_g is inf and its
        # log evidence -inf; with a column, quad is inf too and b_g NaN
        data = RegressionDataset(z=np.array([[1.0]]), y=np.array([1e200]))
        for gamma in ([0], [1]):
            with pytest.raises(NumericDomainError):
                log_marginal_likelihood(data, np.ones(1), gamma, HYPER)

    def test_model_width_must_match_stats(self):
        stats = weighted_stats(random_problem(np.random.default_rng(3)), np.ones(6))
        with pytest.raises(InvalidArgumentError):
            model_log_marginals(stats, enumerate_models(2, 2), HYPER)


class TestEnumerateModels:
    def test_counts(self):
        assert enumerate_models(10, 2).shape == (56, 10)
        assert enumerate_models(3, 3).shape == (8, 3)
        assert enumerate_models(20, 3).shape == (1351, 20)

    def test_order_by_size_then_lexicographic(self):
        models = enumerate_models(3, 3)
        expected = [
            [0, 0, 0],
            [0, 0, 1], [0, 1, 0], [1, 0, 0],
            [0, 1, 1], [1, 0, 1], [1, 1, 0],
            [1, 1, 1],
        ]
        np.testing.assert_array_equal(models, expected)

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            enumerate_models(40, 20)

    def test_bad_k_star(self):
        with pytest.raises(InvalidArgumentError):
            enumerate_models(5, 0)
        with pytest.raises(InvalidArgumentError):
            enumerate_models(5, 6)


class TestPriorOverGamma:
    def test_uniform_at_half(self):
        hyper = NIGHyperparams(a0=2, b0=1, lam=1, q0=0.5, k_star=3)
        models = enumerate_models(3, 3)
        values = log_priors(models, hyper)
        np.testing.assert_allclose(values, values[0])

    def test_direct_value(self):
        hyper = NIGHyperparams(a0=2, b0=1, lam=1, q0=0.1, k_star=2)
        value = log_prior_gamma(np.array([1, 0]), hyper)
        assert abs(value - (log(0.1) + log(0.9))) < 1e-15

    def test_prior_ratio(self):
        hyper = NIGHyperparams(a0=2, b0=1, lam=1, q0=0.25, k_star=2)
        ratio = exp(
            log_prior_gamma(np.array([1, 1]), hyper)
            - log_prior_gamma(np.array([0, 0]), hyper)
        )
        assert abs(ratio - 1.0 / 9.0) < 1e-12


class TestPips:
    def test_concentrated(self):
        models = enumerate_models(3, 3)
        probs = np.zeros(len(models))
        probs[list(map(list, models)).index([1, 0, 0])] = 1.0
        np.testing.assert_allclose(pips(probs, models), [1.0, 0.0, 0.0])

    def test_uniform_two_regressors(self):
        models = enumerate_models(2, 2)
        np.testing.assert_allclose(
            pips(np.full(4, 0.25), models), [0.5, 0.5], atol=1e-15
        )

    def test_k_star_one_identity(self):
        models = enumerate_models(3, 1)  # empty, e3, e2, e1
        probs = np.array([0.4, 0.3, 0.2, 0.1])
        expected = np.zeros(3)
        for p, gamma in zip(probs, models):
            expected += p * gamma
        np.testing.assert_allclose(pips(probs, models), expected, atol=1e-15)

    def test_misaligned(self):
        with pytest.raises(InvalidArgumentError):
            pips(np.array([1.0]), enumerate_models(2, 2))

    def test_monotone_in_q0(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            d = int(rng.integers(2, 5))
            data = random_problem(rng, n=40, d=d)
            models = enumerate_models(d, d)
            stats = weighted_stats(data, np.ones(data.n))
            previous = None
            for q0 in np.linspace(0.05, 0.95, 10):
                hyper = NIGHyperparams(a0=2, b0=1, lam=1, q0=float(q0), k_star=d)
                post = standard_model_posterior(
                    model_log_marginals(stats, models, hyper), log_priors(models, hyper)
                )
                current = pips(post, models)
                if previous is not None:
                    assert np.all(current >= previous - 1e-12)
                previous = current

    def test_exchangeability_under_column_permutation(self):
        rng = np.random.default_rng(9)
        data = random_problem(rng, n=30, d=4)
        perm = np.array([2, 0, 3, 1])
        permuted = RegressionDataset(z=data.z[:, perm], y=data.y)
        models = enumerate_models(4, 2)
        hyper = NIGHyperparams(a0=2, b0=1, lam=4, q0=0.2, k_star=2)

        def run(ds):
            stats = weighted_stats(ds, np.ones(ds.n))
            post = standard_model_posterior(
                model_log_marginals(stats, models, hyper), log_priors(models, hyper)
            )
            return pips(post, models)

        np.testing.assert_allclose(run(permuted), run(data)[perm], atol=1e-10)


class TestParamMoments:
    def test_prior_variance_with_zero_data(self):
        data = random_problem(np.random.default_rng(2))
        hyper = NIGHyperparams(a0=3.0, b0=2.0, lam=50.0, q0=0.5, k_star=3)
        moments = posterior_param_moments(
            data, np.zeros(data.n), np.array([1, 1, 1]), hyper
        )
        expected = hyper.b0 / ((hyper.a0 - 1.0) * hyper.lam)
        np.testing.assert_allclose(moments.var_beta, expected, rtol=1e-12)
        np.testing.assert_allclose(moments.mean_beta, 0.0, atol=1e-15)

    def test_trigamma_identity(self):
        # a_n = a0 + M/2 = 2 with a0 = 1.5, M = 1: var(log sigma^2) = pi^2/6 - 1
        data = RegressionDataset(z=np.array([[1.0]]), y=np.array([0.5]))
        hyper = NIGHyperparams(a0=1.5, b0=1.0, lam=1.0, q0=0.5, k_star=1)
        moments = posterior_param_moments(data, np.ones(1), np.array([1]), hyper)
        assert abs(moments.var_log_sigma2 - (np.pi**2 / 6 - 1.0)) < 1e-12

    def test_negative_b_g_is_a_typed_error(self):
        with pytest.raises(NumericDomainError):
            param_moments_from_stats(NEGATIVE_B_G, np.array([1]), NEGATIVE_B_G_HYPER)

    def test_variance_undefined(self):
        data = RegressionDataset(z=np.array([[1.0]]), y=np.array([0.5]))
        hyper = NIGHyperparams(a0=0.5, b0=1.0, lam=1.0, q0=0.5, k_star=1)
        with pytest.raises(VarianceUndefinedError):
            posterior_param_moments(data, np.zeros(1), np.array([1]), hyper)

    def test_against_conjugate_sampling(self):
        rng = np.random.default_rng(7)
        n, d = 20, 3
        z = rng.standard_normal((n, d))
        y = z @ np.array([1.0, -0.5, 0.25]) + rng.standard_normal(n)
        data = RegressionDataset(z=z, y=y)
        hyper = NIGHyperparams(a0=2.0, b0=1.0, lam=2.0, q0=0.5, k_star=3)
        moments = posterior_param_moments(data, np.ones(n), np.ones(d), hyper)

        a_n = hyper.a0 + n / 2
        lam_mat = z.T @ z + hyper.lam * np.eye(d)
        beta_hat = np.linalg.solve(lam_mat, z.T @ y)
        b_g = hyper.b0 + 0.5 * (y @ y - y @ z @ beta_hat)
        n_mc = 10**6
        sigma2 = 1.0 / rng.gamma(a_n, 1.0 / b_g, size=n_mc)
        chol = np.linalg.cholesky(np.linalg.inv(lam_mat))
        beta = beta_hat + (rng.standard_normal((n_mc, d)) @ chol.T) * np.sqrt(sigma2)[:, None]

        for j in range(d):
            se_mean = beta[:, j].std(ddof=1) / np.sqrt(n_mc)
            assert abs(moments.mean_beta[j] - beta[:, j].mean()) < 3 * se_mean
            mc_var = beta[:, j].var(ddof=1)
            # relative error of a variance estimate is ~ sqrt(kurtosis/n)
            assert abs(moments.var_beta[j] - mc_var) < 3 * mc_var * np.sqrt(10.0 / n_mc)
        log_s2 = np.log(sigma2)
        se = log_s2.std(ddof=1) / np.sqrt(n_mc)
        assert abs(moments.mean_log_sigma2 - log_s2.mean()) < 3 * se
        assert abs(moments.var_log_sigma2 - log_s2.var(ddof=1)) < 3 * log_s2.var(
            ddof=1
        ) * np.sqrt(10.0 / n_mc)
        assert abs(moments.var_log_sigma2 - float(polygamma(1, a_n))) < 1e-12
