"""Tests for the synthetic data generator and the KL-optimal oracle."""

import numpy as np
import pytest
from scipy.stats import kurtosis

from bayesbag.errors import InvalidArgumentError
from bayesbag.simgen import (
    SimConfig,
    _base_correlation,
    make_beta_dagger,
    sample_dataset,
    sample_regressors,
)
from oracles import kl_optimal_params


class TestMakeBetaDagger:
    def test_ten_one_sparse(self):
        beta = make_beta_dagger(10, 1)
        assert beta.tolist() == [0, 0, 0, 0, 1, 0, 0, 0, 0, 0]  # component 5

    def test_twenty_two_sparse(self):
        beta = make_beta_dagger(20, 2)
        assert np.flatnonzero(beta).tolist() == [5, 12]  # components 6 and 13

    def test_out_of_range_guard(self):
        with pytest.raises(InvalidArgumentError):
            make_beta_dagger(3, 3)  # first position floors to 0

    def test_exactly_k_ones(self):
        for d, k in ((10, 1), (20, 2), (15, 3)):
            assert make_beta_dagger(d, k).sum() == k


class TestSampleRegressors:
    def setup_method(self):
        self.config = SimConfig(d=20, k=2, n=100_000, response_kind="linear", seed=0)
        self.z = sample_regressors(self.config, np.random.default_rng(123))

    def test_unit_variances(self):
        variances = self.z.var(axis=0)
        assert np.all(variances > 0.95) and np.all(variances < 1.05)

    def test_zero_means(self):
        assert np.all(np.abs(self.z.mean(axis=0)) < 0.02)

    def test_even_pair_correlation(self):
        # components 2 and 4 (1-based) carry no random scale, so their
        # correlation is the raw kernel value exp(-4/64)
        r = np.corrcoef(self.z[:, 1], self.z[:, 3])[0, 1]
        assert abs(r - np.exp(-4.0 / 64.0)) < 0.02

    def test_tail_behavior(self):
        # odd components are rescaled t(10): excess kurtosis 1; even are normal
        odd = kurtosis(self.z[:, 0::2], axis=0, fisher=True)
        even = kurtosis(self.z[:, 1::2], axis=0, fisher=True)
        assert np.all(odd > 0.5)
        assert np.all(even < 0.2)

    def test_kernel_factor_takes_the_first_rung_that_works(self, monkeypatch):
        # no jitter at d = 10; at d = 20 the kernel itself has no Cholesky
        # factor, and K + 1e-12 I is factored
        factored = []
        cholesky = np.linalg.cholesky

        def recording(a):
            factored.append(a)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", recording)
        for d, jitters in ((10, [0.0]), (20, [0.0, 1e-12])):
            factored.clear()
            sample_regressors(SimConfig(d=d, k=2, n=5), np.random.default_rng(0))
            kernel = _base_correlation(d)
            assert len(factored) == len(jitters)
            for a, jitter in zip(factored, jitters):
                np.testing.assert_array_equal(a, kernel + jitter * np.eye(d))
        with pytest.raises(np.linalg.LinAlgError):
            cholesky(_base_correlation(20))

    def test_h_guard(self):
        with pytest.raises(InvalidArgumentError):
            SimConfig(d=4, k=1, n=10, response_kind="linear", h=2.0)


class TestSimConfig:
    @pytest.mark.parametrize("d, k", [(2, 2), (3, 3)])
    def test_sparsity_pattern_checked_at_construction(self, d, k):
        with pytest.raises(InvalidArgumentError, match="sparsity pattern"):
            SimConfig(d=d, k=k, n=10)

    def test_k_range(self):
        for k in (0, 5):
            with pytest.raises(InvalidArgumentError, match="1 <= k <= d"):
                SimConfig(d=4, k=k, n=10)


class TestSampleDataset:
    def test_linear_response_variance(self):
        config = SimConfig(d=10, k=1, n=100_000, response_kind="linear", seed=3)
        data = sample_dataset(config)
        # unit-variance causal regressor plus unit noise
        assert abs(data.y.var() - 2.0) < 0.1

    def test_nonlinear_signal_is_cubic(self):
        config = SimConfig(d=10, k=1, n=100_000, response_kind="nonlinear", seed=4)
        data = sample_dataset(config)
        causal = 4  # component 5
        corr_lin = np.corrcoef(data.y, data.z[:, causal])[0, 1]
        corr_cub = np.corrcoef(data.y, data.z[:, causal] ** 3)[0, 1]
        assert corr_cub > corr_lin

    def test_seed_determinism(self):
        config = SimConfig(d=5, k=1, n=200, response_kind="nonlinear", seed=9)
        a = sample_dataset(config)
        b = sample_dataset(config)
        np.testing.assert_array_equal(a.z, b.z)
        np.testing.assert_array_equal(a.y, b.y)

    @pytest.mark.parametrize("kind", ["linear", "nonlinear"])
    @pytest.mark.parametrize("d, k", [(3, 1), (10, 1), (13, 2), (20, 2), (10, 3)])
    def test_response_equals_full_map(self, kind, d, k):
        # the response uses the causal columns only; with at most two
        # nonzero terms the sum is exact, so it matches f(Z) beta bit for bit
        config = SimConfig(d=d, k=k, n=500, response_kind=kind)
        data = sample_dataset(config, rng=np.random.default_rng(31))
        rng = np.random.default_rng(31)
        z = sample_regressors(config, rng)
        f = z if kind == "linear" else z**3
        y = f @ make_beta_dagger(d, k) + rng.standard_normal(config.n)
        np.testing.assert_array_equal(data.z, z)
        if k <= 2:
            np.testing.assert_array_equal(data.y, y)
        else:
            np.testing.assert_allclose(data.y, y, rtol=1e-11)


class TestKlOptimalParams:
    def test_linear_response_recovers_truth(self):
        config = SimConfig(d=8, k=1, n=1, response_kind="linear", seed=0)
        result = kl_optimal_params(config, n_mc=40_000, seed=1)
        beta_dag = make_beta_dagger(8, 1)
        # identity response makes the sample moments cancel exactly; only
        # float roundoff separates the estimate from the truth
        tol = 3 * result.moment_se + 1e-9
        assert np.all(np.abs(result.beta_circ - beta_dag) <= tol)
        assert abs(result.sigma2_circ - 1.0) <= tol

    def test_independent_gaussian_cubic_coefficient(self):
        config = SimConfig(d=6, k=1, n=1, response_kind="nonlinear", seed=0)
        result = kl_optimal_params(
            config, n_mc=200_000, seed=2,
            regressor_sampler=lambda n, rng: rng.standard_normal((n, 6)),
        )
        causal = np.flatnonzero(make_beta_dagger(6, 1))[0]
        # E(Z * Z^3)/E(Z^2) = 3 for standard normal coordinates
        assert abs(result.beta_circ[causal] - 3.0) <= 3 * result.moment_se
        others = np.delete(result.beta_circ, causal)
        assert np.all(np.abs(others) <= 4 * result.moment_se)

    def test_correlated_mixture_cubic_is_dense(self):
        config = SimConfig(d=10, k=1, n=1, response_kind="nonlinear", seed=0)
        result = kl_optimal_params(config, n_mc=300_000, seed=3)
        assert np.sum(np.abs(result.beta_circ) > 0.05) >= 3

    def test_moment_se_scales_with_sample_size(self):
        config = SimConfig(d=6, k=1, n=1, response_kind="nonlinear", seed=0)
        ratios = []
        for seed in range(10):
            small = kl_optimal_params(config, n_mc=20_000, seed=seed)
            big = kl_optimal_params(config, n_mc=40_000, seed=1000 + seed)
            ratios.append(small.moment_se / big.moment_se)
        assert 1.2 <= np.mean(ratios) <= 1.7

    def test_sigma2_clamp_not_binding_in_shipped_configs(self):
        for kind in ("linear", "nonlinear"):
            config = SimConfig(d=10, k=1, n=1, response_kind=kind, seed=0)
            result = kl_optimal_params(config, n_mc=50_000, seed=4)
            assert result.sigma2_circ_raw >= -3 * result.moment_se
            assert result.sigma2_circ >= 0.0

    def test_n_mc_guard(self):
        config = SimConfig(d=4, k=1, n=1, response_kind="linear", seed=0)
        with pytest.raises(InvalidArgumentError):
            kl_optimal_params(config, n_mc=500, seed=0)
