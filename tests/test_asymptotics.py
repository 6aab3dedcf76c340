"""Tests for the limit-law calculators and the simulation testbed."""

import copy
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr, ndtri
from scipy.stats import kstest, multivariate_normal

import bayesbag as bb
from bayesbag.asymptotics import (
    _bvn_cdf,
    _ndtr,
    _ndtri,
    KModelLaw,
    TwoModelLaw,
    three_model_scenarios,
    mvn_cdf_at_zero,
    reduce_to_contrasts,
    sample_ubb_K,
    std_limit_bernoulli_2,
    ubb_cdf,
    ubb_density,
)
from bayesbag.core import standard_model_posterior
from bayesbag.errors import (
    DegenerateLawError,
    InvalidArgumentError,
    NumericDomainError,
    SingularLawError,
)
from oracles import KLOptimal, bernoulli_two_model_problem, owens_t_bvn_cdf

UNIFORM2 = np.log([0.5, 0.5])


class TestStdLimit:
    def test_zero_effect_is_fair_coin(self):
        assert std_limit_bernoulli_2(TwoModelLaw(0.0, 1.0)) == 0.5

    def test_effect_two(self):
        p = std_limit_bernoulli_2(TwoModelLaw(2.0, 1.0))
        assert abs(p - ndtr(2.0)) < 1e-15
        assert 1.0 - p > 0.02  # wrong-model probability stays non-negligible

    def test_large_negative_effect(self):
        assert std_limit_bernoulli_2(TwoModelLaw(-40.0, 1.0)) == 0.0


class TestUbbCdf:
    def test_uniform_when_centered_unit_c(self):
        law = TwoModelLaw(0.0, 1.0)
        u = np.linspace(0.01, 0.99, 25)
        np.testing.assert_allclose(ubb_cdf(u, law), u, atol=1e-14)

    def test_formula_at_effect_two(self):
        # closed form: F(0.1) = Phi(Phi^{-1}(0.1) - 2)
        value = ubb_cdf(0.1, TwoModelLaw(2.0, 1.0))
        assert abs(value - ndtr(ndtri(0.1) - 2.0)) < 1e-15

    def test_median_symmetry(self):
        for c in (0.25, 1.0, 4.0):
            assert abs(ubb_cdf(0.5, TwoModelLaw(0.0, c)) - 0.5) < 1e-14

    def test_symmetry_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            delta = float(rng.uniform(-3, 3))
            c = float(rng.uniform(0.2, 5))
            u = float(rng.uniform(0.01, 0.99))
            lhs = ubb_cdf(u, TwoModelLaw(delta, c))
            rhs = ubb_cdf(1.0 - u, TwoModelLaw(-delta, c))
            assert abs(lhs + rhs - 1.0) < 1e-10

    def test_monotone_and_endpoint_limits(self):
        law = TwoModelLaw(1.0, 0.5)
        u = np.linspace(1e-9, 1 - 1e-9, 201)
        values = ubb_cdf(u, law)
        assert np.all(np.diff(values) >= 0)
        assert values[0] < 1e-6 and values[-1] > 1 - 1e-6

    def test_degenerate_c(self):
        with pytest.raises(DegenerateLawError):
            ubb_cdf(0.5, TwoModelLaw(0.0, 0.0))

    def test_domain(self):
        with pytest.raises(InvalidArgumentError):
            ubb_cdf(0.0, TwoModelLaw(0.0, 1.0))

    def test_standard_posterior_recovered_as_c_grows(self):
        # P(U^bb > 0.9) increases in c toward Phi(delta) for delta = 1
        values = [1.0 - ubb_cdf(0.9, TwoModelLaw(1.0, c)) for c in (1, 4, 16, 64)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < ndtr(1.0)


class TestBroadcast:
    """The two-model law functions on a (delta, c, u) grid equal their
    per-cell scalar calls bit for bit."""

    DELTA = np.array([-1.5, 0.0, 0.25, 2.0])
    C = np.array([0.25, 1.0, 4.0])
    U = np.array([1e-9, 0.02, 0.5, 0.9, 1 - 1e-9])

    def test_grid_equals_cells(self):
        delta, c, u = np.meshgrid(self.DELTA, self.C, self.U, indexing="ij")
        law = TwoModelLaw(delta, c)

        def per_cell(fn):
            cells = zip(u.flat, delta.flat, c.flat)
            return np.reshape([fn(float(ui), TwoModelLaw(float(di), float(ci))) for ui, di, ci in cells], u.shape)

        np.testing.assert_array_equal(ubb_cdf(u, law), per_cell(ubb_cdf))
        np.testing.assert_array_equal(ubb_density(u, law), per_cell(ubb_density))
        np.testing.assert_array_equal(std_limit_bernoulli_2(law),
                                      per_cell(lambda _, cell: std_limit_bernoulli_2(cell)))

    def test_broadcast_shapes_and_scalar_type(self):
        law = TwoModelLaw(self.DELTA[:, None], self.C[None, :])
        assert ubb_cdf(0.1, law).shape == (4, 3)
        assert ubb_density(self.U[:, None, None], law).shape == (5, 4, 3)
        for value in (ubb_cdf(0.1, TwoModelLaw(2.0, 1.0)), ubb_density(0.3, TwoModelLaw(2.0, 1.0)),
                      std_limit_bernoulli_2(TwoModelLaw(2.0, 1.0))):
            assert isinstance(value, float)

    def test_non_finite_parameters_raise(self):
        law = TwoModelLaw(0.0, 1.0)
        for bad_u in (np.nan, [0.5, np.nan], np.inf):
            with pytest.raises(InvalidArgumentError):
                ubb_cdf(bad_u, law)
            with pytest.raises(InvalidArgumentError):
                ubb_density(bad_u, law)
        with pytest.raises(InvalidArgumentError, match="delta_inf"):
            TwoModelLaw([0.0, np.nan], 1.0)
        with pytest.raises(InvalidArgumentError, match="got inf"):
            TwoModelLaw(0.0, [1.0, np.inf])

    def test_one_zero_c_is_degenerate(self):
        law = TwoModelLaw(0.0, [1.0, 0.0])
        with pytest.raises(DegenerateLawError):
            ubb_density(0.5, law)
        assert issubclass(DegenerateLawError, InvalidArgumentError)


class TestUbbDensity:
    def test_flat_when_centered_unit_c(self):
        law = TwoModelLaw(0.0, 1.0)
        u = np.linspace(0.05, 0.95, 19)
        np.testing.assert_allclose(ubb_density(u, law), 1.0, atol=1e-12)

    def test_plug_in_value(self):
        value = ubb_density(0.5, TwoModelLaw(1.0, 1.0))
        assert abs(value - np.exp(-0.5)) < 1e-12

    @pytest.mark.filterwarnings("error")
    def test_overflow_names_the_first_cell(self):
        # u = 1e-320 lies inside (0, 1), but at c = 100 the density is exp(~722)
        law = TwoModelLaw(np.array([[0.0], [1.0]]), np.array([1.0, 100.0]))
        u = np.array([[[0.5]], [[1e-320]]])
        with pytest.raises(NumericDomainError, match=r"\(delta_inf, c, u\) = \(0\.0, 100\.0, 1e-320\)"):
            ubb_density(u, law)
        assert np.isfinite(ubb_density(u, TwoModelLaw(0.0, 1.0))).all()

    def test_matches_cdf_derivative(self):
        law = TwoModelLaw(0.7, 2.0)
        h = 1e-6
        for u in np.arange(0.1, 0.95, 0.1):
            numeric = (ubb_cdf(u + h, law) - ubb_cdf(u - h, law)) / (2 * h)
            assert abs(numeric - ubb_density(u, law)) < 1e-6

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_integrates_to_normalizing_mass(self):
        # substitute u = Phi(z): the integrand ubb_density(Phi(z)) * phi(z)
        # is smooth, avoiding the integrable endpoint spikes at c > 1.
        # |z| <= 8 keeps Phi(z) strictly inside (0, 1) in float64; compare
        # against the first-principles mass of that window,
        # P(W in (-8/sqrt(c), 8/sqrt(c))) for W ~ Normal(delta, 1), which
        # equals 1 - O(1e-15) except at the (large c, large |delta|)
        # corners where real mass hides beyond float resolution of u.
        phi = lambda z: np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)
        for delta in (-3.0, -1.0, 0.0, 1.0, 3.0):
            for c in (0.25, 0.5, 1.0, 2.0, 4.0):
                law = TwoModelLaw(delta, c)
                total, _ = integrate.quad(
                    lambda z: ubb_density(float(ndtr(z)), law) * phi(z),
                    -7.0, 7.0, limit=200,
                )
                window = ndtr(7.0 / np.sqrt(c) - delta) - ndtr(-7.0 / np.sqrt(c) - delta)
                assert abs(total - window) < 1e-6
                if c <= 1.0 and abs(delta) <= 1.0:
                    assert abs(total - 1.0) < 1e-6

    def test_domain(self):
        with pytest.raises(InvalidArgumentError):
            ubb_density(1.0, TwoModelLaw(0.0, 1.0))


class TestReduceToContrasts:
    def test_two_models(self):
        mu, sigma = reduce_to_contrasts([0.7, -0.2], np.eye(2))
        np.testing.assert_allclose(mu, [0.9])
        np.testing.assert_allclose(sigma, [[2.0]])

    def test_exchangeable_three_models(self):
        sigma_prime = 0.5 + 0.5 * np.eye(3)
        mu, sigma = reduce_to_contrasts(np.zeros(3), sigma_prime)
        np.testing.assert_allclose(mu, [0.0, 0.0])
        np.testing.assert_allclose(sigma, [[1.0, 0.5], [0.5, 1.0]])

    def test_anchor_complementarity_two_models(self):
        mu_prime = np.array([0.4, -0.1])
        sigma_prime = np.array([[1.0, 0.3], [0.3, 2.0]])
        params = []
        for anchor in (0, 1):
            mu, sigma = reduce_to_contrasts(mu_prime, sigma_prime, anchor=anchor)
            # P(anchor wins) = Phi_{-mu, sigma}(0), exact in dimension 1
            params.append(mvn_cdf_at_zero(-mu, sigma, seed=0))
        assert abs(sum(params) - 1.0) < 1e-12

    def test_singular_contrast(self):
        # models 0 and 1 perfectly correlated with equal variance
        sigma_prime = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(SingularLawError):
            reduce_to_contrasts(np.zeros(3), sigma_prime)


class TestMvnCdfAtZero:
    def test_dimension_one_exact(self):
        assert mvn_cdf_at_zero([0.0], [[4.0]], seed=0) == 0.5

    def test_independent_two_dimensional(self):
        value = mvn_cdf_at_zero(np.zeros(2), np.eye(2), seed=1)
        assert abs(value - 0.25) <= 1e-15

    def test_orthant_identity(self):
        for rho in (-0.5, 0.3, 0.8):
            sigma = np.array([[1.0, rho], [rho, 1.0]])
            value = mvn_cdf_at_zero(np.zeros(2), sigma, seed=2)
            exact = 0.25 + np.arcsin(rho) / (2 * np.pi)
            assert abs(value - exact) <= 1e-15

    def test_sample_guard_and_singular(self):
        with pytest.raises(SingularLawError):
            mvn_cdf_at_zero(np.zeros(2), np.ones((2, 2)), seed=0)


class TestSampleUbbK:
    def test_two_models_match_two_model_law(self):
        # dimension-1 path is exact; PIT against the closed-form CDF
        delta, c = 0.7, 1.0
        klaw = KModelLaw(np.array([1.4]), np.array([[4.0]]), c)  # mu/sigma = 0.7
        values = sample_ubb_K(klaw, 10_000, seed=3)
        pit = ubb_cdf(values, TwoModelLaw(delta, c))
        assert kstest(pit, "uniform").statistic < 0.02

    def test_c_zero_constant(self):
        klaw = KModelLaw(np.zeros(2), np.eye(2), 0.0)
        values = sample_ubb_K(klaw, 50, seed=4)
        assert np.all(values == values[0])

    def test_c_zero_extrapolation_warns(self):
        klaw = KModelLaw(np.array([1.0, 0.0]), np.eye(2), 0.0)
        with pytest.warns(UserWarning):
            sample_ubb_K(klaw, 5, seed=5)

    def test_correlation_scenario_ordering(self):
        # strong-rejection mass of model 1 grows with the model-1/model-2
        # log-likelihood correlation (and shrinks toward rho = -0.5)
        fracs = []
        for rho in (-0.4, 0.2, 0.8):
            mu_prime, sigma_prime = three_model_scenarios("vary_correlation", [rho])[0]
            mu, sigma = reduce_to_contrasts(mu_prime, sigma_prime)
            values = sample_ubb_K(KModelLaw(mu, sigma, 1.0), 8000, seed=10)
            fracs.append(float(np.mean(values < 0.1)))
        assert fracs[0] < fracs[1] < fracs[2]


class TestNormalKernels:
    """Phi, Phi^{-1} and the bivariate normal CDF against scipy.special and
    Owen's T identity."""

    def test_ndtr_matches_scipy(self):
        # below 0 both round x / sqrt(2), an error that grows with x^2; near
        # x = -1.37 scipy's erf branch is itself 0.95e-15 x^2 from the
        # correctly rounded value, so the bound leaves our few ulps on top
        x = np.concatenate([np.linspace(-37.5, 0.0, 300_001),
                            -37.5 * np.random.default_rng(0).random(100_000)])
        want = ndtr(x)
        assert np.all(np.abs(_ndtr(x) - want) <= 1.25e-15 * want * np.maximum(1.0, x * x))
        # above 0 the values lie in [0.5, 1]: two ulps there, since scipy is
        # itself up to 1.3 ulps from the correctly rounded value
        x = np.concatenate([np.linspace(0.0, 40.0, 400_001), [1e10, 1e300, np.inf]])
        assert np.all(np.abs(_ndtr(x) - ndtr(x)) <= 2.0**-52)
        assert _ndtr(0.0) == 0.5 and _ndtr(-np.inf) == 0.0 and _ndtr(-40.0) == 0.0
        assert np.isnan(_ndtr(np.nan))

    def test_ndtri_matches_scipy(self):
        rng = np.random.default_rng(1)
        u = np.concatenate([10.0 ** -rng.uniform(1.0, 300.0, 100_000), rng.random(100_000),
                            1.0 - 2.0 ** -rng.uniform(1.0, 53.0, 100_000),
                            [1e-300, 5e-324, 0.075, 0.5, 0.925, 1.0 - 2.0**-53]])
        want = ndtri(u)
        assert np.all(np.abs(_ndtri(u) - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("rho", [0.0, 0.3, -0.3, 0.75, -0.75, 0.925 + 1e-9, 0.925 - 1e-9,
                                     -0.925 + 1e-9, -0.925 - 1e-9, 0.999, -0.999])
    def test_bvn_cdf_matches_owens_t(self, rho):
        h, k = np.random.default_rng(2).normal(0.0, 3.0, (2, 20_000))
        assert np.max(np.abs(_bvn_cdf(h, k, rho) - owens_t_bvn_cdf(h, k, rho))) <= 1e-14

    def test_scalar_in_float_out(self):
        law = TwoModelLaw(1.0, 2.0)
        for value in (_ndtr(0.3), _ndtri(0.3), _ndtri(np.float64(0.3)), _ndtri(np.array(0.3)),
                      _bvn_cdf(0.3, -0.2, 0.5), _bvn_cdf(0.3, -0.2, -0.95),
                      std_limit_bernoulli_2(law), ubb_cdf(0.3, law), ubb_density(0.3, law)):
            assert isinstance(value, float) and not isinstance(value, np.ndarray)
        u = np.array([[0.2, 0.3]])
        arrays = (_ndtr(u), _ndtri(u), _bvn_cdf(u, 0.1, 0.5), _bvn_cdf(u, u.T, -0.95),
                  std_limit_bernoulli_2(TwoModelLaw(u, 1.0)), ubb_cdf(u, law), ubb_density(u, law),
                  _ndtri(np.array([])), _ndtri(np.empty((2, 0))))
        for value, shape in zip(arrays, [(1, 2)] * 3 + [(2, 2)] + [(1, 2)] * 3 + [(0,), (2, 0)], strict=True):
            assert isinstance(value, np.ndarray) and value.dtype == float and value.shape == shape


class TestClosedFormCdf:
    """The orthant probabilities against scipy's bivariate normal (Genz's
    bvnu, exact to rounding) and its quasi-Monte Carlo beyond."""

    SIGMA = np.array([[1.2, 0.6], [0.6, 2.0]])

    def test_bvn_cdf_matches_scipy(self):
        edges = [0.0, -0.0, 1.3, -0.7, 8.0, -8.0, 12.5, -40.0]
        for rho in (-0.999, -0.6, 0.0, 0.35, 0.999):
            cov = np.array([[1.0, rho], [rho, 1.0]])
            for h in edges:
                for k in edges:
                    want = multivariate_normal.cdf([h, k], cov=cov)
                    assert abs(_bvn_cdf(h, k, rho) - want) <= 1e-14, (h, k, rho)

    def test_shifted_orthant_regression(self):
        want = multivariate_normal.cdf([0.0, 0.0], mean=[-3.0, -3.0], cov=self.SIGMA)
        assert abs(mvn_cdf_at_zero(-np.array([3.0, 3.0]), self.SIGMA) - want) <= 1e-12
        assert abs(want - 0.9804450411) < 1e-9

    def test_three_model_draws_are_exact_on_their_outer_draws(self):
        klaw = KModelLaw(np.zeros(2), self.SIGMA, 1.0)
        values = sample_ubb_K(klaw, 4000, seed=3)
        outer_seq = np.random.SeedSequence(entropy=3).spawn(2)[0]
        z = np.random.default_rng(outer_seq).standard_normal((4000, 2))
        w = z @ np.linalg.cholesky(self.SIGMA).T
        want = multivariate_normal.cdf(np.sqrt(klaw.c) * w, cov=self.SIGMA)
        np.testing.assert_allclose(values, want, rtol=0.0, atol=1e-12)

    def test_four_exchangeable_models(self):
        value = mvn_cdf_at_zero(np.zeros(3), 0.5 + 0.5 * np.eye(3), seed=0)
        assert abs(value - 0.25) <= 1e-4

    def test_dimension_three_alone_imports_scipy(self):
        # the exact orthants up to dimension 2 run on numpy kernels; the
        # quasi-Monte Carlo beyond still imports scipy.stats when called
        code = ("import sys, numpy as np; from bayesbag.asymptotics import mvn_cdf_at_zero; "
                "loaded = lambda: [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
                "mvn_cdf_at_zero([0.1], [[2.0]]); mvn_cdf_at_zero([0.1, -0.2], [[1.0, 0.95], [0.95, 1.0]]); "
                "assert not loaded(), loaded(); "
                "value = mvn_cdf_at_zero(np.zeros(3), 0.5 + 0.5 * np.eye(3), seed=0); "
                "assert abs(value - 0.25) <= 1e-4, value; assert 'scipy.stats' in sys.modules")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_dimension_three_sampling(self):
        sigma = 0.5 + 0.5 * np.eye(3)
        klaw = KModelLaw(np.array([0.3, 0.0, -0.2]), sigma, 1.0)
        first = sample_ubb_K(klaw, 20, seed=7)
        np.testing.assert_array_equal(first, sample_ubb_K(klaw, 20, seed=7))
        assert np.all((first > 0.0) & (first < 1.0))
        constant = sample_ubb_K(KModelLaw(np.zeros(3), sigma, 0.0), 20, seed=7)
        assert np.all(constant == constant[0]) and abs(constant[0] - 0.25) <= 1e-4


class TestFig2Scenarios:
    def test_vary_mean_base_case(self):
        mu, sigma = three_model_scenarios("vary_mean", [0.0])[0]
        np.testing.assert_allclose(mu, np.zeros(3))
        np.testing.assert_allclose(sigma, 0.5 + 0.5 * np.eye(3))

    def test_zero_correlation_is_identity(self):
        _, sigma = three_model_scenarios("vary_correlation", [0.0])[0]
        np.testing.assert_allclose(sigma, np.eye(3))

    def test_unit_scale_coincides_with_base_mean_case(self):
        mu_a, sigma_a = three_model_scenarios("vary_mean", [0.0])[0]
        mu_b, sigma_b = three_model_scenarios("vary_variance", [1.0])[0]
        np.testing.assert_allclose(mu_a, mu_b)
        np.testing.assert_allclose(sigma_a, sigma_b)

    def test_psd_guards(self):
        with pytest.raises(InvalidArgumentError):
            three_model_scenarios("vary_correlation", [1.0])
        with pytest.raises(InvalidArgumentError):
            three_model_scenarios("vary_variance", [0.0])
        with pytest.raises(InvalidArgumentError):
            three_model_scenarios("vary_scale", [1.0])


class TestEstimateEffectSize:
    def test_symmetric_bernoulli_construction_vanishes(self):
        # p2 = 1 - p1 on fair-coin data forces the limit effect size to 0
        estimates = []
        for seed in range(20):
            x, _ = bernoulli_two_model_problem(0.6, 0.4, 10_000, seed=seed)
            z = np.where(x == 1.0, np.log(0.6 / 0.4), np.log(0.4 / 0.6))
            estimates.append(np.sqrt(z.size) * z.mean() / z.std(ddof=1))
        assert abs(np.mean(estimates)) < 0.2


class TestBernoulliTwoModelProblem:
    def test_identical_models_always_half(self):
        x, evaluate = bernoulli_two_model_problem(0.3, 0.3, 50, seed=0)
        for w in (np.ones(50), np.arange(50, dtype=float)):
            probs = standard_model_posterior(evaluate(w), UNIFORM2).probs
            np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_evaluator_matches_direct_sum(self):
        x, evaluate = bernoulli_two_model_problem(0.6, 0.4, 20, seed=1)
        rng = np.random.default_rng(2)
        w = rng.integers(0, 3, size=20).astype(float)
        direct = np.array(
            [
                np.sum(w * np.where(x == 1.0, np.log(p), np.log(1 - p)))
                for p in (0.6, 0.4)
            ]
        )
        np.testing.assert_allclose(evaluate(w), direct, atol=1e-12)

    def test_invalid_probability(self):
        with pytest.raises(InvalidArgumentError):
            bernoulli_two_model_problem(0.0, 0.5, 10, seed=0)


class TestNormalLawValidation:
    """One check for every normal law: shape, finite entries, symmetry and
    positive definiteness."""

    def test_non_finite_rejected(self):
        eye = np.eye(2)
        with pytest.raises(InvalidArgumentError):
            KModelLaw([np.nan, 0.0], eye, 1.0)
        with pytest.raises(InvalidArgumentError):
            mvn_cdf_at_zero([np.nan, 0.0], eye)
        with pytest.raises(InvalidArgumentError):
            mvn_cdf_at_zero([0.0, 0.0], [[1.0, np.inf], [np.inf, 1.0]])
        with pytest.raises(InvalidArgumentError):
            reduce_to_contrasts([0.0, 0.0, np.nan], np.eye(3))
        with pytest.raises(InvalidArgumentError):
            KModelLaw([0.0, 0.0], eye, np.nan)

    def test_shape_and_symmetry_rejected(self):
        with pytest.raises(InvalidArgumentError):
            mvn_cdf_at_zero([0.0, 0.0], np.eye(3))
        with pytest.raises(InvalidArgumentError):
            mvn_cdf_at_zero([0.0, 0.0], [[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(InvalidArgumentError):
            reduce_to_contrasts([0.0, 0.0], [[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(InvalidArgumentError):
            reduce_to_contrasts([0.0], [[1.0]])

    def test_singular_input_with_definite_contrasts(self):
        # model 2's log likelihood is the sum of models 0 and 1: the input
        # covariance is singular, its contrasts are not
        sigma_prime = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
        mu, sigma = reduce_to_contrasts(np.zeros(3), sigma_prime)
        np.testing.assert_allclose(sigma, [[2.0, 1.0], [1.0, 1.0]])


class TestKModelLawValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidArgumentError):
            KModelLaw(np.zeros(2), np.array([[1.0, 0.2], [0.3, 1.0]]), 1.0)

    def test_non_pd_rejected(self):
        with pytest.raises(SingularLawError):
            KModelLaw(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]), 1.0)


@pytest.mark.parametrize("make", [
    lambda: TwoModelLaw(np.array([0.5, 1.0]), np.array([1.0, 2.0])),
    lambda: KModelLaw([0, 1], np.eye(2), 1),
    lambda: bb.ModelPosterior(np.array([0.5, 0.5]), np.zeros(2)),
    lambda: bb.BaggedPosterior(np.full((2, 2), 0.5), np.full(2, 0.5), np.zeros(2)),
    lambda: bb.RegressionDataset(z=np.eye(2), y=np.ones(2)),
    lambda: KLOptimal(np.ones(2), 1.0, 1.0, 0.0),
], ids=["TwoModelLaw", "KModelLaw", "ModelPosterior", "BaggedPosterior",
        "RegressionDataset", "KLOptimal"])
def test_array_dataclasses_compare_by_identity(make):
    # field-wise == on arrays is ambiguous, so these compare and hash by identity
    law = make()
    assert law == law
    assert hash(law) == hash(law)
    assert law != copy.copy(law)
