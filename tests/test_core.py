"""Tests for the bagging engine: bootstrap weights, posterior normalization,
Monte Carlo versus exact-enumeration bagging, and standard errors."""

import numpy as np
import pytest

from bayesbag.core import (
    BaggedPosterior,
    BootstrapConfig,
    bagged_model_posterior,
    bootstrap_counts,
    exact_bagged_posterior,
    mc_standard_error,
    replicate_rng,
    standard_model_posterior,
)
from bayesbag.errors import (
    DegenerateInputError,
    InsufficientReplicatesError,
    InvalidArgumentError,
    ReplicateEvaluationError,
    ResourceLimitError,
)

UNIFORM2 = np.log([0.5, 0.5])


def linear_evaluator(loglik):
    """Evaluator for independent observations with per-observation
    log-likelihood matrix loglik (n, k): weighted sums of columns."""
    arr = np.asarray(loglik, dtype=float)
    return lambda w: np.asarray(w, dtype=float) @ arr


class TestBootstrapCounts:
    def test_single_cell_absorbs_everything(self):
        counts = bootstrap_counts(1, 5, np.random.default_rng(0))
        assert counts.tolist() == [5]

    def test_sum_constraint_and_zero_m_rejected(self):
        with pytest.raises(InvalidArgumentError):
            bootstrap_counts(3, 0, np.random.default_rng(0))
        counts = bootstrap_counts(3, 3, np.random.default_rng(42))
        assert counts.sum() == 3
        assert np.all(counts >= 0)

    def test_zero_n_rejected(self):
        with pytest.raises(InvalidArgumentError):
            bootstrap_counts(0, 5, np.random.default_rng(0))

    def test_multinomial_frequencies(self):
        # P(counts == [2, 0]) = 1/4 exactly for N=2, M=2
        rng = np.random.default_rng(123)
        draws = 100_000
        hits = 0
        for _ in range(draws):
            counts = bootstrap_counts(2, 2, rng)
            hits += counts[0] == 2
        assert abs(hits / draws - 0.25) < 0.01


class TestStandardModelPosterior:
    def test_symmetric(self):
        post = standard_model_posterior([0.0, 0.0], UNIFORM2)
        np.testing.assert_allclose(post.probs, [0.5, 0.5], atol=1e-15)

    def test_overflow_safe_ratio(self):
        post = standard_model_posterior([1000.0, 1000.0 + np.log(3.0)], UNIFORM2)
        np.testing.assert_allclose(post.probs, [0.25, 0.75], atol=1e-12)

    def test_overflow_safe_at_magnitude_1e6(self):
        for base in (1e6, -1e6):
            post = standard_model_posterior(
                [base, base + np.log(3.0)], UNIFORM2
            )
            np.testing.assert_allclose(post.probs, [0.25, 0.75], atol=1e-12)
            assert np.all(np.isfinite(post.probs))

    def test_small_magnitude_matches_direct_exponentiation(self):
        log_ml = np.array([-1.0, -2.0, -3.0])
        direct = np.exp(log_ml) / np.exp(log_ml).sum()
        post = standard_model_posterior(log_ml, np.log(np.full(3, 1 / 3)))
        np.testing.assert_allclose(post.probs, direct, atol=1e-15)

    def test_minus_inf_entry_allowed(self):
        post = standard_model_posterior([0.0, -np.inf], UNIFORM2)
        np.testing.assert_allclose(post.probs, [1.0, 0.0])

    def test_all_minus_inf_degenerate(self):
        with pytest.raises(DegenerateInputError):
            standard_model_posterior([-np.inf, -np.inf], UNIFORM2)

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            standard_model_posterior([0.0, 0.0], [0.0, 0.0, 0.0])

    def test_nan_rejected(self):
        with pytest.raises(InvalidArgumentError):
            standard_model_posterior([0.0, np.nan], UNIFORM2)

    def test_probs_are_softmax_of_log_evidence(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            log_ml = rng.normal(scale=100.0, size=4)
            log_prior = np.log(rng.dirichlet(np.ones(4)))
            post = standard_model_posterior(log_ml, log_prior)
            shifted = np.exp(post.log_evidence - post.log_evidence.max())
            np.testing.assert_allclose(post.probs, shifted / shifted.sum(), atol=1e-12)
            assert abs(post.probs.sum() - 1.0) < 1e-10


class TestBaggedModelPosterior:
    def test_constant_evaluator_matches_standard(self):
        log_ml = np.array([0.3, -0.7])
        bagged = bagged_model_posterior(
            lambda w: log_ml, 5, UNIFORM2, BootstrapConfig(m=5, b=50, seed=1)
        )
        expected = standard_model_posterior(log_ml, UNIFORM2).probs
        np.testing.assert_allclose(bagged.mean_probs, expected, atol=1e-15)
        np.testing.assert_allclose(bagged.std_errors, 0.0, atol=1e-15)

    def test_single_replicate_flag(self):
        bagged = bagged_model_posterior(
            lambda w: np.array([0.0, 1.0]), 4, UNIFORM2, BootstrapConfig(m=4, b=1, seed=0)
        )
        assert not bagged.se_defined
        np.testing.assert_array_equal(bagged.std_errors, [0.0, 0.0])
        np.testing.assert_allclose(bagged.mean_probs, bagged.replicate_probs[0])

    def test_rows_normalized_and_mean_is_convex(self):
        rng = np.random.default_rng(7)
        ev = linear_evaluator(rng.normal(size=(6, 3)))
        bagged = bagged_model_posterior(
            ev, 6, np.log(np.full(3, 1 / 3)), BootstrapConfig(m=6, b=200, seed=3)
        )
        np.testing.assert_allclose(bagged.replicate_probs.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(bagged.mean_probs >= 0.0)
        assert np.all(bagged.mean_probs <= 1.0)
        assert abs(bagged.mean_probs.sum() - 1.0) < 1e-10

    def test_deterministic_across_parallelism(self):
        rng = np.random.default_rng(5)
        ev = linear_evaluator(rng.normal(size=(8, 2)))
        cfg = BootstrapConfig(m=8, b=64, seed=11)
        serial = bagged_model_posterior(ev, 8, UNIFORM2, cfg, n_jobs=1)
        threaded = bagged_model_posterior(ev, 8, UNIFORM2, cfg, n_jobs=4)
        np.testing.assert_array_equal(serial.replicate_probs, threaded.replicate_probs)

    def test_replicate_streams_independent_of_order(self):
        # replicate i's weights depend only on (seed, i)
        cfg = BootstrapConfig(m=5, b=3, seed=21)
        seen = []
        bagged_model_posterior(
            lambda w: (seen.append(w.copy()), np.zeros(2))[1], 5, UNIFORM2, cfg
        )
        for i, counts in enumerate(seen):
            expected = replicate_rng(21, i).multinomial(5, np.full(5, 0.2))
            np.testing.assert_array_equal(counts, expected)

    def test_rows_equal_per_replicate_standard_posterior(self):
        # the row-wise normalization of all replicates at once gives each
        # replicate's standard posterior bit for bit
        rng = np.random.default_rng(13)
        ev = linear_evaluator(rng.normal(scale=30.0, size=(7, 5)))
        log_prior = rng.normal(size=5)
        bagged = bagged_model_posterior(ev, 7, log_prior, BootstrapConfig(m=7, b=40, seed=8))
        for i, row in enumerate(bagged.replicate_probs):
            counts = replicate_rng(8, i).multinomial(7, np.full(7, 1 / 7))
            expected = standard_model_posterior(ev(counts), log_prior).probs
            np.testing.assert_array_equal(row, expected)

    def test_all_minus_inf_replicate_degenerate(self):
        def ev(w):
            return np.full(2, -np.inf) if w[0] == 0 else np.zeros(2)

        with pytest.raises(DegenerateInputError):
            bagged_model_posterior(ev, 4, UNIFORM2, BootstrapConfig(m=4, b=20, seed=0))

    def test_evaluator_error_annotated_with_replicate(self):
        def broken(w):
            raise RuntimeError("boom")

        with pytest.raises(ReplicateEvaluationError) as err:
            bagged_model_posterior(broken, 3, UNIFORM2, BootstrapConfig(m=3, b=2, seed=0))
        assert err.value.replicate == 0
        assert "boom" in str(err.value)


class TestExactBaggedPosterior:
    def test_single_observation_equals_standard_on_replicated_point(self):
        loglik = np.array([[0.4, -1.1]])
        ev = linear_evaluator(loglik)
        exact = exact_bagged_posterior(ev, 1, 4, UNIFORM2)
        standard = standard_model_posterior(4 * loglik[0], UNIFORM2).probs
        np.testing.assert_allclose(exact, standard, atol=1e-14)

    def test_symmetric_two_point_problem(self):
        # swapping data swaps models: the average is exactly (1/2, 1/2)
        ev = linear_evaluator([[0.9, -0.4], [-0.4, 0.9]])
        exact = exact_bagged_posterior(ev, 2, 1, UNIFORM2)
        np.testing.assert_allclose(exact, [0.5, 0.5], atol=1e-14)

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        ev = linear_evaluator(rng.normal(size=(4, 3)))
        exact = exact_bagged_posterior(ev, 4, 4, np.log(np.full(3, 1 / 3)))
        assert abs(exact.sum() - 1.0) < 1e-10

    def test_enumeration_guard(self):
        ev = linear_evaluator(np.zeros((50, 2)))
        with pytest.raises(ResourceLimitError):
            exact_bagged_posterior(ev, 50, 50, UNIFORM2)

    def test_bernoulli_problem_matched_by_monte_carlo(self):
        from bayesbag.asymptotics import bernoulli_two_model_problem

        _, ev = bernoulli_two_model_problem(0.6, 0.4, 3, seed=8)
        exact = exact_bagged_posterior(ev, 3, 3, UNIFORM2)
        bagged = bagged_model_posterior(
            ev, 3, UNIFORM2, BootstrapConfig(m=3, b=100_000, seed=4)
        )
        assert np.all(np.abs(bagged.mean_probs - exact) <= 3 * bagged.std_errors)


class TestMcStandardError:
    def test_identical_rows_zero(self):
        bagged = bagged_model_posterior(
            lambda w: np.array([1.0, 0.0]), 3, UNIFORM2, BootstrapConfig(m=3, b=10, seed=0)
        )
        np.testing.assert_allclose(mc_standard_error(bagged), 0.0, atol=1e-15)

    def test_hand_computed_two_replicates(self):
        bagged = BaggedPosterior(
            replicate_probs=np.array([[1.0, 0.0], [0.0, 1.0]]),
            mean_probs=np.array([0.5, 0.5]),
            std_errors=np.array([0.5, 0.5]),
        )
        np.testing.assert_allclose(mc_standard_error(bagged), [0.5, 0.5], atol=1e-15)

    def test_insufficient_replicates(self):
        bagged = BaggedPosterior(
            replicate_probs=np.array([[1.0, 0.0]]),
            mean_probs=np.array([1.0, 0.0]),
            std_errors=np.zeros(2),
            se_defined=False,
        )
        with pytest.raises(InsufficientReplicatesError):
            mc_standard_error(bagged)

    def test_known_column_variance(self):
        # N=2, M=2: counts[0] in {2,1,0} w.p. (1/4,1/2,1/4); map to probs
        # (0.8, 0.5, 0.2) for model 1, giving column variance 0.045 exactly.
        def ev(w):
            p = {2: 0.8, 1: 0.5, 0: 0.2}[int(w[0])]
            return np.log([p, 1.0 - p])

        bagged = bagged_model_posterior(ev, 2, UNIFORM2, BootstrapConfig(m=2, b=100, seed=9))
        se = mc_standard_error(bagged)[0]
        expected = np.sqrt(0.045 / 100)
        assert abs(se - expected) / expected < 0.2


class TestOracleEquivalence:
    def test_mc_matches_exact_across_sizes(self):
        # every (N, M) pair up to 4, two random evaluators each, 4-SE band
        rng = np.random.default_rng(2)
        log_prior = UNIFORM2
        for n in range(1, 5):
            for m in range(1, 5):
                for _ in range(2):
                    ev = linear_evaluator(rng.normal(size=(n, 2)))
                    exact = exact_bagged_posterior(ev, n, m, log_prior)
                    bagged = bagged_model_posterior(
                        ev, n, log_prior,
                        BootstrapConfig(m=m, b=5000, seed=int(rng.integers(1 << 31))),
                    )
                    tol = 4 * bagged.std_errors + 1e-12
                    assert np.all(np.abs(bagged.mean_probs - exact) <= tol)

    def test_monotone_consistency_in_b(self):
        # seed-averaged max deviation from the exact oracle trends downward
        # as B doubles from 1e3 toward 1e5; individual steps are allowed
        # Monte Carlo noise.
        grid = [1000, 2000, 4000, 8000, 16000, 32000, 64000, 128000]
        log_prior = UNIFORM2
        devs = np.zeros((10, len(grid)))
        for s in range(10):
            rng = np.random.default_rng(900 + s)
            ev = linear_evaluator(rng.normal(size=(3, 2)))
            exact = exact_bagged_posterior(ev, 3, 3, log_prior)
            for gi, b in enumerate(grid):
                bagged = bagged_model_posterior(
                    ev, 3, log_prior, BootstrapConfig(m=3, b=b, seed=s)
                )
                devs[s, gi] = np.abs(bagged.mean_probs - exact).max()
        mean_dev = devs.mean(axis=0)
        steps = np.diff(mean_dev)
        assert mean_dev[-1] < 0.5 * mean_dev[0]
        assert np.sum(steps < 0) >= 5
        slope = np.polyfit(np.log(grid), np.log(mean_dev), 1)[0]
        assert slope < -0.3  # theory: -1/2
