"""Tests for the bagging engine: bootstrap weights, posterior normalization,
Monte Carlo versus exact-enumeration bagging, and standard errors."""

from itertools import product
from math import factorial, prod

import numpy as np
import pytest

from bayesbag import core
from bayesbag.core import (
    BootstrapConfig,
    bagged_model_posterior,
    bootstrap_counts,
    evaluate_replicates,
    replicate_rng,
    standard_model_posterior,
)
from bayesbag.errors import (
    DegenerateInputError,
    InvalidArgumentError,
    ReplicateEvaluationError,
    ResourceLimitError,
)
from oracles import bernoulli_two_model_problem, exact_bagged_posterior

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

    @pytest.mark.parametrize("n, m", [(3, 3), (3, 7)])
    def test_law_is_multinomial(self, n, m):
        # every count vector's frequency against its exact multinomial pmf,
        # with m = n and with m > n
        rng = np.random.default_rng(2024)
        draws = 200_000
        counts = np.array([bootstrap_counts(n, m, rng) for _ in range(draws)])
        rows, hits = np.unique(counts, axis=0, return_counts=True)
        freq = dict(zip(map(tuple, rows.tolist()), hits.tolist()))
        vectors = [v for v in product(range(m + 1), repeat=n) if sum(v) == m]
        assert set(freq) <= set(vectors)
        for v in vectors:
            pmf = factorial(m) / prod(factorial(c) for c in v) / n**m
            se = np.sqrt(pmf * (1.0 - pmf) / draws)
            freq_v = freq.get(v, 0) / draws
            assert abs(freq_v - pmf) < 5.0 * se, (v, freq_v, pmf)

    def test_more_draws_than_cells_sum_to_m(self):
        counts = bootstrap_counts(6, 42, np.random.default_rng(5))
        assert counts.shape == (6,)
        assert counts.sum() == 42
        assert np.all(counts >= 0)

    def test_chunked_draw_far_above_n(self):
        # m above the 2^16-index chunk: counts[0] ~ Binomial(m, 1/2)
        m, draws = 2**16 + 5, 400
        rng = np.random.default_rng(31)
        counts = np.array([bootstrap_counts(2, m, rng) for _ in range(draws)])
        assert np.all(counts.sum(axis=1) == m)
        se = np.sqrt(m * 0.25 / draws)
        assert abs(counts[:, 0].mean() - m / 2) < 5 * se
        # chunking does not change the counts: one call draws the same indices
        whole = np.bincount(np.random.default_rng(9).integers(0, 2, m), minlength=2)
        np.testing.assert_array_equal(bootstrap_counts(2, m, np.random.default_rng(9)), whole)


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
            lambda w: np.tile(log_ml, (len(w), 1)), 5, UNIFORM2, BootstrapConfig(m=5, b=50, seed=1)
        )
        expected = standard_model_posterior(log_ml, UNIFORM2).probs
        np.testing.assert_allclose(bagged.mean_probs, expected, atol=1e-15)
        np.testing.assert_allclose(bagged.std_errors, 0.0, atol=1e-15)

    def test_single_replicate_flag(self):
        bagged = bagged_model_posterior(
            lambda w: np.tile([0.0, 1.0], (len(w), 1)), 4, UNIFORM2, BootstrapConfig(m=4, b=1, seed=0)
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

    def test_replicate_streams_independent_of_order(self):
        # replicate i's weights are draw i of the run's one stream, so they
        # depend only on (seed, i); the unit-weight row leads the first block
        cfg = BootstrapConfig(m=5, b=3, seed=21)
        seen = []
        bagged_model_posterior(
            lambda w: (seen.append(w.copy()), np.zeros((len(w), 2)))[1], 5, UNIFORM2, cfg
        )
        rows = np.concatenate(seen)
        assert len(rows) == cfg.b + 1
        np.testing.assert_array_equal(rows[0], np.ones(5))
        rng = replicate_rng(21)
        for counts in rows[1:]:
            expected = bootstrap_counts(5, 5, rng)
            np.testing.assert_array_equal(counts, expected)

    def test_standard_posterior_is_the_unit_weight_row(self):
        rng = np.random.default_rng(11)
        ev = linear_evaluator(rng.normal(scale=10.0, size=(6, 3)))
        log_prior = rng.normal(size=3)
        for b in (1, 9):
            bagged = bagged_model_posterior(ev, 6, log_prior, BootstrapConfig(m=4, b=b, seed=2))
            expected = standard_model_posterior(ev(np.ones(6)), log_prior).probs
            np.testing.assert_array_equal(bagged.standard_probs, expected)

    def test_replicates_prefix_stable_in_b(self):
        # a run with more replicates repeats the first replicates of a
        # shorter run with the same seed
        rng = np.random.default_rng(17)
        ev = linear_evaluator(rng.normal(size=(6, 4)))
        log_prior = np.log(np.full(4, 0.25))
        short = bagged_model_posterior(ev, 6, log_prior, BootstrapConfig(m=6, b=5, seed=4))
        long = bagged_model_posterior(ev, 6, log_prior, BootstrapConfig(m=6, b=12, seed=4))
        np.testing.assert_array_equal(long.replicate_probs[:5], short.replicate_probs)

    def test_rows_equal_per_replicate_standard_posterior(self):
        # the row-wise normalization of all replicates at once gives each
        # replicate's standard posterior bit for bit
        rng = np.random.default_rng(13)
        ev = linear_evaluator(rng.normal(scale=30.0, size=(7, 5)))
        log_prior = rng.normal(size=5)
        bagged = bagged_model_posterior(ev, 7, log_prior, BootstrapConfig(m=7, b=40, seed=8))
        rng = replicate_rng(8)
        block = np.array([bootstrap_counts(7, 7, rng) for _ in range(40)])
        for row, log_ml in zip(bagged.replicate_probs, ev(block)):
            expected = standard_model_posterior(log_ml, log_prior).probs
            np.testing.assert_array_equal(row, expected)

    def test_all_minus_inf_replicate_degenerate(self):
        def ev(w):
            return np.where(w[:, :1] == 0, -np.inf, np.zeros((len(w), 2)))

        with pytest.raises(DegenerateInputError):
            bagged_model_posterior(ev, 4, UNIFORM2, BootstrapConfig(m=4, b=20, seed=0))

    def test_evaluator_error_annotated_with_replicate(self):
        def broken(w):
            raise RuntimeError("boom")

        with pytest.raises(ReplicateEvaluationError) as err:
            bagged_model_posterior(broken, 3, UNIFORM2, BootstrapConfig(m=3, b=2, seed=0))
        assert err.value.replicate == 0
        assert "RuntimeError: boom" in str(err.value)


def regression_evaluator(n=12, d=3, seed=5):
    from bayesbag.linreg import NIGHyperparams, RegressionDataset, enumerate_models, make_evaluator

    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, d))
    data = RegressionDataset(z=z, y=z @ rng.standard_normal(d) + rng.standard_normal(n))
    models = enumerate_models(d, d)
    hyper = NIGHyperparams(a0=2.0, b0=1.0, lam=1.0, q0=0.5, k_star=d)
    return make_evaluator(data, models, hyper), np.log(np.full(len(models), 1.0 / len(models)))


class TestReplicateBlocks:
    def test_block_rows_hold_counts_in_the_smallest_type(self):
        blocks = []
        cfg = BootstrapConfig(m=300, b=4, seed=2)
        evaluate_replicates(lambda w: (blocks.append(w), np.zeros((len(w), 1)))[1], 5, cfg, 1)
        # the unit-weight row leads the block of 4 replicates
        assert len(blocks) == 1 and blocks[0].dtype == np.uint16 and blocks[0].shape == (5, 5)
        assert np.all(blocks[0][0] == 1)
        assert np.all(blocks[0][1:].sum(axis=1) == 300)

    @pytest.mark.parametrize("n, m, b", [(3, 3, 12_000), (3, 7, 5_000), (5000, 10, 40),
                                         (10, 2**16 + 5, 3)])
    def test_grouped_draw_equals_successive_draws(self, n, m, b):
        # rows drawn g at a time (g = 5461, 2340 and 3 here, and one at a
        # time for the last) are the successive bootstrap_counts draws,
        # across several groups
        blocks = []
        cfg = BootstrapConfig(m=m, b=b, seed=12)
        run = evaluate_replicates(
            lambda w: (blocks.append(w.copy()), np.zeros((len(w), 1)))[1], n, cfg, 1
        )
        rows = np.concatenate(blocks)[1:]
        rng = replicate_rng(12)
        expected = np.array([bootstrap_counts(n, m, rng) for _ in range(b)])
        np.testing.assert_array_equal(rows, expected)
        assert run.shape == (1 + b, 1)

    def test_many_blocks_equal_one_row_blocks(self, monkeypatch):
        # 12 replicates in blocks of 5, 5 and 2 rows against one-row blocks
        # and against one block; the statistics' products round per block
        ev, log_prior = regression_evaluator()
        cfg = BootstrapConfig(m=12, b=12, seed=6)
        one_block = bagged_model_posterior(ev, 12, log_prior, cfg)
        monkeypatch.setattr(core, "BLOCK_BYTES", 12 * 5)
        seen = []
        blocks = bagged_model_posterior(lambda w: (seen.append(len(w)), ev(w))[1], 12, log_prior, cfg)
        assert seen == [6, 5, 2]  # the unit-weight row leads the first block
        monkeypatch.setattr(core, "BLOCK_BYTES", 1)
        rows = bagged_model_posterior(ev, 12, log_prior, cfg)
        for other in (blocks, one_block):
            np.testing.assert_allclose(other.replicate_probs, rows.replicate_probs, rtol=0, atol=1e-12)
            np.testing.assert_allclose(other.standard_probs, rows.standard_probs, rtol=0, atol=1e-12)
        # prefix-stable in B across block boundaries
        monkeypatch.setattr(core, "BLOCK_BYTES", 12 * 5)
        short = bagged_model_posterior(ev, 12, log_prior, BootstrapConfig(m=12, b=7, seed=6))
        np.testing.assert_allclose(short.replicate_probs, rows.replicate_probs[:7], rtol=0, atol=1e-12)

    def test_failures_name_the_first_row_of_the_block(self, monkeypatch):
        monkeypatch.setattr(core, "BLOCK_BYTES", 3 * 4)  # 3 rows of 4 uint8 counts
        cfg = BootstrapConfig(m=4, b=8, seed=0)
        calls = []

        def second_block_raises(w):
            calls.append(len(w))
            if len(calls) == 2:
                raise RuntimeError("boom")
            return np.zeros((len(w), 2))

        with pytest.raises(ReplicateEvaluationError) as err:
            bagged_model_posterior(second_block_raises, 4, UNIFORM2, cfg)
        # run rows 0-3 (the unit-weight row and replicates 1-3), then 4-6
        assert err.value.replicate == 4 and "boom" in str(err.value)
        for wrong in (lambda w: np.zeros(2), lambda w: np.zeros((len(w), 3)),
                      lambda w: np.zeros((len(w) + 1, 2))):
            with pytest.raises(ReplicateEvaluationError) as err:
                bagged_model_posterior(wrong, 4, UNIFORM2, cfg)
            assert err.value.replicate == 0 and "evaluator returned shape" in str(err.value)

    def test_exact_enumeration_in_blocks(self, monkeypatch):
        ev = linear_evaluator(np.random.default_rng(4).normal(size=(3, 2)))
        whole = exact_bagged_posterior(ev, 3, 4, UNIFORM2)
        monkeypatch.setattr(core, "BLOCK_BYTES", 3 * 4)  # 15 vectors in blocks of 4
        np.testing.assert_allclose(exact_bagged_posterior(ev, 3, 4, UNIFORM2), whole, atol=1e-15)


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
        _, ev = bernoulli_two_model_problem(0.6, 0.4, 3, seed=8)
        exact = exact_bagged_posterior(ev, 3, 3, UNIFORM2)
        bagged = bagged_model_posterior(
            ev, 3, UNIFORM2, BootstrapConfig(m=3, b=100_000, seed=4)
        )
        assert np.all(np.abs(bagged.mean_probs - exact) <= 3 * bagged.std_errors)


class TestMcStandardError:
    def test_identical_rows_zero(self):
        bagged = bagged_model_posterior(
            lambda w: np.tile([1.0, 0.0], (len(w), 1)), 3, UNIFORM2, BootstrapConfig(m=3, b=10, seed=0)
        )
        np.testing.assert_allclose(bagged.std_errors, 0.0, atol=1e-15)

    def test_known_column_variance(self):
        # N=2, M=2: counts[0] in {2,1,0} w.p. (1/4,1/2,1/4); map to probs
        # (0.8, 0.5, 0.2) for model 1, giving column variance 0.045 exactly.
        def ev(w):
            p = np.array([0.2, 0.5, 0.8])[w[:, 0]]
            return np.log(np.column_stack([p, 1.0 - p]))

        bagged = bagged_model_posterior(ev, 2, UNIFORM2, BootstrapConfig(m=2, b=100, seed=9))
        se = bagged.std_errors[0]
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
