"""Tests for the mismatch index and its coordinate-projection aggregation."""

import numpy as np
import pytest

from bayesbag.core import replicate_rng
from bayesbag.errors import InsufficientReplicatesError, InvalidArgumentError
from bayesbag.linreg import NIGHyperparams, param_moments_from_stats, weighted_stats
from bayesbag.mismatch import (
    bagged_variance_of_projection,
    coordinate_labels,
    mismatch_index,
    mismatch_index_proj,
)
from bayesbag.simgen import SimConfig, sample_dataset


def moments(mean_beta, var_beta, mean_ls2=0.0, var_ls2=1.0):
    """(2, 1 + D) moments: means, then variances, of [log sigma^2, beta_j]."""
    return np.array([[mean_ls2, *mean_beta], [var_ls2, *var_beta]], dtype=float)


class TestMismatchIndex:
    def test_calibrated_gives_zero(self):
        assert mismatch_index(0.7, 1.4) == 0.0

    def test_na_branch(self):
        assert np.isnan(mismatch_index(1.0, 1.0))
        assert np.isnan(mismatch_index(1.0, 0.5))

    def test_plug_in(self):
        assert abs(mismatch_index(1.0, 4.0) - 0.5) < 1e-15

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgumentError):
            mismatch_index(-0.1, 1.0)

    def test_scale_invariance(self):
        for scale in (1e-6, 1.0, 1e6):
            assert (
                mismatch_index(0.3 * scale, 0.9 * scale)
                == mismatch_index(0.3, 0.9)
            )

    def test_strictly_increasing_in_bagged_variance(self):
        index = [mismatch_index(1.0, vbb) for vbb in (1.5, 2.0, 3.0, 10.0)]
        assert all(b > a for a, b in zip(index, index[1:]))
        assert all(v < 1.0 for v in index)

    def test_broadcasts_with_nan_for_na(self):
        index = mismatch_index([0.7, 1.4, 0.3, 0.0], [[1.4], [0.5]])
        assert index.shape == (2, 4)
        np.testing.assert_array_equal(index, [
            [0.0, np.nan, 1.0 - 2.0 * 0.3 / 1.4, 1.0],
            [np.nan, np.nan, 1.0 - 2.0 * 0.3 / 0.5, 1.0],
        ])
        assert isinstance(mismatch_index(1.0, 4.0), float)
        with pytest.raises(InvalidArgumentError):
            mismatch_index([1.0, np.nan], 2.0)


class TestBaggedVariance:
    def test_identical_replicates(self):
        assert bagged_variance_of_projection([(0.3, 0.8), (0.3, 0.8)]) == 0.8

    def test_two_point_means(self):
        assert bagged_variance_of_projection([(0.0, 0.0), (1.0, 0.0)]) == 0.25

    def test_insufficient(self):
        with pytest.raises(InsufficientReplicatesError):
            bagged_variance_of_projection([(0.0, 1.0)])

    def test_matches_mixture_sampling(self):
        # explicit two-component normal mixture: (m, v) pairs (0, 1), (2, 4)
        pairs = [(0.0, 1.0), (2.0, 4.0)]
        formula = bagged_variance_of_projection(pairs)
        rng = np.random.default_rng(0)
        n = 10**6
        pick = rng.integers(0, 2, size=n)
        draws = np.where(
            pick == 0,
            rng.normal(0.0, 1.0, size=n),
            rng.normal(2.0, 2.0, size=n),
        )
        mc_var = draws.var(ddof=1)
        assert abs(formula - mc_var) < 3 * mc_var * np.sqrt(10.0 / n)


class TestMismatchProj:
    def test_all_calibrated(self):
        # replicate means at +/- sqrt(v) give var-of-means = v, so every
        # coordinate has v_bb = v + v = 2v and index exactly 0
        standard = moments([0.0, 0.0], [1.0, 2.0], var_ls2=0.5)
        reps = [
            moments([1.0, np.sqrt(2.0)], [1.0, 2.0], mean_ls2=np.sqrt(0.5), var_ls2=0.5),
            moments([-1.0, -np.sqrt(2.0)], [1.0, 2.0], mean_ls2=-np.sqrt(0.5), var_ls2=0.5),
        ]
        overall, per = mismatch_index_proj(standard, reps)
        assert abs(overall.value - 0.0) < 1e-12
        assert set(per) == set(coordinate_labels(2))

    def test_single_na_dominates(self):
        standard = moments([0.0], [1.0], var_ls2=1.0)
        reps = [moments([0.0], [1.0], var_ls2=2.0), moments([0.0], [1.0], var_ls2=2.0)]
        # beta_1 has v_bb = v -> NA; log_sigma2 is fine
        overall, per = mismatch_index_proj(standard, reps)
        assert per["beta_1"].is_na
        assert not per["log_sigma2"].is_na
        assert overall.is_na

    def test_identical_replicates_are_na(self):
        standard = moments([0.2], [1.0])
        reps = [moments([0.5], [1.0]), moments([0.5], [1.0])]
        overall, per = mismatch_index_proj(standard, reps)
        assert overall.is_na

    def test_overall_is_max(self):
        # coordinates engineered to land at 0.1 and 0.62 via
        # v_bb = 2v / (1 - target) with identical replicate means
        standard = moments([0.0], [1.0], var_ls2=1.0)
        rep = moments([0.0], [2.0 / (1 - 0.1)], var_ls2=2.0 / (1 - 0.62))
        overall, per = mismatch_index_proj(standard, [rep, rep])
        assert abs(per["beta_1"].value - 0.1) < 1e-12
        assert abs(per["log_sigma2"].value - 0.62) < 1e-12
        assert abs(overall.value - 0.62) < 1e-12

    def test_stacked_replicates_equal_a_sequence(self):
        rng = np.random.default_rng(3)
        standard = moments([0.1, -0.2], [1.0, 0.5], var_ls2=0.3)
        reps = [moments(rng.normal(size=2), rng.uniform(0.5, 2.0, 2), *rng.normal(size=2) ** 2)
                for _ in range(5)]
        stacked = np.stack(reps)
        overall, per = mismatch_index_proj(standard, reps)
        # a list of (2, C) arrays reads as the stacked (B, 2, C) block
        assert mismatch_index_proj(standard, stacked) == (overall, per)
        with pytest.raises(InvalidArgumentError):
            mismatch_index_proj(moments([0.0], [1.0]), stacked)


class TestArrayPath:
    """The (B, 2, C) reductions against a per-coordinate scalar loop."""

    @staticmethod
    def block(rng, b, c):
        means = rng.normal(size=(b, c))
        variances = rng.uniform(0.1, 2.0, size=(b, c))
        return np.stack([means, variances], axis=1)

    @pytest.mark.parametrize("b, c", [(2, 1), (7, 4), (50, 11), (300, 3)])
    def test_equals_per_coordinate_loop(self, b, c):
        rng = np.random.default_rng(b * 100 + c)
        reps = self.block(rng, b, c)
        # standard variances around the bagged ones, so some coordinates are NA
        standard = np.stack([rng.normal(size=c), rng.uniform(0.5, 2.5, size=c)])
        v_bb = np.array([reps[:, 1, j].mean() + reps[:, 0, j].var() for j in range(c)])
        np.testing.assert_array_equal(bagged_variance_of_projection(reps), v_bb)
        expected = np.array([
            1.0 - 2.0 * standard[1, j] / v_bb[j] if v_bb[j] > standard[1, j] else np.nan
            for j in range(c)
        ])
        overall, per = mismatch_index_proj(standard, reps)
        assert list(per) == coordinate_labels(c - 1)
        got = [np.nan if item.is_na else item.value for item in per.values()]
        np.testing.assert_array_equal(got, expected)
        if np.isnan(expected).any():
            assert overall.is_na
        else:
            assert overall.value == expected.max()

    def test_ragged_or_mismatched_inputs_raise(self):
        standard = moments([0.0, 0.0], [1.0, 1.0])
        wide = moments([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        cases = [
            (standard, [standard, wide]),  # ragged list
            (standard, [wide, wide]),  # replicates wider than the standard
            (standard, np.stack([standard] * 3)[:, :, :2]),
            (standard[:, :, None], [standard, standard]),  # standard not (2, C)
            (np.ones((3, 3)), np.ones((4, 3, 3))),  # three rows, not two
            (standard, []),
        ]
        for std, reps in cases:
            with pytest.raises(InvalidArgumentError):
                mismatch_index_proj(std, reps)


class TestWellSpecifiedCalibration:
    def test_linear_model_indices_near_zero(self):
        # full-model index on data from the assumed model, N = 1e4, D = 5;
        # the overall value should usually land in [-0.3, 0.3]
        hyper = NIGHyperparams(a0=2.0, b0=1.0, lam=16.0, q0=0.5, k_star=5)
        gamma = np.ones(5, dtype=np.uint8)
        hits = 0
        n = 10_000
        pvec = np.full(n, 1.0 / n)
        for seed in range(20):
            config = SimConfig(d=5, k=1, n=n, response_kind="linear", seed=0)
            data = sample_dataset(
                config, rng=np.random.default_rng(
                    np.random.SeedSequence(entropy=seed, spawn_key=(0,))
                )
            )
            standard = param_moments_from_stats(
                weighted_stats(data, np.ones(n)), gamma, hyper
            )
            block = np.stack([replicate_rng(seed, i).multinomial(n, pvec) for i in range(100)])
            reps = param_moments_from_stats(weighted_stats(data, block), gamma, hyper)
            overall, _ = mismatch_index_proj(standard, reps)
            if not overall.is_na and -0.3 <= overall.value <= 0.3:
                hits += 1
        assert hits >= 14  # 70% of 20 seeds
