"""Tests for the conjugate regression backend: marginal likelihood against a
quadrature oracle, replication equivalence, enumeration, priors, pips, and
posterior moments against conjugate sampling."""

import itertools
import tracemalloc
from math import exp, lgamma, log, pi

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import digamma, polygamma

from bayesbag.core import standard_model_posterior
from bayesbag.errors import (
    InvalidArgumentError,
    NumericDomainError,
    ResourceLimitError,
    VarianceUndefinedError,
)
from bayesbag import linreg
from bayesbag.linreg import (
    NIGHyperparams,
    RegressionDataset,
    SuffStats,
    enumerate_models,
    log_priors,
    make_evaluator,
    model_log_marginals,
    param_moments_from_stats,
    pips,
    weighted_stats,
)


def log_ml(data, weights, gamma, hyper):
    """One model's weighted log evidence, as a one-row model set."""
    return model_log_marginals(weighted_stats(data, weights), np.asarray(gamma)[None], hyper)[0]


def log_prior(gamma, hyper):
    return log_priors(np.asarray(gamma)[None], hyper)[0]


def moments_of(data, weights, gamma, hyper):
    return param_moments_from_stats(weighted_stats(data, weights), gamma, hyper)


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
        value = log_ml(data, np.zeros(data.n), np.array([1, 0, 1]), HYPER)
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
            lml = log_ml(data, np.ones(5), np.array([1]), hyper)
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
            weighted = log_ml(data, w, gamma, HYPER)
            replicated = RegressionDataset(
                z=np.repeat(data.z, w, axis=0), y=np.repeat(data.y, w)
            )
            unit = log_ml(
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
        with_col = log_ml(data, np.ones(8), np.array([1, 1]), hyper)
        without = log_ml(data, np.ones(8), np.array([1, 0]), hyper)
        assert abs(with_col - without) < 1e-10

    def test_bad_weights_rejected(self):
        data = random_problem(np.random.default_rng(1))
        with pytest.raises(InvalidArgumentError):
            log_ml(data, np.ones(data.n - 1), np.array([1, 0, 0]), HYPER)
        with pytest.raises(InvalidArgumentError):
            log_ml(data, -np.ones(data.n), np.array([1, 0, 0]), HYPER)


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


def jitter_problem():
    """z2 == z1 with z1'z1 = 4: with lam = 1e-20, every block holding both
    columns rounds to a singular matrix whose Cholesky fails without jitter."""
    rng = np.random.default_rng(47)
    z = np.column_stack([np.ones(4), np.ones(4), rng.standard_normal(4)])
    data = RegressionDataset(z=z, y=rng.standard_normal(4))
    hyper = NIGHyperparams(a0=2.0, b0=1.0, lam=1e-20, q0=0.5, k_star=3)
    return weighted_stats(data, np.ones(4)), hyper


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
        single = [model_log_marginals(stats, g[None], hyper)[0] for g in models]
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
        # the {1, 2} block [[4, 4], [4, 4]] + 1e-20 I needs jitter
        stats, hyper = jitter_problem()
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
            model_log_marginals(NEGATIVE_B_G, np.array([[1]]), NEGATIVE_B_G_HYPER)
        # the empty model leaves b_g = b0 and stays defined
        value = model_log_marginals(NEGATIVE_B_G, np.array([[0]]), NEGATIVE_B_G_HYPER)[0]
        assert np.isfinite(value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_evidence_is_a_typed_error(self):
        # y'Wy overflows to inf, so the empty model's b_g is inf and its
        # log evidence -inf; with a column, quad is inf too and b_g NaN
        data = RegressionDataset(z=np.array([[1.0]]), y=np.array([1e200]))
        for gamma in ([0], [1]):
            with pytest.raises(NumericDomainError):
                log_ml(data, np.ones(1), gamma, HYPER)
        # M so large that lgamma(a0 + M/2) overflows
        huge_m = SuffStats(zwz=[[1]], zwy=[0], ywy=1, m=1e308)
        with pytest.raises(NumericDomainError):
            model_log_marginals(huge_m, np.array([[0], [1]]), HYPER)

    def test_model_width_must_match_stats(self):
        stats = weighted_stats(random_problem(np.random.default_rng(3)), np.ones(6))
        with pytest.raises(InvalidArgumentError):
            model_log_marginals(stats, enumerate_models(2, 2), HYPER)


def stacked_only(call):
    """``call()`` with every weight row's sweep failing, so the model layer
    computes each row by the stacked path, whatever the model set."""

    def failing(zwz, zwy, mask, lam):
        return np.zeros((len(zwz), mask.shape[0])), np.full((len(zwz), mask.shape[0]), np.nan)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linreg, "_sweep", failing)
        return call()


def as_chosen(call):
    return call()


class TestSweep:
    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 7), k_frac=st.floats(0, 1), rows=st.integers(1, 5),
        lam=st.floats(1e-2, 1e2), whole=st.booleans(), seed=st.integers(0, 2**32 - 1),
    )
    def test_both_paths_match_per_model_reference(self, d, k_frac, rows, lam, whole, seed):
        rng = np.random.default_rng(seed)
        data = random_problem(rng, n=int(rng.integers(2, 12)), d=d)
        # rows with zeros, none all zero (whose log evidence is 0 up to rounding)
        block = rng.integers(0, 3, size=(rows, data.n))
        zero = rng.integers(data.n)
        block[:, zero] = 0
        block[:, (zero + 1) % data.n] += 1
        stats = weighted_stats(data, block)
        every = enumerate_models(d, 1 + int(k_frac * (d - 1)))
        # the whole set, shuffled, takes the sweep; a part of it, the stacked path
        count = len(every) if whole else rng.integers(1, len(every) + 1)
        models = every[rng.permutation(len(every))[:count]]
        hyper = NIGHyperparams(a0=2.0, b0=1.0, lam=lam, q0=0.5, k_star=d)
        reference = np.array(
            [[per_model_log_ml(row_of(stats, i), g, hyper) for g in models] for i in range(rows)]
        )
        for path in (as_chosen, stacked_only):
            values = path(lambda: model_log_marginals(stats, models, hyper))
            np.testing.assert_allclose(values, reference, rtol=1e-10)
            for i in range(rows):
                one = path(lambda: model_log_marginals(row_of(stats, i), models, hyper))
                np.testing.assert_array_equal(values[i], one)

    def test_model_sets_of_every_subset_take_the_sweep(self, monkeypatch):
        # simulate's synthetic study (D = 10, k* = 2, B = 100) and select's
        # all-subsets default (D = 11, k* = D, B = 3) both take the sweep;
        # a set missing a subset, or one model, takes the stacked path
        calls = []
        sweep = linreg._sweep
        monkeypatch.setattr(linreg, "_sweep", lambda *args: (calls.append(1), sweep(*args))[1])
        rng = np.random.default_rng(71)
        for d, k_star, rows in ((10, 2, 101), (11, 11, 4)):
            data = random_problem(rng, n=40, d=d)
            stats = weighted_stats(data, rng.integers(0, 3, size=(rows, 40)))
            models = enumerate_models(d, k_star)
            models = models[rng.permutation(len(models))]
            pair = models[models.sum(axis=1) == 2][:1]
            for subset, taken in ((models, 1), (models[1:], 0), (pair, 0)):
                calls.clear()
                model_log_marginals(stats, subset, HYPER)
                assert len(calls) == taken

    def test_failing_pivot_row_takes_the_stacked_path(self):
        # the {1, 2} pivot of the jitter problem is 4 - 4 * 4 / 4 = 0
        stats, hyper = jitter_problem()
        models = enumerate_models(3, 3)
        pair = [list(g) for g in models].index([1, 1, 0])
        _, logdet = linreg._sweep(stats.zwz.reshape(1, 9), stats.zwy[None], models != 0, hyper.lam)
        assert not np.isfinite(logdet[0, pair])
        swept = model_log_marginals(stats, models, hyper)
        stacked = stacked_only(lambda: model_log_marginals(stats, models, hyper))
        np.testing.assert_array_equal(swept, stacked)
        # in a block, only the failing weight row is refactored
        rng = np.random.default_rng(66)
        z = np.column_stack([np.ones(4), [1.0, 1.0, 0.0, 0.0], rng.standard_normal(4)])
        data = RegressionDataset(z=z, y=rng.standard_normal(4))
        block = weighted_stats(data, np.array([[1, 1, 1, 1], [2, 2, 0, 0]], dtype=np.uint8))
        values = model_log_marginals(block, models, hyper)
        for i, path in ((0, as_chosen), (1, stacked_only)):
            one = path(lambda: model_log_marginals(row_of(block, i), models, hyper))
            np.testing.assert_array_equal(values[i], one)

    def test_all_subsets_agree_with_stacked_path(self, monkeypatch):
        rng = np.random.default_rng(72)
        data = random_problem(rng, n=200, d=11)
        stats = weighted_stats(data, rng.integers(0, 4, size=(4, 200)))
        models = enumerate_models(11, 11)
        for lam in (1.0, 16.0):
            hyper = NIGHyperparams(a0=2.0, b0=1.0, lam=lam, q0=0.5, k_star=11)
            swept = model_log_marginals(stats, models, hyper)
            stacked = stacked_only(lambda: model_log_marginals(stats, models, hyper))
            np.testing.assert_allclose(swept, stacked, rtol=1e-12)
        # weight rows swept one at a time give the same rows
        monkeypatch.setattr(linreg, "_FACTOR_FLOATS", 64)
        np.testing.assert_array_equal(model_log_marginals(stats, models, hyper), swept)

    def test_peak_memory_within_the_stacked_paths(self):
        rng = np.random.default_rng(73)
        data = random_problem(rng, n=100, d=11)
        stats = weighted_stats(data, rng.integers(0, 3, size=(101, 100)))
        zwz, zwy, mask = stats.zwz.reshape(101, 121), stats.zwy, enumerate_models(11, 11) != 0
        linreg._sweep(zwz[:1], zwy[:1], mask, 1.0)  # the node layout is built once
        peaks = []
        for path in (linreg._stacked, linreg._sweep):
            tracemalloc.start()
            try:
                path(zwz, zwy, mask, 1.0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]


def einsum_stats(data, w):
    """One weight row's statistics by direct sums, and the sums of the
    terms' magnitudes (the scale of their rounding error)."""
    w = np.asarray(w, dtype=float)
    z, y = data.z, data.y
    values = (np.einsum("n,ni,nj->ij", w, z, z), np.einsum("n,ni,n->i", w, z, y), w @ (y * y))
    scales = (
        np.einsum("n,ni,nj->ij", w, np.abs(z), np.abs(z)),
        np.einsum("n,ni,n->i", w, np.abs(z), np.abs(y)),
        w @ (y * y),
    )
    return values, scales


def row_of(stats, i):
    return SuffStats(zwz=stats.zwz[i], zwy=stats.zwy[i], ywy=stats.ywy[i], m=stats.m[i])


class TestBlockEngine:
    @pytest.mark.parametrize("n", [7, 2 * linreg._STATS_CHUNK + 5])
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64, np.float64])
    def test_block_stats_match_per_row_reference(self, n, dtype):
        # n below the chunk size and n spanning three chunks, the last partial
        rng = np.random.default_rng(61)
        data = random_problem(rng, n=n, d=4)
        block = rng.integers(0, 5, size=(5, n)).astype(dtype)
        if dtype == np.float64:
            block = block * 0.75
        block[2] = 0  # a row of zero weights
        stats = weighted_stats(data, block)
        assert stats.zwz.shape == (5, 4, 4) and stats.zwy.shape == (5, 4)
        assert stats.ywy.shape == (5,) and stats.m.shape == (5,)
        np.testing.assert_array_equal(stats.m, block.sum(axis=1, dtype=float))
        for i, w in enumerate(block):
            values, scales = einsum_stats(data, w)
            for got, want, scale in zip((stats.zwz[i], stats.zwy[i], stats.ywy[i]), values, scales):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(scale))
        np.testing.assert_array_equal(stats.zwz[2], 0.0)
        np.testing.assert_array_equal(stats.zwz, np.swapaxes(stats.zwz, 1, 2))

    def test_leading_shape_is_kept(self):
        rng = np.random.default_rng(62)
        data = random_problem(rng, n=9, d=3)
        block = rng.integers(0, 3, size=(2, 3, 9))
        stats = weighted_stats(data, block)
        assert stats.zwz.shape == (2, 3, 3, 3) and stats.ywy.shape == (2, 3)
        flat = weighted_stats(data, block.reshape(6, 9))
        np.testing.assert_array_equal(stats.zwz.reshape(6, 3, 3), flat.zwz)
        single = weighted_stats(data, block[1, 2])
        assert single.zwz.shape == (3, 3) and np.ndim(single.ywy) == 0 and np.ndim(single.m) == 0
        empty = weighted_stats(data, np.zeros((0, 9), dtype=np.uint8))
        assert empty.zwz.shape == (0, 3, 3)
        assert model_log_marginals(empty, enumerate_models(3, 3), HYPER).shape == (0, 8)

    def test_invalid_weights_rejected(self):
        data = random_problem(np.random.default_rng(63))
        for bad in (np.ones((2, 5)), np.array([[1.0, -1, 1, 1, 1, 1]]),
                    np.array([1.0, np.nan, 1, 1, 1, 1]), np.full(6, np.inf), np.full(6, "a")):
            with pytest.raises(InvalidArgumentError):
                weighted_stats(data, bad)

    def test_block_evidences_match_per_row_calls(self, monkeypatch):
        rng = np.random.default_rng(64)
        data = random_problem(rng, n=40, d=6)
        models = enumerate_models(6, 6)
        block = rng.integers(0, 4, size=(9, 40)).astype(np.uint8)
        stats = weighted_stats(data, block)
        values = model_log_marginals(stats, models, HYPER)
        assert values.shape == (9, 64)
        for i, w in enumerate(block):
            np.testing.assert_array_equal(values[i], model_log_marginals(row_of(stats, i), models, HYPER))
            np.testing.assert_allclose(values[i], log_ml_rows(data, w, models), rtol=1e-12)
        np.testing.assert_array_equal(make_evaluator(data, models, HYPER)(block), values)
        # size groups factored a few weight rows at a time give the same rows
        monkeypatch.setattr(linreg, "_FACTOR_FLOATS", 64)
        np.testing.assert_array_equal(model_log_marginals(stats, models, HYPER), values)

    def test_block_moments_match_per_row_calls(self):
        rng = np.random.default_rng(65)
        data = random_problem(rng, n=30, d=4)
        block = rng.integers(0, 4, size=(6, 30)).astype(np.uint8)
        stats = weighted_stats(data, block)
        for gamma in (np.array([1, 0, 1, 1]), np.zeros(4, dtype=int)):
            moments = param_moments_from_stats(stats, gamma, HYPER)
            assert moments[..., 0, 1:].shape == (6, gamma.sum())
            for i in range(6):
                one = param_moments_from_stats(row_of(stats, i), gamma, HYPER)
                # means and variances of log sigma^2, then of the included beta_j
                for field in ((0, 0), (1, 0), (0, slice(1, None)), (1, slice(1, None))):
                    np.testing.assert_array_equal(moments[i][field], one[field])

    def test_jitter_confined_to_failing_replicate_and_model(self):
        # z2 equals z1 on the first two rows only: weights (2, 2, 0, 0) make
        # the {1, 2} block [[4, 4], [4, 4]] + 1e-20 I, which needs jitter;
        # unit weights keep it positive definite
        rng = np.random.default_rng(66)
        z = np.column_stack([np.ones(4), [1.0, 1.0, 0.0, 0.0], rng.standard_normal(4)])
        data = RegressionDataset(z=z, y=rng.standard_normal(4))
        hyper = NIGHyperparams(a0=2.0, b0=1.0, lam=1e-20, q0=0.5, k_star=3)
        models = enumerate_models(3, 3)
        pair = [list(g) for g in models].index([1, 1, 0])
        stats = weighted_stats(data, np.array([[1, 1, 1, 1], [2, 2, 0, 0]], dtype=np.uint8))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(stats.zwz[1, :2, :2] + hyper.lam * np.eye(2))
        values = model_log_marginals(stats, models, hyper)
        assert np.all(np.isfinite(values))
        np.testing.assert_array_equal(values[0], model_log_marginals(row_of(stats, 0), models, hyper))
        others = [k for k in range(len(models)) if models[k].sum() == 2 and k != pair]
        np.testing.assert_array_equal(
            values[1, others], model_log_marginals(row_of(stats, 1), models[others], hyper)
        )
        # the failing matrix gets the jitter it gets when factored alone
        np.testing.assert_array_equal(
            values[1, [pair]], model_log_marginals(row_of(stats, 1), models[[pair]], hyper)
        )

    def test_domain_errors_name_weight_row_and_model_row(self):
        # row 1 repeats NEGATIVE_B_G; row 0 is well defined
        stats = SuffStats(zwz=[[[1.0]], [[1.0]]], zwy=[[0.0], [10.0]], ywy=[1.0, 0.0], m=[1.0, 1.0])
        with pytest.raises(NumericDomainError, match="model row 1 of weight row 1"):
            model_log_marginals(stats, np.array([[0], [1]]), NEGATIVE_B_G_HYPER)
        with pytest.raises(NumericDomainError, match="weight row 1"):
            param_moments_from_stats(stats, np.array([1]), NEGATIVE_B_G_HYPER)
        huge_m = SuffStats(zwz=[[[1.0]], [[1.0]]], zwy=[[0.0], [0.0]], ywy=[1.0, 1.0], m=[1.0, 1e308])
        with pytest.raises(NumericDomainError, match="weight row 1"):
            model_log_marginals(huge_m, np.array([[0], [1]]), HYPER)
        # y'Wy overflowed to inf: b_g is inf and the log evidence -inf
        overflow = SuffStats(zwz=[[[1.0]], [[1.0]]], zwy=[[0.0], [0.0]], ywy=[1.0, np.inf],
                             m=[1.0, 1.0])
        with pytest.raises(NumericDomainError, match="model row 0 of weight row 1"):
            model_log_marginals(overflow, np.array([[0], [1]]), HYPER)


def log_ml_rows(data, w, models, hyper=HYPER):
    """All models' log evidences for one weight vector."""
    return model_log_marginals(weighted_stats(data, w), models, hyper)


def reweighting_problem(n, d, seed):
    rng = np.random.default_rng(seed)
    return random_problem(rng, n=n, d=d), rng.integers(0, 4, size=n), rng


SIZES = dict(n=st.integers(2, 12), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))


class TestWeightProperties:
    """Weighting is replication: the evidences depend on the multiset of
    weighted rows only (rtol 1e-10: summation order differs)."""

    @settings(max_examples=40, deadline=None)
    @given(**SIZES)
    def test_duplicated_row_equals_weight_two(self, n, d, seed):
        data, w, rng = reweighting_problem(n, d, seed)
        k = int(rng.integers(n))
        models = enumerate_models(d, d)
        twice = RegressionDataset(z=np.vstack([data.z, data.z[k]]), y=np.append(data.y, data.y[k]))
        doubled = np.ones(n)
        doubled[k] = 2
        np.testing.assert_allclose(
            log_ml_rows(data, doubled, models), log_ml_rows(twice, np.ones(n + 1), models),
            rtol=1e-10,
        )

    @settings(max_examples=40, deadline=None)
    @given(**SIZES)
    def test_permuting_rows_changes_nothing(self, n, d, seed):
        data, w, rng = reweighting_problem(n, d, seed)
        perm = rng.permutation(n)
        models = enumerate_models(d, d)
        shuffled = RegressionDataset(z=data.z[perm], y=data.y[perm])
        np.testing.assert_allclose(
            log_ml_rows(shuffled, w[perm], models), log_ml_rows(data, w, models), rtol=1e-10
        )

    @settings(max_examples=40, deadline=None)
    @given(**SIZES)
    def test_zero_weight_acts_as_dropped_row(self, n, d, seed):
        data, w, rng = reweighting_problem(n, d, seed)
        k = int(rng.integers(n))
        w[k] = 0
        keep = np.arange(n) != k
        models = enumerate_models(d, d)
        dropped = RegressionDataset(z=data.z[keep], y=data.y[keep])
        np.testing.assert_allclose(
            log_ml_rows(data, w, models), log_ml_rows(dropped, w[keep], models), rtol=1e-10
        )


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

    @pytest.mark.parametrize(
        "d, k_star", [(d, k) for d in range(1, 9) for k in range(1, d + 1)] + [(10, 2), (11, 11)]
    )
    def test_matches_per_row_reference(self, d, k_star):
        # one row per itertools.combinations tuple, each size block reversed
        blocks = [np.zeros((1, d), dtype=np.uint8)]
        for j in range(1, k_star + 1):
            combos = list(itertools.combinations(range(d), j))
            block = np.zeros((len(combos), d), dtype=np.uint8)
            for i, positions in enumerate(combos):
                block[i, list(positions)] = 1
            blocks.append(block[::-1])
        models = enumerate_models(d, k_star)
        assert models.dtype == np.uint8
        np.testing.assert_array_equal(models, np.concatenate(blocks))

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
        value = log_prior(np.array([1, 0]), hyper)
        assert abs(value - (log(0.1) + log(0.9))) < 1e-15

    def test_prior_ratio(self):
        hyper = NIGHyperparams(a0=2, b0=1, lam=1, q0=0.25, k_star=2)
        ratio = exp(
            log_prior(np.array([1, 1]), hyper)
            - log_prior(np.array([0, 0]), hyper)
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


def dense_moments(stats, gamma, hyper, jitter=0.0):
    """Lam_g (plus ``jitter`` I) and the moments (mean_beta, var_beta,
    mean_log_sigma2) by a dense solve and inverse; independent of the
    triangular-factor path."""
    idx = np.flatnonzero(gamma)
    lam_mat = stats.zwz[np.ix_(idx, idx)] + hyper.lam * np.eye(idx.size) + jitter * np.eye(idx.size)
    mean = np.linalg.solve(lam_mat, stats.zwy[idx])
    a_n = hyper.a0 + 0.5 * stats.m
    b_g = hyper.b0 + 0.5 * (stats.ywy - stats.zwy[idx] @ mean)
    var = b_g / (a_n - 1.0) * np.diag(np.linalg.inv(lam_mat))
    return lam_mat, mean, var, log(b_g) - digamma(a_n)


class TestParamMoments:
    def test_match_dense_reference(self):
        rng = np.random.default_rng(53)
        hyper = NIGHyperparams(a0=2.0, b0=1.0, lam=0.5, q0=0.5, k_star=6)
        for _ in range(5):
            data = random_problem(rng, n=30, d=6)
            stats = weighted_stats(data, rng.integers(0, 4, size=data.n))
            # random models plus a one-column model
            for gamma in [*rng.integers(0, 2, size=(8, 6)), np.eye(6, dtype=int)[2]]:
                if not gamma.any():
                    continue
                _, mean, var, mean_log_s2 = dense_moments(stats, gamma, hyper)
                moments = param_moments_from_stats(stats, gamma, hyper)
                np.testing.assert_allclose(moments[..., 0, 1:], mean, rtol=1e-12)
                np.testing.assert_allclose(moments[..., 1, 1:], var, rtol=1e-12)
                np.testing.assert_allclose(moments[..., 0, 0], mean_log_s2, rtol=1e-12)

    def test_jitter_reaches_moments(self):
        # blocks holding columns 1 and 2 take the 1e-12 rung of the ladder
        stats, hyper = jitter_problem()
        for gamma in enumerate_models(3, 3)[1:]:
            jitter = 1e-12 if gamma[0] and gamma[1] else 0.0
            lam_mat, mean, var, mean_log_s2 = dense_moments(stats, gamma, hyper, jitter)
            moments = param_moments_from_stats(stats, gamma, hyper)
            np.testing.assert_allclose(moments[..., 1, 1:], var, rtol=1e-12)
            np.testing.assert_allclose(moments[..., 0, 0], mean_log_s2, rtol=1e-12)
            if jitter:
                # a jittered Lam_g has cond ~ 1e13, so the mean is checked by
                # its backward residual, which does not grow with cond
                residual = lam_mat @ moments[..., 0, 1:] - stats.zwy[np.flatnonzero(gamma)]
                scale = np.linalg.norm(lam_mat, 2) * np.linalg.norm(moments[..., 0, 1:])
                assert np.linalg.norm(residual) <= 1e-12 * scale
            else:
                np.testing.assert_allclose(moments[..., 0, 1:], mean, rtol=1e-12)

    def test_prior_variance_with_zero_data(self):
        data = random_problem(np.random.default_rng(2))
        hyper = NIGHyperparams(a0=3.0, b0=2.0, lam=50.0, q0=0.5, k_star=3)
        moments = moments_of(
            data, np.zeros(data.n), np.array([1, 1, 1]), hyper
        )
        expected = hyper.b0 / ((hyper.a0 - 1.0) * hyper.lam)
        np.testing.assert_allclose(moments[..., 1, 1:], expected, rtol=1e-12)
        np.testing.assert_allclose(moments[..., 0, 1:], 0.0, atol=1e-15)

    def test_empty_model_closed_form(self):
        # no columns: b_g = b0 + y'Wy/2, and beta has no coordinates
        rng = np.random.default_rng(8)
        data = random_problem(rng, n=12, d=3)
        hyper = NIGHyperparams(a0=2.0, b0=1.5, lam=4.0, q0=0.5, k_star=3)
        for weights in (rng.integers(0, 3, size=(4, data.n)), np.ones(data.n)):
            stats = weighted_stats(data, weights)
            moments = param_moments_from_stats(stats, np.zeros(3, dtype=int), hyper)
            a_n = hyper.a0 + 0.5 * stats.m
            np.testing.assert_allclose(
                moments[..., 0, 0], np.log(hyper.b0 + 0.5 * stats.ywy) - digamma(a_n), rtol=1e-14
            )
            np.testing.assert_allclose(moments[..., 1, 0], polygamma(1, a_n), rtol=1e-14)
            assert np.shape(moments[..., 0, 0]) == weights.shape[:-1]
            for field in (moments[..., 0, 1:], moments[..., 1, 1:]):
                assert field.shape == weights.shape[:-1] + (0,)

    def test_layout_shape(self):
        # lead + (2, 1 + |gamma|): means then variances of [log sigma^2, beta_j]
        rng = np.random.default_rng(9)
        data = random_problem(rng, n=12, d=4)
        gamma = np.array([1, 0, 1, 1])
        for weights in (np.ones(data.n), rng.integers(0, 3, size=(5, data.n))):
            moments = param_moments_from_stats(weighted_stats(data, weights), gamma, HYPER)
            assert moments.shape == weights.shape[:-1] + (2, 4)
            assert moments.dtype == np.float64

    def test_trigamma_identity(self):
        # a_n = a0 + M/2 = 2 with a0 = 1.5, M = 1: var(log sigma^2) = pi^2/6 - 1
        data = RegressionDataset(z=np.array([[1.0]]), y=np.array([0.5]))
        hyper = NIGHyperparams(a0=1.5, b0=1.0, lam=1.0, q0=0.5, k_star=1)
        moments = moments_of(data, np.ones(1), np.array([1]), hyper)
        assert abs(moments[..., 1, 0] - (np.pi**2 / 6 - 1.0)) < 1e-12

    def test_negative_b_g_is_a_typed_error(self):
        with pytest.raises(NumericDomainError):
            param_moments_from_stats(NEGATIVE_B_G, np.array([1]), NEGATIVE_B_G_HYPER)

    def test_variance_undefined(self):
        data = RegressionDataset(z=np.array([[1.0]]), y=np.array([0.5]))
        hyper = NIGHyperparams(a0=0.5, b0=1.0, lam=1.0, q0=0.5, k_star=1)
        with pytest.raises(VarianceUndefinedError):
            moments_of(data, np.zeros(1), np.array([1]), hyper)

    def test_against_conjugate_sampling(self):
        rng = np.random.default_rng(7)
        n, d = 20, 3
        z = rng.standard_normal((n, d))
        y = z @ np.array([1.0, -0.5, 0.25]) + rng.standard_normal(n)
        data = RegressionDataset(z=z, y=y)
        hyper = NIGHyperparams(a0=2.0, b0=1.0, lam=2.0, q0=0.5, k_star=3)
        moments = moments_of(data, np.ones(n), np.ones(d), hyper)

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
            assert abs(moments[0, 1 + j] - beta[:, j].mean()) < 3 * se_mean
            mc_var = beta[:, j].var(ddof=1)
            # relative error of a variance estimate is ~ sqrt(kurtosis/n)
            assert abs(moments[1, 1 + j] - mc_var) < 3 * mc_var * np.sqrt(10.0 / n_mc)
        log_s2 = np.log(sigma2)
        se = log_s2.std(ddof=1) / np.sqrt(n_mc)
        assert abs(moments[..., 0, 0] - log_s2.mean()) < 3 * se
        assert abs(moments[..., 1, 0] - log_s2.var(ddof=1)) < 3 * log_s2.var(
            ddof=1
        ) * np.sqrt(10.0 / n_mc)
        assert abs(moments[..., 1, 0] - float(polygamma(1, a_n))) < 1e-12
