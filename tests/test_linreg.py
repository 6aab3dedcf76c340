"""Tests for the conjugate regression backend: marginal likelihood against a
quadrature oracle, replication equivalence, enumeration, priors, pips, and
posterior moments against conjugate sampling."""

import itertools
import re
import tracemalloc
from math import exp, lgamma, log, pi
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import digamma, polygamma

from bayesbag.core import BootstrapConfig, evaluate_replicates, replicate_rng, standard_model_posterior
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
    enumerate_models,
    log_priors,
    make_evaluator,
    model_log_marginals,
    param_moments_from_stats,
    pips,
    weighted_stats,
)
from bayesbag.simgen import SimConfig, sample_dataset


def log_ml(data, weights, gamma, hyper):
    """One model's weighted log evidence, as a one-row model set."""
    return model_log_marginals(weighted_stats(data, weights), np.asarray(gamma)[None], hyper)[0]


def log_prior(gamma, hyper):
    return log_priors(np.asarray(gamma)[None], hyper)[0]


def moments_of(data, weights, gamma, hyper):
    return param_moments_from_stats(weighted_stats(data, weights), gamma, hyper)


def fields(rows):
    """The fields of ``weighted_stats`` rows [Z'WZ row-major, Z'Wy, y'Wy, M]
    of width D * D + D + 2 = ((2 D + 1)^2 + 7) / 4: zwz (..., D, D), zwy
    (..., D), ywy and m (...)."""
    rows = np.asarray(rows, dtype=float)
    d = (round(np.sqrt(4 * rows.shape[-1] - 7)) - 1) // 2
    assert rows.shape[-1] == d * d + d + 2
    return SimpleNamespace(zwz=rows[..., : d * d].reshape(rows.shape[:-1] + (d, d)),
                           zwy=rows[..., d * d : -2], ywy=rows[..., -2], m=rows[..., -1])


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
    general solve; independent of the sweep."""
    stats = fields(stats)
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


def singular_problem():
    """z2 == z1 with z1'z1 = 4: with lam = 1e-20, every block holding both
    columns rounds to a singular matrix, whose Cholesky fails."""
    rng = np.random.default_rng(47)
    z = np.column_stack([np.ones(4), np.ones(4), rng.standard_normal(4)])
    data = RegressionDataset(z=z, y=rng.standard_normal(4))
    hyper = NIGHyperparams(a0=2.0, b0=1.0, lam=1e-20, q0=0.5, k_star=3)
    return weighted_stats(data, np.ones(4)), hyper


# how a Lam_g without a Cholesky factor is reported
PIVOT = "has a pivot that is not positive and finite"

# Z'WZ = 1, Z'Wy = 10, y'Wy = 0 and M = 1, so
# b_g = b0 + (0 - 100 / (1 + lam)) / 2 < 0: the evidence is undefined
NEGATIVE_B_G = np.array([1.0, 10.0, 0.0, 1.0])
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

    def test_singular_lam_g_is_a_typed_error(self):
        # the {1, 2} block [[4, 4], [4, 4]] + 1e-20 I has no Cholesky factor;
        # model row 6 is the first of the set to hold both columns
        stats, hyper = singular_problem()
        models = enumerate_models(3, 3)
        pair = [list(g) for g in models].index([1, 1, 0])
        assert pair == 6
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(fields(stats).zwz[:2, :2] + hyper.lam * np.eye(2))
        with pytest.raises(NumericDomainError, match=f"^Lam_g for model row 6 {PIVOT}"):
            model_log_marginals(stats, models, hyper)
        # the models without the pair still evaluate, each as it would alone
        others = [k for k in range(len(models)) if not (models[k][0] and models[k][1])]
        values = model_log_marginals(stats, models[others], hyper)
        reference = [per_model_log_ml(stats, models[k], hyper) for k in others]
        np.testing.assert_allclose(values, reference, rtol=1e-10)

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
        # (the pivot 1 + lam is fine, so the error is not a pivot's)
        data = RegressionDataset(z=np.array([[1.0]]), y=np.array([1e200]))
        with pytest.raises(NumericDomainError, match=r"^log evidence for model row 0 is -inf$"):
            log_ml(data, np.ones(1), [0], HYPER)
        overflow = r"^b_g = nan is not positive for model row 0: y'Wy - quad cancelled or overflowed"
        with pytest.raises(NumericDomainError, match=overflow):
            log_ml(data, np.ones(1), [1], HYPER)
        # M so large that lgamma(a0 + M/2) overflows
        huge_m = np.array([1.0, 0.0, 1.0, 1e308])
        with pytest.raises(NumericDomainError, match=r"^lgamma\(a0 \+ M/2\) overflows at M = 1e\+308"):
            model_log_marginals(huge_m, np.array([[0], [1]]), HYPER)

    def test_cancelled_residual_is_a_typed_error(self):
        # y fits three columns to 1e-3 with |beta| ~ 1e6 and lam = 1e-12: y'Wy ~ 6e16, and
        # y'Wy - quad, about 2-4 (mostly lam |beta|^2), is below the sweep's rounding.  That
        # left b_g <= 0 on five of these seeds and off by a factor of 5 to 2,000 on the
        # other three; the evidence and the moments refuse every seed, naming the cell
        hyper = NIGHyperparams(a0=1.0, b0=1e-3, lam=1e-12, q0=0.5, k_star=3)
        models = enumerate_models(3, 3)
        for seed in range(8):
            rng = np.random.default_rng(seed)
            z = rng.standard_normal((20_000, 3))
            y = z @ (rng.standard_normal(3) * 1e6) + 1e-3 * rng.standard_normal(20_000)
            stats = weighted_stats(RegressionDataset(z=z, y=y), np.ones((1, 20_000)))
            cancelled = "(is not positive|is within its rounding bound [^ ]+)"
            with pytest.raises(NumericDomainError, match=f"{cancelled} for model row 7 of weight row 0"):
                model_log_marginals(stats, models, hyper)
            with pytest.raises(NumericDomainError, match=f"{cancelled} for weight row 0"):
                param_moments_from_stats(stats, np.ones(3), hyper)
            # the models that leave a column out keep a residual that rounding resolves
            assert np.all(np.isfinite(model_log_marginals(stats, models[:7], hyper)))

    def test_model_width_must_match_stats(self):
        # three columns make rows of width 3 * 3 + 3 + 2 = 14; two columns need 8
        stats = weighted_stats(random_problem(np.random.default_rng(3)), np.ones((2, 6)))
        with pytest.raises(InvalidArgumentError, match=(
            r"^statistics rows for models of shape \(4, 2\) have width 8; "
            r"got statistics of shape \(2, 14\)$"
        )):
            model_log_marginals(stats, enumerate_models(2, 2), HYPER)
        with pytest.raises(InvalidArgumentError, match=(
            r"^statistics rows for gamma of shape \(2,\) have width 8; "
            r"got statistics of shape \(2, 14\)$"
        )):
            param_moments_from_stats(stats, np.ones(2), HYPER)


def random_model_set(rng, d, count, kmax):
    """``count`` inclusion rows over ``d`` columns of at most ``kmax`` ones
    each, drawn with repeats, so duplicate rows and the empty model occur."""
    pool = np.zeros((max(1, count), d), dtype=np.uint8)
    for row in pool:
        row[rng.choice(d, size=int(rng.integers(0, kmax + 1)), replace=False)] = 1
    return pool[rng.integers(0, len(pool), size=count)]


class TestSweep:
    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(1, 70), count=st.integers(0, 12), rows=st.integers(1, 4),
        lam=st.floats(1e-2, 1e2), full=st.booleans(), seed=st.integers(0, 2**32 - 1),
    )
    def test_model_sets_match_per_model_reference(self, d, count, rows, lam, full, seed):
        # any 0/1 set: repeated rows, the empty model, no rows at all, and
        # beyond 8 columns models of at most 3 (up to 70 columns); with
        # ``full`` one more model holds every column of up to 8
        rng = np.random.default_rng(seed)
        data = random_problem(rng, n=int(rng.integers(2, 12)), d=d)
        # rows with zeros, none all zero (whose log evidence is 0 up to rounding)
        block = rng.integers(0, 3, size=(rows, data.n))
        zero = rng.integers(data.n)
        block[:, zero] = 0
        block[:, (zero + 1) % data.n] += 1
        stats = weighted_stats(data, block)
        models = random_model_set(rng, d, count, d if d <= 8 else 3)
        if full and d <= 8:
            models = np.vstack([models, np.ones((1, d), dtype=np.uint8)])
        hyper = NIGHyperparams(a0=2.0, b0=1.0, lam=lam, q0=0.5, k_star=d)
        reference = np.array(
            [[per_model_log_ml(stats[i], g, hyper) for g in models] for i in range(rows)]
        ).reshape(rows, len(models))
        values = model_log_marginals(stats, models, hyper)
        np.testing.assert_allclose(values, reference, rtol=1e-10)
        # a value depends neither on the other weight rows nor on the other models
        for i in range(rows):
            one = model_log_marginals(stats[i], models, hyper)
            np.testing.assert_array_equal(values[i], one)
        for k in range(len(models)):
            alone = model_log_marginals(stats, models[k : k + 1], hyper)
            np.testing.assert_array_equal(values[:, k], alone[:, 0])

    def test_plan_is_the_prefix_trie_of_the_model_set(self):
        def plan(models):
            mask = np.asarray(models) != 0
            return linreg._sweep_plan(mask.tobytes(), mask.shape)

        # one model of j columns is a chain of j nodes below the root
        rng = np.random.default_rng(71)
        for d, j in ((1, 1), (16, 16), (70, 3), (70, 70), (5, 0)):
            model = np.zeros((1, d), dtype=np.uint8)
            model[0, rng.choice(d, size=j, replace=False)] = 1
            nodes, pos, _, groups, moves = plan(model)
            assert nodes == j + 1 and len(moves) == j and len(groups) == max(j - 1, 0)
            assert np.arange(nodes)[pos].tolist() == [j]
        # an enumerated set holds every prefix of its rows: one node per row,
        # in any row order, and a repeated row adds no node
        for d, k_star in ((10, 2), (11, 11), (6, 3)):
            models = enumerate_models(d, k_star)
            models = models[rng.permutation(len(models))]
            for subset in (models, np.vstack([models, models[:5]])):
                nodes, pos = plan(subset)[:2]
                assert nodes == len(models)
                assert sorted(np.arange(nodes)[pos][: len(models)]) == list(range(nodes))
        # no rows, or the empty model alone: the root only
        assert plan(np.zeros((0, 4)))[0] == plan(np.zeros((3, 4)))[0] == 1

    def test_failing_pivot_cells_raise(self):
        # the {1, 2} pivot of the singular problem is 4 - 4 * 4 / 4 = 0, so
        # the sweep fails for {1, 2} and {1, 2, 3} alone, and the evidence
        # names the first of them rather than refactoring it
        stats, hyper = singular_problem()
        models = enumerate_models(3, 3)
        both = [k for k, g in enumerate(models) if g[0] and g[1]]
        rows = fields(stats)
        _, logdet = linreg._sweep(rows.zwz.reshape(1, 9), rows.zwy[None], models != 0, hyper.lam)
        assert np.flatnonzero(~np.isfinite(logdet[0])).tolist() == both
        for k in both:
            with pytest.raises(NumericDomainError, match=f"^Lam_g for model row 0 {PIVOT}"):
                model_log_marginals(stats, models[k : k + 1], hyper)
        # in reversed model order the last of them, {1, 2, 3}, is model row 0
        with pytest.raises(NumericDomainError, match=f"^Lam_g for model row 0 {PIVOT}"):
            model_log_marginals(stats, models[::-1], hyper)

    def test_all_subsets_in_row_slices_match_per_model_reference(self, monkeypatch):
        rng = np.random.default_rng(72)
        data = random_problem(rng, n=200, d=11)
        stats = weighted_stats(data, rng.integers(0, 4, size=(4, 200)))
        models = enumerate_models(11, 11)
        for lam in (1.0, 16.0):
            hyper = NIGHyperparams(a0=2.0, b0=1.0, lam=lam, q0=0.5, k_star=11)
            swept = model_log_marginals(stats, models, hyper)
            reference = [[per_model_log_ml(stats[i], g, hyper) for g in models]
                         for i in range(4)]
            np.testing.assert_allclose(swept, reference, rtol=1e-10)
        # weight rows swept one at a time give the same rows
        monkeypatch.setattr(linreg, "_FACTOR_FLOATS", 64)
        np.testing.assert_array_equal(model_log_marginals(stats, models, hyper), swept)

    def test_peak_memory_within_the_row_slices(self, monkeypatch):
        # beyond its inputs and (r, K) outputs, the sweep holds at most two
        # slices of state, one for the states and one for the temporaries;
        # with one row a slice that is far below the state of all 41 rows
        rng = np.random.default_rng(73)
        r, d = 41, 11
        data = random_problem(rng, n=100, d=d)
        stats = weighted_stats(data, rng.integers(0, 3, size=(r, 100)))
        zwz, zwy, mask = stats[:, : d * d], stats[:, d * d : -2], enumerate_models(d, d) != 0
        linreg._sweep(zwz[:1], zwy[:1], mask, 1.0)  # the plan is built once
        per_row = linreg._sweep_plan(mask.tobytes(), mask.shape)[2]
        monkeypatch.setattr(linreg, "_FACTOR_FLOATS", per_row)
        tracemalloc.start()
        try:
            linreg._sweep(zwz, zwy, mask, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (2 * r * len(mask) + 2 * r * (d + 1) * d + 2 * per_row) < 8 * r * per_row


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
        rows = weighted_stats(data, block)
        assert rows.shape == (5, 4 * 4 + 4 + 2) and rows.dtype == np.float64
        stats = fields(rows)
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
        assert stats.shape == (2, 3, 3 * 3 + 3 + 2)
        flat = weighted_stats(data, block.reshape(6, 9))
        np.testing.assert_array_equal(stats.reshape(6, -1), flat)
        single = weighted_stats(data, block[1, 2])
        assert single.shape == (3 * 3 + 3 + 2,)
        np.testing.assert_allclose(single, stats[1, 2], rtol=1e-12)
        empty = weighted_stats(data, np.zeros((0, 9), dtype=np.uint8))
        assert empty.shape == (0, 3 * 3 + 3 + 2)
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
            np.testing.assert_array_equal(values[i], model_log_marginals(stats[i], models, HYPER))
            np.testing.assert_allclose(values[i], log_ml_rows(data, w, models), rtol=1e-12)
        np.testing.assert_array_equal(make_evaluator(data, models, HYPER)(block), values)
        # weight rows swept a few at a time give the same rows
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
                one = param_moments_from_stats(stats[i], gamma, HYPER)
                # means and variances of log sigma^2, then of the included beta_j
                for field in ((0, 0), (1, 0), (0, slice(1, None)), (1, slice(1, None))):
                    np.testing.assert_array_equal(moments[i][field], one[field])

    def test_domain_errors_name_weight_row_and_model_row(self):
        # row 1 repeats NEGATIVE_B_G; row 0 is well defined
        # rows [Z'WZ, Z'Wy, y'Wy, M] of one column
        stats = np.array([[1.0, 0.0, 1.0, 1.0], NEGATIVE_B_G])
        with pytest.raises(NumericDomainError, match="model row 1 of weight row 1"):
            model_log_marginals(stats, np.array([[0], [1]]), NEGATIVE_B_G_HYPER)
        with pytest.raises(NumericDomainError, match="weight row 1"):
            param_moments_from_stats(stats, np.array([1]), NEGATIVE_B_G_HYPER)
        huge_m = np.array([[1.0, 0.0, 1.0, 1.0], [1.0, 0.0, 1.0, 1e308]])
        with pytest.raises(NumericDomainError, match="weight row 1"):
            model_log_marginals(huge_m, np.array([[0], [1]]), HYPER)
        # y'Wy overflowed to inf: b_g is inf and the log evidence -inf
        overflow = np.array([[1.0, 0.0, 1.0, 1.0], [1.0, 0.0, np.inf, 1.0]])
        with pytest.raises(NumericDomainError, match="model row 0 of weight row 1"):
            model_log_marginals(overflow, np.array([[0], [1]]), HYPER)
        # Lam_g of column 1 is -5 + 1e-6 on weight row 1
        # Z'WZ = I and diag(-5, 1) on rows of two columns, Z'Wy = 0, y'Wy = M = 1
        indefinite = np.array([[1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0],
                               [-5.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0]])
        with pytest.raises(NumericDomainError, match=f"model row 2 of weight row 1 {PIVOT}"):
            model_log_marginals(indefinite, enumerate_models(2, 2), NEGATIVE_B_G_HYPER)
        with pytest.raises(NumericDomainError, match=f"weight row 1 {PIVOT}"):
            param_moments_from_stats(indefinite, np.array([1, 0]), NEGATIVE_B_G_HYPER)

    def test_jitter_confined_to_failing_replicate_and_model(self):
        # no jitter is added: z2 equals z1 on the first two rows only, so
        # weights (2, 2, 0, 0) make the {1, 2} block [[4, 4], [4, 4]] + 1e-20 I,
        # which has no Cholesky factor, while unit weights keep it positive
        # definite; the error names that weight row and model row 6, the first
        # to hold both columns, and the unit-weight row still evaluates
        rng = np.random.default_rng(66)
        z = np.column_stack([np.ones(4), [1.0, 1.0, 0.0, 0.0], rng.standard_normal(4)])
        data = RegressionDataset(z=z, y=rng.standard_normal(4))
        hyper = NIGHyperparams(a0=2.0, b0=1.0, lam=1e-20, q0=0.5, k_star=3)
        singular = weighted_stats(data, np.array([[1, 1, 1, 1], [2, 2, 0, 0]], dtype=np.uint8))
        models = enumerate_models(3, 3)
        with pytest.raises(NumericDomainError, match=f"model row 6 of weight row 1 {PIVOT}"):
            model_log_marginals(singular, models, hyper)
        with pytest.raises(NumericDomainError, match=f"weight row 1 {PIVOT}"):
            param_moments_from_stats(singular, np.array([1, 1, 0]), hyper)
        np.testing.assert_allclose(
            model_log_marginals(singular[0], models, hyper),
            [per_model_log_ml(singular[0], g, hyper) for g in models], rtol=1e-10,
        )


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


def dense_moments(stats, gamma, hyper):
    """Lam_g and the moments (mean_beta, var_beta, mean_log_sigma2) by a
    dense solve and inverse; independent of the triangular-factor path."""
    stats = fields(stats)
    idx = np.flatnonzero(gamma)
    lam_mat = stats.zwz[np.ix_(idx, idx)] + hyper.lam * np.eye(idx.size)
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

    def test_singular_lam_g_is_a_typed_error(self):
        # models holding columns 1 and 2 have no Cholesky factor; the rest
        # match the dense reference
        stats, hyper = singular_problem()
        for gamma in enumerate_models(3, 3)[1:]:
            if gamma[0] and gamma[1]:
                with pytest.raises(NumericDomainError, match=f"^Lam_g {PIVOT}"):
                    param_moments_from_stats(stats, gamma, hyper)
                continue
            _, mean, var, mean_log_s2 = dense_moments(stats, gamma, hyper)
            moments = param_moments_from_stats(stats, gamma, hyper)
            np.testing.assert_allclose(moments[..., 0, 1:], mean, rtol=1e-12)
            np.testing.assert_allclose(moments[..., 1, 1:], var, rtol=1e-12)
            np.testing.assert_allclose(moments[..., 0, 0], mean_log_s2, rtol=1e-12)

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
            a_n = hyper.a0 + 0.5 * fields(stats).m
            np.testing.assert_allclose(
                moments[..., 0, 0], np.log(hyper.b0 + 0.5 * fields(stats).ywy) - digamma(a_n),
                rtol=1e-14
            )
            np.testing.assert_allclose(moments[..., 1, 0], polygamma(1, a_n), rtol=1e-14)
            assert np.shape(moments[..., 0, 0]) == weights.shape[:-1]
            for field in (moments[..., 0, 1:], moments[..., 1, 1:]):
                assert field.shape == weights.shape[:-1] + (0,)

    def test_digamma_trigamma_kernel_matches_scipy(self):
        # just above the domain's edge 1, around digamma's root, on both
        # sides of the shift threshold, at a0 + N/2 for N = 50,000, and far out
        shift = linreg._PSI_SHIFT
        x = np.concatenate([
            1.0 + np.logspace(-9, 0, 200),
            np.linspace(1.4, 1.52, 121), [1.4616321449683622],
            shift + np.array([-1.0, -1e-9, 0.0, 1e-9, 1.0]),
            np.nextafter(shift, [0.0, np.inf]),
            np.linspace(1.0001, 3.0 * shift, 500),
            [2.0 + 50_000 / 2],
            np.logspace(np.log10(3.0 * shift), 12, 300),
        ])
        psi, tri = linreg._digamma_trigamma(x)
        assert np.all(np.abs(psi - digamma(x)) <= 4e-15 * np.maximum(1.0, np.abs(digamma(x))))
        np.testing.assert_allclose(tri, polygamma(1, x), rtol=4e-15, atol=0)
        # any leading shape, and no value depends on its neighbours
        psi2, tri2 = linreg._digamma_trigamma(np.stack([x, x[::-1]]))
        np.testing.assert_array_equal(psi2, [psi, psi[::-1]])
        np.testing.assert_array_equal(tri2, [tri, tri[::-1]])
        alone = [linreg._digamma_trigamma(v) for v in x[::7]]
        np.testing.assert_array_equal(alone, np.stack([psi[::7], tri[::7]], axis=1))
        assert linreg._digamma_trigamma(np.zeros((0,)))[0].shape == (0,)

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

    def test_gamma_must_be_a_vector_of_length_d(self):
        stats = weighted_stats(random_problem(np.random.default_rng(4)), np.ones(6))
        for gamma in ([1, 1], [[1, 0, 1]], [1, 0, 1, 1], 1):
            with pytest.raises(InvalidArgumentError):
                param_moments_from_stats(stats, gamma, HYPER)

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

    def test_moments_refuse_exactly_what_the_evidence_refuses(self):
        # two identical columns at lam = 1e-20: the sweep's second pivot is
        # s - (s / s) s = 0 exactly, where a Cholesky's s - (s / sqrt(s))^2
        # would be rounding noise of either sign, and the moments take their
        # pivots from that sweep's check.  Rows of datasets whose columns
        # differ surround them, so the first refused row varies.
        rng = np.random.default_rng(29)
        hyper = NIGHyperparams(a0=2.0, b0=1.0, lam=1e-20, q0=0.5, k_star=2)
        for _ in range(200):
            z = rng.standard_normal(6) * rng.uniform(0.1, 20.0)
            y = rng.standard_normal(6)
            twin = weighted_stats(RegressionDataset(z=np.column_stack([z, z]), y=y), np.ones(6))
            apart = RegressionDataset(z=np.column_stack([z, z + rng.standard_normal(6)]), y=y)
            stats = weighted_stats(apart, rng.integers(1, 4, size=(int(rng.integers(1, 6)), 6)))
            at = np.flatnonzero(rng.random(len(stats)) < 0.3)
            stats[at] = twin
            refused = []
            for call in (lambda: model_log_marginals(stats, [[1, 1]], hyper),
                         lambda: param_moments_from_stats(stats, [1, 1], hyper)):
                try:
                    call()
                    refused.append(None)
                except NumericDomainError as exc:
                    assert PIVOT in str(exc)
                    refused.append(int(re.search(r"weight row (\d+)", str(exc)).group(1)))
            assert refused == [at[0] if at.size else None] * 2

    def test_log_sigma2_mean_takes_b_g_from_the_sweep(self):
        # a block of mismatch's full-model shape: D = 10, N = 50,000, B = 50
        n = 50_000
        data = sample_dataset(SimConfig(d=10, k=1, n=n, response_kind="nonlinear", seed=3),
                              replicate_rng(3, 0))
        stats = evaluate_replicates(lambda w: weighted_stats(data, w), n,
                                    BootstrapConfig(m=n, b=50, seed=1), 112)
        hyper = NIGHyperparams(a0=2.0, b0=1.0, lam=16.0, q0=0.5, k_star=10)
        f = fields(stats)
        quad, _ = linreg._sweep(stats[:, :100], f.zwy, np.ones((1, 10), dtype=bool), hyper.lam)
        b_g = hyper.b0 + 0.5 * (f.ywy[:, None] - quad)
        a_n = hyper.a0 + 0.5 * f.m
        moments = param_moments_from_stats(stats, np.ones(10), hyper)
        np.testing.assert_array_equal(moments[:, 0, 0], np.log(b_g[:, 0]) - linreg._digamma_trigamma(a_n)[0])

    def test_moments_make_no_lapack_call(self, monkeypatch):
        # the moments come from the sweep alone: with LAPACK's Cholesky and
        # inverse made to raise, they are the same array
        def refuse(a):
            raise np.linalg.LinAlgError("LAPACK called")

        stats = weighted_stats(random_problem(np.random.default_rng(5), n=20, d=4),
                               np.random.default_rng(6).integers(0, 4, size=(5, 20)))
        gammas = (np.ones(4), np.array([0, 1, 0, 1]), np.array([0, 0, 1, 0]), np.zeros(4))
        expected = [param_moments_from_stats(stats, gamma, HYPER) for gamma in gammas]
        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        for gamma, moments in zip(gammas, expected):
            np.testing.assert_array_equal(param_moments_from_stats(stats, gamma, HYPER), moments)

    @settings(max_examples=80, deadline=None)
    @given(d=st.integers(1, 8), n=st.integers(1, 30), lam=st.floats(0.1, 20.0),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_moments_match_per_row_solve(self, d, n, lam, seed, data):
        # any inclusion vector, one column and all columns among them, and
        # integer weight rows, against a per-row dense solve and inverse
        gamma = np.array(data.draw(st.one_of(
            st.just([1] * d),
            st.integers(0, d - 1).map(lambda c: [int(i == c) for i in range(d)]),
            st.lists(st.integers(0, 1), min_size=d, max_size=d),
        )))
        weights = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=1, max_size=4)))
        hyper = NIGHyperparams(a0=2.0, b0=1.0, lam=lam, q0=0.5, k_star=d)
        stats = weighted_stats(random_problem(np.random.default_rng(seed), n=n, d=d), weights)
        moments = param_moments_from_stats(stats, gamma, hyper)
        assert moments.shape == (len(weights), 2, 1 + gamma.sum())
        for row, got in zip(stats, moments):
            _, mean, var, mean_log_s2 = dense_moments(row, gamma, hyper)
            assert np.all(np.abs(got[0, 1:] - mean) <= 1e-9 * np.abs(mean).max(initial=0.0))
            np.testing.assert_allclose(got[1, 1:], var, rtol=1e-9, atol=0)
            np.testing.assert_allclose(got[0, 0], mean_log_s2, rtol=0, atol=1e-9)
