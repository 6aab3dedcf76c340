"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them inline).

Checks 1b and 3 pin the two-model bagged limit law
F(u) = Phi(c^{-1/2} Phi^{-1}(u) - delta) at two points; each pinned
figure is derived from that law in the test's docstring.  See README
"Acceptance checks pinned to the limit law".
"""

from math import ceil, exp, lgamma, log, log10, pi

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr, ndtri
from scipy.stats import kstest

import bayesbag as bb
from bayesbag.core import replicate_rng
from bayesbag.linreg import (
    log_priors,
    make_evaluator,
    model_log_marginals,
    param_moments_from_stats,
    weighted_stats,
)
from oracles import bernoulli_two_model_problem, exact_bagged_posterior, kl_optimal_params

UNIFORM2 = np.log([0.5, 0.5])


def report(number: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")


def log_ml(data, weights, gamma, hyper):
    """One model's weighted log evidence, as a one-row model set."""
    return model_log_marginals(weighted_stats(data, weights), np.asarray(gamma)[None], hyper)[0]


def child_seed(seed: int, *key: int) -> int:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return int(seq.generate_state(1, np.uint64)[0])


def bernoulli_experiment(n, m, n_datasets, b, seed):
    """Standard and bagged P(model 1) across replicate fair-coin datasets
    for the 0.6-vs-0.4 two-model problem."""
    std_vals = np.empty(n_datasets)
    bag_vals = np.empty(n_datasets)
    for r in range(n_datasets):
        _, evaluate = bernoulli_two_model_problem(
            0.6, 0.4, n, seed=child_seed(seed, r, 0)
        )
        std_vals[r] = bb.standard_model_posterior(evaluate(np.ones(n)), UNIFORM2).probs[0]
        bagged = bb.bagged_model_posterior(
            evaluate, n, UNIFORM2,
            bb.BootstrapConfig(m=m, b=b, seed=child_seed(seed, r, 1)),
        )
        bag_vals[r] = bagged.mean_probs[0]
    return std_vals, bag_vals


def selection_study(response, seed, n=5000, d=10, k=1, reps=20, b=100):
    """Per-replicate standard and bagged pips for the synthetic study."""
    hyper = bb.NIGHyperparams(a0=2.0, b0=1.0, lam=16.0, q0=k / d, k_star=2)
    models = bb.enumerate_models(d, 2)
    log_prior = log_priors(models, hyper)
    config = bb.SimConfig(d=d, k=k, n=n, response_kind=response, seed=0)
    std_rows = np.empty((reps, d))
    bag_rows = np.empty((reps, d))
    for r in range(reps):
        data = bb.sample_dataset(
            config,
            rng=np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r, 0))),
        )
        stats = weighted_stats(data, np.ones(n))
        standard = bb.standard_model_posterior(
            model_log_marginals(stats, models, hyper), log_prior
        )
        std_rows[r] = bb.pips(standard, models)
        bagged = bb.bagged_model_posterior(
            make_evaluator(data, models, hyper), n, log_prior,
            bb.BootstrapConfig(m=n, b=b, seed=child_seed(seed, r, 1)),
        )
        bag_rows[r] = bb.pips(bagged.mean_probs, models)
    return std_rows, bag_rows


def test_01a_standard_limit_checkpoint():
    """P(U = 0) = 1 - Phi(2) at effect size 2 exceeds 0.02; deterministic."""
    p_wrong = 1.0 - bb.std_limit_bernoulli_2(bb.TwoModelLaw(2.0, 1.0))
    ok = abs(p_wrong - 0.02275) < 1e-4 and p_wrong > 0.02
    report("01a", ok, f"P(U=0) at delta=2 is {p_wrong:.5f} (> 0.02)")
    assert ok


def test_01b_bagged_limit_checkpoint():
    """P(U^bb < 0.1) at (delta=2, c=1) equals the closed form 5.1619e-4.

    F(0.1) = Phi(c^{-1/2} Phi^{-1}(0.1) - delta) = Phi(-1.28155 - 2)
    = Phi(-3.28155) = 5.1619e-4 at c = 1 (M = N, the point 01a pins); a
    4M-draw Monte Carlo of P(Phi(W) < 0.1), W ~ N(2, 1), gives
    5.31e-4 +- 1.2e-5.  The standard posterior's P(U = 0) = 0.02275 at
    the same delta is more than 40 times larger.  The bound 7e-5 holds
    at c = 1/2, where Phi(sqrt(2) Phi^{-1}(0.1) - 2) = 6.8815e-5.
    """
    value = bb.ubb_cdf(0.1, bb.TwoModelLaw(2.0, 1.0))
    formula = float(ndtr(ndtri(0.1) - 2.0))
    assert abs(value - formula) < 1e-15  # the implementation matches the CDF
    p_wrong_std = 1.0 - bb.std_limit_bernoulli_2(bb.TwoModelLaw(2.0, 1.0))
    half_c = bb.ubb_cdf(0.1, bb.TwoModelLaw(2.0, 0.5))
    ok_value = abs(value / 5.1619e-4 - 1.0) < 1e-4
    ok_ratio = p_wrong_std > 40.0 * value
    ok_half_c = abs(half_c / 6.8815e-5 - 1.0) < 1e-4 and half_c < 7e-5
    ok = ok_value and ok_ratio and ok_half_c
    report(
        "01b", ok,
        f"ubb_cdf(0.1; delta=2, c=1) = {value:.4e} (5.1619e-4), "
        f"{p_wrong_std / value:.1f}x below P(U=0) = {p_wrong_std:.5f} (>40x); "
        f"ubb_cdf(0.1; delta=2, c=1/2) = {half_c:.4e} (< 7e-5)",
    )
    assert ok_value, f"ubb_cdf(0.1; 2, 1) = {value:.6e}, expected 5.1619e-4"
    assert ok_ratio, (
        f"P(U=0) = {p_wrong_std:.5f} is not 40x above P(U^bb < 0.1) = {value:.4e}"
    )
    assert ok_half_c, f"ubb_cdf(0.1; 2, 1/2) = {half_c:.6e}, expected 6.8815e-5 < 7e-5"


def test_02_two_model_limit_simulation():
    """Fair-coin two-model problem at N=2000, M=N, B=100, 200 datasets:
    the standard posterior is extreme >= 90% of the time while the bagged
    posterior is uniform (KS < 0.115, the 1% critical value at n=200).

    The expected extreme fraction at N=2000 is 0.911 (exact binomial);
    the fixed seed realizes typical behavior.  Runtime ~3 s.
    """
    std_vals, bag_vals = bernoulli_experiment(2000, 2000, 200, 100, seed=9)
    frac_extreme = float(np.mean((std_vals <= 0.1) | (std_vals >= 0.9)))
    ks = kstest(bag_vals, "uniform").statistic
    ok = frac_extreme >= 0.90 and ks < 0.115
    report("02", ok, f"extreme fraction {frac_extreme:.3f} (>=0.90), KS {ks:.4f} (<0.115)")
    assert frac_extreme >= 0.90
    assert ks < 0.115


def test_03_small_bootstrap_ratio_regime():
    """With N=1e4 and M = ceil(N / log10 N) = 2500 (M/N = 0.25), the
    bagged values follow the (delta=0, c=0.25) limit law and concentrate
    around 1/2 more than the M = N law does.

    Distribution: the PIT ubb_cdf(values; 0, M/N) has KS statistic
    against Uniform(0, 1) below 0.115, the 1% critical value at n=200
    (measured 0.055, 0.058, 0.082, 0.054 at seeds 0-3).  The raw values,
    which are uniform under the M = N law, give KS 0.17-0.22 there, so
    the check tells the two laws apart.

    Concentration: the c = 0.25 law puts 2 Phi(Phi^{-1}(0.65)/0.5) - 1
    = 0.559 mass in [0.35, 0.65] and the c = 1 law puts 0.30 there; the
    observed fraction must exceed 0.30 by three binomial standard errors
    at n=200, i.e. 0.30 + 3 sqrt(0.30 * 0.70 / 200) = 0.397 (measured
    0.58, 0.54, 0.46, 0.585 at seeds 0-3).  Runtime ~15 s.
    """
    n = 10_000
    m = ceil(n / log10(n))
    assert m == 2500
    n_datasets = 200
    _, bag_vals = bernoulli_experiment(n, m, n_datasets, 100, seed=0)
    ks_crit = 0.115  # 1% Kolmogorov-Smirnov critical value at n=200
    ks_law = kstest(bb.ubb_cdf(bag_vals, bb.TwoModelLaw(0.0, m / n)), "uniform").statistic
    ks_unit_c = kstest(bag_vals, "uniform").statistic
    frac_mid = float(np.mean((bag_vals >= 0.35) & (bag_vals <= 0.65)))
    unit_c = bb.TwoModelLaw(0.0, 1.0)
    unit_c_mass = bb.ubb_cdf(0.65, unit_c) - bb.ubb_cdf(0.35, unit_c)
    frac_min = unit_c_mass + 3.0 * np.sqrt(unit_c_mass * (1.0 - unit_c_mass) / n_datasets)
    ok = ks_law < ks_crit and ks_unit_c > ks_crit and frac_mid >= frac_min
    report(
        "03", ok,
        f"KS vs c=0.25 law {ks_law:.4f} (<{ks_crit}); KS vs M=N law {ks_unit_c:.4f} "
        f"(>{ks_crit}); fraction in [0.35,0.65] = {frac_mid:.3f} (>={frac_min:.3f})",
    )
    assert ks_law < ks_crit, (
        f"bagged values depart from the c = {m / n} limit law: KS {ks_law:.4f} >= {ks_crit}"
    )
    assert ks_unit_c > ks_crit, (
        f"bagged values are indistinguishable from the M = N (uniform) law: "
        f"KS {ks_unit_c:.4f} <= {ks_crit}"
    )
    assert frac_mid >= frac_min, (
        f"fraction in [0.35, 0.65] = {frac_mid:.3f} does not exceed the c = 1 "
        f"law's mass {unit_c_mass:.3f} by three standard errors ({frac_min:.3f})"
    )


def test_04_exact_bagging_oracle():
    """Monte Carlo bagging matches exact enumeration within 4 standard
    errors for 20 random tiny two-model problems.  Runtime ~5 s."""
    rng = np.random.default_rng(2)
    worst = -np.inf
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        loglik = rng.normal(size=(n, 2))
        evaluate = lambda w, L=loglik: np.asarray(w, dtype=float) @ L
        exact = exact_bagged_posterior(evaluate, n, m, UNIFORM2)
        bagged = bb.bagged_model_posterior(
            evaluate, n, UNIFORM2,
            bb.BootstrapConfig(m=m, b=5000, seed=int(rng.integers(1 << 31))),
        )
        tol = 4 * bagged.std_errors + 1e-12
        gap = np.abs(bagged.mean_probs - exact)
        worst = max(worst, float(np.max(gap - 4 * bagged.std_errors)))
        assert np.all(gap <= tol)
    report("04", True, f"20 problems within 4 SE (worst margin {worst:+.2e})")


def test_05_marginal_likelihood_oracle():
    """Closed-form weighted evidence matches 2-D adaptive quadrature to
    1e-6 relative on 10 random problems, and weighted evaluation equals
    replicated-row evaluation (up to float summation order) on 50 random
    weighted instances.  Runtime ~10 s."""
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    for _ in range(10):
        z = rng.standard_normal((5, 1))
        y = 1.5 * rng.standard_normal(5)
        hyper = bb.NIGHyperparams(
            a0=float(rng.uniform(1.5, 3)), b0=float(rng.uniform(0.5, 2)),
            lam=float(rng.uniform(0.5, 4)), q0=0.5, k_star=1,
        )
        data = bb.RegressionDataset(z=z, y=y)
        lml = log_ml(data, np.ones(5), np.array([1]), hyper)

        def integrand(beta, t, s=lml, hp=hyper, zc=z.ravel(), yy=y):
            s2 = exp(t)
            loglik = -2.5 * log(2 * pi * s2) - 0.5 * np.sum((yy - zc * beta) ** 2) / s2
            logpb = 0.5 * log(hp.lam / (2 * pi * s2)) - 0.5 * hp.lam * beta * beta / s2
            logps = hp.a0 * log(hp.b0) - lgamma(hp.a0) - (hp.a0 + 1) * log(s2) - hp.b0 / s2 + t
            return exp(loglik + logpb + logps - s)

        ratio, _ = integrate.dblquad(
            integrand, -15, 12, lambda t: -30, lambda t: 30, epsabs=1e-12, epsrel=1e-10
        )
        worst_rel = max(worst_rel, abs(ratio - 1.0))
        assert abs(ratio - 1.0) < 1e-6

    worst_gap = 0.0
    for _ in range(50):
        n, d = 7, 3
        z = rng.standard_normal((n, d))
        y = z @ rng.standard_normal(d) + rng.standard_normal(n)
        data = bb.RegressionDataset(z=z, y=y)
        w = rng.integers(0, 4, size=n)
        if w.sum() == 0:
            w[0] = 1
        gamma = rng.integers(0, 2, size=d)
        hyper = bb.NIGHyperparams(a0=2.0, b0=1.0, lam=16.0, q0=0.1, k_star=d)
        weighted = log_ml(data, w, gamma, hyper)
        replicated = bb.RegressionDataset(z=np.repeat(z, w, axis=0), y=np.repeat(y, w))
        unit = log_ml(replicated, np.ones(replicated.n), gamma, hyper)
        gap = abs(weighted - unit) / max(1.0, abs(unit))
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-10  # exact up to float summation order
    report("05", True, f"quadrature rel err <= {worst_rel:.1e}; replication gap <= {worst_gap:.1e}")


def test_06_misspecified_instability_contrast():
    """1-sparse-nonlinear study (D=10, N=5000, q0=0.1, lam=16, k*=2, M=N,
    B=100, 20 replicates): bagging stabilizes the pips of the symmetric
    components 3 and 7.  Runtime ~10 s."""
    std_rows, bag_rows = selection_study("nonlinear", seed=11)
    var_std = float(std_rows[:, 2].var(ddof=1))
    var_bag = float(bag_rows[:, 2].var(ddof=1))
    std_37 = np.concatenate([std_rows[:, 2], std_rows[:, 6]])
    bag_37 = np.concatenate([bag_rows[:, 2], bag_rows[:, 6]])
    frac_std = float(np.mean((std_37 > 0.1) & (std_37 < 0.9)))
    frac_bag = float(np.mean((bag_37 > 0.1) & (bag_37 < 0.9)))
    ok = var_bag < var_std and frac_std < 0.2 and frac_bag > 0.5
    report(
        "06", ok,
        f"component-3 pip variance {var_bag:.4f} (bagged) < {var_std:.4f} (standard); "
        f"mid-range fractions {frac_std:.3f} (standard, <0.2) vs {frac_bag:.3f} (bagged, >0.5)",
    )
    assert var_bag < var_std
    assert frac_std < 0.2
    assert frac_bag > 0.5


def test_07_well_specified_conservatism():
    """1-sparse-linear study: the bagged pip of the causal component 5
    stays above 0.9 in >= 80% of replicates and does not exceed the
    standard pip in >= 60% of replicates.  Runtime ~10 s."""
    std_rows, bag_rows = selection_study("linear", seed=12)
    frac_high = float(np.mean(bag_rows[:, 4] > 0.9))
    frac_le = float(np.mean(bag_rows[:, 4] <= std_rows[:, 4]))
    ok = frac_high >= 0.80 and frac_le >= 0.60
    report("07", ok, f"bagged pip>0.9 in {frac_high:.2f} (>=0.80); <= standard in {frac_le:.2f} (>=0.60)")
    assert frac_high >= 0.80
    assert frac_le >= 0.60


def _overall_mismatch(response, d, seed, n=10_000, b=100):
    hyper = bb.NIGHyperparams(a0=2.0, b0=1.0, lam=16.0, q0=0.5, k_star=d)
    config = bb.SimConfig(d=d, k=1, n=n, response_kind=response, seed=0)
    data = bb.sample_dataset(
        config, rng=np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    )
    gamma = np.ones(d, dtype=np.uint8)
    standard = param_moments_from_stats(weighted_stats(data, np.ones(n)), gamma, hyper)
    pvec = np.full(n, 1.0 / n)
    block = np.stack([replicate_rng(seed, i).multinomial(n, pvec) for i in range(b)])
    reps = param_moments_from_stats(weighted_stats(data, block), gamma, hyper)
    overall, _ = bb.mismatch_index_proj(standard, reps)
    return overall


def test_08_mismatch_index_patterns():
    """Full-model mismatch index at N=1e4: near zero under the assumed
    linear model (D=5), NA or large under the cubic response (D=10), in
    >= 70% of 20 seeds each.  Runtime ~60 s."""
    well = [_overall_mismatch("linear", 5, seed) for seed in range(20)]
    hits_well = sum(1 for v in well if not v.is_na and -0.3 <= v.value <= 0.3)
    mis = [_overall_mismatch("nonlinear", 10, seed) for seed in range(20)]
    hits_mis = sum(1 for v in mis if v.is_na or v.value > 0.5)
    ok = hits_well >= 14 and hits_mis >= 14
    report("08", ok, f"well-specified in [-0.3,0.3]: {hits_well}/20; misspecified NA-or->0.5: {hits_mis}/20")
    assert hits_well >= 14
    assert hits_mis >= 14


def test_09_kl_optimal_oracle():
    """KL-optimal parameter estimates at n_mc = 1e6: exact recovery for
    the identity response, the Gaussian-moment value 3 for independent
    cubic regressors, and a dense coefficient vector under the correlated
    mixture.  Runtime ~10 s."""
    d = 10
    linear = kl_optimal_params(
        bb.SimConfig(d=d, k=1, n=1, response_kind="linear", seed=0), 10**6, seed=0
    )
    beta_dag = bb.make_beta_dagger(d, 1)
    tol = 3 * linear.moment_se + 1e-9  # floor covers pure float roundoff
    ok_linear = bool(
        np.all(np.abs(linear.beta_circ - beta_dag) <= tol)
        and abs(linear.sigma2_circ - 1.0) <= tol
    )

    cubic = bb.SimConfig(d=d, k=1, n=1, response_kind="nonlinear", seed=0)
    indep = kl_optimal_params(
        cubic, 10**6, seed=0, regressor_sampler=lambda n, rng: rng.standard_normal((n, d))
    )
    causal = int(np.flatnonzero(beta_dag)[0])
    ok_indep = abs(indep.beta_circ[causal] - 3.0) <= 3 * indep.moment_se

    mixture = kl_optimal_params(cubic, 10**6, seed=0)
    dense = int(np.sum(np.abs(mixture.beta_circ) > 0.05))
    ok_dense = dense >= 3

    ok = ok_linear and ok_indep and ok_dense
    report(
        "09", ok,
        f"linear exact ({ok_linear}); independent cubic coefficient "
        f"{indep.beta_circ[causal]:.3f} ~ 3 ({ok_indep}); dense coordinates {dense} >= 3",
    )
    assert ok_linear and ok_indep and ok_dense


def test_10_property_suite_smoke():
    """The named cross-module invariants in one pass: probability
    normalization, replicate determinism, HPD nesting
    and symmetry, density normalization, and two-versus-K-model law
    agreement.  (Module tests run the full versions.)"""
    # normalization under a random evaluator
    rng = np.random.default_rng(0)
    evaluate = lambda w, L=rng.normal(size=(5, 3)): np.asarray(w, dtype=float) @ L
    prior3 = np.log(np.full(3, 1 / 3))
    bagged = bb.bagged_model_posterior(
        evaluate, 5, prior3, bb.BootstrapConfig(m=5, b=100, seed=1)
    )
    assert np.allclose(bagged.replicate_probs.sum(axis=1), 1.0, atol=1e-10)
    assert abs(bagged.mean_probs.sum() - 1.0) < 1e-10

    # replicate determinism: a re-run gives the same replicates
    again = bb.bagged_model_posterior(
        evaluate, 5, prior3, bb.BootstrapConfig(m=5, b=100, seed=1)
    )
    assert np.array_equal(bagged.replicate_probs, again.replicate_probs)

    # HPD nesting and overlap symmetry, on multinomial draw counts
    names = [f"i{k}" for k in range(12)]
    draws = [np.random.default_rng(seed).multinomial(1000, np.random.default_rng(seed).dirichlet(np.ones(8)))
             for seed in (1, 2)]
    _, post, other = bb.count_matrices([dict(zip(names[:8], draws[0]))], [dict(zip(names[4:], draws[1]))])
    inner = bb.hpd_region(post[0], 0.5)[0]
    outer = bb.hpd_region(post[0], 0.9)[0]
    assert not (inner & ~outer).any()
    fwd = bb.hpd_overlap(post[0], other[0], 0.9)
    rev = bb.hpd_overlap(other[0], post[0], 0.9)
    assert fwd.mass_a == rev.mass_b and fwd.count == rev.count

    # density normalization (window-exact form)
    law = bb.TwoModelLaw(1.0, 0.5)
    phi = lambda z: np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)
    total, _ = integrate.quad(
        lambda z: bb.ubb_density(float(ndtr(z)), law) * phi(z), -7.0, 7.0
    )
    assert abs(total - 1.0) < 1e-6

    # two-model and K-model laws agree at K=2 (dimension-1 path is exact)
    klaw = bb.KModelLaw(np.array([1.0]), np.array([[4.0]]), 1.0)
    values = bb.sample_ubb_K(klaw, 4000, seed=3)
    pit = bb.ubb_cdf(values, bb.TwoModelLaw(0.5, 1.0))
    assert kstest(pit, "uniform").statistic < 0.03

    report("10", True, "normalization, determinism, HPD, density, K=2 agreement")
