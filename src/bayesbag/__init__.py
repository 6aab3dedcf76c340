"""Bagged-posterior (BayesBag) model selection.

Averages Bayesian posterior model probabilities over bootstrap-resampled
datasets, with an exact conjugate linear-regression feature-selection
backend, limit-law calculators, a model-data mismatch index, synthetic
data generators, and discrete-posterior comparison tools.
"""

from .asymptotics import (
    KModelLaw,
    TwoModelLaw,
    bernoulli_two_model_problem,
    three_model_scenarios,
    mvn_cdf_at_zero,
    reduce_to_contrasts,
    sample_ubb_K,
    std_limit_bernoulli_2,
    ubb_cdf,
    ubb_density,
)
from .compare import (
    DiscretePosterior,
    OverlapResult,
    average_posteriors,
    hpd_overlap,
    hpd_region,
    load_posterior_samples,
    overlap_ci,
)
from .core import (
    BaggedPosterior,
    BootstrapConfig,
    ModelPosterior,
    bagged_from_log_evidence,
    bagged_model_posterior,
    bootstrap_counts,
    evaluate_replicates,
    exact_bagged_posterior,
    replicate_rng,
    standard_model_posterior,
)
from .linreg import (
    NIGHyperparams,
    RegressionDataset,
    enumerate_models,
    log_priors,
    make_evaluator,
    model_log_marginals,
    pips,
    weighted_stats,
)
from .mismatch import (
    MismatchValue,
    bagged_variance_of_projection,
    coordinate_labels,
    mismatch_index,
    mismatch_index_proj,
)
from .simgen import (
    KLOptimal,
    SimConfig,
    kl_optimal_params,
    make_beta_dagger,
    sample_dataset,
    sample_regressors,
)

__version__ = "0.1.0"
