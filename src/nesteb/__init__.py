"""Nonparametric empirical Bayes shrinkage for heteroscedastic data.

NEST estimates many Gaussian means (x_i, sigma_i) by plugging a
two-dimensional weighted kernel density estimate into Tweedie's formula,
with bandwidths selected by a cross-fitted unbiased risk criterion. The
package also ships the classical competitor rules, exponential-family
posterior-mean formulas, and a reproducible simulation lab.
"""

__version__ = "0.1.0"

from .data import (
    Bandwidths,
    FoldAssignment,
    HeteroSample,
    kfold_split,
    validate_sample,
)
from .estimators import (
    EstimatorSpec,
    KGroups,
    Naive,
    Nest,
    Oracle,
    Scaled,
    TF,
    estimate,
    k_groups_fit,
    stabilize_sign,
    truncate_estimates,
)
from .kernel import KernelContext, in_sample_triple
from .priors import NormalPrior, SparseMixPrior, TwoPointPrior, point_mass
from .simulation import (
    SimScenario,
    TwoValueSigma,
    UniformSigma,
    draw_scenario,
    run_bias_experiment,
    run_mse_study,
    scenario_from_ratio,
    selection_bias_formula,
    solve_sigma_M,
    tf_average_shrinkage,
)
from .sure import (
    SureGrid,
    SureReport,
    default_grid,
    sure_unbiasedness_check,
    tune,
)

__all__ = [
    "Bandwidths",
    "EstimatorSpec",
    "FoldAssignment",
    "HeteroSample",
    "KGroups",
    "KernelContext",
    "Naive",
    "Nest",
    "NormalPrior",
    "Oracle",
    "Scaled",
    "SimScenario",
    "SparseMixPrior",
    "SureGrid",
    "SureReport",
    "TF",
    "TwoPointPrior",
    "TwoValueSigma",
    "UniformSigma",
    "default_grid",
    "draw_scenario",
    "estimate",
    "in_sample_triple",
    "k_groups_fit",
    "kfold_split",
    "point_mass",
    "run_bias_experiment",
    "run_mse_study",
    "scenario_from_ratio",
    "selection_bias_formula",
    "solve_sigma_M",
    "stabilize_sign",
    "sure_unbiasedness_check",
    "tf_average_shrinkage",
    "truncate_estimates",
    "tune",
    "validate_sample",
]
