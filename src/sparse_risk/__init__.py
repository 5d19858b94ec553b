"""Sparse-estimator risk toolkit.

Penalized least-squares estimators (SCAD, hard thresholding, thresholded mean,
all-subset BIC selection) together with a seeded Monte Carlo harness that maps
their risk relative to least squares along local parameter paths, including
worst-case sweeps where sparsity-tuned estimators deteriorate with sample size
while least squares stays bounded.
"""

__version__ = "0.6.0"

from .datagen import (
    DesignSpec,
    RngStream,
    ar1_covariance,
    fixed_design_with_gram,
    make_theta,
    sample_design,
    sample_errors,
)
from .estimators import (
    SingularDesignError,
    fit_bic_select,
    fit_hard_threshold,
    fit_least_squares,
    fit_scad_cd,
    hodges_scalar,
)
from .penalties import ScadParams, scad_derivative, scad_penalty, scad_univariate_min
from .risk import RiskReport, RiskRow, ls_mse_closed_form, model_error, run_mc
from .tuning import LambdaRule, gcv_select, lambda_grid, sigma_hat
from .experiments import (
    SETUPS,
    SetupDef,
    hodges_risk_curve,
    lower_bound_diagnostic,
    oracle_check,
    run_setup,
    worst_case_curve,
)

__all__ = [
    "__version__",
    "DesignSpec", "RngStream", "ar1_covariance",
    "fixed_design_with_gram", "make_theta", "sample_design", "sample_errors",
    "SingularDesignError",
    "fit_bic_select", "fit_hard_threshold", "fit_least_squares", "fit_scad_cd",
    "hodges_scalar",
    "ScadParams", "scad_derivative", "scad_penalty", "scad_univariate_min",
    "RiskReport", "RiskRow", "ls_mse_closed_form", "model_error",
    "run_mc",
    "LambdaRule", "gcv_select", "lambda_grid", "sigma_hat",
    "SETUPS", "SetupDef", "hodges_risk_curve", "lower_bound_diagnostic",
    "oracle_check", "run_setup", "worst_case_curve",
]
