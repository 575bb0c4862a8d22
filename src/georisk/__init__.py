"""Nonparametric geostatistical risk mapping.

Estimation of unconditional threshold-exceedance probability maps from
spatial point data: local linear trend estimation with dependence-aware
bandwidth selection, bias-corrected variogram estimation from residuals,
simple kriging, and a semiparametric bootstrap, plus a Monte Carlo
simulation harness that validates the pipeline against closed-form truths.
"""

from .bootstrap import (
    PipelineFit,
    RiskMap,
    decorrelate_residuals,
    fit_pipeline,
    risk_maps,
)
from .geometry import (
    BandwidthMatrix,
    RegularGrid,
    SpatialSample,
    make_regular_grid,
    pairwise_distances,
)
from .io import ingest_csv
from .kriging import KrigingSystem, build_system, sk_predict
from .simulation import (
    Scenario,
    exp_variogram,
    run_scenario,
    simulate_field,
    table1_scenario,
    table2_scenarios,
    table3_scenario,
    true_risk,
    true_trend,
)
from .trend import (
    SmootherMatrix,
    TrendFit,
    cgcv_score,
    cv_score,
    fit_trend,
    gcv_score,
    mase_score,
    select_bandwidth,
    smoother_matrix,
)
from .variogram import (
    EmpiricalVariogram,
    PairTable,
    VariogramModel,
    bias_corrected_variogram,
    bias_matrix,
    correlation_matrix,
    covariance_matrix,
    empirical_variogram,
    fit_shapiro_botha,
    pseudo_covariances,
)

__all__ = [
    "BandwidthMatrix",
    "EmpiricalVariogram",
    "KrigingSystem",
    "PairTable",
    "PipelineFit",
    "RegularGrid",
    "RiskMap",
    "Scenario",
    "SmootherMatrix",
    "SpatialSample",
    "TrendFit",
    "VariogramModel",
    "bias_corrected_variogram",
    "bias_matrix",
    "build_system",
    "cgcv_score",
    "correlation_matrix",
    "covariance_matrix",
    "cv_score",
    "decorrelate_residuals",
    "empirical_variogram",
    "exp_variogram",
    "fit_pipeline",
    "fit_shapiro_botha",
    "fit_trend",
    "gcv_score",
    "ingest_csv",
    "make_regular_grid",
    "mase_score",
    "pairwise_distances",
    "pseudo_covariances",
    "risk_maps",
    "run_scenario",
    "select_bandwidth",
    "simulate_field",
    "sk_predict",
    "smoother_matrix",
    "table1_scenario",
    "table2_scenarios",
    "table3_scenario",
    "true_risk",
    "true_trend",
]

__version__ = "0.1.0"
