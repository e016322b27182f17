"""Second-order risk expansions for regression MLE under alpha-divergence.

The package computes ED(alpha, n) ~ (p+2)/(2n) + q(alpha)/n^2 for linear
regression with a known error density, exactly (rational arithmetic) for
normal and Student-t errors and by high-accuracy quadrature otherwise,
together with binomial-benchmark sample-size indicators and an independent
Monte-Carlo risk estimator for validation.
"""

from .benchmarks import (
    IdeResult,
    RssResult,
    binomial_risk,
    coin_equivalent,
    ide,
    rss,
    solve_rss_at_k,
)
from .data_moments import (
    Dataset,
    LoadOptions,
    StandardizedMatrix,
    load_csv,
    sample_aggregates,
    standardize,
)
from .error_models import (
    ErrorModel,
    ModelKind,
    custom_error,
    error_model_from_spec,
    normal_error,
    skew_normal_error,
    student_t_error,
)
from .eta import (
    EtaTable,
    build_eta_table,
    eta_normal,
    eta_quadrature,
    eta_t,
)
from .expansion import LTerms, RiskExpansion, l_terms, risk_expansion
from .mc import MLEFit, RiskEstimate, SimConfig, divergence, estimate_risk, mle_fit, simulate
from .moments import AggregatedMoments, HomogeneousMoments, to_aggregated, x_preset

__version__ = "0.1.0"

__all__ = [
    "AggregatedMoments",
    "Dataset",
    "ErrorModel",
    "EtaTable",
    "HomogeneousMoments",
    "IdeResult",
    "LTerms",
    "LoadOptions",
    "MLEFit",
    "ModelKind",
    "RiskEstimate",
    "RiskExpansion",
    "RssResult",
    "SimConfig",
    "StandardizedMatrix",
    "binomial_risk",
    "build_eta_table",
    "coin_equivalent",
    "custom_error",
    "divergence",
    "error_model_from_spec",
    "estimate_risk",
    "eta_normal",
    "eta_quadrature",
    "eta_t",
    "ide",
    "l_terms",
    "load_csv",
    "mle_fit",
    "normal_error",
    "risk_expansion",
    "rss",
    "sample_aggregates",
    "simulate",
    "skew_normal_error",
    "solve_rss_at_k",
    "standardize",
    "student_t_error",
    "to_aggregated",
    "x_preset",
]
