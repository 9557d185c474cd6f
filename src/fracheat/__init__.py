"""Numerical laboratory for small-time heat content expansions of
fractional Schrodinger operators (-Delta)^{alpha/2} + V with Gaussian
mixture potentials: deterministic coefficient routes, stable-process
Monte Carlo cross-checks, and bound validators.
"""

from ._version import __version__
from .coefficients import (
    CoefficientEntry,
    CoefficientTable,
    RouteUnavailable,
    c0k,
    c3_closed,
    c4_closed,
    c4_sos,
    c5_closed,
    c5_sos,
    c_ell,
    cnk_closed,
    cnk_fourier,
    coefficient_table,
    dirichlet_form,
    partial_sum,
    t2_exact,
    t2_kernel,
)
from .montecarlo import (
    McConfig,
    McEstimate,
    estimate_heat_content,
)
from .potentials import GaussianMixturePotential, gaussian, mixture
from .sampling import (
    RngStream,
    closed_form_density,
    empirical_cf,
    levy_cdf,
    moment_estimate,
    sample_increment,
    sample_subordinator,
    sampler_selftest,
)
from .simplex import enumerate_compositions, simplex_integral, weight_A
from .spectral import (
    GridField,
    SpectralGrid,
    apply_fractional_laplacian,
    forward_transform,
    grid_integral,
    inverse_transform,
    sample_on_grid,
    weighted_freq_sum,
)
from .validator import (
    BoundCheck,
    ExpansionReport,
    OrderFit,
    PositivityRecord,
    estimate_series,
    expansion_report,
    fit_remainder_order,
    positivity_audit,
    report_to_csv,
    report_to_json,
    se_factor,
)

__all__ = [
    # coefficients
    "CoefficientEntry", "CoefficientTable", "RouteUnavailable", "c0k", "c3_closed", "c4_closed",
    "c4_sos", "c5_closed", "c5_sos", "c_ell", "cnk_closed", "cnk_fourier", "coefficient_table",
    "dirichlet_form", "partial_sum", "t2_exact", "t2_kernel",
    # montecarlo
    "McConfig", "McEstimate", "estimate_heat_content",
    # potentials
    "GaussianMixturePotential", "gaussian", "mixture",
    # sampling
    "RngStream", "closed_form_density", "empirical_cf", "levy_cdf", "moment_estimate",
    "sample_increment", "sample_subordinator", "sampler_selftest",
    # simplex
    "enumerate_compositions", "simplex_integral", "weight_A",
    # spectral
    "GridField", "SpectralGrid", "apply_fractional_laplacian", "forward_transform", "grid_integral",
    "inverse_transform", "sample_on_grid", "weighted_freq_sum",
    # validator
    "BoundCheck", "ExpansionReport", "OrderFit", "PositivityRecord", "estimate_series",
    "expansion_report", "fit_remainder_order", "positivity_audit", "report_to_csv", "report_to_json",
    "se_factor",
]
