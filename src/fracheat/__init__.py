"""Numerical laboratory for small-time heat content expansions of
fractional Schrodinger operators (-Delta)^{alpha/2} + V with Gaussian
mixture potentials: deterministic coefficient routes, stable-process
Monte Carlo cross-checks, and bound validators.  Grid transforms and sampler
diagnostics are imported from fracheat.spectral and fracheat.sampling.
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
from .sampling import RngStream, sample_increment, sampler_selftest
from .simplex import enumerate_compositions, weight_A
from .spectral import SpectralGrid
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
    "RngStream", "sample_increment", "sampler_selftest",
    # simplex
    "enumerate_compositions", "weight_A",
    # spectral
    "SpectralGrid",
    # validator
    "BoundCheck", "ExpansionReport", "OrderFit", "PositivityRecord", "estimate_series",
    "expansion_report", "fit_remainder_order", "positivity_audit", "report_to_csv", "report_to_json",
]
