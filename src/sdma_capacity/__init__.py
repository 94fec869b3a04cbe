"""Transmission-capacity laboratory for SDMA wireless ad hoc networks.

Closed-form outage/density/ASE formulas for DPC, zero-forcing, antenna
selection, and block diagonalization in a Poisson field of multi-antenna
interferers, cross-validated against a reproducible Monte Carlo simulator.
"""

from .analytic import (
    DensityResult,
    area_spectral_efficiency,
    density_dpc_mimo,
    density_for_scheme,
    exact_density_root,
    exact_outage,
    scaling_exponent,
)
from .config import ExperimentConfig
from .kernels import (
    GammaFadingLaw,
    beta_fn,
    chi2_cdf_and_bounds,
    f_coeff,
    interference_coeff,
    laplace_field,
)
from .montecarlo import (
    InconclusiveBisection,
    OutageEstimate,
    SweepTable,
    estimate_outage,
    find_max_density,
    run_sweep,
    validate_distribution,
)
from .network import NetworkParams, Scheme

__all__ = [
    "DensityResult",
    "ExperimentConfig",
    "GammaFadingLaw",
    "InconclusiveBisection",
    "NetworkParams",
    "OutageEstimate",
    "Scheme",
    "SweepTable",
    "area_spectral_efficiency",
    "beta_fn",
    "chi2_cdf_and_bounds",
    "density_dpc_mimo",
    "density_for_scheme",
    "estimate_outage",
    "exact_density_root",
    "exact_outage",
    "f_coeff",
    "find_max_density",
    "interference_coeff",
    "laplace_field",
    "run_sweep",
    "scaling_exponent",
    "validate_distribution",
]

__version__ = "0.1.0"
