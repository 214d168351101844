"""Regularized resolvent-trace anomalies for Fermi systems in singular potentials.

The package computes the regularized difference W(Lambda) between the
quantum resolvent trace and its classical phase-space counterpart for a
family of radial potentials, fits its large-Lambda power law, and applies
the limit operators that turn the fit into particle-number and energy
anomalies.
"""

from .units import ATOMIC, UnitSystem
from .potentials import (
    CaseLabel,
    Family,
    LargeXTail,
    PotentialSpec,
    SingularityClass,
    classify,
    coulomb,
    coulomb_tail_coefficient,
    cutoff_coulomb,
    evaluate,
    fourier_transform_at,
    inverse_square,
    parse_potential,
    yukawa,
)
from .quadrature import (
    PowerLawFit,
    QuadratureBudget,
    QuadratureResult,
    fit_power_law,
    integrate_adaptive,
)
from .perturbation import (
    Order,
    Source,
    TraceSamples,
    compute_w1,
    compute_w2,
    geometric_grid,
    sample_w,
    w2_closed_form,
)
from .spectral_oracle import OracleConfig, bessel_channel_sums, oracle_trace
from .anomaly import (
    AnomalyResult,
    Status,
    classify_divergence_first_order,
    delta_ae_case_b_closed_form,
    delta_an_case_a_closed_form,
    delta_an_case_a_exact,
    extract_anomalies,
)
from . import errors

__all__ = [
    "ATOMIC",
    "UnitSystem",
    "CaseLabel",
    "Family",
    "LargeXTail",
    "PotentialSpec",
    "SingularityClass",
    "classify",
    "coulomb",
    "coulomb_tail_coefficient",
    "cutoff_coulomb",
    "evaluate",
    "fourier_transform_at",
    "inverse_square",
    "parse_potential",
    "yukawa",
    "PowerLawFit",
    "QuadratureBudget",
    "QuadratureResult",
    "fit_power_law",
    "integrate_adaptive",
    "Order",
    "Source",
    "TraceSamples",
    "compute_w1",
    "compute_w2",
    "geometric_grid",
    "sample_w",
    "w2_closed_form",
    "OracleConfig",
    "bessel_channel_sums",
    "oracle_trace",
    "AnomalyResult",
    "Status",
    "classify_divergence_first_order",
    "delta_ae_case_b_closed_form",
    "delta_an_case_a_closed_form",
    "delta_an_case_a_exact",
    "extract_anomalies",
    "errors",
]

__version__ = "0.1.0"
