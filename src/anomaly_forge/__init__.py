"""Regularized resolvent-trace anomalies for Fermi systems in singular potentials.

The package computes the regularized difference W(Lambda) between the
quantum resolvent trace and its classical phase-space counterpart for a
family of radial potentials, fits its large-Lambda power law, and applies
the limit operators that turn the fit into particle-number and energy
anomalies.

The spectral oracle's names (``OracleConfig``, ``bessel_channel_sums``,
``oracle_trace``) are resolved on first access, so that importing the
package loads neither numpy nor scipy.
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
from .anomaly import (
    AnomalyResult,
    PowerLawFit,
    Status,
    delta_ae_case_b_closed_form,
    delta_an_case_a_closed_form,
    delta_an_case_a_exact,
    extract_anomalies,
    fit_power_law,
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
    "PowerLawFit",
    "Status",
    "delta_ae_case_b_closed_form",
    "delta_an_case_a_closed_form",
    "delta_an_case_a_exact",
    "extract_anomalies",
    "fit_power_law",
    "errors",
]

__version__ = "0.1.0"

_ORACLE_NAMES = ("OracleConfig", "bessel_channel_sums", "oracle_trace")


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import spectral_oracle
        return getattr(spectral_oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
