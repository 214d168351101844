"""Radial potential families, their Fourier transforms and singularity classes.

Supported families:

* Coulomb            U(r) = -Z e^2 / r                       (attractive)
* InverseSquare      U(r) = +alpha / r^2                     (repulsive)
* Yukawa             U(r) = -Z e^2 exp(-kappa r) / r
* CutoffCoulomb      U(r) = -Z e^2 / max(r, r_cut)

The momentum-space transform follows the convention in which the Coulomb
potential transforms to 4 pi Z e^2 hbar^2 / k^2.  Transforms are returned
for the magnitude profile |U|; the attractive/repulsive sign lives on the
spec itself, so squared transforms are unambiguous.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import NotRepresentableError
from .units import UnitSystem


class Family(enum.Enum):
    COULOMB = "coulomb"
    INVERSE_SQUARE = "inverse-square"
    YUKAWA = "yukawa"
    CUTOFF_COULOMB = "cutoff-coulomb"


class LargeXTail(enum.Enum):
    COULOMB_TAIL = "coulomb"
    SCREENED = "screened"


class CaseLabel(enum.Enum):
    A = "A"
    B = "B"
    C = "C"
    UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class PotentialSpec:
    family: Family
    Z: float = 0.0
    alpha: float = 0.0
    kappa: float = 0.0
    r_cut: float = 0.0
    attractive: bool = True

    def __post_init__(self):
        fam = self.family
        if fam is Family.INVERSE_SQUARE:
            # Repulsive only; attractive 1/r^2 needs self-adjoint extension data.
            if self.alpha < 0.0:
                raise ValueError("inverse-square strength alpha must be >= 0")
            object.__setattr__(self, "attractive", False)
        else:
            if not (self.Z > 0.0):
                raise ValueError(f"{fam.value} requires charge Z > 0, got {self.Z}")
        if fam is Family.YUKAWA and not (self.kappa > 0.0):
            raise ValueError(f"Yukawa requires kappa > 0, got {self.kappa}")
        if fam is Family.CUTOFF_COULOMB and not (self.r_cut > 0.0):
            raise ValueError(f"cutoff Coulomb requires r_cut > 0, got {self.r_cut}")

    @property
    def sign(self) -> float:
        """-1 for attractive wells, +1 for repulsive barriers."""
        return -1.0 if self.attractive else 1.0


def coulomb(Z: float, attractive: bool = True) -> PotentialSpec:
    return PotentialSpec(Family.COULOMB, Z=Z, attractive=attractive)


def inverse_square(alpha: float) -> PotentialSpec:
    return PotentialSpec(Family.INVERSE_SQUARE, alpha=alpha)


def yukawa(Z: float, kappa: float, attractive: bool = True) -> PotentialSpec:
    return PotentialSpec(Family.YUKAWA, Z=Z, kappa=kappa, attractive=attractive)


def cutoff_coulomb(Z: float, r_cut: float, attractive: bool = True) -> PotentialSpec:
    return PotentialSpec(Family.CUTOFF_COULOMB, Z=Z, r_cut=r_cut, attractive=attractive)


@dataclass(frozen=True)
class SingularityClass:
    small_x_exponent: float
    large_x_tail: LargeXTail
    case_label: CaseLabel


def evaluate(spec: PotentialSpec, units: UnitSystem, r):
    """Potential energy U(r) at a radius or an array of radii; raises on r <= 0."""
    if not np.all(r > 0.0):
        raise ValueError(f"r must be strictly positive, got {r}")
    fam = spec.family
    if fam is Family.INVERSE_SQUARE:
        return spec.alpha / r**2
    if fam is Family.COULOMB:
        return spec.sign * spec.Z * units.e2 / r
    if fam is Family.YUKAWA:
        return spec.sign * spec.Z * units.e2 * np.exp(-spec.kappa * r) / r
    if fam is Family.CUTOFF_COULOMB:
        return spec.sign * spec.Z * units.e2 / np.maximum(r, spec.r_cut)
    raise AssertionError(f"unhandled family {fam}")


def fourier_transform_at(spec: PotentialSpec, units: UnitSystem, k):
    """Momentum-space transform of the magnitude profile at momentum k > 0.

    Convention: Coulomb maps to 4 pi Z e^2 hbar^2 / k^2.  The cutoff
    Coulomb picks up the spherical factor sin(x)/x with x = k r_cut/hbar
    and may therefore oscillate in sign at large k; only its square enters
    second-order kernels.  Accepts an array of momenta.
    """
    if not np.all(k > 0.0):
        raise ValueError(f"k must be strictly positive, got {k}")
    hbar = units.hbar
    fam = spec.family
    if fam is Family.INVERSE_SQUARE:
        raise NotRepresentableError(
            "inverse-square potential has no pointwise 3D Fourier transform "
            "(distributional only)"
        )
    amp = 4.0 * math.pi * spec.Z * units.e2 * hbar**2
    if fam is Family.COULOMB:
        return amp / k**2
    if fam is Family.YUKAWA:
        return amp / (k**2 + (hbar * spec.kappa) ** 2)
    if fam is Family.CUTOFF_COULOMB:
        x = k * spec.r_cut / hbar
        return amp / k**2 * (np.sin(x) / x)
    raise AssertionError(f"unhandled family {fam}")


def classify(spec: PotentialSpec) -> SingularityClass:
    """Small-x singularity class and large-x tail type of the family."""
    fam = spec.family
    if fam is Family.INVERSE_SQUARE:
        return SingularityClass(2.0, LargeXTail.SCREENED, CaseLabel.A)
    if fam is Family.COULOMB:
        return SingularityClass(1.0, LargeXTail.COULOMB_TAIL, CaseLabel.B)
    if fam is Family.YUKAWA:
        return SingularityClass(1.0, LargeXTail.SCREENED, CaseLabel.B)
    if fam is Family.CUTOFF_COULOMB:
        return SingularityClass(0.0, LargeXTail.SCREENED, CaseLabel.C)
    raise AssertionError(f"unhandled family {fam}")


def coulomb_tail_coefficient(spec: PotentialSpec, units: UnitSystem) -> float:
    """lim_{k->0} k^2 U(k): 4 pi Z e^2 hbar^2 for a bare Coulomb tail, else 0."""
    if classify(spec).large_x_tail is LargeXTail.COULOMB_TAIL:
        return 4.0 * math.pi * spec.Z * units.e2 * units.hbar**2
    return 0.0


_SPEC_RE = re.compile(r"^\s*([a-z-]+)\s*:\s*(.*?)\s*$")

_FAMILY_KEYS = {
    Family.COULOMB: {"z"},
    Family.INVERSE_SQUARE: {"alpha"},
    Family.YUKAWA: {"z", "kappa"},
    Family.CUTOFF_COULOMB: {"z", "rcut"},
}


def parse_potential(text: str) -> PotentialSpec:
    """Parse a CLI potential string, e.g. ``coulomb:Z=1`` or ``yukawa:Z=1,kappa=0.5``.

    Grammar (case-insensitive)::

        coulomb:Z=<f>
        inverse-square:alpha=<f>
        yukawa:Z=<f>,kappa=<f>
        cutoff-coulomb:Z=<f>,rcut=<f>
    """
    m = _SPEC_RE.match(text.lower())
    if m is None:
        raise ValueError(f"malformed potential spec {text!r}")
    name, body = m.group(1), m.group(2)
    try:
        family = Family(name)
    except ValueError:
        raise ValueError(f"unknown potential family {name!r}") from None
    params = {}
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"malformed parameter {item!r} in {text!r}")
        key, _, val = item.partition("=")
        key = key.strip()
        if key in params:
            raise ValueError(f"duplicate parameter {key!r} in {text!r}")
        try:
            params[key] = float(val)
        except ValueError:
            raise ValueError(f"non-numeric value for {key!r} in {text!r}") from None
    allowed = _FAMILY_KEYS[family]
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} for family {name!r}")
    missing = allowed - set(params)
    if missing:
        raise ValueError(f"missing keys {sorted(missing)} for family {name!r}")
    if family is Family.COULOMB:
        return coulomb(params["z"])
    if family is Family.INVERSE_SQUARE:
        return inverse_square(params["alpha"])
    if family is Family.YUKAWA:
        return yukawa(params["z"], params["kappa"])
    return cutoff_coulomb(params["z"], params["rcut"])
