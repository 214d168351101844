"""First- and second-order perturbative trace differences w1 and w2.

All values are reduced: w = W / (2 pi hbar)^3, carrying units of inverse
energy.  The first order survives only for an unscreened Coulomb tail,
where it equals the finite k->0 limit of U(k) times the angle-averaged
resolvent bracket; the second order is the full two-kernel momentum
integral, evaluated as a 2D quadrature after analytic angle averaging.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import NotRepresentableError
from .potentials import Family, PotentialSpec, coulomb_tail_coefficient, fourier_transform_at
from .quadrature import (
    QuadratureBudget,
    QuadratureResult,
    integrate_adaptive,
    resolvent_bracket,
    small_k_curvature,
)
from .units import UnitSystem


class Source(enum.Enum):
    FIRST_ORDER = "first-order"
    SECOND_ORDER = "second-order"
    COMBINED = "combined"
    ORACLE = "oracle"


class Order(enum.Enum):
    FIRST = "first"
    SECOND = "second"
    SUM = "sum"


@dataclass(frozen=True)
class TraceSamples:
    """Reduced trace-difference samples w(Lambda) with error estimates."""

    lambdas: tuple
    values: tuple
    errors: tuple
    source: Source
    spec: PotentialSpec
    units: UnitSystem

    def __post_init__(self):
        n = len(self.lambdas)
        if n == 0:
            raise ValueError("TraceSamples cannot be empty")
        if len(self.values) != n or len(self.errors) != n:
            raise ValueError("lambdas, values and errors must have equal length")
        lams = self.lambdas
        if any(not (lams[i] < lams[i + 1]) for i in range(n - 1)):
            raise ValueError("Lambda values must be strictly increasing")
        if any(l <= 0.0 for l in lams):
            raise ValueError("Lambda values must be positive")
        if any(e < 0.0 for e in self.errors):
            raise ValueError("errors must be nonnegative")

    def __len__(self):
        return len(self.lambdas)


def _w1_result(spec: PotentialSpec, units: UnitSystem, lam: float,
               budget: QuadratureBudget | None) -> QuadratureResult:
    if not (lam > 0.0):
        raise ValueError(f"Lambda must be positive, got {lam}")
    c_tail = coulomb_tail_coefficient(spec, units)
    if c_tail == 0.0:
        return QuadratureResult(0.0, 0.0, 0, True)
    hbar, m = units.hbar, units.m
    pref = -c_tail * 4.0 * math.pi / (2.0 * math.pi * hbar) ** 3
    scale = math.sqrt(2.0 * m * lam)

    def integrand(t):
        p = scale * t
        e_free = lam + p * p / (2.0 * m)
        return pref * scale * p * p * small_k_curvature(p, lam, units) / e_free

    res = integrate_adaptive(integrand, (0.0, math.inf), budget)
    return res.require_converged("compute_w1")


def compute_w1(spec: PotentialSpec, units: UnitSystem, lam: float,
               budget: QuadratureBudget | None = None) -> float:
    """Reduced first-order trace difference w1(Lambda).

    Exactly zero for screened tails (the k->0 coefficient vanishes);
    otherwise the delta-localized first-order term
    -(2 pi hbar)^-3 * C * int d^3p c2(p, Lambda) / (Lambda + p^2/2m)
    with C the Coulomb tail coefficient and c2 the small-k curvature.
    """
    return _w1_result(spec, units, lam, budget).value


_W2_FAMILIES = (Family.COULOMB, Family.YUKAWA)


def _w2_result(spec: PotentialSpec, units: UnitSystem, lam: float,
               budget: QuadratureBudget | None) -> QuadratureResult:
    if not (lam > 0.0):
        raise ValueError(f"Lambda must be positive, got {lam}")
    if spec.family not in _W2_FAMILIES:
        raise NotRepresentableError(
            f"second-order kernel needs a closed-form nonsingular transform; "
            f"family {spec.family.value!r} is not supported"
        )
    if spec.Z == 0.0:
        return QuadratureResult(0.0, 0.0, 0, True)
    hbar, m = units.hbar, units.m
    scale = math.sqrt(2.0 * m * lam)
    pref = 16.0 * math.pi**2 / (2.0 * math.pi * hbar) ** 6 * scale**6

    def integrand(tp, tk):
        p = scale * tp
        k = scale * tk
        u_k = fourier_transform_at(spec, units, k)
        e_free = lam + p * p / (2.0 * m)
        br = resolvent_bracket(p, k, lam, units)
        return pref * tp * tp * tk * tk * u_k * u_k * br / (e_free * e_free)

    if budget is None:
        # the absolute floor is set in units of Z^2 e^2 / (a0 Lambda^2), the
        # scale of w2 for every supported family, so that when the quadrature
        # stops does not depend on the unit system
        w_unit = spec.Z**2 * units.e2 / (units.a0 * lam * lam)
        budget = QuadratureBudget(abs_tol=1e-14 * w_unit, rel_tol=1e-7, max_evals=2_000_000)
    res = integrate_adaptive(integrand, ((0.0, math.inf), (0.0, math.inf)), budget)
    return res.require_converged("compute_w2")


def compute_w2(spec: PotentialSpec, units: UnitSystem, lam: float,
               budget: QuadratureBudget | None = None) -> float:
    """Reduced second-order trace difference w2(Lambda).

    Evaluates (2 pi hbar)^-6 int d^3p d^3k |U(k)|^2 *
    [<(Lambda+(p+k)^2/2m)^-1>_angles - (Lambda+p^2/2m)^-1] (Lambda+p^2/2m)^-2
    as a 2D quadrature in the rescaled momenta p,k / sqrt(2 m Lambda).
    Supported for families with a nonsingular closed-form transform
    (Coulomb, Yukawa); raises NotRepresentableError otherwise.
    """
    return _w2_result(spec, units, lam, budget).value


def w2_closed_form(Z: float, units: UnitSystem, lam: float) -> float:
    """Reduced second-order value for a bare Coulomb kernel: -Z^2 e^2/(8 Lambda^2 a0)."""
    if not (lam > 0.0):
        raise ValueError(f"Lambda must be positive, got {lam}")
    return -(Z * Z) * units.e2 / (8.0 * lam * lam * units.a0)


def sample_w(spec: PotentialSpec, units: UnitSystem, lambda_grid, order: Order,
             budget: QuadratureBudget | None = None) -> TraceSamples:
    """Map the perturbative trace difference over a Lambda grid.

    ``order`` selects first order, second order, or their sum; quadrature
    error estimates are attached per point.
    """
    grid = [float(l) for l in lambda_grid]
    if not grid:
        raise ValueError("lambda_grid must not be empty")
    vals, errs = [], []
    for lam in grid:
        if order is Order.FIRST:
            res = _w1_result(spec, units, lam, budget)
            v, e = res.value, res.error
        elif order is Order.SECOND:
            res = _w2_result(spec, units, lam, budget)
            v, e = res.value, res.error
        else:
            r1 = _w1_result(spec, units, lam, budget)
            r2 = _w2_result(spec, units, lam, budget)
            v, e = r1.value + r2.value, r1.error + r2.error
        vals.append(v)
        errs.append(e)
    source = {Order.FIRST: Source.FIRST_ORDER,
              Order.SECOND: Source.SECOND_ORDER,
              Order.SUM: Source.COMBINED}[order]
    return TraceSamples(tuple(grid), tuple(vals), tuple(errs), source, spec, units)


def geometric_grid(lam_min: float, lam_max: float, points: int) -> tuple:
    """Geometric Lambda grid, the default sampling for power-law windows."""
    if not (0.0 < lam_min < lam_max):
        raise ValueError("need 0 < lam_min < lam_max")
    if points < 2:
        raise ValueError("need at least 2 grid points")
    ratio = (lam_max / lam_min) ** (1.0 / (points - 1))
    return tuple(lam_min * ratio**i for i in range(points))
