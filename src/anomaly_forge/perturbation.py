"""First- and second-order perturbative trace differences w1 and w2.

All values are reduced: w = W / (2 pi hbar)^3, carrying units of inverse
energy.  In the scaled momenta t = p / sqrt(2 m Lambda) both orders reduce
to rational p-integrals that are done here in closed form.

The first order survives only for an unscreened Coulomb tail, where it is
the finite k->0 limit of U(k) times the angle-averaged resolvent bracket;
its p-integral is int t^2 [-(1+t^2)^-3 + (4/3) t^2 (1+t^2)^-4] dt
= -pi/16 + pi/24 = -pi/48, so w1 is a formula.

The second order is the two-kernel momentum integral.  Its inner p-integral
at fixed scaled transfer t is the kernel
K(t) = int_0^inf p^2 [<(1+(p+t)^2)^-1> - (1+p^2)^-1] (1+p^2)^-2 dp,
with the angle average ln[(1+(p+t)^2)/(1+(p-t)^2)] / (4pt).  Write
K = K_log - pi/16, pi/16 = int p^2 (1+p^2)^-3 dp.  The p-integrand of
J = d/dt [t K_log] is rational and even in p, so J is half the real-line
integral, closed in the upper half plane: the residues at p = i (double)
and p = +-t + i give J = -pi (t^2-4) / (4 (t^2+4)^2).  Integrating from
t = 0, t K_log = pi t / (4 (t^2+4)), and K(t) = -pi t^2 / (16 (t^2+4)).
What is left of w2 is one 1D quadrature over t.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import NotRepresentableError
from .potentials import Family, PotentialSpec, coulomb_tail_coefficient, fourier_transform_at
from .quadrature import QuadratureBudget, QuadratureResult, integrate_adaptive
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


def _w1_result(spec: PotentialSpec, units: UnitSystem, lam: float) -> QuadratureResult:
    if not (lam > 0.0):
        raise ValueError(f"Lambda must be positive, got {lam}")
    c_tail = coulomb_tail_coefficient(spec, units)
    value = (c_tail * 4.0 * math.pi / (2.0 * math.pi * units.hbar) ** 3
             * math.sqrt(2.0 * units.m) * (math.pi / 48.0) * lam**-1.5)
    return QuadratureResult(value, 0.0, 0, True)


def compute_w1(spec: PotentialSpec, units: UnitSystem, lam: float) -> float:
    """Reduced first-order trace difference w1(Lambda), in closed form.

    The delta-localized first-order term
    -(2 pi hbar)^-3 * C * int d^3p c2(p, Lambda) / (Lambda + p^2/2m),
    with C the Coulomb tail coefficient and c2 the small-k curvature of the
    angle-averaged resolvent (``quadrature.small_k_curvature``).  In scaled
    momenta the p-integral is -pi/48 (see the module docstring), so
    w1 = C 4 pi / (2 pi hbar)^3 * sqrt(2m) * (pi/48) * Lambda^-3/2.
    Exactly zero for screened tails, where C vanishes.
    """
    return _w1_result(spec, units, lam).value


_W2_FAMILIES = (Family.COULOMB, Family.YUKAWA)


def second_order_kernel(t):
    """K(t) = -pi t^2 / (16 (t^2 + 4)), the p-integral of the second-order
    bracket at scaled momentum transfer t (module docstring).  Accepts arrays."""
    return -math.pi * t * t / (16.0 * (t * t + 4.0))


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
    scale = math.sqrt(2.0 * units.m * lam)
    pref = 16.0 * math.pi**2 / (2.0 * math.pi * units.hbar) ** 6 * scale**6 / lam**3

    def integrand(t):
        u_k = fourier_transform_at(spec, units, scale * t)
        return pref * t * t * u_k * u_k * second_order_kernel(t)

    if budget is None:
        # the absolute floor is set in units of Z^2 e^2 / (a0 Lambda^2), the
        # scale of w2 for every supported family, so that when the quadrature
        # stops does not depend on the unit system
        w_unit = spec.Z**2 * units.e2 / (units.a0 * lam * lam)
        budget = QuadratureBudget(abs_tol=1e-14 * w_unit, rel_tol=1e-7, max_evals=2_000_000)
    res = integrate_adaptive(integrand, (0.0, math.inf), budget)
    return res.require_converged("compute_w2")


def compute_w2(spec: PotentialSpec, units: UnitSystem, lam: float,
               budget: QuadratureBudget | None = None) -> float:
    """Reduced second-order trace difference w2(Lambda).

    The integral (2 pi hbar)^-6 int d^3p d^3k |U(k)|^2 *
    [<(Lambda+(p+k)^2/2m)^-1>_angles - (Lambda+p^2/2m)^-1] (Lambda+p^2/2m)^-2
    with the p-integral done by residues (``second_order_kernel``) leaves
    16 pi^2 (2 pi hbar)^-6 s^6 / Lambda^3 * int_0^inf t^2 U(s t)^2 K(t) dt,
    s = sqrt(2 m Lambda), a 1D quadrature for any supported transform.
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

    ``order`` selects first order, second order, or their sum.  Each point
    carries the w2 quadrature's error estimate (``budget`` applies to it);
    the first order is a closed form with error 0.
    """
    grid = [float(l) for l in lambda_grid]
    if not grid:
        raise ValueError("lambda_grid must not be empty")
    vals, errs = [], []
    for lam in grid:
        if order is Order.FIRST:
            res = _w1_result(spec, units, lam)
            v, e = res.value, res.error
        elif order is Order.SECOND:
            res = _w2_result(spec, units, lam, budget)
            v, e = res.value, res.error
        else:
            r1 = _w1_result(spec, units, lam)
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
