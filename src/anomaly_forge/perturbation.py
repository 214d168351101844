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

Write the transform as U(s t) = A f(t) / (s t)^2, with A = 4 pi Z e^2 hbar^2
and s = sqrt(2 m Lambda).  What is left of w2 is
16 pi^2 (2 pi hbar)^-6 s^6 / Lambda^3 * int_0^inf t^2 U(s t)^2 K(t) dt
= -pi^3 A^2 s^2 / ((2 pi hbar)^6 Lambda^3) * int_0^inf f^2 / (t^2+4) dt,
and the t-integral is again closed in the upper half plane:

* Coulomb, f = 1: pi/4 from the pole at t = 2i, so w2 = -Z^2 e^2/(8 a0 Lambda^2).
* Yukawa, f = t^2/(t^2+mu^2) with mu = hbar kappa / s: the double pole at
  t = i mu and the pole at t = 2i give pi (mu+4) / (4 (mu+2)^2).
* Cutoff Coulomb, f = sin(a t)/(a t) with a = r_cut s / hbar: split
  1/(t^2 (t^2+4)) = (1/t^2 - 1/(t^2+4))/4 and sin^2 = (1 - cos 2at)/2; then
  int sin^2(a t)/t^2 = pi a/2 and int cos(2at)/(t^2+4) = pi e^(-4a)/4 from
  the pole at t = 2i, so the t-integral is (pi/4) 2 phi(4a) with
  phi(y) = (e^-y - 1 + y)/y^2.

Each family is thus the Coulomb value times (mu+4)/(mu+2)^2 or 2 phi(4a).
For large Lambda, 2 phi(4a) -> 1/(2a), so cutoff Coulomb falls like
Lambda^-5/2.
"""

from __future__ import annotations

import enum
import math
import operator
import sys

from ._records import Record
from .errors import NotRepresentableError
from .potentials import Family, PotentialSpec, coulomb_tail_coefficient
# Not called here: bench/tracing.py wraps perturbation.integrate_adaptive
# by name, so the name stays importable for its --trace runs.
from .quadrature import integrate_adaptive  # noqa: F401
from .units import UnitSystem


class Source(enum.Enum):
    FIRST_ORDER = "first-order"
    SECOND_ORDER = "second-order"
    ORACLE = "oracle"


class Order(enum.Enum):
    FIRST = "first"
    SECOND = "second"


def check_lambda_grid(lambdas) -> tuple:
    """The Lambdas as a tuple of floats, checked before any work on them: non-empty, each
    finite and positive, strictly increasing (ValueError, one message per rule).  Every
    path that samples w, TraceSamples and the fit check their grid here."""
    lams = tuple(float(l) for l in lambdas)
    if not lams:
        raise ValueError("Lambda grid must not be empty")
    if not all(0.0 < l < math.inf for l in lams):
        raise ValueError("Lambda values must be finite and positive")
    if not all(a < b for a, b in zip(lams, lams[1:])):
        raise ValueError("Lambda values must be strictly increasing")
    return lams


class TraceSamples(Record):
    """Reduced trace-difference samples w(Lambda) with error estimates."""

    def __init__(self, lambdas: tuple, values: tuple, errors: tuple, source: Source,
                 spec: PotentialSpec, units: UnitSystem) -> None:
        """Raises ValueError unless the Lambdas pass ``check_lambda_grid``, the three
        tuples are of one length, and every value and error is finite, with no error
        negative."""
        self._set(lambdas=lambdas, values=values, errors=errors, source=source, spec=spec,
                  units=units)
        check_lambda_grid(self.lambdas)
        n = len(self.lambdas)
        if len(self.values) != n or len(self.errors) != n:
            raise ValueError("lambdas, values and errors must have equal length")
        if any(e < 0.0 for e in self.errors):
            raise ValueError("errors must be nonnegative")
        for lam, w, e in zip(self.lambdas, self.values, self.errors):
            if not (math.isfinite(w) and math.isfinite(e)):
                raise ValueError(f"sample at Lambda = {lam:g} is not finite: w = {w}, err = {e}")

    def __len__(self):
        return len(self.lambdas)


def compute_w1(spec: PotentialSpec, units: UnitSystem, lam: float) -> float:
    """Reduced first-order trace difference w1(Lambda), in closed form.

    The delta-localized first-order term
    -(2 pi hbar)^-3 * C * int d^3p c2(p, Lambda) / (Lambda + p^2/2m),
    with C the Coulomb tail coefficient's magnitude and c2 the small-k curvature of the
    angle-averaged resolvent, -1/(2m E^2) + p^2/(3 m^2 E^3) with
    E = Lambda + p^2/2m.  In scaled momenta the p-integral is -pi/48 (see
    the module docstring), so
    w1 = C 4 pi / (2 pi hbar)^3 * sqrt(2m) * (pi/48) * Lambda^-3/2.
    Exactly zero for screened tails, where C vanishes.  The sign is open (ROADMAP item 25).
    """
    if not (lam > 0.0):
        raise ValueError(f"Lambda must be positive, got {lam}")
    c_tail = coulomb_tail_coefficient(spec, units)
    if c_tail == 0.0:
        return 0.0
    try:
        scale = lam**-1.5
    except OverflowError:
        scale = math.inf
    _require_normal(lam, "Lambda^-3/2", scale)
    return (c_tail * 4.0 * math.pi / (2.0 * math.pi * units.hbar) ** 3
            * math.sqrt(2.0 * units.m) * (math.pi / 48.0) * scale)


def _require_normal(lam: float, power: str, value: float) -> None:
    """Reject a Lambda whose power in a closed form under- or overflows a normal float."""
    if not (sys.float_info.min <= value < math.inf):
        raise ValueError(f"Lambda = {lam:g} is out of range: {power} = {value:g} "
                         "is not a normal float")


# y below which phi(y) = (e^-y - 1 + y)/y^2 is summed from its series
# sum_{n>=0} (-y)^n/(n+2)!.  The 17 terms kept are exact to rounding up to
# here (the first omitted term is below 2^-53 of the sum); the expm1 form,
# whose relative error grows like 1e-16 / y, is used only above it.
_PHI_SWITCH = 1.0
_PHI_COEFFS = tuple((-1.0) ** n / math.factorial(n + 2) for n in range(16, -1, -1))


def _phi(y: float) -> float:
    """phi(y) = (e^-y - 1 + y) / y^2 for y >= 0, without cancellation at small y."""
    if y < _PHI_SWITCH:
        acc = 0.0
        for c in _PHI_COEFFS:
            acc = acc * y + c
        return acc
    return (math.expm1(-y) + y) / y / y


def compute_w2(spec: PotentialSpec, units: UnitSystem, lam: float) -> float:
    """Reduced second-order trace difference w2(Lambda), in closed form.

    The integral (2 pi hbar)^-6 int d^3p d^3k |U(k)|^2 *
    [<(Lambda+(p+k)^2/2m)^-1>_angles - (Lambda+p^2/2m)^-1] (Lambda+p^2/2m)^-2
    is summed by residues (module docstring).  It is the bare-Coulomb value
    ``w2_closed_form`` times a family factor: 1 for Coulomb,
    (mu+4)/(mu+2)^2 with mu = hbar kappa / sqrt(2 m Lambda) for Yukawa, and
    2 phi(4a) with a = r_cut sqrt(2 m Lambda) / hbar for cutoff Coulomb.
    Raises NotRepresentableError for inverse-square, which has no
    pointwise transform.
    """
    w2 = w2_closed_form(spec.Z, units, lam)
    fam = spec.family
    if fam is Family.COULOMB:
        return w2
    s = math.sqrt(2.0 * units.m * lam)
    if fam is Family.YUKAWA:
        mu = units.hbar * spec.kappa / s
        return w2 * (mu + 4.0) / (mu + 2.0) ** 2
    if fam is Family.CUTOFF_COULOMB:
        return w2 * 2.0 * _phi(4.0 * spec.r_cut * s / units.hbar)
    raise NotRepresentableError(
        "second order needs a pointwise Fourier transform; "
        f"family {fam.value!r} has none"
    )


def w2_closed_form(Z: float, units: UnitSystem, lam: float) -> float:
    """Reduced second-order value for a bare Coulomb kernel: -Z^2 e^2/(8 Lambda^2 a0)."""
    if not (lam > 0.0):
        raise ValueError(f"Lambda must be positive, got {lam}")
    _require_normal(lam, "Lambda^2", lam * lam)
    return -(Z * Z) * units.e2 / (8.0 * lam * lam * units.a0)


def sample_w(spec: PotentialSpec, units: UnitSystem, lambda_grid, order: Order) -> TraceSamples:
    """Map one perturbative order of the trace difference over a Lambda grid.

    ``order`` selects ``compute_w1`` (source first-order) or ``compute_w2``
    (source second-order).  Both are closed forms, so every point carries
    error 0.  The grid goes through ``check_lambda_grid`` first.
    """
    grid = check_lambda_grid(lambda_grid)
    if order is Order.FIRST:
        w, source = compute_w1, Source.FIRST_ORDER
    else:
        w, source = compute_w2, Source.SECOND_ORDER
    vals = [w(spec, units, lam) for lam in grid]
    return TraceSamples(grid, tuple(vals), (0.0,) * len(grid), source, spec, units)


def geometric_grid(lam_min: float, lam_max: float, points: int) -> tuple:
    """Geometric Lambda grid, the default sampling for power-law windows: lam_min ratio^i,
    ratio = (lam_max/lam_min)^(1/(points-1)), with lam_max itself as the last point, so the
    grid ends exactly on the window's bounds.  A window too narrow for its points to
    increase raises ValueError (``check_lambda_grid``), as do bad bounds or points that is
    not an integer >= 2."""
    if not (math.isfinite(lam_min) and math.isfinite(lam_max)):
        raise ValueError(f"Lambda bounds must be finite, got {lam_min} and {lam_max}")
    if not (0.0 < lam_min < lam_max):
        raise ValueError("need 0 < lam_min < lam_max")
    if not math.isfinite(lam_max / lam_min):
        raise ValueError(f"Lambda window {lam_min:g} to {lam_max:g} is too wide: "
                         "lam_max / lam_min overflows")
    try:
        points = operator.index(points)
    except TypeError:
        raise ValueError(f"points must be an integer, got {points!r}") from None
    if points < 2:
        raise ValueError("need at least 2 grid points")
    ratio = (lam_max / lam_min) ** (1.0 / (points - 1))
    return check_lambda_grid([lam_min * ratio**i for i in range(points - 1)] + [lam_max])
