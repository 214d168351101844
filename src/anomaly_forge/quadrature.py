"""Adaptive quadrature, the angle-averaged free resolvent, and power-law fits.

The integrator is a plain Gauss-Kronrod 15(7) panel scheme with greedy
bisection of the worst panel.  Semi-infinite axes are compactified with
the algebraic change of variables x = a + t/(1-t), applied before any
panels are formed, so every evaluation stays at interior nodes.
Evaluation order is deterministic, making repeated runs bit-identical.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import MixedSignError, UnconvergedError
from .units import UnitSystem

# 15-point Kronrod abscissae/weights with the embedded 7-point Gauss rule
# (Gauss nodes sit at the odd Kronrod indices).
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_GAUSS_IDX = np.arange(1, 15, 2)
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


@dataclass(frozen=True)
class QuadratureBudget:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_evals: int = 500_000

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be strictly positive")
        if self.max_evals < 1000:
            raise ValueError("max_evals must be at least 1000")


class QuadratureResult(NamedTuple):
    value: float
    error: float
    evals: int
    converged: bool

    def require_converged(self, what: str) -> "QuadratureResult":
        if not self.converged:
            raise UnconvergedError(
                f"{what}: evaluation budget exhausted "
                f"(best value {self.value:.6e}, error estimate {self.error:.2e})",
                value=self.value, error=self.error,
            )
        return self


def _map_axis(a: float, b: float):
    """Return (lo, hi, x(t), weight(t)) mapping a possibly semi-infinite axis
    onto a finite t-interval."""
    if math.isinf(a):
        raise ValueError("lower integration limits must be finite")
    if math.isinf(b):
        return 0.0, 1.0, (lambda t: a + t / (1.0 - t)), (lambda t: (1.0 - t) ** -2)
    return a, b, (lambda t: t), (lambda t: 1.0)


def _panel_1d(g, a, b):
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fv = np.array([g(c + h * x) for x in _XK])
    ik = h * float(fv @ _WK)
    ig = h * float(fv[_GAUSS_IDX] @ _WG)
    return ik, abs(ik - ig)


def _split_1d(a, b):
    mid = 0.5 * (a + b)
    return (a, mid), (mid, b)


def _panel_2d(g, ax, bx, ay, by):
    cx, hx = 0.5 * (ax + bx), 0.5 * (bx - ax)
    cy, hy = 0.5 * (ay + by), 0.5 * (by - ay)
    fv = np.array([[g(cx + hx * x, cy + hy * y) for y in _XK] for x in _XK])
    ik = hx * hy * float(_WK @ fv @ _WK)
    sub = fv[np.ix_(_GAUSS_IDX, _GAUSS_IDX)]
    ig = hx * hy * float(_WG @ sub @ _WG)
    return ik, abs(ik - ig)


def _split_2d(ax, bx, ay, by):
    if (bx - ax) >= (by - ay):
        mid = 0.5 * (ax + bx)
        return (ax, mid, ay, by), (mid, bx, ay, by)
    mid = 0.5 * (ay + by)
    return (ax, bx, ay, mid), (ax, bx, mid, by)


def _adapt(g, panel, split, box, n_nodes, budget: QuadratureBudget) -> QuadratureResult:
    """Greedy bisection of the worst panel until the error sum meets tolerance.

    ``panel(g, *box)`` returns (value, error) from ``n_nodes`` evaluations of
    ``g``; ``split(*box)`` returns the two halves of a box.
    """
    val, err = panel(g, *box)
    evals = n_nodes
    heap = [(-err, 0, box, val, err)]
    seq = 1
    total_val, total_err = val, err
    while True:
        if seq % 64 == 0:  # resync running sums against float drift
            total_val = math.fsum(item[3] for item in heap)
            total_err = math.fsum(item[4] for item in heap)
        tol = max(budget.abs_tol, budget.rel_tol * abs(total_val))
        if total_err <= tol:
            break
        if evals + 2 * n_nodes > budget.max_evals:
            return QuadratureResult(math.fsum(item[3] for item in heap),
                                    math.fsum(item[4] for item in heap),
                                    evals, False)
        _, _, pbox, pval, perr = heapq.heappop(heap)
        total_val -= pval
        total_err -= perr
        for sub in split(*pbox):
            v, e = panel(g, *sub)
            heapq.heappush(heap, (-e, seq, sub, v, e))
            seq += 1
            total_val += v
            total_err += e
        evals += 2 * n_nodes
    return QuadratureResult(math.fsum(item[3] for item in heap),
                            math.fsum(item[4] for item in heap), evals, True)


def integrate_adaptive(f: Callable, domain, budget: QuadratureBudget | None = None) -> QuadratureResult:
    """Adaptively integrate ``f`` over a 1D interval or 2D rectangle.

    ``domain`` is ``(a, b)`` for one dimension or ``((ax, bx), (ay, by))``
    for two; upper limits may be ``math.inf``.  Returns value and error
    estimate; if the evaluation cap is hit first, the result is flagged
    unconverged but still carries the best value.
    """
    if budget is None:
        budget = QuadratureBudget()
    a, b = domain
    if np.isscalar(a):
        lo, hi, xmap, wmap = _map_axis(float(a), float(b))

        def g(t):
            return f(xmap(t)) * wmap(t)

        return _adapt(g, _panel_1d, _split_1d, (lo, hi), 15, budget)

    (ax, bx), (ay, by) = domain
    lox, hix, xmap, wxmap = _map_axis(float(ax), float(bx))
    loy, hiy, ymap, wymap = _map_axis(float(ay), float(by))

    def g2(t, u):
        return f(xmap(t), ymap(u)) * wxmap(t) * wymap(u)

    return _adapt(g2, _panel_2d, _split_2d, (lox, hix, loy, hiy), 225, budget)


def feynman_combine(a: float, b: float, budget: QuadratureBudget | None = None) -> float:
    """Evaluate int_0^1 dx [a x + b (1-x)]^-2 numerically; equals 1/(a b)."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"feynman_combine requires positive arguments, got ({a}, {b})")
    res = integrate_adaptive(lambda x: (a * x + b * (1.0 - x)) ** -2, (0.0, 1.0), budget)
    res.require_converged("feynman_combine")
    return res.value


# Relative size of 2pk against 2m*Lambda + p^2 + k^2 below which the exact
# p=0 / k=0 limit of the angle average is used instead of the log formula.
_ANGLE_SWITCH = 1e-6
# Same ratio below which the subtracted bracket switches to its k^2 series.
_BRACKET_SWITCH = 1e-4


def angle_averaged_resolvent(p: float, k: float, lam: float, units: UnitSystem) -> float:
    """Angular average of (Lambda + (p+k)^2/2m)^-1 over the relative angle.

    Closed form (m/2pk) * ln[(Lambda+(p+k)^2/2m)/(Lambda+(p-k)^2/2m)], with
    the exact small-argument limit 1/(Lambda + (p^2+k^2)/2m) below the
    cancellation threshold.
    """
    if not (lam > 0.0):
        raise ValueError(f"Lambda must be positive, got {lam}")
    if p < 0.0 or k < 0.0:
        raise ValueError("momenta must be nonnegative")
    m = units.m
    a = lam + (p * p + k * k) / (2.0 * m)
    b = p * k / m
    if b < _ANGLE_SWITCH * a:
        return 1.0 / a
    return math.log((a + b) / (a - b)) / (2.0 * b)


def resolvent_bracket(p: float, k: float, lam: float, units: UnitSystem) -> float:
    """angle_averaged_resolvent minus the k=0 resolvent, stable at small k.

    The difference vanishes like k^2; below the cancellation threshold it is
    evaluated from the series
    -k^2/(2m A E) + x^2/(3A) + x^4/(5A),  x = b/a,  A = Lambda+(p^2+k^2)/2m,
    E = Lambda + p^2/2m.
    """
    m = units.m
    e_free = lam + p * p / (2.0 * m)
    a = lam + (p * p + k * k) / (2.0 * m)
    b = p * k / m
    x = b / a
    if x < _BRACKET_SWITCH:
        x2 = x * x
        return -k * k / (2.0 * m * a * e_free) + x2 / (3.0 * a) + x2 * x2 / (5.0 * a)
    return math.log((a + b) / (a - b)) / (2.0 * b) - 1.0 / e_free


def small_k_curvature(p: float, lam: float, units: UnitSystem) -> float:
    """lim_{k->0} k^-2 [angle_averaged_resolvent(p,k) - (Lambda+p^2/2m)^-1].

    Closed form -1/(2m E^2) + p^2/(3 m^2 E^3) with E = Lambda + p^2/2m,
    re-derived from the log formula's k^2 series.
    """
    if not (lam > 0.0):
        raise ValueError(f"Lambda must be positive, got {lam}")
    m = units.m
    e = lam + p * p / (2.0 * m)
    return -1.0 / (2.0 * m * e * e) + p * p / (3.0 * m * m * e**3)


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of ln|W| against ln(Lambda): W ~ c Lambda^-gamma."""

    amplitude: float
    gamma: float
    residual: float
    lambda_range: tuple[float, float]
    gamma_err: float
    amplitude_err: float
    n_samples: int

    def __post_init__(self):
        if self.residual < 0.0:
            raise ValueError("residual must be nonnegative")
        lo, hi = self.lambda_range
        if not (lo < hi):
            raise ValueError("lambda_range must be increasing")
        if self.n_samples < 4:
            raise ValueError("fit requires at least 4 samples")


def fit_power_law(samples) -> PowerLawFit:
    """Fit W ~ c Lambda^-gamma to trace samples in log-log space.

    ``samples`` is a TraceSamples instance or any object with ``lambdas``
    and ``values`` sequences.  All values must share one sign (a sign
    change raises MixedSignError) and none may vanish.
    """
    lams = np.asarray(samples.lambdas, dtype=float)
    w = np.asarray(samples.values, dtype=float)
    if lams.size < 4:
        raise ValueError(f"power-law fit needs >= 4 samples, got {lams.size}")
    if np.any(w == 0.0):
        raise MixedSignError("samples contain exact zeros; no power law to fit")
    signs = np.sign(w)
    if not np.all(signs == signs[0]):
        raise MixedSignError("samples change sign; log-log fit would be meaningless")
    x = np.log(lams)
    y = np.log(np.abs(w))
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    ln_c, neg_gamma = coef
    resid = y - design @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    dof = max(lams.size - 2, 1)
    sigma2 = float(np.sum(resid**2)) / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    amp = float(signs[0] * np.exp(ln_c))
    return PowerLawFit(
        amplitude=amp,
        gamma=float(-neg_gamma),
        residual=rms,
        lambda_range=(float(lams[0]), float(lams[-1])),
        gamma_err=float(np.sqrt(cov[1, 1])),
        amplitude_err=abs(amp) * float(np.sqrt(cov[0, 0])),
        n_samples=int(lams.size),
    )
