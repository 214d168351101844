"""Adaptive quadrature and power-law fits.

The integrator is a plain one-dimensional Gauss-Kronrod 15(7) panel
scheme with greedy bisection of the worst panel.  A semi-infinite interval
is compactified with the algebraic change of variables x = a + t/(1-t),
applied before any panels are formed, so every evaluation stays at
interior nodes.  Integrands are array functions, called once per
bisection with the 15 nodes of both new panels as rows of one array.
Evaluation order is deterministic, making repeated runs bit-identical.
No production path integrates: the tests' references and the benchmark's
tracer use the integrator.

The power-law fit is the closed-form two-parameter least-squares line
through the log-log samples, summed with ``math.fsum``.  Only the
integrator needs numpy, and importing numpy takes longer than a whole
perturbative CLI run, so numpy is imported when an integral first runs,
not with the module.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import MixedSignError, UnconvergedError

# 15-point Kronrod abscissae/weights with the embedded 7-point Gauss rule
# (Gauss nodes sit at the odd Kronrod indices, taken as ``[1::2]``); both
# rules are symmetric, so each table is written up to x = 0 and mirrored.
_XK = (-0.991455371120813, -0.949107912342759, -0.864864423359769, -0.741531185599394,
       -0.586087235467691, -0.405845151377397, -0.207784955007898, 0.0)
_WK = (0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
       0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728)
_WG = (0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469)
_XK, _WK, _WG = _XK + tuple(-x for x in _XK[-2::-1]), _WK + _WK[-2::-1], _WG + _WG[-2::-1]


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


def _panels(g, lo, hi):
    """Kronrod values and Kronrod-Gauss error estimates of the panels
    [lo[i], hi[i]], from one integrand call on their nodes, shape (k, 15).

    Each panel's sums are taken row by row as 15- and 7-term dot products:
    one matrix product over all rows rounds differently.
    """
    import numpy as np

    xk, wk, wg = np.array(_XK), np.array(_WK), np.array(_WG)
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    fv = g(c[:, None] + h[:, None] * xk)
    vals, errs = [], []
    for hk, row in zip(h.tolist(), fv):
        ik = hk * float(row @ wk)
        ig = hk * float(row[1::2] @ wg)
        vals.append(ik)
        errs.append(abs(ik - ig))
    return vals, errs


def integrate_adaptive(f: Callable, domain, budget: QuadratureBudget | None = None) -> QuadratureResult:
    """Adaptively integrate ``f`` over the interval ``domain = (a, b)``.

    ``a`` must be finite; ``b`` may be ``math.inf``.  ``f`` takes panel
    nodes as a numpy array of shape (k, 15) and returns the values there;
    ``evals`` counts nodes.  Greedy bisection of the worst panel runs until
    the error sum meets tolerance or the next bisection would pass
    ``budget.max_evals``; each bisection evaluates both children in one call.
    Returns value and error estimate; if the evaluation cap is hit first, the
    result is flagged unconverged but still carries the best value.
    """
    import numpy as np

    budget = budget or QuadratureBudget()
    a, b = float(domain[0]), float(domain[1])
    if math.isinf(a):
        raise ValueError("lower integration limits must be finite")
    if math.isinf(b):
        g = lambda t, a=a: f(a + t / (1.0 - t)) * (1.0 - t) ** -2
        a, b = 0.0, 1.0
    else:
        g = f
    (val,), (err,) = _panels(g, np.array([a]), np.array([b]))
    # heap entries (-error, seq, a, b, value): the worst panel pops first,
    # ties in creation order
    heap = [(-err, 0, a, b, val)]
    seq, evals = 1, 15
    total_val, total_err = val, err
    while True:
        converged = total_err <= max(budget.abs_tol, budget.rel_tol * abs(total_val))
        if converged or evals + 30 > budget.max_evals:
            return QuadratureResult(math.fsum(item[4] for item in heap),
                                    math.fsum(-item[0] for item in heap), evals, converged)
        nerr, _, pa, pb, pval = heapq.heappop(heap)
        total_val -= pval
        total_err += nerr   # nerr is minus the panel's error
        mid = 0.5 * (pa + pb)
        vals, errs = _panels(g, np.array([pa, mid]), np.array([mid, pb]))
        for lo, hi, v, e in zip((pa, mid), (mid, pb), vals, errs):
            heapq.heappush(heap, (-e, seq, lo, hi, v))
            seq += 1
            total_val += v
            total_err += e
        evals += 30


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

    The line y = ln c - gamma x through x = ln Lambda, y = ln|W| is the
    closed-form least-squares fit about the centroid: the slope is
    Sxy/Sxx over centred sums.  With sigma^2 the residual sum of squares
    over n - 2 degrees of freedom, the slope's variance is sigma^2/Sxx and
    the intercept's sigma^2 (1/n + mean(x)^2/Sxx).
    """
    lams = [float(lam) for lam in samples.lambdas]
    w = [float(v) for v in samples.values]
    n = len(lams)
    if n < 4:
        raise ValueError(f"power-law fit needs >= 4 samples, got {n}")
    if any(v == 0.0 for v in w):
        raise MixedSignError("samples contain exact zeros; no power law to fit")
    if not (all(v > 0.0 for v in w) or all(v < 0.0 for v in w)):
        raise MixedSignError("samples change sign; log-log fit would be meaningless")
    x = [math.log(lam) for lam in lams]
    y = [math.log(abs(v)) for v in w]
    x_mean = math.fsum(x) / n
    y_mean = math.fsum(y) / n
    dx = [xi - x_mean for xi in x]
    dy = [yi - y_mean for yi in y]
    sxx = math.fsum(a * a for a in dx)
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / sxx
    ln_c = y_mean - slope * x_mean
    resid = [yi - (ln_c + slope * xi) for xi, yi in zip(x, y)]
    rss = math.fsum(r * r for r in resid)
    sigma2 = rss / (n - 2)
    amp = math.copysign(math.exp(ln_c), w[0])
    return PowerLawFit(
        amplitude=amp,
        gamma=-slope,
        residual=math.sqrt(rss / n),
        lambda_range=(lams[0], lams[-1]),
        gamma_err=math.sqrt(sigma2 / sxx),
        amplitude_err=abs(amp) * math.sqrt(sigma2 * (1.0 / n + x_mean * x_mean / sxx)),
        n_samples=n,
    )
