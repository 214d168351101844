"""Adaptive quadrature and power-law fits.

The integrator is a plain one-dimensional Gauss-Kronrod 15(7) panel
scheme with greedy bisection of the worst panel.  A semi-infinite interval
is compactified with the algebraic change of variables x = a + t/(1-t),
applied before any panels are formed, so every evaluation stays at
interior nodes.  Integrands are array functions, called once per round of
bisection with the 15 nodes of every new panel as rows of one array; a
batch of intervals shares the rounds, so one call serves every live
integral.  Evaluation order is deterministic, making repeated runs
bit-identical.

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
# (Gauss nodes sit at the odd Kronrod indices, taken as ``[1::2]``).
_XK = (
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
)
_WK = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
)
_WG = (
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
)


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


def _panels(g, lo, hi, rows):
    """Kronrod values and Kronrod-Gauss error estimates of the panels
    [lo[i], hi[i]], from one integrand call on their nodes, shape (k, 15).

    Each panel's sums are taken row by row as 15- and 7-term dot products:
    one matrix product over all rows rounds differently.
    """
    import numpy as np

    xk, wk, wg = np.array(_XK), np.array(_WK), np.array(_WG)
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    fv = g(c[:, None] + h[:, None] * xk, rows)
    vals, errs = [], []
    for hk, row in zip(h.tolist(), fv):
        ik = hk * float(row @ wk)
        ig = hk * float(row[1::2] @ wg)
        vals.append(ik)
        errs.append(abs(ik - ig))
    return vals, errs


def integrate_batch(g: Callable, lower, upper,
                    budget: QuadratureBudget | None = None) -> list[QuadratureResult]:
    """Adaptively integrate over each finite interval [lower[j], upper[j]].

    ``g(x, rows)`` takes panel nodes of shape (k, 15) and ``rows``, the
    interval index of each node row, so per-interval parameters are gathered
    by row.  Each integral runs greedy bisection of its worst panel until its
    error sum meets tolerance or the next bisection would pass
    ``budget.max_evals``.  A round takes one bisection step of every live
    integral, then evaluates all the new panels in one integrand call.  The
    steps of an integral never depend on the others, so each result is what
    a batch of one returns, bit for bit.
    """
    import numpy as np

    if budget is None:
        budget = QuadratureBudget()
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = lower.size
    if n == 0:
        return []
    results: list[QuadratureResult | None] = [None] * n
    vals, errs = _panels(g, lower, upper, np.arange(n))
    # heap entries (-error, seq, a, b, value): the worst panel pops first,
    # ties in creation order; a finished integral's heap is released
    heaps = [[(-e, 0, a, b, v)]
             for a, b, v, e in zip(lower.tolist(), upper.tolist(), vals, errs)]
    seq = [1] * n
    total_val, total_err = vals, errs
    evals = [15] * n
    live = list(range(n))
    while live:
        lo, hi, owners = [], [], []
        for j in live:
            heap = heaps[j]
            tol = max(budget.abs_tol, budget.rel_tol * abs(total_val[j]))
            converged = total_err[j] <= tol
            if converged or evals[j] + 30 > budget.max_evals:
                results[j] = QuadratureResult(math.fsum(item[4] for item in heap),
                                              math.fsum(-item[0] for item in heap),
                                              evals[j], converged)
                heaps[j] = None
                continue
            nerr, _, pa, pb, pval = heapq.heappop(heap)
            perr = -nerr
            total_val[j] -= pval
            total_err[j] -= perr
            mid = 0.5 * (pa + pb)
            lo += (pa, mid)
            hi += (mid, pb)
            owners += (j, j)
            evals[j] += 30
        if not owners:
            break
        vals, errs = _panels(g, np.array(lo), np.array(hi), np.array(owners))
        for j, a, b, v, e in zip(owners, lo, hi, vals, errs):
            heapq.heappush(heaps[j], (-e, seq[j], a, b, v))
            seq[j] += 1
            total_val[j] += v
            total_err[j] += e
        live = owners[::2]
    return results


def integrate_adaptive(f: Callable, domain, budget: QuadratureBudget | None = None) -> QuadratureResult:
    """Adaptively integrate ``f`` over the interval ``domain = (a, b)``.

    ``a`` must be finite; ``b`` may be ``math.inf``.  ``f`` takes panel
    nodes as a numpy array of shape (k, 15) and returns the values there;
    ``evals`` counts nodes.  Returns value and error estimate; if the
    evaluation cap is hit first, the result is flagged unconverged but still
    carries the best value.  This is ``integrate_batch`` on one interval.
    """
    a, b = float(domain[0]), float(domain[1])
    if math.isinf(a):
        raise ValueError("lower integration limits must be finite")
    if math.isinf(b):
        g = lambda t, rows, a=a: f(a + t / (1.0 - t)) * (1.0 - t) ** -2
        a, b = 0.0, 1.0
    else:
        g = lambda x, rows: f(x)
    return integrate_batch(g, [a], [b], budget)[0]


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
