"""Power-law fits and the limit operators that turn them into anomalies.

The reduced trace difference is fitted as w(Lambda) ~ c Lambda^-gamma by the
closed-form two-parameter least-squares line through the log-log samples,
summed with ``math.fsum``, and the two regularized limits are evaluated
analytically on the fit:

    number anomaly  a_n = -2 lim Lambda^2 dw/dLambda = 2 c gamma lim Lambda^(1-gamma)
    energy anomaly  a_e =  2 lim Lambda^2 (1 + Lambda d/dLambda) w
                        = 2 c (1-gamma) lim Lambda^(2-gamma)

The overall factor 2 is the spin degeneracy, which the trace difference
itself deliberately excludes.  Each limit either converges (exponent < 0),
stays finite (exponent 0), or diverges (exponent > 0 with a nonzero
coefficient); divergent channels report a growth exponent instead of a
value.
"""

from __future__ import annotations

import enum
import math

from ._records import Record
from .errors import MixedSignError, NotPowerLawError
from .perturbation import TraceSamples, check_lambda_grid
from .potentials import CaseLabel, classify
from .units import UnitSystem

#: treat |value| below this (reduced, atomic-like units) as numerically zero
ZERO_TOLERANCE = 1e-6
#: samples with |w| <= max(err, VANISHING_FLOOR) at every Lambda vanish
VANISHING_FLOOR = 1e-15
#: snap window for identifying the fitted exponent with a limit-critical integer
EXPONENT_TOLERANCE = 0.1
#: residual ceiling above which the power-law description is rejected
RESIDUAL_MAX = 0.05


class PowerLawFit(Record):
    """Least-squares fit of ln|W| against ln(Lambda): W ~ c Lambda^-gamma."""

    def __init__(self, amplitude: float, gamma: float, residual: float,
                 lambda_range: tuple[float, float], gamma_err: float, amplitude_err: float,
                 n_samples: int) -> None:
        """Raises ValueError on a negative residual, a lambda_range that does not increase
        or fewer than 4 samples."""
        self._set(amplitude=amplitude, gamma=gamma, residual=residual, lambda_range=lambda_range,
                  gamma_err=gamma_err, amplitude_err=amplitude_err, n_samples=n_samples)
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
    and ``values`` sequences.  The Lambdas go through ``check_lambda_grid``
    first.  There must be at least 4 samples (ValueError), every value must be
    finite (the first that is not raises ValueError, naming its Lambda), the
    Lambdas must not all have one float logarithm, as Lambdas a few ulps apart
    can (ValueError), all values must share one sign (a sign change raises
    MixedSignError, naming the first adjacent pair of samples that straddles
    it) and none may vanish.

    The line y = ln c - gamma x through x = ln Lambda, y = ln|W| is the
    closed-form least-squares fit about the centroid: the slope is
    Sxy/Sxx over centred sums.  With sigma^2 the residual sum of squares
    over n - 2 degrees of freedom, the slope's variance is sigma^2/Sxx and
    the intercept's sigma^2 (1/n + mean(x)^2/Sxx).
    """
    lams = check_lambda_grid(samples.lambdas)
    w = [float(v) for v in samples.values]
    n = len(lams)
    if n < 4:
        raise ValueError(f"power-law fit needs >= 4 samples, got {n}")
    bad = next((i for i in range(n) if not math.isfinite(w[i])), None)
    if bad is not None:
        raise ValueError(f"sample at Lambda = {lams[bad]:g} is not finite: w = {w[bad]}; "
                         f"no power law to fit")
    x = [math.log(lam) for lam in lams]
    if x[0] == x[-1]:   # the Lambdas increase, and so do their logarithms
        raise ValueError(f"all {n} samples sit at Lambda = {lams[0]:g}; no power law to fit")
    if any(v == 0.0 for v in w):
        raise MixedSignError("samples contain exact zeros; no power law to fit")
    same_sign = lambda a, b: (a > 0.0 and b > 0.0) or (a < 0.0 and b < 0.0)
    flip = next((i for i in range(n - 1) if not same_sign(w[i], w[i + 1])), None)
    if flip is not None:
        raise MixedSignError(
            f"samples change sign between Lambda = {lams[flip]:.5g} (w = {w[flip]:+.2e}) and "
            f"{lams[flip + 1]:.5g} (w = {w[flip + 1]:+.2e}); log-log fit would be meaningless")
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


class Status(enum.Enum):
    FINITE = "finite"
    ZERO = "zero"
    DIVERGENT = "divergent"


class AnomalyResult(Record):
    """Reduced anomalies with finite/zero/divergent classification.

    ``a_n`` is dimensionless, ``a_e`` carries energy units; both are the
    anomaly divided by (2 pi hbar)^3.  A divergent channel reports no
    finite value: the field is None and the growth exponent and amplitude
    describe the leading Lambda power instead.
    """

    def __init__(self, a_n: float | None, a_e: float | None, status_n: Status, status_e: Status,
                 a_n_err: float, a_e_err: float, case_label: CaseLabel, fit: PowerLawFit | None,
                 growth_exponent_n: float | None = None, growth_exponent_e: float | None = None,
                 growth_amplitude_n: float | None = None,
                 growth_amplitude_e: float | None = None) -> None:
        """Raises ValueError if a divergent channel reports a value or a zero-status
        channel's value exceeds its uncertainty."""
        self._set(a_n=a_n, a_e=a_e, status_n=status_n, status_e=status_e, a_n_err=a_n_err,
                  a_e_err=a_e_err, case_label=case_label, fit=fit,
                  growth_exponent_n=growth_exponent_n, growth_exponent_e=growth_exponent_e,
                  growth_amplitude_n=growth_amplitude_n, growth_amplitude_e=growth_amplitude_e)
        for name, value, err, status in (("number", self.a_n, self.a_n_err, self.status_n),
                                         ("energy", self.a_e, self.a_e_err, self.status_e)):
            if status is Status.DIVERGENT and value is not None:
                raise ValueError(f"divergent {name} channel must not report a value")
            if status is Status.ZERO and _status_for(value, err) is not Status.ZERO:
                raise ValueError(f"zero-status {name} value exceeds its uncertainty")


def _status_for(value: float, err: float) -> Status:
    if abs(value) < max(err, ZERO_TOLERANCE):
        return Status.ZERO
    return Status.FINITE


def _channel(gamma: float, power: float, snapped: float, err: float, amplitude: float,
             vanishes: bool = False) -> tuple:
    """One limit lim amplitude Lambda^(power - gamma) on the fit.

    Returns (value, err, status, growth exponent, growth amplitude).  A gamma
    within EXPONENT_TOLERANCE of ``power`` snaps to it and the limit is
    ``snapped`` +- ``err``; a faster decay, or an amplitude that ``vanishes``
    identically on the snapped fit, gives zero; otherwise the channel grows
    like Lambda^(power - gamma).
    """
    if abs(gamma - power) <= EXPONENT_TOLERANCE:
        return snapped, err, _status_for(snapped, err), None, None
    if gamma > power or vanishes:
        return 0.0, 0.0, Status.ZERO, None, None
    return None, 0.0, Status.DIVERGENT, power - gamma, amplitude


def extract_anomalies(samples: TraceSamples) -> AnomalyResult:
    """Anomalies of trace samples: the zero test, the fit and both limits.

    Samples that vanish within their errors (|w| <= max(err,
    VANISHING_FLOOR) at every Lambda) give both channels zero and no fit.
    Otherwise ``fit_power_law(samples)`` must describe them (residual at
    most RESIDUAL_MAX; NotPowerLawError if not, MixedSignError for partly
    zero or sign-changing samples), and the limit operators act on it: the
    number channel is 2 c gamma Lambda^(1-gamma) and the energy channel
    2 c (1-gamma) Lambda^(2-gamma), each snapped to its critical exponent
    within EXPONENT_TOLERANCE.  The case label comes from ``samples.spec``.
    """
    case_label = classify(samples.spec).case_label
    if all(abs(w) <= max(e, VANISHING_FLOOR) for w, e in zip(samples.values, samples.errors)):
        return AnomalyResult(0.0, 0.0, Status.ZERO, Status.ZERO, 0.0, 0.0, case_label, None)
    fit = fit_power_law(samples)
    if fit.residual > RESIDUAL_MAX:
        raise NotPowerLawError(
            f"fit residual {fit.residual:.3g} exceeds {RESIDUAL_MAX:.3g}; "
            "samples are not a single power law"
        )
    c = fit.amplitude
    gamma = fit.gamma
    log_mid = abs(math.log(math.sqrt(fit.lambda_range[0] * fit.lambda_range[1])))
    err = 2.0 * math.hypot(fit.amplitude_err, abs(c) * fit.gamma_err * log_mid)
    a_n, a_n_err, status_n, growth_n, amp_n = _channel(
        gamma, 1.0, 2.0 * c, err, 2.0 * c * gamma)
    # on a fit snapped to gamma = 1 the energy channel's (1-gamma) vanishes
    a_e, a_e_err, status_e, growth_e, amp_e = _channel(
        gamma, 2.0, -2.0 * c, err, 2.0 * c * (1.0 - gamma),
        vanishes=abs(gamma - 1.0) <= EXPONENT_TOLERANCE)
    return AnomalyResult(
        a_n=a_n, a_e=a_e, status_n=status_n, status_e=status_e,
        a_n_err=a_n_err, a_e_err=a_e_err,
        case_label=case_label, fit=fit,
        growth_exponent_n=growth_n, growth_exponent_e=growth_e,
        growth_amplitude_n=amp_n, growth_amplitude_e=amp_e,
    )


def delta_an_case_a_closed_form(alpha: float, units: UnitSystem) -> float:
    """Published closed-form reduced number anomaly for the x^-2 case:
    -sqrt(2 m alpha) / (36 hbar).

    This is the paper's coefficient, kept as a reference point.  It is not
    the value of the quantity a_n = -2 lim Lambda^2 dw/dLambda that this
    package defines: that value is ``delta_an_case_a_exact``, about three
    times larger (ratio 2.997 at 2 m alpha/hbar^2 = 100).
    """
    if alpha < 0.0:
        raise ValueError("alpha must be nonnegative")
    return -math.sqrt(2.0 * units.m * alpha) / (36.0 * units.hbar)


def delta_an_case_a_exact(alpha: float, units: UnitSystem) -> float:
    """Exact reduced number anomaly for U = alpha/r^2, to round-off.

    With beta = sqrt(2 m alpha)/hbar, channel l has effective Bessel order
    nu = sqrt(mu^2 + beta^2), mu = l + 1/2.  Two identities hold in every
    channel at infinite volume:

    * quantum: Lambda Tr[(Lambda+H_nu)^-1 - (Lambda+H_mu)^-1] = -(nu-mu)/2,
      from I_{nu+1}(x)/I_nu(x) = 1 - (2 nu + 1)/(2x) + O(x^-2) in the
      Bessel-ratio channel sum (``spectral_oracle.bessel_channel_sums``);
    * classical: the radial phase-space difference with the centrifugal
      term hbar^2 (l+1/2)^2/(2 m r^2) is -(nu-mu)/2 as well.

    So each channel's quantum and classical parts agree, and the whole
    anomaly is the degeneracy-weighted sum over half-integer mu minus the
    phase-space integral over continuous mu.  With
    g(lam) = -lam (sqrt(lam^2 + beta^2) - lam) and spin degeneracy 2,

        a_n = 2 [sum_{l>=0} g(l+1/2) - int_0^inf g(lam) dlam]
            = -beta/12 + 7/(960 beta) + O(beta^-3),

    the asymptotic series being the midpoint Euler-Maclaurin expansion at
    lam = 0.  Its leading term agrees with the Wigner-Kirkwood hbar^2
    correction of the phase-space trace.

    Evaluation: with s = sqrt(lam^2 + beta^2), g = -beta^2/2 + k where
    k = beta^4 / (2 (s+lam)^2), whose antiderivative vanishing at infinity
    is H = -beta^4 (lam + 2 s) / (6 (s+lam)^2); the constant cancels
    exactly between a unit cell's midpoint value and its integral.  Both
    forms are free of cancellation.  The cells k(n+1/2) - [H(n+1) - H(n)]
    are summed for n < N, N = 32 + 2 ceil(beta), and the midpoint
    Euler-Maclaurin tail g'(N)/24 - 7 g'''(N)/5760 + 31 g^(5)(N)/967680 is
    added, with g' = -beta^4 / (s (s+lam)^2), g''' = -3 beta^4 / s^5 and
    g^(5) = 15 beta^4 (beta^2 - 6 lam^2) / s^9.
    """
    if alpha < 0.0:
        raise ValueError("alpha must be nonnegative")
    beta = math.sqrt(2.0 * units.m * alpha) / units.hbar
    if beta == 0.0:
        return 0.0
    b2 = beta * beta
    b4 = b2 * b2

    def k(lam):
        t = math.sqrt(lam * lam + b2) + lam
        return b4 / (2.0 * (t * t))

    def h(lam):
        s = math.sqrt(lam * lam + b2)
        t = s + lam
        return -b4 * (lam + 2.0 * s) / (6.0 * (t * t))

    n_cells = 32 + 2 * math.ceil(beta)
    cells = [k(n + 0.5) - (h(n + 1.0) - h(n)) for n in map(float, range(n_cells))]
    lam = float(n_cells)
    s = math.sqrt(lam * lam + b2)
    g1 = -b4 / (s * (s + lam) ** 2)
    g3 = -3.0 * b4 / s**5
    g5 = 15.0 * b4 * (b2 - 6.0 * lam * lam) / s**9
    tail = g1 / 24.0 - 7.0 * g3 / 5760.0 + 31.0 * g5 / 967680.0
    return 2.0 * (math.fsum(cells) + tail)


def delta_ae_case_b_closed_form(Z: float, units: UnitSystem) -> float:
    """Closed-form reduced energy anomaly for the Coulomb-singular case:
    Z^2 e^2 / (4 a0)."""
    if Z < 0.0:
        raise ValueError("Z must be nonnegative")
    return Z * Z * units.e2 / (4.0 * units.a0)

