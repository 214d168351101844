"""Nonperturbative trace difference from radial spectra in a spherical box.

The reduced trace difference

    w(Lambda) = sum_n (Lambda + E_n)^-1 - (2 pi hbar)^-3 int d3x d3p (Lambda + H_cl)^-1

is evaluated channel by channel with Dirichlet walls at r = R.  Two box
artifacts must be cancelled before the infinite-volume physics emerges:

* the wall term: each channel's quantum-minus-classical difference tends
  to a nonzero constant at large R, and the channel sum of these constants
  diverges.  It is independent of the potential, so subtracting the same-box
  free spectra removes it exactly.
* the first-order term: in infinite space the coupling-linear part of the
  trace difference vanishes identically (the one-potential trace is the
  same quantum and classically), but the box keeps a finite linear
  artifact from levels near the wall.  The oracle measures the linear
  response of its own assembly and subtracts it.

For the inverse-square family the box spectra are exact Bessel zeros and
the channel resolvent sums collapse to modified-Bessel-function ratios,
so the whole evaluation is closed-form up to the ratio itself.  Screened
families use O(N) pivot-recursion resolvent traces of the symmetric
tridiagonal radial grid operator: Tr (Lambda + H)^-1 per channel, without
eigenvalues.

Only this module needs scipy, and importing scipy.special alone takes
several times a whole perturbative CLI run, so scipy is imported on first
use, not with the package.  ``ive`` and ``eigvalsh_tridiagonal`` stay
module-level functions so that callers can still replace them by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TailDivergentError, UnconvergedError, UnsupportedPotentialError
from .perturbation import Source, TraceSamples
from .potentials import Family, PotentialSpec, evaluate
from .quadrature import QuadratureBudget, integrate_adaptive
from .units import UnitSystem


@dataclass(frozen=True)
class OracleConfig:
    box_radius: float = 40.0
    ell_max: int = 60
    grid_points: int = 2400
    richardson_levels: tuple = (20.0, 40.0)

    def __post_init__(self):
        if not (self.box_radius > 0.0):
            raise ValueError("box_radius must be positive")
        if self.ell_max < 10:
            raise ValueError("ell_max must be at least 10")
        if self.grid_points < 200:
            raise ValueError("grid_points must be at least 200")
        radii = self.richardson_levels
        if len(radii) < 2 or any(radii[i] >= radii[i + 1] for i in range(len(radii) - 1)):
            raise ValueError("richardson_levels needs >= 2 strictly increasing radii")


def ive(v, z):
    """scipy.special.ive, imported on the first call."""
    from scipy.special import ive as scipy_ive
    return scipy_ive(v, z)


def eigvalsh_tridiagonal(d, e, **kwargs):
    """scipy.linalg.eigvalsh_tridiagonal, imported on the first call."""
    from scipy.linalg import eigvalsh_tridiagonal as scipy_eigvalsh_tridiagonal
    return scipy_eigvalsh_tridiagonal(d, e, **kwargs)


def _grid_channel_levels(vfun, ell: int, box_radius: float, n_points: int,
                         units: UnitSystem) -> np.ndarray:
    """All eigenvalues of the Dirichlet tridiagonal radial discretization.

    The reference that the trace recursion of ``_grid_traces`` is tested
    against; the oracle itself never needs the eigenvalues.
    """
    hbar, m = units.hbar, units.m
    h = box_radius / n_points
    r = h * np.arange(1, n_points)
    kin = hbar * hbar / (m * h * h)
    diag = kin + hbar * hbar * ell * (ell + 1) / (2.0 * m * r * r) + vfun(r)
    off = np.full(n_points - 2, -0.5 * kin)
    return eigvalsh_tridiagonal(diag, off, lapack_driver="sterf")


# ---------------------------------------------------------------------------
# Inverse-square fast path: exact Bessel-ratio channel sums
# ---------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)


def _bessel_ratio_cf(nu: np.ndarray, x: float) -> np.ndarray:
    """I_{nu+1}(x) / I_nu(x) for a 1-D array of orders, by continued fraction.

    The ratio is 1/(b_1 + 1/(b_2 + ...)) with b_j = 2 (nu + j) / x
    (DLMF 10.33.1), summed by the modified Lentz algorithm (Thompson &
    Barnett 1986).  Every b_j is positive, so no Lentz denominator vanishes
    and successive approximants bracket the value: an order is done once its
    Lentz factor is 1 to rounding.  The j-th term shrinks the remaining
    error by about exp(-2 asinh(b_j / 2)).  That takes at most 40 terms for
    nu >= x/2 whatever x is, and, measured for x up to 1e6, at most
    6.2 sqrt(x) + 12 at nu = 0; past 8 sqrt(x) + 32 terms the fraction is
    reported as unconverged.

    Each order's value is taken at the term where its Lentz factor first
    reaches 1, so it never depends on the other orders of the call.  Retired
    lanes keep iterating, harmlessly, until at least half of the working
    lanes are retired; only then do the live lanes move to the front of the
    working arrays, in place.  So the copies happen O(log n) times, not on
    every term, and the working set never grows past its first size.
    """
    max_terms = 32 + int(8.0 * math.sqrt(x))
    step = 2.0 / x
    out = np.empty_like(nu)
    idx = np.arange(nu.size)      # output slot of each working lane
    live = np.ones(nu.size, dtype=bool)
    n_live = nu.size
    b0 = nu * step                # b_j = b0 + j step on the working lanes
    g = b0 + step                 # b_1 + 1/(b_2 + ...), refined term by term
    c = g.copy()
    d = np.zeros_like(g)
    b = np.empty_like(g)          # b_j, then the Lentz factor
    j = 1
    while n_live:
        j += 1
        if j > max_terms:
            raise UnconvergedError(
                f"Bessel-ratio continued fraction at x = {x:g}: {n_live} "
                f"orders unconverged after {max_terms} terms"
            )
        np.add(b0, j * step, out=b)
        d += b
        np.reciprocal(d, out=d)
        np.reciprocal(c, out=c)
        c += b
        delta = np.multiply(c, d, out=b)
        g *= delta
        delta -= 1.0
        done = np.abs(delta, out=delta) <= _EPS
        done &= live
        n_done = np.count_nonzero(done)
        if n_done:
            out[idx[done]] = 1.0 / g[done]
            live ^= done
            n_live -= n_done
            if 2 * n_live <= idx.size:
                # move the live lanes to the front of each array, in place
                work = (idx, b0, g, c, d)
                for a in work:
                    a[:n_live] = a[live]
                idx, b0, g, c, d, b = (a[:n_live] for a in work + (b,))
                live = np.ones(n_live, dtype=bool)
    return out


def bessel_channel_sums(nu: np.ndarray, x: float) -> np.ndarray:
    """Lambda sum_n (Lambda + E_n)^-1 over the Dirichlet box levels of each order.

    The levels are E_n = hbar^2 z_{nu,n}^2 / (2 m R^2) with z_{nu,n} the
    zeros of J_nu, and x = sqrt(2 m Lambda) R / hbar.  The pole expansion
    of J_{nu+1}/J_nu gives sum_n (z_{nu,n}^2 + x^2)^-1 = I_{nu+1}(x) / (2 x
    I_nu(x)), so the result is x I_{nu+1}(x) / (2 I_nu(x)).

    The ratio takes one of two routes.  Orders nu >= x/2 never reach the
    scaled Bessel function ``ive``: the continued fraction of
    ``_bessel_ratio_cf`` converges there in a few dozen terms whatever x is,
    to a few ulps, where ive loses digits on its way to underflow.  Lower
    orders take ive(nu + 1, x) / ive(nu, x), except where ive(nu, x)
    underflows (orders above about sqrt(1290 x), so only for x above about
    5000); those take the continued fraction too.

    Every order is worked out on its own, so one call on many orders returns
    what one call per order would, bit for bit; callers batch all the orders
    of a box into one call.  The low orders make one ive call over the
    distinct values among them and their "+1" orders: on a unit ladder
    (nu, nu + 1, ...) ive(nu + 1, x) is the numerator for nu and the
    denominator for nu + 1, and a repeated order is evaluated once.
    Orders are matched by exact value, so any coincidence is safe.
    """
    nu = np.asarray(nu, dtype=float)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"x must be finite and positive, got {x!r}")
    if not np.all(np.isfinite(nu) & (nu >= 0.0)):
        raise ValueError("Bessel orders must be finite and nonnegative")
    ratio = np.empty_like(nu)
    cf = np.array(nu >= 0.5 * x)   # an array also for a 0-d nu
    low = ~cf
    low_nu = nu[low]
    # One ive value per distinct order: on a unit ladder the numerator
    # ive(nu + 1) of one order is the denominator of the next.
    orders, where = np.unique(np.concatenate([low_nu, low_nu + 1.0]),
                              return_inverse=True)
    scaled = ive(orders, x)[where]
    den, num = scaled[:low_nu.size], scaled[low_nu.size:]
    ok = np.isfinite(den) & (den > 1e-280)
    cf[low] = ~ok
    ratio[~cf] = num[ok] / den[ok]
    ratio[cf] = _bessel_ratio_cf(nu[cf], x)
    return 0.5 * x * ratio


def _case_a_w_at_radius(beta2: float, lam: float, r_box: float,
                        units: UnitSystem) -> tuple[float, float]:
    """Counterterm-subtracted w(Lambda) for U = alpha/r^2 at one box radius.

    Returns (value, residual-tail estimate).  Quantum channel sums use the
    exact Bessel-ratio form with effective orders sqrt((l+1/2)^2 + beta2);
    the classical phase-space difference is closed-form; the coupling-linear
    box artifact is removed through the measured linear response at zero
    coupling, a central difference in the order with step h.

    All four order sets -- nu_q, the free orders nu_l and nu_l +- h -- go
    through one ``bessel_channel_sums`` call; the nu_l sets are unit ladders
    that share their ive values.  The call covers one (Lambda, R); one call
    per Lambda grid and both radii, with an x per order, measured slower and
    larger.
    """
    hbar, m = units.hbar, units.m
    x = math.sqrt(2.0 * m * lam) * r_box / hbar
    n_ch = int(math.ceil(6.0 * x)) + 200
    nu_l = np.arange(n_ch, dtype=float) + 0.5
    nu_q = np.sqrt(nu_l * nu_l + beta2)
    h = 0.25
    # one Bessel-ratio pass per box: quantum, free and the free orders +-h
    s_q, s_l, s_p, s_m = np.split(
        bessel_channel_sums(np.concatenate([nu_q, nu_l, nu_l + h, nu_l - h]), x), 4)
    deg = 2.0 * nu_l
    quantum = float(np.sum(deg * (s_q - s_l)))

    beta = math.sqrt(beta2)
    j = float(n_ch)

    def classical_free_subtracted(j_top):
        return ((x * x + j_top * j_top + beta2) ** 1.5
                - (x * x + beta2) ** 1.5
                - (x * x + j_top * j_top) ** 1.5 + x**3
                - (j_top * j_top + beta2) ** 1.5 + beta**3 + j_top**3) / 3.0

    classical = classical_free_subtracted(j)

    qp = (s_p - s_m) / (2.0 * h)
    c_of = lambda nu: 0.5 * (math.sqrt(x * x + nu * nu) - nu)
    linear_response = float(np.sum(qp)) - (c_of(j) - c_of(0.0))

    w = (quantum - classical - beta2 * linear_response) / lam
    tail_resid = x * x * beta2 * beta2 / (8.0 * (j * j + x * x) ** 2) / lam
    return w, tail_resid


# ---------------------------------------------------------------------------
# Grid path for screened families
# ---------------------------------------------------------------------------

def _turning_point(spec: PotentialSpec, units: UnitSystem, factor: float,
                   lam: float) -> float | None:
    """The radius r0 with lam + f U(r0) = 0, or None where lam + f U > 0 everywhere.

    With g = -f sign Z e^2, the region lam + f U < 0 is the core r < r0 and
    needs g > 0.  Yukawa: g exp(-kappa r0) / r0 = lam, so kappa r0 is the
    principal Lambert W of g kappa / lam.  Cutoff Coulomb: U is flat inside
    r_cut, so a core exists only if g / r_cut > lam, and then r0 = g / lam.
    """
    g = -factor * spec.sign * spec.Z * units.e2
    if not g > 0.0:
        return None
    if spec.family is Family.YUKAWA:
        from scipy.special import lambertw
        return float(lambertw(g * spec.kappa / lam).real) / spec.kappa
    if spec.family is Family.CUTOFF_COULOMB:
        return g / lam if g / spec.r_cut > lam else None
    raise AssertionError(f"no screened turning point for {spec.family.value}")


def _classical_difference(spec: PotentialSpec, units: UnitSystem, factor: float,
                          lam: float, r_box: float) -> float:
    """(2 pi hbar)^-3 int d3x d3p [(lam+p^2/2m+f U)^-1 - (lam+p^2/2m)^-1].

    The radial momentum integral is closed-form; the principal value over
    the region where lam + f U < 0 contributes zero, leaving
    (2 m sqrt(2m)/hbar^3) int r^2 [sqrt(lam) - sqrt(max(lam + f U, 0))] dr.
    """
    hbar, m = units.hbar, units.m
    sqrt_lam = math.sqrt(lam)

    def integrand(r):
        # sqrt(lam) - sqrt(lam + u) without the cancellation at |u| << lam
        u = factor * evaluate(spec, units, r)
        inside = lam + u
        root = np.sqrt(np.maximum(inside, 0.0))
        return np.where(inside <= 0.0, r * r * sqrt_lam,
                        -r * r * u / (sqrt_lam + root))

    knots = [0.0]
    r0 = _turning_point(spec, units, factor, lam)
    if r0 is not None:
        if r0 > r_box:
            raise ValueError(
                f"the classically forbidden core reaches the box wall: at Lambda = "
                f"{lam:g} the turning point r0 = {r0:g} lies beyond the box radius "
                f"R = {r_box:g}; raise Lambda or enlarge the box"
            )
        knots += [r0, min(10.0 * r0, r_box)]
    if spec.family is Family.CUTOFF_COULOMB and spec.r_cut < r_box:
        knots.append(spec.r_cut)
    knots = sorted(set(knots + [r_box]))
    budget = QuadratureBudget(abs_tol=1e-15, rel_tol=1e-11, max_evals=300_000)
    total = 0.0
    for a, b in zip(knots[:-1], knots[1:]):
        if b > a:
            res = integrate_adaptive(integrand, (a, b), budget)
            total += res.require_converged("classical phase-space difference").value
    return 2.0 * m * math.sqrt(2.0 * m) / hbar**3 * total


_COUPLING_FACTORS = (1.0, -1.0, 0.5, -0.5, 0.0)


def _grid_traces(spec, units, lams, r_box, n_points, ell_max):
    """Tr (lam + H)^-1 of every channel on one grid, without eigenvalues.

    Returns an array of shape (len(_COUPLING_FACTORS), ell_max + 1, len(lams)),
    H being the Dirichlet tridiagonal radial operator of ``_grid_channel_levels``
    with the potential scaled by the coupling factor.  For the symmetric
    tridiagonal lam + H = L D L^T with diagonal a_i and off-diagonal b, the
    pivots are d_i = a_i - b^2/d_{i-1}, and Tr (lam + H)^-1 = d/dlam log det
    = sum_i d'_i/d_i with d'_i = 1 + b^2 d'_{i-1}/d_{i-1}^2 >= 1.  One pass
    over the radial index serves all (factor, ell, lam) lanes; each row's
    diagonal is built inside the loop, so memory stays O(lanes), not O(N lanes).
    """
    hbar, m = units.hbar, units.m
    h = r_box / n_points
    r = h * np.arange(1, n_points)
    kin = hbar * hbar / (m * h * h)
    b2 = 0.25 * kin * kin
    pot = evaluate(spec, units, r)
    inv_r2 = 1.0 / (r * r)
    # lanes broadcast as (factor, ell, lam)
    factor = np.array(_COUPLING_FACTORS)[:, None, None]
    ell = np.arange(ell_max + 1, dtype=float)[:, None]
    cent = hbar * hbar * ell * (ell + 1.0) / (2.0 * m)
    shift = kin + np.asarray(lams, dtype=float)
    d = shift + cent * inv_r2[0] + factor * pot[0]
    dp = np.ones_like(d)
    trace = 1.0 / d
    # The oracle uses small differences of these traces, which a plain
    # running sum over N rows buries in rounding; compensated (Kahan)
    # summation keeps each trace to a few ulps.
    carry = np.zeros_like(d)
    for i in range(1, n_points - 1):
        g = b2 / d
        dp = 1.0 + g * dp / d
        d = shift + cent * inv_r2[i] + factor * pot[i] - g
        term = dp / d - carry
        total = trace + term
        carry = (total - trace) - term
        trace = total
    return trace


def _fit_channel_tail(terms: np.ndarray, ell_max: int, floor: float) -> tuple[float, float]:
    """Extrapolate the channel series past ell_max with a fitted power law.

    Returns (tail, tail_error).  Raises TailDivergentError when the terms
    do not decay.
    """
    nu = np.arange(ell_max + 1, dtype=float) + 0.5
    n_fit = max(6, (ell_max + 1) // 5)
    t = terms[-n_fit:]
    v = nu[-n_fit:]
    if np.all(np.abs(t) < floor):
        return 0.0, floor
    sign = np.sign(t[np.argmax(np.abs(t))])
    if np.any(t * sign <= 0.0):
        # alternating or noisy tail: bound it by the last magnitudes
        bound = float(np.max(np.abs(t))) * 2.0
        return 0.0, bound
    y = np.log(np.abs(t))
    xd = np.log(v)
    a = np.column_stack([np.ones_like(xd), xd])
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    q = -float(coef[1])
    amp = sign * math.exp(float(coef[0]))
    if q <= 1.0:
        if np.abs(t[-1]) < 1e3 * floor:
            return 0.0, float(np.abs(t[-1])) * (ell_max + 1)
        raise TailDivergentError(
            f"channel terms decay like nu^-{q:.2f}; the tail sum does not converge"
        )
    # sum over nu = ell_max + 3/2, ell_max + 5/2, ...: a Hurwitz zeta
    from scipy.special import zeta
    tail = amp * float(zeta(q, ell_max + 1.5))
    return tail, abs(tail) * 0.3


def _grid_w_once(spec, units, lams, r_box, n_points, ell_max, tail_floor,
                 classical):
    """Coupling-even w(lam) for each lam from one grid's channel traces.

    The even projection [W(+U) + W(-U)]/2 cancels the coupling-linear wall
    and grid artifacts to all odd orders; the discarded genuine odd content
    (third order and beyond, the linear term being identically zero in
    infinite space) is estimated from half-coupling runs and returned as an
    error component.  ``classical`` maps coupling factor -> per-lam values
    of the phase-space difference (grid independent, so computed once).
    """
    traces = _grid_traces(spec, units, lams, r_box, n_points, ell_max)
    free = traces[_COUPLING_FACTORS.index(0.0)]
    deg = 2.0 * np.arange(ell_max + 1)[:, None] + 1.0
    # channel terms (2 ell + 1) [Tr_f - Tr_0], shape (factor, ell, lam)
    channel_terms = deg * (traces - free)
    values, tail_errs, odd_resids = [], [], []
    for i in range(len(lams)):
        t_p1, t_m1, t_ph, t_mh, _ = channel_terms[:, :, i]   # _COUPLING_FACTORS order
        c_p1, c_m1 = classical[1.0][i], classical[-1.0][i]
        c_ph, c_mh = classical[0.5][i], classical[-0.5][i]
        terms = 0.5 * (t_p1 + t_m1)
        tail, tail_err = _fit_channel_tail(terms, ell_max, tail_floor)
        values.append(float(np.sum(terms)) + tail - 0.5 * (c_p1 + c_m1))
        tail_errs.append(tail_err)
        # cubic-and-beyond odd content: [W(1)-W(-1)]/2 - [W(1/2)-W(-1/2)]
        w_odd_full = 0.5 * (float(np.sum(t_p1 - t_m1)) - (c_p1 - c_m1))
        w_odd_half = float(np.sum(t_ph - t_mh)) - (c_ph - c_mh)
        odd_resids.append(abs(w_odd_full - w_odd_half) * 4.0 / 3.0)
    return np.array(values), np.array(tail_errs), np.array(odd_resids)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def _richardson_r2(radii, values):
    """Extrapolate w(R) = w_inf + a/R^2 over increasing radii.

    Returns (w_inf, error estimate from the extrapolation spread).
    """
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    pair = []
    for i in range(len(radii) - 1):
        r1, r2 = radii[i], radii[i + 1]
        w1, w2 = values[i], values[i + 1]
        pair.append((r2 * r2 * w2 - r1 * r1 * w1) / (r2 * r2 - r1 * r1))
    if len(pair) == 1:
        err = abs(pair[0] - values[-1]) / 3.0
        return pair[0], err
    return pair[-1], abs(pair[-1] - pair[-2])


def oracle_trace(spec: PotentialSpec, units: UnitSystem, lambda_grid,
                 config: OracleConfig | None = None) -> TraceSamples:
    """Nonperturbative reduced trace difference over a Lambda grid.

    Builds the box channel traces once per grid for the whole Lambda grid.
    The returned samples carry combined extrapolation, tail and
    discretization error estimates.
    """
    if config is None:
        config = OracleConfig()
    lams = [float(l) for l in lambda_grid]
    if not lams:
        raise ValueError("lambda_grid must not be empty")
    if any(l <= 0.0 for l in lams):
        raise ValueError("Lambda values must be positive")

    fam = spec.family
    if fam is Family.COULOMB:
        raise UnsupportedPotentialError(
            "bare Coulomb tail is not representable in a finite box oracle"
        )

    if fam is Family.INVERSE_SQUARE:
        beta2 = 2.0 * units.m * spec.alpha / units.hbar**2
        vals, errs = [], []
        for lam in lams:
            per_radius = [_case_a_w_at_radius(beta2, lam, r, units)
                          for r in config.richardson_levels]
            wr = [v for v, _ in per_radius]
            resid = max(t for _, t in per_radius)
            w_inf, err = _richardson_r2(config.richardson_levels, wr)
            vals.append(float(w_inf))
            errs.append(float(err + resid))
        return TraceSamples(tuple(lams), tuple(vals), tuple(errs),
                            Source.ORACLE, spec, units)

    # screened families: grid channel traces, coarse/fine step Richardson,
    # radius spread as the box error component
    r_ref = config.richardson_levels[0]
    tail_floor = 1e-16
    vals_by_radius = []
    errs_by_radius = []
    for r_box in config.richardson_levels:
        n_fine = int(round(config.grid_points * r_box / r_ref))
        n_coarse = max(n_fine // 2, 200)
        classical = {
            f: np.array([_classical_difference(spec, units, f, lam, r_box)
                         for lam in lams])
            for f in _COUPLING_FACTORS if f != 0.0
        }
        w_fine, tail_err, odd_resid = _grid_w_once(spec, units, lams, r_box, n_fine,
                                                   config.ell_max, tail_floor, classical)
        w_coarse, _, _ = _grid_w_once(spec, units, lams, r_box, n_coarse,
                                      config.ell_max, tail_floor, classical)
        w_h = (4.0 * w_fine - w_coarse) / 3.0
        h_err = np.abs(w_fine - w_coarse) / 3.0
        vals_by_radius.append(w_h)
        errs_by_radius.append(tail_err + h_err + odd_resid)
    vals_by_radius = np.array(vals_by_radius)
    # screened potentials die long before the wall: take the largest box,
    # use the spread across radii as the box error
    w_best = vals_by_radius[-1]
    box_err = np.max(np.abs(np.diff(vals_by_radius, axis=0)), axis=0) if len(
        vals_by_radius) > 1 else np.zeros_like(w_best)
    err = errs_by_radius[-1] + box_err
    return TraceSamples(tuple(lams), tuple(float(v) for v in w_best),
                        tuple(float(e) for e in err), Source.ORACLE, spec, units)

