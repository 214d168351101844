"""Numerical references that the closed forms of ``anomaly_forge`` are tested against.

The library computes both perturbative orders as formulas (see the
``perturbation`` module docstring).  The functions here are the slower
routes those formulas replace, kept so that tests can check each closed
form against an independent evaluation:

* ``feynman_combine``: the Feynman-parameter integral behind 1/(a b);
* ``angle_averaged_resolvent``, ``resolvent_bracket``, ``small_k_curvature``:
  the angle-averaged free resolvent, its small-k bracket and the bracket's
  k^2 coefficient, the integrands of the first and second orders;
* ``second_order_kernel``: the bracket's p-integral K(t), summed by residues;
* ``w2_k_quadrature``: w2 as the 1D adaptive k-quadrature over K(t), for
  any family with a pointwise transform.

``grid_channel_levels`` is the reference of the screened oracle's grid
traces: the eigenvalues of the radial grid operator whose resolvent traces
``spectral_oracle._grid_traces`` takes without eigensolves.
``grid_trace_differences`` runs the pivot recursion from one wall, row by
row, in ``np.longdouble``: a reference for the sweep's rounding.
``grid_trace_differences_two_wall`` runs the sweep's own two-wall recursion
row by row in ``np.float64`` (``pivot_pass`` from each wall, then
``twist_term``): a reference for its bits.  ``two_wall_trace`` is the same
split on any small symmetric tridiagonal, checked against a dense inverse.

``yukawa_classical_cut_mpmath`` is the double integral over channels and
radius behind the screened oracle's cut classical term
(``spectral_oracle._classical_difference``), which swaps the two
integrals and takes the channel one in closed form.

``yukawa_classical_adaptive`` is the same radial integral as the adaptive
quadrature that ``_classical_difference`` ran before its fixed Gauss rules:
knots 0, r0, min(10 r0, R), R (0, R without a turning point), each segment
by ``integrate_adaptive`` under the budget it had.

``bessel_ratio_nu_derivative`` gives I_{nu+1}(x)/I_nu(x) and its derivative
in the order nu, the reference of the case-A oracle's telescoped linear
response (``spectral_oracle._case_a_linear_response``).

``bessel_ratio_cf_one_box``, ``case_a_w_at_radius`` and
``case_a_trace_one_box_at_a_time`` are the case-A oracle as it ran before it
put the low orders of every box of a Lambda grid through one continued
fraction call: every step of the fraction on one box's orders, with that
box's x, one box at a time.  The oracle's call over many boxes, each order
with its own box's x, must reproduce them bit for bit.

``fit_power_law_lstsq`` and ``delta_an_case_a_exact_numpy`` are the numpy
forms that ``quadrature.fit_power_law`` (a closed-form fit in ``math``)
and ``anomaly.delta_an_case_a_exact`` (scalar cells) replace.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from anomaly_forge import spectral_oracle
from anomaly_forge.errors import UnconvergedError
from anomaly_forge.potentials import PotentialSpec, evaluate, fourier_transform_at
from anomaly_forge.anomaly import PowerLawFit
from anomaly_forge.quadrature import QuadratureBudget, integrate_adaptive
from anomaly_forge.units import UnitSystem


def feynman_combine(a: float, b: float, budget: QuadratureBudget | None = None) -> float:
    """Evaluate int_0^1 dx [a x + b (1-x)]^-2 numerically; equals 1/(a b)."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"feynman_combine requires positive arguments, got ({a}, {b})")
    res = integrate_adaptive(lambda x: (a * x + b * (1.0 - x)) ** -2, (0.0, 1.0), budget)
    res.require_converged("feynman_combine")
    return res.value


# x = 2pk / (2m Lambda + p^2 + k^2) below which artanh(x)/x - 1 is summed
# from its series.  The 19 terms kept are exact to rounding up to here (the
# first omitted term is below 2^-53 of the sum); the log form, whose
# relative error grows like 1e-15 / x^2, is used only above it.
_SERIES_SWITCH = 0.4
_SERIES_COEFFS = tuple(1.0 / (2 * n + 1) for n in range(19, 0, -1))


def _angle_excess(p, k, lam, m):
    """Return (a, S) with a = Lambda + (p^2+k^2)/2m, S = artanh(x)/x - 1, x = pk/(m a).

    The angle average of (Lambda + (p+k)^2/2m)^-1 is (1 + S)/a.  S is summed
    from sum_{n>=1} x^2n/(2n+1) for x below ``_SERIES_SWITCH`` and otherwise
    taken from artanh(x) = log1p(2b/(a-b))/2, b = pk/m, with a - b computed
    as Lambda + (p-k)^2/2m, so neither branch cancels.  Works elementwise on
    broadcastable arrays.
    """
    a = lam + (p * p + k * k) / (2.0 * m)
    b = p * k / m
    x = b / a
    x2 = x * x
    series = _SERIES_COEFFS[0] * x2
    for c in _SERIES_COEFFS[1:]:
        series += c
        series *= x2
    a_minus_b = lam + (p - k) ** 2 / (2.0 * m)
    # the log form is discarded below the switch; the clamp keeps x = 0 finite
    log_form = np.log1p(2.0 * b / a_minus_b) / (2.0 * np.maximum(x, _SERIES_SWITCH)) - 1.0
    return a, np.where(x < _SERIES_SWITCH, series, log_form)


def angle_averaged_resolvent(p, k, lam: float, units: UnitSystem):
    """Angular average of (Lambda + (p+k)^2/2m)^-1 over the relative angle.

    Closed form (m/2pk) * ln[(Lambda+(p+k)^2/2m)/(Lambda+(p-k)^2/2m)]
    = (1 + S)/a in the terms of ``_angle_excess``, which is exact at p = 0
    or k = 0 and has no cancellation threshold.  Accepts arrays.
    """
    if not (lam > 0.0):
        raise ValueError(f"Lambda must be positive, got {lam}")
    if not (np.all(p >= 0.0) and np.all(k >= 0.0)):
        raise ValueError("momenta must be nonnegative")
    a, excess = _angle_excess(p, k, lam, units.m)
    return ((1.0 + excess) / a)[()]


def resolvent_bracket(p, k, lam: float, units: UnitSystem):
    """angle_averaged_resolvent minus the k=0 resolvent, stable at small k.

    The difference vanishes like k^2.  With 1/a - 1/E = -k^2/(2m a E) taken
    in closed form it is -k^2/(2m a E) + S/a, E = Lambda + p^2/2m, and S from
    ``_angle_excess``; each term is computed without cancellation.  Accepts
    arrays.
    """
    m = units.m
    e_free = lam + p * p / (2.0 * m)
    a, excess = _angle_excess(p, k, lam, m)
    return (-k * k / (2.0 * m * a * e_free) + excess / a)[()]


def small_k_curvature(p, lam: float, units: UnitSystem):
    """lim_{k->0} k^-2 [angle_averaged_resolvent(p,k) - (Lambda+p^2/2m)^-1].

    Closed form -1/(2m E^2) + p^2/(3 m^2 E^3) with E = Lambda + p^2/2m,
    re-derived from the log formula's k^2 series.
    """
    if not (lam > 0.0):
        raise ValueError(f"Lambda must be positive, got {lam}")
    m = units.m
    e = lam + p * p / (2.0 * m)
    return -1.0 / (2.0 * m * e * e) + p * p / (3.0 * m * m * e**3)


def second_order_kernel(t):
    """K(t) = -pi t^2 / (16 (t^2 + 4)), the p-integral of the second-order
    bracket at scaled momentum transfer t (``perturbation`` module
    docstring).  Accepts arrays."""
    return -math.pi * t * t / (16.0 * (t * t + 4.0))


def w2_k_quadrature(spec: PotentialSpec, units: UnitSystem, lam: float) -> float:
    """w2 as 16 pi^2 (2 pi hbar)^-6 s^6 / Lambda^3 * int_0^inf t^2 U(s t)^2 K(t) dt.

    s = sqrt(2 m Lambda); the t-integral is one adaptive quadrature over
    ``fourier_transform_at``, so it serves every family with a pointwise
    transform.  The absolute floor is set in units of Z^2 e^2/(a0 Lambda^2),
    the scale of w2, so that when the quadrature stops does not depend on
    the unit system.
    """
    scale = math.sqrt(2.0 * units.m * lam)
    pref = 16.0 * math.pi**2 / (2.0 * math.pi * units.hbar) ** 6 * scale**6 / lam**3

    def integrand(t):
        u_k = fourier_transform_at(spec, units, scale * t)
        return pref * t * t * u_k * u_k * second_order_kernel(t)

    w_unit = spec.Z**2 * units.e2 / (units.a0 * lam * lam)
    budget = QuadratureBudget(abs_tol=1e-16 * w_unit, rel_tol=1e-12, max_evals=2_000_000)
    res = integrate_adaptive(integrand, (0.0, math.inf), budget)
    return res.require_converged("w2 k-quadrature").value


def grid_channel_levels(vfun, ell: int, box_radius: float, n_points: int,
                        units: UnitSystem) -> np.ndarray:
    """All eigenvalues of the Dirichlet tridiagonal radial discretization.

    The grid is r_i = i h, h = box_radius / n_points, i = 1 .. n_points - 1,
    with potential ``vfun(r)`` in channel ``ell``.
    """
    hbar, m = units.hbar, units.m
    h = box_radius / n_points
    r = h * np.arange(1, n_points)
    kin = hbar * hbar / (m * h * h)
    diag = kin + hbar * hbar * ell * (ell + 1) / (2.0 * m * r * r) + vfun(r)
    off = np.full(n_points - 2, -0.5 * kin)
    return eigvalsh_tridiagonal(diag, off, lapack_driver="sterf")


def _grid_rows(spec: PotentialSpec, lams, box_radius: float, n_points: int, ell_max: int,
               factors, units: UnitSystem, dtype):
    """The diagonal of lam + H_f of each row of the ``grid_channel_levels`` grid, as a
    function of the row index, and the squared off-diagonal b^2 of the grid.

    The lanes are (factor, lam, ell), the free factor 0 last, and the rows are built
    from the same double-precision tables of r, U and the kinetic scale as the
    library's sweep, in ``dtype``, in the sweep's order of operations.
    """
    h = box_radius / n_points
    r = h * np.arange(1, n_points)
    kin = dtype(units.hbar * units.hbar / (units.m * h * h))
    pot = evaluate(spec, units, r).astype(dtype)
    inv_r2 = (1.0 / (r * r)).astype(dtype)
    shift = kin + np.asarray(lams, dtype=dtype)[:, None]
    factor = np.array(list(factors) + [0.0], dtype=dtype)[:, None, None]
    ell = np.arange(ell_max + 1).astype(dtype)
    cent = dtype(units.hbar * units.hbar) * ell * (ell + 1) / dtype(2.0 * units.m)
    return (lambda i: shift + cent * inv_r2[i] + factor * pot[i]), kin * kin / 4


def grid_trace_differences(spec: PotentialSpec, lams, box_radius: float, n_points: int,
                           ell_max: int, factors, units: UnitSystem) -> np.ndarray:
    """Tr (lam + H_f)^-1 - Tr (lam + H_0)^-1 by the pivot recursion from one wall.

    The grid operator is the one of ``grid_channel_levels``, built by
    ``_grid_rows`` as the library's sweep builds it, so only the recursion
    and its rounding differ: here the pivots run from r = h to the wall, one
    row at a time in ``np.longdouble``, with no twist, so it bounds the
    rounding of the library's two-wall sweep.  Returns shape (len(factors),
    len(lams), ell_max + 1).
    """
    row, b2 = _grid_rows(spec, lams, box_radius, n_points, ell_max, factors, units,
                         np.longdouble)
    return _coupled_minus_free(row, range(n_points - 1), b2)[0]


def pivot_pass(diagonals, b2s):
    """The LDL^T pivots of a symmetric tridiagonal, run down its rows in the order given.

    ``diagonals`` are the rows' diagonal entries a_i and ``b2s`` each row's squared
    coupling b^2 to the row before it (the first row's is not read).  Yields
    (d_i, d'_i/d_i) per row, with d_i = a_i - b^2/d_{i-1} and
    d'_i = 1 + b^2 d'_{i-1}/d_{i-1}^2 from d_{-1} = inf, so that d_0 = a_0 and
    d'_0 = 1: d' is the derivative in a shift of the diagonal, and the sum of
    d'_i/d_i over all rows is the trace of the inverse.  Run from the last row
    to the first, it gives the bottom pivots e_i.  In ``np.float64`` each lane
    takes the library sweep's operations in its order.
    """
    d, dp = np.inf, 1.0
    for a, b2 in zip(diagonals, b2s):
        g = b2 / d
        dp = dp * g / d + 1.0
        d = a - g
        yield d, dp / d


def _coupled_minus_free(row, rows, b2):
    """The sum over ``rows``, pivots run in their order, of the coupled lanes' d'/d minus
    the free lane's, one row at a time; with the last row's pivot and d'/d."""
    diff = 0.0
    for d, t in pivot_pass(map(row, rows), itertools.repeat(b2)):
        diff = diff + (t[:-1] - t[-1])
    return diff, d, t


def twist_term(b2, d, e, t_d, t_e):
    """d/dshift log(1 - tau), tau = b^2/(d e): the term that joins top pivots ending in d,
    with last term t_d = d'/d, to bottom pivots ending in e, with last term t_e, across
    an off-diagonal b.  The determinant is (prod d_i)(prod e_i)(1 - tau)."""
    tau = b2 / (d * e)
    return (t_d + t_e) * tau / (1.0 - tau)


def two_wall_trace(diag, off2, k: int) -> float:
    """Tr A^-1 of the symmetric tridiagonal A with diagonal ``diag`` and squared
    off-diagonals ``off2``, from the top pivots of its first k rows, the bottom
    pivots of the other N - k and the twist between them (0 < k < N)."""
    top = list(pivot_pass(diag[:k], [0.0, *off2[:k - 1]]))
    bottom = list(pivot_pass(diag[k:][::-1], [0.0, *off2[k:][::-1]]))
    (d, t_d), (e, t_e) = top[-1], bottom[-1]
    terms = [t for _, t in top + bottom]
    return math.fsum(terms) + twist_term(off2[k - 1], d, e, t_d, t_e)


def grid_trace_differences_two_wall(spec: PotentialSpec, lams, box_radius: float,
                                    n_points: int, ell_max: int, factors,
                                    units: UnitSystem) -> np.ndarray:
    """The library sweep's two-wall recursion on one grid, one row at a time, in np.float64.

    The top pivots run over rows 0 .. n_points//2 - 1 from r = h, the bottom
    pivots over the rest from the wall inward, each row adding the coupled
    lanes' terms minus the free lane's; then the twist at the split
    (``twist_term``) adds its coupled-minus-free difference.  It does each
    lane's arithmetic in the sweep's order, so the sweep must agree with it bit
    for bit.  Returns shape (len(factors), len(lams), ell_max + 1).
    """
    row, b2 = _grid_rows(spec, lams, box_radius, n_points, ell_max, factors, units,
                         np.float64)
    k = n_points // 2
    top, d, t_d = _coupled_minus_free(row, range(k), b2)
    bottom, e, t_e = _coupled_minus_free(row, range(n_points - 2, k - 1, -1), b2)
    twist = twist_term(b2, d, e, t_d, t_e)
    return (top + bottom) + (twist[:-1] - twist[-1])


def yukawa_classical_cut_mpmath(spec: PotentialSpec, units: UnitSystem, factor: float,
                                lam: float, r_box: float, L: float) -> float:
    """The phase-space counterpart of the channels lambda = l + 1/2 < L, as a double integral.

    It is int_0^L 2 lambda c(lambda) dlambda, with channel lambda's
    semiclassical trace difference c(lambda) = (sqrt(2m)/2 hbar)
    int_0^R [(s + f U)^-1/2 - s^-1/2] dr and s = lam + hbar^2 lambda^2/(2 m r^2),
    both integrals by 40-digit mpmath tanh-sinh.  For a Yukawa ``spec`` with
    lam + f U > 0 at every r, so that no principal value enters.  The
    quadrature degree is capped at 3: against degree 4 the value moves by
    about 1e-11 relative, and the call takes under a second, not several.
    """
    import mpmath

    with mpmath.workdps(40):
        hbar, m, lam_mp, f, R = (mpmath.mpf(v) for v in (units.hbar, units.m, lam, factor, r_box))
        g = f * spec.sign * spec.Z * mpmath.mpf(units.e2)
        kappa = mpmath.mpf(spec.kappa)

        def c(nu):
            def integrand(r):
                s = lam_mp + hbar**2 * nu**2 / (2 * m * r**2)
                return 1 / mpmath.sqrt(s + g * mpmath.exp(-kappa * r) / r) - 1 / mpmath.sqrt(s)
            return mpmath.sqrt(2 * m) / (2 * hbar) * mpmath.quad(integrand, [0, 1, R], maxdegree=3)

        return float(mpmath.quad(lambda nu: 2 * nu * c(nu), [0, L], maxdegree=3))


def yukawa_classical_adaptive(spec: PotentialSpec, units: UnitSystem, factors, lams,
                              r_box: float, L: float) -> np.ndarray:
    """``spectral_oracle._classical_difference`` by adaptive Gauss-Kronrod.

    The integrand r^2 [sqrt(s) - sqrt(max(s + f U, 0))] at L = 0 minus at L,
    s = lam + hbar^2 L^2 / (2 m r^2), is split at the turning point r0 of
    lam + f U (a ``scipy.special.lambertw``) and at min(10 r0, R); each
    segment runs with abs_tol 1e-15, rel_tol 1e-11 and 300 000 evaluations,
    and the segments of a cell add in order.  Shape (len(factors), len(lams)).
    """
    from scipy.special import lambertw

    hbar, m = units.hbar, units.m
    cent = hbar * hbar * L * L / (2.0 * m)
    budget = QuadratureBudget(abs_tol=1e-15, rel_tol=1e-11, max_evals=300_000)

    def bracket(a, u, r):
        inside = a + u
        root = np.sqrt(np.maximum(inside, 0.0))
        s = np.sqrt(a)
        return np.where(inside <= 0.0, r * r * s, -r * r * u / (s + root))

    out = np.zeros((len(factors), len(lams)))
    for i, factor in enumerate(factors):
        g = -factor * spec.sign * spec.Z * units.e2
        for j, lam in enumerate(lams):
            def integrand(r, factor=factor, lam=lam):
                u = factor * evaluate(spec, units, r)
                return bracket(lam, u, r) - bracket(lam + cent / (r * r), u, r)

            knots = [0.0, r_box]
            if g > 0.0:
                r0 = float(lambertw(g * spec.kappa / lam).real) / spec.kappa
                knots = [0.0, r0, min(10.0 * r0, r_box), r_box]
            total = 0.0
            for a, b in zip(knots[:-1], knots[1:]):
                if b > a:
                    res = integrate_adaptive(integrand, (a, b), budget)
                    total += res.require_converged("classical reference").value
            out[i, j] = total
    return 2.0 * m * math.sqrt(2.0 * m) / hbar**3 * out


def fit_power_law_lstsq(samples) -> PowerLawFit:
    """W ~ c Lambda^-gamma by ``np.linalg.lstsq`` on the design [1, ln Lambda]
    against ln|W|, with the covariance sigma^2 (D^T D)^-1.  Expects samples
    of one sign, none zero, at least 4."""
    lams = np.asarray(samples.lambdas, dtype=float)
    w = np.asarray(samples.values, dtype=float)
    signs = np.sign(w)
    x = np.log(lams)
    y = np.log(np.abs(w))
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    ln_c, neg_gamma = coef
    resid = y - design @ coef
    sigma2 = float(np.sum(resid**2)) / (lams.size - 2)
    cov = sigma2 * np.linalg.inv(design.T @ design)
    amp = float(signs[0] * np.exp(ln_c))
    return PowerLawFit(
        amplitude=amp,
        gamma=float(-neg_gamma),
        residual=float(np.sqrt(np.mean(resid**2))),
        lambda_range=(float(lams[0]), float(lams[-1])),
        gamma_err=float(np.sqrt(cov[1, 1])),
        amplitude_err=abs(amp) * float(np.sqrt(cov[0, 0])),
        n_samples=int(lams.size),
    )


def delta_an_case_a_exact_numpy(alpha: float, units: UnitSystem) -> float:
    """``anomaly.delta_an_case_a_exact`` for alpha > 0, with its unit cells
    evaluated as one numpy array."""
    beta = math.sqrt(2.0 * units.m * alpha) / units.hbar
    b2 = beta * beta
    b4 = b2 * b2

    def k(lam):
        return b4 / (2.0 * (np.sqrt(lam * lam + b2) + lam) ** 2)

    def h(lam):
        s = np.sqrt(lam * lam + b2)
        return -b4 * (lam + 2.0 * s) / (6.0 * (s + lam) ** 2)

    n_cells = 32 + 2 * math.ceil(beta)
    n = np.arange(n_cells, dtype=float)
    cells = k(n + 0.5) - (h(n + 1.0) - h(n))
    lam = float(n_cells)
    s = math.sqrt(lam * lam + b2)
    g1 = -b4 / (s * (s + lam) ** 2)
    g3 = -3.0 * b4 / s**5
    g5 = 15.0 * b4 * (b2 - 6.0 * lam * lam) / s**9
    tail = g1 / 24.0 - 7.0 * g3 / 5760.0 + 31.0 * g5 / 967680.0
    return 2.0 * (math.fsum(cells) + tail)


def bessel_ratio_nu_derivative(nu, x: float):
    """(I_{nu+1}(x) / I_nu(x), its derivative in nu) for an array of orders.

    The ratio is the continued fraction 1/(b_1 + 1/(b_2 + ...)),
    b_k = 2 (nu + k) / x (DLMF 10.33.1), evaluated backward from depth
    64 + 16 sqrt(x), well past the 6.2 sqrt(x) + 12 terms that nu = 0 needs;
    the nu-derivative is carried along in forward mode, with db_k/dnu = 2/x.
    """
    nu = np.asarray(nu, dtype=float)
    depth = int(64.0 + 16.0 * math.sqrt(x))
    t = 2.0 * (nu + depth) / x
    dt = np.full_like(t, 2.0 / x)
    for k in range(depth - 1, 0, -1):
        dt = 2.0 / x - dt / (t * t)
        t = 2.0 * (nu + k) / x + 1.0 / t
    return 1.0 / t, -dt / (t * t)


_EPS = float(np.finfo(float).eps)


def bessel_ratio_cf_one_box(nu: np.ndarray, x: float) -> np.ndarray:
    """I_{nu+1}(x) / I_nu(x) by the case-A oracle's backward continued fraction, every
    step of it on one box's orders with one x, as the oracle ran it before one call
    took the orders of many boxes (``spectral_oracle._bessel_ratio_cf`` with an x per
    order): the reference for that call's bits.  Same depth rule, same tail check."""
    flat = nu.ravel()
    step = 2.0 / x
    depth = np.ceil(44.0 * x / (np.hypot(flat, math.sqrt(44.0 * x)) + flat)) + 8.0
    order = np.argsort(-depth, kind="stable")
    depth = depth[order]
    b0 = flat[order] * step       # b_j = b0 + j step
    r = np.zeros_like(b0)         # r_j, from r_{K+1} = 0
    slope = np.ones_like(b0)      # prod r_j; the value moves by its square per unit of tail
    k_max = int(depth[0]) if depth.size else 0
    # the number of orders with depth >= j, for j = k_max, ..., 1
    live = np.searchsorted(-depth, -np.arange(k_max, 0, -1), side="right")
    for j, n in zip(range(k_max, 0, -1), live):
        r[:n] += b0[:n] + j * step
        np.reciprocal(r[:n], out=r[:n])
        slope[:n] *= r[:n]
    unconverged = np.count_nonzero(slope * slope / (b0 + (depth + 1.0) * step) > _EPS * r)
    if unconverged:
        raise UnconvergedError(
            f"Bessel-ratio continued fraction at x = {x:g}: "
            f"{unconverged} orders unconverged at their depth")
    out = np.empty_like(r)
    out[order] = r
    return out.reshape(nu.shape)


def case_a_box_orders(x: float, beta2: float) -> np.ndarray:
    """The Bessel orders of one case-A box of scale x, built for that box alone: the
    quantum orders sqrt((l+1/2)^2 + beta2) and the free orders l + 1/2 of
    l < ceil(6x) + 200, then ``spectral_oracle._case_a_end_orders``."""
    n_ch = int(math.ceil(6.0 * x)) + 200
    nu_l = np.arange(n_ch, dtype=float) + 0.5
    return np.concatenate([np.sqrt(nu_l * nu_l + beta2), nu_l,
                           spectral_oracle._case_a_end_orders(float(n_ch))])


def case_a_w_at_radius(beta2: float, lam: float, r_box: float,
                       units: UnitSystem) -> tuple[float, float]:
    """The case-A box value (w, residual-tail estimate) at one radius, with every
    channel sum from ``bessel_ratio_cf_one_box`` on the box's orders."""
    hbar, m = units.hbar, units.m
    x = math.sqrt(2.0 * m * lam) * r_box / hbar
    orders = case_a_box_orders(x, beta2)
    n_ch = (orders.size - 8) // 2   # quantum, then free orders, then the eight end orders
    j = float(n_ch)
    nu_l = orders[n_ch:2 * n_ch]
    s_q, s_l, s_end = np.split(0.5 * x * bessel_ratio_cf_one_box(orders, x), [n_ch, 2 * n_ch])
    quantum = float(np.sum(2.0 * nu_l * (s_q - s_l)))
    classical = spectral_oracle._case_a_classical(x, j, beta2)
    linear_response = spectral_oracle._case_a_linear_response(s_end, x, j)

    w = (quantum - classical - beta2 * linear_response) / lam
    tail_resid = x * x * beta2 * beta2 / (8.0 * (j * j + x * x) ** 2) / lam
    return w, tail_resid


def case_a_trace_one_box_at_a_time(spec: PotentialSpec, units: UnitSystem, lams,
                                   radii=(20.0, 40.0)) -> tuple[list, list]:
    """(values, errors) of the case-A ``oracle_trace`` on ``lams``, each box by
    ``case_a_w_at_radius``: the two-radius step and the bar of the oracle, without
    its range checks."""
    beta2 = 2.0 * units.m * spec.alpha / units.hbar**2
    r1, r2 = radii
    vals, errs = [], []
    for lam in lams:
        (w1, t1), (w2, t2) = (case_a_w_at_radius(beta2, float(lam), r, units) for r in radii)
        w_inf = (r2 * r2 * w2 - r1 * r1 * w1) / (r2 * r2 - r1 * r1)
        vals.append(w_inf)
        errs.append(abs(w_inf - w2) / 3.0 + max(t1, t2))
    return vals, errs
