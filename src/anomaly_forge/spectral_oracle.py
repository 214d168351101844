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
  artifact from levels near the wall.  Yukawa keeps the coupling-even part;
  for the inverse-square family the linear response, a ladder sum of
  nu-derivatives, telescopes to a few end values and is subtracted.

For the inverse-square family the box spectra are exact Bessel zeros and
the channel resolvent sums collapse to modified-Bessel-function ratios,
so the whole evaluation is closed-form up to the ratio itself, a continued
fraction summed backward in numpy.  Yukawa runs one box, within bounds on
kappa R, Lambda and the coupling, with O(N) pivot recursions of the tridiagonal
radial grid operator, without eigenvalues, that sum each channel's difference
against the free channel row by row, up to l_max.  Its classical term counts
only those channels: the phase-space integral over lambda = l + 1/2 < l_max + 1,
so the channels left out need no extrapolation, only an Euler-Maclaurin
error.  Bare and cutoff Coulomb are rejected: a box cannot hold a 1/r tail.

The oracle is the only production path that runs numpy (here and in the
potential functions it calls), and it loads no scipy module: the Yukawa
classical term takes fixed Gauss-Legendre rules on knots from a Lambert W
of its own.  Importing numpy takes longer than a whole perturbative CLI run,
so the package imports this module only when one of its names is first
used (``anomaly_forge.__getattr__``, ``cli.oracle_trace``).  ``ive`` and
``eigvalsh_tridiagonal``, called by no code here, stay only because the
benchmark's tracer wraps them by name; each imports scipy when called.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnconvergedError, UnsupportedPotentialError
from .perturbation import Source, TraceSamples
from .potentials import Family, PotentialSpec, evaluate
# Not called here: bench/tracing.py wraps spectral_oracle.integrate_adaptive
# by name, so the name stays importable for its --trace runs.
from .quadrature import integrate_adaptive  # noqa: F401
from .units import UnitSystem


@dataclass(frozen=True)
class OracleConfig:
    """Box and grid sizes of ``oracle_trace``.

    ``richardson_levels`` is the (small, large) pair of box radii: case A
    runs both, Yukawa only the large one, with the fine step
    small radius / ``grid_points``.  ``ell_max`` is the last channel summed,
    quantum and classical alike.  No code reads ``box_radius``; it stays only
    because ``bench/workloads.py`` still sets it (ROADMAP item 1).
    """

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
        if len(radii) != 2 or not 0.0 < radii[0] < radii[1] < math.inf:
            raise ValueError(
                "richardson_levels must be two finite, positive, strictly increasing radii")


def ive(v, z):
    """scipy.special.ive, imported on the first call; no code here calls it."""
    from scipy.special import ive as scipy_ive
    return scipy_ive(v, z)


def eigvalsh_tridiagonal(d, e, **kwargs):
    """scipy.linalg.eigvalsh_tridiagonal, imported on the first call."""
    from scipy.linalg import eigvalsh_tridiagonal as scipy_eigvalsh_tridiagonal
    return scipy_eigvalsh_tridiagonal(d, e, **kwargs)


# ---------------------------------------------------------------------------
# Inverse-square fast path: exact Bessel-ratio channel sums
# ---------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)


def _bessel_ratio_cf(nu: np.ndarray, x: float) -> np.ndarray:
    """I_{nu+1}(x) / I_nu(x) for an array of orders, by continued fraction.

    The ratio is 1/(b_1 + 1/(b_2 + ...)) with b_j = 2 (nu + j) / x
    (DLMF 10.33.1), summed backward from a zero tail at depth
    K = ceil(sqrt(nu^2 + 44 x) - nu) + 8, written so that it neither cancels
    nor overflows.  Every b_j is positive, so each step r_j = 1/(b_j + r_{j+1})
    is stable and shrinks a change of the tail by r_j^2.  The dropped tail
    lies in (0, 1/b_{K+1}), so the value moves by at most
    prod r_j^2 / b_{K+1}; an order where that exceeds ``_EPS`` of its value
    raises ``UnconvergedError``.  Measured, the bound stays below 0.03
    ``_EPS`` for x in [0.01, 1e5] and nu in [0, 7x + 200]; with 40 in place
    of 44 it reaches 1.3 ``_EPS`` at x = 1e5, nu = 0.

    The orders run in order of decreasing depth, so the orders still being
    summed at step j are a leading block, and each order does the arithmetic
    of a call on it alone: a batch returns what single calls do, bit for bit.
    """
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


def bessel_channel_sums(nu: np.ndarray, x: float) -> np.ndarray:
    """Lambda sum_n (Lambda + E_n)^-1 over the Dirichlet box levels of each order.

    The levels are E_n = hbar^2 z_{nu,n}^2 / (2 m R^2) with z_{nu,n} the
    zeros of J_nu, and x = sqrt(2 m Lambda) R / hbar.  The pole expansion
    of J_{nu+1}/J_nu gives sum_n (z_{nu,n}^2 + x^2)^-1 = I_{nu+1}(x) / (2 x
    I_nu(x)), so the result is x I_{nu+1}(x) / (2 I_nu(x)), with the ratio
    from ``_bessel_ratio_cf``.  Every order is worked out on its own, so one
    call on many orders returns what one call per order would, bit for bit;
    callers batch all the orders of a box into one call.
    """
    nu = np.asarray(nu, dtype=float)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"x must be finite and positive, got {x!r}")
    if not np.all(np.isfinite(nu) & (nu >= 0.0)):
        raise ValueError("Bessel orders must be finite and nonnegative")
    return 0.5 * x * _bessel_ratio_cf(nu, x)


# Case-A box scales x = sqrt(2 m Lambda) R / hbar lie in [max(2 beta, 8), 2000].
# The channel list grows like 6x, and no sweep has yet checked the bar against
# the exact value above 2000.  Below about 1.0-1.45 beta, and below x = 5-6 at
# small beta, the bar misses the value.
_CASE_A_X_MIN, _CASE_A_X_MAX = 8.0, 2000.0
_END_STEP = 0.25   # order step d of the end differences in the linear response


def _case_a_classical(x: float, j: float, beta2: float) -> float:
    """The classical term of the orders below j, minus its free value, in positive terms.

    It is [G(j^2) - G(0)] / 3, G(b) = g(x^2 + b) - g(b), g(t) = (t + beta2)^(3/2) - t^(3/2).
    With U, V = sqrt(x^2 + b + beta2), sqrt(x^2 + b) and u, v = sqrt(b + beta2),
    sqrt(b): G = x^2 [(u - v)(U v + u V + u v) + (U - V)(U V + U v + u V)] /
    ((U + u)(V + v)), U - V = beta2/(U + V) and u - v = beta2/(u + v), or u at b = 0.
    """
    def big_g(b):
        big_u, big_v, u, v = (math.sqrt(t) for t in (x * x + b + beta2, x * x + b, b + beta2, b))
        du, d_big = (beta2 / (u + v) if b else u), beta2 / (big_u + big_v)
        return x * x * (du * (big_u * v + u * big_v + u * v)
                        + d_big * (big_u * big_v + big_u * v + u * big_v)) / (
                            (big_u + u) * (big_v + v))

    return (big_g(j * j) - big_g(0.0)) / 3.0


def _case_a_end_orders(j: float) -> np.ndarray:
    """Orders 0, d, ..., 4d and j - d, j, j + d, read by ``_case_a_linear_response``."""
    d = _END_STEP
    return np.array([0.0, d, 2.0 * d, 3.0 * d, 4.0 * d, j - d, j, j + d])


def _case_a_linear_response(s_end: np.ndarray, x: float, j: float) -> float:
    """sum_{l<j} s'(l + 1/2) - [c(j) - c(0)] from s at ``_case_a_end_orders(j)``.

    s(nu) = x I_{nu+1}(x) / (2 I_nu(x)) and c(nu) = (sqrt(x^2 + nu^2) - nu)/2.
    The ladder sum telescopes (midpoint Euler-Maclaurin) to s(j) - s(0)
    - [s''(j) - s''(0)]/24 - 7 s^(4)(0)/5760, with one-sided differences at 0
    and a central one at j: 4e-8 relative off the exact sum at x = 8, 1e-9 from x = 20.
    """
    s0, s1, s2, s3, s4, s_lo, s_j, s_hi = s_end
    d2 = _END_STEP * _END_STEP
    d2_0 = (35.0 * s0 - 104.0 * s1 + 114.0 * s2 - 56.0 * s3 + 11.0 * s4) / (12.0 * d2)
    d4_0 = (s0 - 4.0 * s1 + 6.0 * s2 - 4.0 * s3 + s4) / (d2 * d2)
    d2_j = (s_lo - 2.0 * s_j + s_hi) / d2
    c_of = lambda nu: 0.5 * x * x / (math.sqrt(x * x + nu * nu) + nu)   # (sqrt(x^2+nu^2) - nu)/2
    return (s_j - c_of(j)) - (s0 - c_of(0.0)) - (d2_j - d2_0) / 24.0 - 7.0 * d4_0 / 5760.0


def _case_a_w_at_radius(beta2: float, lam: float, r_box: float,
                        units: UnitSystem) -> tuple[float, float]:
    """Counterterm-subtracted w(Lambda) for U = alpha/r^2 at one box radius.

    Returns (value, residual-tail estimate).  Quantum channel sums use the
    exact Bessel-ratio form with effective orders sqrt((l+1/2)^2 + beta2);
    the classical phase-space difference is closed-form; the coupling-linear
    box artifact is beta2 times ``_case_a_linear_response``.  The quantum,
    free and end orders go through one ``bessel_channel_sums`` call per box;
    one call per Lambda grid and both radii, with an x per order, measured
    slower and larger.
    """
    hbar, m = units.hbar, units.m
    x = math.sqrt(2.0 * m * lam) * r_box / hbar
    n_ch = int(math.ceil(6.0 * x)) + 200
    j = float(n_ch)
    nu_l = np.arange(n_ch, dtype=float) + 0.5
    nu_q = np.sqrt(nu_l * nu_l + beta2)
    s_q, s_l, s_end = np.split(
        bessel_channel_sums(np.concatenate([nu_q, nu_l, _case_a_end_orders(j)]), x),
        [n_ch, 2 * n_ch])
    quantum = float(np.sum(2.0 * nu_l * (s_q - s_l)))
    classical = _case_a_classical(x, j, beta2)
    linear_response = _case_a_linear_response(s_end, x, j)

    w = (quantum - classical - beta2 * linear_response) / lam
    tail_resid = x * x * beta2 * beta2 / (8.0 * (j * j + x * x) ** 2) / lam
    return w, tail_resid


# ---------------------------------------------------------------------------
# Grid path for Yukawa
# ---------------------------------------------------------------------------

_HALLEY_STEPS = 8   # 7 bring the step within 2 eps of W0 for every z in [0, 1e300]


def _lambert_w(z: np.ndarray) -> np.ndarray:
    """W0(z) for z >= 0: ``_HALLEY_STEPS`` Halley steps on w e^w = z from log1p(z) >= W0(z).
    Every element takes the same steps, as it would alone; one whose last step
    is not within 2 eps of w raises ``UnconvergedError``."""
    w = np.log1p(z)
    for _ in range(_HALLEY_STEPS):
        ew = np.exp(w)
        f = w * ew - z
        step = f / (ew * (w + 1.0) - 0.5 * (w + 2.0) * f / (w + 1.0))
        w = w - step
    if np.any(np.abs(step) > 2.0 * _EPS * w):
        raise UnconvergedError(f"Lambert W still moving after {_HALLEY_STEPS} Halley steps")
    return w


def _turning_point(spec: PotentialSpec, units: UnitSystem, factors, lams) -> np.ndarray:
    """The Yukawa radii r* with |f U(r*)| = lam, shape (len(factors), len(lams)): the
    principal Lambert W of |f| Z e^2 kappa / lam over kappa, 0 at f = 0.  In an
    attractive lane r* is the turning point, the edge of the core lam + f U < 0."""
    z = np.abs(np.asarray(factors, dtype=float))[:, None] * spec.Z * units.e2 * spec.kappa
    return _lambert_w(z / np.asarray(lams, dtype=float)) / spec.kappa


_GAUSS_N = 24   # nodes per segment; a rule of half as many checks each segment


@functools.cache
def _gauss_rules() -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights on [0, 1] of the ``_GAUSS_N``- and half-node Gauss-Legendre rules,
    side by side, made on first use by Golub-Welsch (Jacobi-matrix eigenvalues and the
    squared first components of its eigenvectors), then made symmetric."""
    rules = []
    for n in (_GAUSS_N, _GAUSS_N // 2):
        k = np.arange(1.0, n)
        x, v = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), 1), UPLO="U")
        rules.append((0.25 * (x - x[::-1]) + 0.5, 0.5 * (v[0] * v[0] + v[0, ::-1] * v[0, ::-1])))
    return tuple(np.concatenate(a) for a in zip(*rules))


def _classical_difference(spec: PotentialSpec, units: UnitSystem, factors, lams,
                          r_box: float, L: float) -> np.ndarray:
    """The phase-space counterpart of the channels lambda = l + 1/2 < L, in the box r < R.

    The whole term (2 pi hbar)^-3 int d3x d3p [(lam+p^2/2m+f U)^-1 - (lam+p^2/2m)^-1]
    is int_0^inf F dlambda, F = 2 lambda c(lambda), with c(lambda) channel
    lambda's semiclassical trace difference.  Doing the lambda integral first
    (its principal value over s + f U < 0 contributes zero) gives
    int_L^inf F dlambda = (2 m sqrt(2m)/hbar^3) int r^2 [sqrt(s) - sqrt(max(s + f U, 0))] dr
    with s = lam + hbar^2 L^2 / (2 m r^2).  The integrand is this bracket at
    L = 0 minus the one at L; L = inf gives the whole term.
    Returns shape (len(factors), len(lams)).

    A (factor, lam) cell takes [0, min(r*, R)] (r* of ``_turning_point``) in
    r = b t^2, which smooths a repulsive core's r^(3/2) at 0, then [a, 2a] out
    to R; an attractive cell's [r*, 2 r*] takes r = a + (b - a) t^2, which
    smooths the turning point's square-root edge.  Every node of a 24- and a
    12-node Gauss-Legendre rule on each segment goes through one integrand
    call; a cell whose |G24 - G12| sum past max(1e-15, 1e-11 |value|) raises
    ``UnconvergedError``.  No knot sits where the bracket at L changes branch,
    so L^2 must exceed |f| g / e, g = 2 m Z e^2 / (hbar^2 kappa), past which
    s + f U > 0 (``ValueError``).
    """
    hbar, m = units.hbar, units.m
    g = 2.0 * m * spec.Z * units.e2 / (hbar * hbar * spec.kappa)
    f_max = max(abs(f) for f in factors)
    if not L * L > f_max * g / math.e:
        raise ValueError(f"the cut bracket can change branch: L^2 = {L * L:g} is not above "
                         f"|f| g / e = {f_max * g / math.e:g} (g = {g:g}); raise L")
    r_star = _turning_point(spec, units, factors, lams).ravel().tolist()
    segments = []     # (cell, factor, lam, a, b, mapped), cells in (f, lam) order
    for cell, ((factor, lam), rs) in enumerate(zip(((f, lam) for f in factors for lam in lams),
                                                   r_star)):
        if factor == 0.0:
            continue   # the bracket vanishes
        core = factor * spec.sign < 0.0   # attractive
        if core and rs > r_box:
            raise ValueError(f"the classically forbidden core reaches the box wall: at Lambda = "
                             f"{lam:g} the turning point r0 = {rs:g} lies beyond the box "
                             f"radius R = {r_box:g}; raise Lambda or enlarge the box")
        a = min(rs, r_box)
        cuts = [(0.0, a, True)]
        while a < r_box:
            cuts.append((a, min(2.0 * a, r_box), core and a == rs))
            a *= 2.0
        segments += [(cell, factor, lam, lo, hi, mapped) for lo, hi, mapped in cuts if hi > lo]
    cell, factor, lam, lo, hi, mapped = (np.array(col)[:, None] for col in zip(*segments))
    t, w = _gauss_rules()
    width = hi - lo
    r = lo + width * np.where(mapped, t * t, t)
    weight = width * np.where(mapped, 2.0 * t, 1.0) * w
    cent = hbar * hbar * L * L / (2.0 * m)

    def bracket(a, u):
        # r^2 [sqrt(a) - sqrt(a + u)] without the cancellation at |u| << a
        inside = a + u
        root = np.sqrt(np.maximum(inside, 0.0))
        s = np.sqrt(a)
        return np.where(inside <= 0.0, r * r * s, -r * r * u / (s + root))

    u = factor * evaluate(spec, units, r)
    fw = (bracket(lam, u) - bracket(lam + cent / (r * r), u)) * weight
    # each rule sums along its segment's row; bincount adds a cell's segments
    # in order, from 0.0
    value, check = fw[:, :_GAUSS_N].sum(axis=1), fw[:, _GAUSS_N:].sum(axis=1)
    n_cells = len(factors) * len(lams)
    totals = np.bincount(cell[:, 0], value, n_cells)
    bad = np.bincount(cell[:, 0], np.abs(value - check), n_cells) > np.maximum(
        1e-15, 1e-11 * np.abs(totals))
    if bad.any():
        raise UnconvergedError(
            f"classical phase-space difference: in {np.count_nonzero(bad)} of {n_cells} cells "
            f"the {_GAUSS_N}- and {_GAUSS_N // 2}-node rules differ by more than 1e-11")
    return 2.0 * m * math.sqrt(2.0 * m) / hbar**3 * totals.reshape(len(factors), len(lams))


_COUPLING_FACTORS = (1.0, -1.0, 0.5, -0.5, 0.0)
_SWEEP_BLOCK = 8   # rows whose diagonal parts ``_grid_traces`` tabulates at once


def _grid_traces(spec, units, lams, grids, ell_max):
    """Tr (lam + H_f)^-1 - Tr (lam + H_0)^-1 of every channel on each grid.

    ``grids`` is a sequence of (r_box, n_points).  Returns one array per grid,
    in the order given, of shape (4, len(lams), ell_max + 1): the difference
    against the free channel for each nonzero f of ``_COUPLING_FACTORS``.
    H_f is the Dirichlet tridiagonal radial operator on r_i = i r_box / n_points,
    0 < i < n_points, with the potential scaled by f.  For the symmetric
    tridiagonal lam + H = L D L^T with diagonal a_i and off-diagonal b, the
    pivots are d_i = a_i - b^2/d_{i-1}, and Tr (lam + H)^-1 = d/dlam log det
    = sum_i d'_i/d_i with d'_i = 1 + b^2 d'_{i-1}/d_{i-1}^2 >= 1.  Each row adds
    a coupled lane's d'_i/d_i minus the free lane's: the sum is the difference.

    One pass over the radial index serves all (grid, factor, ell, lam)
    lanes.  Grids run in order of decreasing N, so the grids still in their
    rows are always a leading block of lanes, and a grid's lanes drop out
    once its N - 1 rows end.  The diagonal's two parts, shift + cent/r^2 per
    (grid, lam, ell) and f U per (grid, factor), are tabulated for
    ``_SWEEP_BLOCK`` rows at a time from per-grid tables of 1/r^2 and U (a
    block ends where a grid drops out), so each row adds them with one
    broadcast.  A block's radial table has no factor axis, so it holds
    ``_SWEEP_BLOCK``/5 times the lanes, and its coupling table is small:
    memory stays O(lanes + grids N), not O(N lanes).  Every lane does the
    arithmetic of a one-grid pass.
    """
    if not grids:
        return []
    hbar, m = units.hbar, units.m
    order = sorted(range(len(grids)), key=lambda k: -grids[k][1])
    n_rows = [grids[k][1] - 1 for k in order]
    # per-grid kinetic scale and per-row tables of 1/r^2 and U; lanes are
    # laid out as (grid, factor, lam, ell), so that ell runs innermost
    kin = np.empty((len(order), 1, 1, 1))
    inv_r2 = np.ones((n_rows[0],) + kin.shape)
    pot = np.zeros((n_rows[0],) + kin.shape)
    for slot, k in enumerate(order):
        r_box, n_points = grids[k]
        h = r_box / n_points
        r = h * np.arange(1, n_points)
        kin[slot] = hbar * hbar / (m * h * h)
        pot[:n_points - 1, slot, 0, 0, 0] = evaluate(spec, units, r)
        inv_r2[:n_points - 1, slot, 0, 0, 0] = 1.0 / (r * r)
    shift = kin + np.asarray(lams, dtype=float)[:, None]
    factor = np.array(_COUPLING_FACTORS)[:, None, None]
    ell = np.arange(ell_max + 1, dtype=float)
    cent = hbar * hbar * ell * (ell + 1.0) / (2.0 * m)
    d = shift + cent * inv_r2[0] + factor * pot[0]
    b2 = np.broadcast_to(0.25 * kin * kin, d.shape).copy()   # b^2 / d divides without a broadcast
    dp = np.ones_like(d)
    g = 1.0 / d
    diff = g[:, :4] - g[:, 4:]
    # The row update works in place in spare buffers: with a fresh array
    # per operation the sweep ran about 10% slower.
    step = np.empty_like(diff)
    out = [None] * len(grids)
    live = len(order)
    i = 1
    while i < n_rows[0]:
        while n_rows[live - 1] <= i:   # the last live grid has no row i
            live -= 1
            out[order[live]] = diff[live]
            d, dp, g, diff, step, b2 = (a[:live] for a in (d, dp, g, diff, step, b2))
        stop = min(i + _SWEEP_BLOCK, n_rows[live - 1])
        radial = shift[:live] + cent * inv_r2[i:stop, :live]
        coupling = factor * pot[i:stop, :live]
        for radial_i, coupling_i in zip(radial, coupling):
            np.divide(b2, d, out=g)           # g = b^2 / d
            dp *= g                           # d' = 1 + g d' / d
            dp /= d
            dp += 1.0
            np.add(radial_i, coupling_i, out=d)
            d -= g
            np.divide(dp, d, out=g)           # g is spent: it takes d' / d
            diff += np.subtract(g[:, :4], g[:, 4:], out=step)
        i = stop
    for slot in range(live):
        out[order[slot]] = diff[slot]
    return out


def _tail_error(terms: np.ndarray) -> np.ndarray:
    """Twice F'(L)/24, the first Euler-Maclaurin remainder of the channels
    past the last, with F' the difference of the last two channel terms."""
    return np.abs(terms[..., -1] - terms[..., -2]) / 12.0


_BOX_C, _KAPPA_R_MIN, _K_MIN, _G_MAX = 4.0, 4.0, 3.0, 80.0   # C and the bounds a sweep checked


def _box_error(scale: np.ndarray, k: np.ndarray, kappa: float, r_box: float) -> np.ndarray:
    """C a^2 scale, a = k (e^-kappa R - e^-k R)/(k - kappa), k = sqrt(2 m Lambda)/hbar, with
    scale = |quantum channel sum| + |classical term|, which w's zeros leave nonzero."""
    a = k / (k - kappa) * np.exp(-kappa * r_box) * -np.expm1(-(k - kappa) * r_box)
    return _BOX_C * a * a * scale


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def oracle_trace(spec: PotentialSpec, units: UnitSystem, lambda_grid,
                 config: OracleConfig | None = None) -> TraceSamples:
    """Nonperturbative reduced trace difference over a Lambda grid.

    Inverse-square values come from boxes of both radii r1 < r2 of
    ``config.richardson_levels``, extrapolated as w(R) = w_inf + a/R^2; the
    error is a third of that step plus the larger channel-tail residual; every
    box scale x = sqrt(2 m Lambda) R / hbar of the grid and both radii must lie
    in [max(2 beta, 8), 2000] (ValueError otherwise).  Yukawa runs at r2 alone,
    on grids of step about r1/grid_points and twice that (one ``_grid_traces``
    sweep) and one Gauss-rule pass of classical differences, within the bounds of
    ``_box_error`` (ValueError otherwise).  The value, with grid-step Richardson,
    is the coupling-even part [W(+U) + W(-U)]/2 of the channels l <= l_max
    against their classical counterpart; it cancels the coupling-linear wall and
    grid artifacts to all odd orders.  Its error sums ``_box_error``,
    ``_tail_error`` and the fine grid's step and odd (cubic and beyond) content.
    Bare and cutoff Coulomb raise ``UnsupportedPotentialError``.
    """
    if config is None:
        config = OracleConfig()
    lams = [float(l) for l in lambda_grid]
    if not lams:
        raise ValueError("lambda_grid must not be empty")
    if not all(0.0 < l < math.inf for l in lams):
        raise ValueError("Lambda values must be finite and positive")

    fam = spec.family
    if fam in (Family.COULOMB, Family.CUTOFF_COULOMB):
        kind = "bare" if fam is Family.COULOMB else "cutoff"
        raise UnsupportedPotentialError(
            f"{kind} Coulomb tail is not representable in a finite box oracle"
        )

    r1, r2 = config.richardson_levels
    if fam is Family.INVERSE_SQUARE:
        beta2 = 2.0 * units.m * spec.alpha / units.hbar**2
        x_lo = math.sqrt(2.0 * units.m * min(lams)) * r1 / units.hbar
        x_hi = math.sqrt(2.0 * units.m * max(lams)) * r2 / units.hbar
        x_min = max(2.0 * math.sqrt(beta2), _CASE_A_X_MIN)
        if not (x_min <= x_lo and x_hi <= _CASE_A_X_MAX):
            lam, r_box, x = (min(lams), r1, x_lo) if x_lo < x_min else (max(lams), r2, x_hi)
            raise ValueError(
                f"box scale x = sqrt(2 m Lambda) R / hbar = {x:g} at Lambda = {lam:g}, "
                f"box radius R = {r_box:g}, is outside [max(2 beta, {_CASE_A_X_MIN:g}), "
                f"{_CASE_A_X_MAX:g}] = [{x_min:g}, {_CASE_A_X_MAX:g}]; "
                f"move the Lambda window into it")
        vals, errs = [], []
        for lam in lams:
            (w1, t1), (w2, t2) = (_case_a_w_at_radius(beta2, lam, r, units) for r in (r1, r2))
            w_inf = (r2 * r2 * w2 - r1 * r1 * w1) / (r2 * r2 - r1 * r1)
            vals.append(w_inf)
            errs.append(abs(w_inf - w2) / 3.0 + max(t1, t2))
        return TraceSamples(tuple(lams), tuple(vals), tuple(errs),
                            Source.ORACLE, spec, units)

    k = np.sqrt(2.0 * units.m * np.array(lams)) / units.hbar
    g = 2.0 * units.m * spec.Z * units.e2 / (units.hbar**2 * spec.kappa)
    if spec.kappa * r2 < _KAPPA_R_MIN or k.min() < _K_MIN * spec.kappa or g > _G_MAX:
        raise ValueError(f"the box bar is checked at kappa R >= {_KAPPA_R_MIN:g}, k >= "
                         f"{_K_MIN:g} kappa and g <= {_G_MAX:g}; here kappa R = "
                         f"{spec.kappa * r2:g} (R = {r2:g}), k = {k.min() / spec.kappa:g} "
                         f"kappa at Lambda = {min(lams):g}, g = {g:g}")
    n = int(round(config.grid_points * r2 / (2.0 * r1)))   # coarse grid; the fine one has 2n
    c_p1, c_m1, c_ph, c_mh = _classical_difference(spec, units, _COUPLING_FACTORS[:4], lams,
                                                   r2, config.ell_max + 1.0)
    # (grid, factor, lam, ell): every sum runs over ell as the contiguous last
    # axis, so that it adds in the order of a 1-D np.sum over one channel series
    diffs = np.stack(_grid_traces(spec, units, lams, [(r2, 2 * n), (r2, n)], config.ell_max))
    deg = 2.0 * np.arange(config.ell_max + 1) + 1.0
    # channel terms (2 ell + 1) [Tr_f - Tr_0] of the factors 1, -1, 1/2, -1/2
    t_p1, t_m1, t_ph, t_mh = np.moveaxis(deg * diffs, 1, 0)
    terms = 0.5 * (t_p1 + t_m1)
    (q_fine, q_coarse), c_even = np.sum(terms, axis=-1), 0.5 * (c_p1 + c_m1)
    w_fine, w_coarse = q_fine - c_even, q_coarse - c_even
    w = (4.0 * w_fine - w_coarse) / 3.0
    # errors on the fine grid; the odd content is the cubic and beyond:
    # [W(1) - W(-1)]/2 - [W(1/2) - W(-1/2)]
    h_err = np.abs(w_fine - w_coarse) / 3.0
    w_odd_full = 0.5 * (np.sum(t_p1[0] - t_m1[0], axis=-1) - (c_p1 - c_m1))
    w_odd_half = np.sum(t_ph[0] - t_mh[0], axis=-1) - (c_ph - c_mh)
    odd_resid = np.abs(w_odd_full - w_odd_half) * 4.0 / 3.0
    box_err = _box_error(np.abs(q_fine) + np.abs(c_even), k, spec.kappa, r2)
    err = _tail_error(terms[0]) + h_err + odd_resid + box_err
    return TraceSamples(tuple(lams), tuple(w.tolist()), tuple(err.tolist()),
                        Source.ORACLE, spec, units)
