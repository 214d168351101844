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
fraction summed backward in numpy.  At fixed beta^2 a box's Lambda w is a
function of its scale x alone, so one pass runs a list of scales: the orders
below 1.5 x, the only ones deeper than 23 steps, take one call for up to 32
boxes, each with its box's x, and each box then runs the rest.  Yukawa runs
one box, within bounds on kappa R, Lambda, the coupling and the grid step,
that ends at kappa R = 10 where the configured box is larger, with O(N)
pivot recursions of the tridiagonal radial grid operator, run from both walls
at once and joined by a twist term, without eigenvalues, that sum each
channel's difference against the free channel row by row, up to l_max.  Its
classical term counts only those channels: the phase-space integral over
lambda = l + 1/2 < l_max + 1, so the channels left out need no extrapolation,
only an Euler-Maclaurin error.  Bare and cutoff Coulomb are rejected: a box
cannot hold a 1/r tail.

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

import numpy as np

from ._records import Record
from .errors import UnconvergedError, UnsupportedPotentialError
from .perturbation import Source, TraceSamples, check_lambda_grid
from .potentials import Family, PotentialSpec, evaluate
# Not called here: bench/tracing.py wraps spectral_oracle.integrate_adaptive
# by name, so the name stays importable for its --trace runs.
from .quadrature import integrate_adaptive  # noqa: F401
from .units import UnitSystem


class OracleConfig(Record):
    """Box and grid sizes of ``oracle_trace``.

    ``richardson_levels`` is the (small, large) pair of box radii: case A
    runs both.  Yukawa runs one box, with the fine step about
    small radius / ``grid_points``; the large radius is the largest it may
    use, and its box ends sooner, at 10/kappa, where that is smaller
    (``oracle_trace``).  ``ell_max`` is the last channel summed,
    quantum and classical alike.  No code reads ``box_radius``; it stays only
    because ``bench/workloads.py`` still sets it (ROADMAP item 1).
    """

    def __init__(self, box_radius: float = 40.0, ell_max: int = 60, grid_points: int = 2400,
                 richardson_levels: tuple = (20.0, 40.0)) -> None:
        """Raises ValueError on a box_radius that is not positive, an ell_max < 10 or grid_points
        < 200 or either not an integer, or richardson_levels not two increasing finite radii.
        richardson_levels is stored as a tuple, so a list gives the same, hashable record."""
        try:
            radii = tuple(richardson_levels)
            radii_ok = len(radii) == 2 and 0.0 < radii[0] < radii[1] < math.inf
        except TypeError:   # not iterable, or radii that do not compare with floats
            radii, radii_ok = richardson_levels, False
        self._set(box_radius=box_radius, ell_max=ell_max, grid_points=grid_points,
                  richardson_levels=radii)
        if not (self.box_radius > 0.0):
            raise ValueError("box_radius must be positive")
        for name, least in (("ell_max", 10), ("grid_points", 200)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}")
        if not radii_ok:
            raise ValueError(
                "richardson_levels must be two finite, positive, strictly increasing radii")


def ive(v, z):
    """scipy.special.ive, imported on the first call; no code here calls it.
    scipy comes with the test extra only."""
    from scipy.special import ive as scipy_ive
    return scipy_ive(v, z)


def eigvalsh_tridiagonal(d, e, **kwargs):
    """scipy.linalg.eigvalsh_tridiagonal, imported on the first call; no code here
    calls it.  scipy comes with the test extra only."""
    from scipy.linalg import eigvalsh_tridiagonal as scipy_eigvalsh_tridiagonal
    return scipy_eigvalsh_tridiagonal(d, e, **kwargs)


# ---------------------------------------------------------------------------
# Inverse-square fast path: exact Bessel-ratio channel sums
# ---------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)


def _cf_depth(flat: np.ndarray, x) -> np.ndarray:
    """The fraction's depth K = ceil(sqrt(nu^2 + 44 x) - nu) + 8 of each order, without cancelling."""
    return np.ceil(44.0 * x / (np.hypot(flat, np.sqrt(44.0 * x)) + flat)) + 8.0


def _bessel_ratio_cf(nu: np.ndarray, x) -> np.ndarray:
    """I_{nu+1}(x) / I_nu(x) for an array of orders, by continued fraction.

    ``x`` is one scale for every order or, for a 1-D ``nu``, one per order.
    The ratio is 1/(b_1 + 1/(b_2 + ...)) with b_j = 2 (nu + j) / x
    (DLMF 10.33.1), summed backward from a zero tail at depth
    K = ceil(sqrt(nu^2 + 44 x) - nu) + 8, written so that it neither cancels
    nor overflows.  Every b_j is positive, so each step r_j = 1/(b_j + r_{j+1})
    is stable and shrinks a change of the tail by r_j^2.  The dropped tail
    lies in (0, 1/b_{K+1}), so the value moves by at most
    prod r_j^2 / b_{K+1}; an order where that exceeds ``_EPS`` of its value
    raises ``UnconvergedError``, which names the x of one such order.
    Measured, the bound stays below 0.03 ``_EPS`` for x in [0.01, 1e5] and
    nu in [0, 7x + 200]; with 40 in place of 44 it reaches 1.3 ``_EPS`` at
    x = 1e5, nu = 0.

    The orders run in order of decreasing depth, so the orders still being
    summed at step j are a leading block, and each order does the arithmetic
    of a call on it alone: a batch returns what single calls do, bit for bit,
    whatever the other orders and their x.  At most eight arrays of the orders'
    size, the arguments included, are live at once.  The depths are read back
    from ``live``, the count of orders still summed at each step: the step loop
    slices by its entries as Python ints, and the tail check's K + 1 repeats
    each depth by its differences.
    """
    flat = nu.ravel()
    per_order = np.ndim(x) > 0
    depth = _cf_depth(flat, x)
    order = np.argsort(-depth, kind="stable")
    depth = depth[order]
    k_max = int(depth[0]) if depth.size else 0
    # the number of orders with depth >= j, for j = k_max, ..., 1: the depths, read back below
    live = np.searchsorted(-depth, -np.arange(k_max, 0, -1), side="right")
    del depth
    step = 2.0 / x[order] if per_order else 2.0 / x
    b0 = flat[order] * step       # b_j = b0 + j step
    r = np.zeros(flat.size)       # r_j, from r_{K+1} = 0
    slope = np.ones(flat.size)    # prod r_j; the value moves by its square per unit of tail
    b = np.empty(flat.size)       # b_j
    for j, n in zip(range(k_max, 0, -1), live.tolist()):
        r_n = r[:n]
        r_n += np.add(b0[:n], np.multiply(step[:n], j, out=b[:n]) if per_order else j * step,
                      out=b[:n])
        np.reciprocal(r_n, out=r_n)
        slope[:n] *= r_n
    del b
    # the tail check, in place: slope^2 / b_{K+1} against _EPS r
    live[1:] -= live[:-1]   # the number of orders of depth j, for j = k_max, ..., 1
    tail = np.repeat(np.arange(k_max + 1.0, 1.0, -1.0), live)   # K + 1
    tail *= step
    tail += b0
    unconverged = np.divide(np.square(slope, out=slope), tail, out=slope) > np.multiply(
        r, _EPS, out=tail)
    if unconverged.any():
        x_bad = x[order[np.argmax(unconverged)]] if per_order else x
        raise UnconvergedError(
            f"Bessel-ratio continued fraction at x = {x_bad:g}: "
            f"{np.count_nonzero(unconverged)} orders unconverged at their depth")
    out = tail                    # spent
    out[order] = r
    return out.reshape(nu.shape)


def bessel_channel_sums(nu: np.ndarray, x: float) -> np.ndarray:
    """Lambda sum_n (Lambda + E_n)^-1 over the Dirichlet box levels of each order.

    The levels are E_n = hbar^2 z_{nu,n}^2 / (2 m R^2) with z_{nu,n} the
    zeros of J_nu, and x = sqrt(2 m Lambda) R / hbar.  The pole expansion
    of J_{nu+1}/J_nu gives sum_n (z_{nu,n}^2 + x^2)^-1 = I_{nu+1}(x) / (2 x
    I_nu(x)), so the result is x I_{nu+1}(x) / (2 I_nu(x)), with the ratio
    from ``_bessel_ratio_cf``, whose input checks these are.  Every order is
    worked out on its own, so one call on many orders returns what one call
    per order would, bit for bit.
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


def _case_a_ladders(n: int, beta2: float) -> tuple[np.ndarray, np.ndarray]:
    """The quantum orders sqrt((l+1/2)^2 + beta2) and the free orders l + 1/2 of l < n, two
    ascending ladders.  A box of scale x takes the first ceil(6x) + 200 of each, then
    ``_case_a_end_orders``; no order below 1.5 x lies past l = ceil(1.5 x), since
    sqrt((l+1/2)^2 + beta2) >= l + 1/2."""
    nu_l = np.arange(n, dtype=float) + 0.5
    return np.sqrt(nu_l * nu_l + beta2), nu_l


_CASE_A_BOXES = 32   # the most boxes oracle_trace gives one _case_a_boxes call: bounds its memory


def _case_a_boxes(beta2: float, xs: np.ndarray) -> np.ndarray:
    """Lambda w for U = alpha/r^2 in a box of each scale x of ``xs``, and Lambda times its
    residual-tail estimate: shape (2,) + ``xs.shape``.

    At fixed beta2 = 2 m alpha / hbar^2, Lambda w depends only on the box scale
    x = sqrt(2 m Lambda) R / hbar.  A box sums l < n = ceil(6x) + 200 channels,
    its quantum orders against its free orders, prefixes of ``_case_a_ladders``,
    each weighted 2 (l + 1/2); then it subtracts its closed-form classical term
    and beta2 times ``_case_a_linear_response``.  One ``_bessel_ratio_cf`` call,
    with an x per order, takes every box's eight ``_case_a_end_orders`` and its
    ladder orders below 1.5 x, the only ones deeper than 23 steps, cut by
    position from ladders of ceil(1.5 x) + 1 rungs at the largest x: its memory
    grows with the number of boxes.  The full ladders are built after it; each
    box then runs its orders at or above 1.5 x in a call of its own.  Every
    order does the arithmetic of a call on its box alone, so a box's bits do
    not depend on the other boxes.
    """
    flat = np.ravel(xs).tolist()
    n_chs = [math.ceil(6.0 * x) + 200 for x in flat]   # each box's channels
    short_q, short_l = _case_a_ladders(math.ceil(1.5 * max(flat)) + 1, beta2)
    cuts = list(zip(*(np.searchsorted(nu, 1.5 * np.array(flat)).tolist()
                      for nu in (short_q, short_l))))
    low = np.concatenate([nu for (cut_q, cut_l), n in zip(cuts, n_chs) for nu in (
        short_q[:cut_q], short_l[:cut_l], _case_a_end_orders(float(n)))])
    sizes = [cut_q + cut_l + 8 for cut_q, cut_l in cuts]
    del short_q, short_l
    low = np.split(_bessel_ratio_cf(low, np.repeat(flat, sizes)), np.cumsum(sizes)[:-1])
    nu_q, nu_l = _case_a_ladders(max(n_chs), beta2)
    two_nu_l = 2.0 * nu_l
    boxes = []
    for x, n, (cut_q, cut_l), low_ratio in zip(flat, n_chs, cuts, low):
        high = _bessel_ratio_cf(np.concatenate([nu_q[cut_q:n], nu_l[cut_l:n]]), x)
        # each ladder's ratios, its low part then its high part: quantum, then free
        s = 0.5 * x * np.concatenate([low_ratio[:cut_q], high[:n - cut_q],
                                      low_ratio[cut_q:cut_q + cut_l], high[n - cut_q:]])
        quantum = float(np.sum(two_nu_l[:n] * (s[:n] - s[n:])))
        j = float(n)
        linear_response = _case_a_linear_response(0.5 * x * low_ratio[cut_q + cut_l:], x, j)
        # the tail stays in Python floats: its ** 2, C pow, can differ from v * v in the last bit
        boxes.append((quantum - _case_a_classical(x, j, beta2) - beta2 * linear_response,
                      x * x * beta2 * beta2 / (8.0 * (j * j + x * x) ** 2)))
    return np.moveaxis(np.reshape(boxes, (*np.shape(xs), 2)), -1, 0)


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

    Both ``ValueError``s guard direct callers only; ``oracle_trace``'s bounds keep
    them from firing: L^2 >= 121 > 80/e >= g/e, and z = |f| g kappa^2/k^2 <= g/9 <= 8.9
    gives r* <= W0(8.9)/kappa, about 1.6/kappa, below R >= 4/kappa.
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
        core = factor > 0.0   # f > 0 lanes are attractive
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


_COUPLING_FACTORS = (1.0, -1.0, 0.5, -0.5, 0.0)   # the last is the free lane
_SWEEP_BLOCK = 4   # row steps whose diagonal parts ``_grid_traces`` tabulates at once


def _grid_traces(spec, units, lams, r_box, n, ell_max):
    """Tr (lam + H_f)^-1 - Tr (lam + H_0)^-1 of every channel on a box's two grids.

    The box of radius ``r_box`` takes a fine grid of 2n points and a coarse
    one of n.  Returns shape (2, len(_COUPLING_FACTORS) - 1, len(lams),
    ell_max + 1), fine grid first: the difference against the free channel
    (the last factor, 0) for each other f of ``_COUPLING_FACTORS``.
    H_f is the Dirichlet tridiagonal radial operator on r_i = i r_box / N,
    0 < i < N, with the potential scaled by f.  Tr (lam + H)^-1 is
    d/dlam log det, and the determinant of the symmetric tridiagonal
    lam + H, with diagonal a_i and off-diagonal b, splits at any row k into
    pivots run from both walls (Meurant, SIAM J. Matrix Anal. Appl. 13, 707
    (1992)): det = (prod_{i<=k} d_i)(prod_{i>k} e_i)(1 - tau), with the top
    pivots d_i = a_i - b^2/d_{i-1}, the bottom ones e_i = a_i - b^2/e_{i+1}
    and the twist tau = b^2/(d_k e_{k+1}).  So the trace is
    sum_{i<=k} d'_i/d_i + sum_{i>k} e'_i/e_i + tau (d'_k/d_k + e'_{k+1}/e_{k+1})/(1 - tau),
    with d'_i = 1 + b^2 d'_{i-1}/d_{i-1}^2 and e'_i = 1 + b^2 e'_{i+1}/e_{i+1}^2,
    both >= 1.  Each row, and then the twist, adds a coupled lane's term minus
    the free lane's: the sum is the difference, not two large traces.

    The split sits at each grid's middle, so one pass of n row steps runs
    four pivot sequences in lockstep as lanes: the fine grid's rows 0 .. n-1
    from r = h outward and its rows 2n-2 .. n from the wall inward, then the
    coarse grid's halves the same way.  They lie on a leading sequence axis,
    longest first, so the live sequences stay a leading block as the shorter
    ones end.  U and 1/r^2 are evaluated once, on the fine nodes, and the
    coarse grid reads every second one: its node (r_box/n) i is the fine node
    (r_box/2n) 2i to the bit, since halving the step is exact.  The diagonal's
    two parts, shift + cent/r^2 per (sequence, lam, ell) and f U per
    (sequence, factor), are tabulated ``_SWEEP_BLOCK`` row steps at a time, so
    each step adds them with one broadcast.  A block's radial table has no
    factor axis, so it holds ``_SWEEP_BLOCK``/5 times the lanes, and its
    coupling table is small: memory stays O(lanes + N), not O(N lanes).
    """
    hbar, m = units.hbar, units.m
    h = r_box / (2 * n)
    r = h * np.arange(1, 2 * n)
    # (step, sequence) tables of 1/r^2 and U: step j reads fine node j and
    # 2n - 2 - j, then coarse row j and n - 2 - j, which are fine node 2j + 1
    # and 2n - 3 - 2j; a sequence past its end reads a clipped, unused node
    at = np.arange(n)[:, None] * [1, -1, 2, -2] + [0, 2 * n - 2, 1, 2 * n - 3]
    inv_r2, pot = (np.take(a, at, mode="clip") for a in (1.0 / (r * r), evaluate(spec, units, r)))
    del r, at   # the sweep keeps no more of the nodes than these tables
    lengths = (n, n - 1, n // 2, (n - 1) // 2)
    # lanes are laid out as (sequence, factor, lam, ell), so that ell runs innermost
    kin = np.array([hbar * hbar / (m * s * s) for s in (h, h, r_box / n, r_box / n)])
    kin = kin[:, None, None, None]
    shift = kin + np.asarray(lams, dtype=float)[:, None]
    factor = np.array(_COUPLING_FACTORS)[:, None, None]
    ell = np.arange(ell_max + 1, dtype=float)
    cent = hbar * hbar * ell * (ell + 1.0) / (2.0 * m)
    # d_{-1} = inf makes the first row's update give d_0 = a_0 and d'_0 = 1
    d = np.full((4, len(_COUPLING_FACTORS), len(lams), ell_max + 1), np.inf)
    b2 = np.broadcast_to(0.25 * kin * kin, d.shape).copy()   # b^2 / d divides without a broadcast
    dp = np.ones_like(d)
    g = np.zeros_like(d)   # a sequence of no rows keeps d'/d = 0, so its twist is 0
    diff = np.zeros(d[:, :-1].shape)
    step = np.empty_like(diff)
    # The row update works in place in spare buffers, on flat views (x_ of x)
    # where the shapes agree: with a fresh array per operation the sweep ran
    # about 10% slower, and a flat operation costs less to set up than a 4-D one.
    # The first `live` sequences run up to step lengths[live - 1].
    start = 0
    for live, stop in zip((4, 3, 2, 1), lengths[::-1]):
        d_all, g_all, step_all = d[:live], g[:live], step[:live]
        coupled, free = g_all[:, :-1], g_all[:, -1:]
        d_, dp_, g_, b2_, diff_, step_ = (a[:live].reshape(-1) for a in (d, dp, g, b2, diff, step))
        for i in range(start, stop, _SWEEP_BLOCK):
            j = min(i + _SWEEP_BLOCK, stop)
            radial = shift[:live] + cent * inv_r2[i:j, :live, None, None, None]
            coupling = factor * pot[i:j, :live, None, None, None]
            for radial_i, coupling_i in zip(radial, coupling):
                np.divide(b2_, d_, g_)             # g = b^2 / d
                np.multiply(dp_, g_, dp_)          # d' = 1 + g d' / d
                np.divide(dp_, d_, dp_)
                np.add(dp_, 1.0, dp_)
                np.add(radial_i, coupling_i, d_all)
                np.subtract(d_, g_, d_)
                np.divide(dp_, d_, g_)             # g is spent: it takes d' / d
                np.subtract(coupled, free, step_all)
                np.add(diff_, step_, diff_)
        start = stop
    # the twist of each grid, from its top pivot d_k and bottom pivot e_{k+1},
    # in the spent buffers
    tau = np.multiply(d[::2], d[1::2], d[::2])
    np.divide(b2[::2], tau, tau)
    twist = np.add(g[::2], g[1::2], g[::2])
    twist *= tau
    twist /= np.subtract(1.0, tau, tau)
    traces = np.add(diff[::2], diff[1::2], diff[::2])
    traces += np.subtract(twist[:, :-1], twist[:, -1:], step[::2])
    return traces


def _tail_error(terms: np.ndarray) -> np.ndarray:
    """Twice F'(L)/24, the first Euler-Maclaurin remainder of the channels
    past the last, with F' the difference of the last two channel terms."""
    return np.abs(terms[..., -1] - terms[..., -2]) / 12.0


_BOX_C, _KAPPA_R_MIN, _K_MIN, _G_MAX = 4.0, 4.0, 3.0, 80.0   # C and the bounds a sweep checked
_KAPPA_R_CAP = 10.0   # the largest kappa R a Yukawa box runs (the sweep: oracle_trace)
# The fine step's bound at the largest Lambda, k = sqrt(2 m Lambda)/hbar.  In a sweep of
# Z = 0.05 (kappa 1), 1 and 3 (kappa 0.5) over R 12 and 40, Lambda 10-1000 and
# grid_points 200-2400, the bar covered the value at all 245 points with k h <= 0.5
# (miss/bar <= 0.97) and missed it at 74 of 86 with k h >= 0.57, by up to 44x.
_KH_MAX = 0.5


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

    The grid goes through ``check_lambda_grid`` before any other check or work.
    Inverse-square values come from boxes of both radii r1 < r2 of
    ``config.richardson_levels``, extrapolated as w(R) = w_inf + a/R^2; the
    error is a third of that step plus the larger channel-tail residual; every
    box scale x = sqrt(2 m Lambda) R / hbar of the grid and both radii must lie
    in [max(2 beta, 8), 2000] (ValueError otherwise), which the first Lambda's r1
    box and the last Lambda's r2 box bound.  Each box's Lambda w and tail come
    from ``_case_a_boxes`` on its scale, ``_CASE_A_BOXES`` boxes a call, so a
    long grid's memory stays that of one call; each box keeps the bits it has
    when run alone.
    Yukawa runs one box of radius R = min(r2, c/kappa), c = ``_KAPPA_R_CAP``:
    r2 is the largest radius it may use.  The fine step h is about
    r1/grid_points, from the 2n-point fine grid of r2, and the box keeps it:
    it takes min(n, ceil(c/(2 kappa h))) coarse rows, so R = r2 to the bit
    where kappa r2 <= c.  Its bar's box term goes like e^(-2 kappa R), and in a
    sweep over kappa 0.1-3, g 0.1-78, Lambda from k = 3 kappa to k h = 0.5 and
    the default, bench and criterion-9 boxes, c = 10 moved no value by 1e-4 of
    its bar and no bar by 1%.  The bounds of ``_box_error`` are checked at r2
    and k h <= ``_KH_MAX`` at the largest Lambda (ValueError otherwise), before
    one ``_grid_traces`` sweep, each grid's pivots run from both of its walls at
    once, of the box's fine grid and its coarse grid of step 2h, and one
    Gauss-rule pass of classical differences, both at R.  The value, with
    grid-step Richardson,
    is the coupling-even part [W(+U) + W(-U)]/2 of the channels l <= l_max
    against their classical counterpart; it cancels the coupling-linear wall and
    grid artifacts to all odd orders.  Its error sums ``_box_error``,
    ``_tail_error`` and the fine grid's step and odd (cubic and beyond) content.
    Bare and cutoff Coulomb raise ``UnsupportedPotentialError``.
    """
    if config is None:
        config = OracleConfig()
    lams = check_lambda_grid(lambda_grid)

    fam = spec.family
    if fam in (Family.COULOMB, Family.CUTOFF_COULOMB):
        kind = "bare" if fam is Family.COULOMB else "cutoff"
        raise UnsupportedPotentialError(
            f"{kind} Coulomb tail is not representable in a finite box oracle"
        )

    r1, r2 = config.richardson_levels
    if fam is Family.INVERSE_SQUARE:
        beta2 = 2.0 * units.m * spec.alpha / units.hbar**2
        lam_col = np.array(lams)[:, None]
        xs = np.sqrt(2.0 * units.m * lam_col) * [r1, r2] / units.hbar   # (Lambda, radius)
        x_lo, x_hi = float(xs[0, 0]), float(xs[-1, -1])   # the grid increases
        x_min = max(2.0 * math.sqrt(beta2), _CASE_A_X_MIN)
        if not (x_min <= x_lo and x_hi <= _CASE_A_X_MAX):
            lam, r_box, x = (lams[0], r1, x_lo) if x_lo < x_min else (lams[-1], r2, x_hi)
            raise ValueError(
                f"box scale x = sqrt(2 m Lambda) R / hbar = {x:g} at Lambda = {lam:g}, "
                f"box radius R = {r_box:g}, is outside [max(2 beta, {_CASE_A_X_MIN:g}), "
                f"{_CASE_A_X_MAX:g}] = [{x_min:g}, {_CASE_A_X_MAX:g}]; "
                f"move the Lambda window into it")
        per_call = _CASE_A_BOXES // 2   # Lambda values, two boxes each
        boxes = np.concatenate([_case_a_boxes(beta2, xs[i:i + per_call])
                                for i in range(0, len(lams), per_call)], axis=1)
        (w1, w2), (t1, t2) = (a.T for a in boxes / lam_col)
        vals = (r2 * r2 * w2 - r1 * r1 * w1) / (r2 * r2 - r1 * r1)
        errs = np.abs(vals - w2) / 3.0 + np.maximum(t1, t2)
        return TraceSamples(lams, tuple(vals.tolist()), tuple(errs.tolist()), Source.ORACLE,
                            spec, units)

    k = np.sqrt(2.0 * units.m * np.array(lams)) / units.hbar
    g = 2.0 * units.m * spec.Z * units.e2 / (units.hbar**2 * spec.kappa)
    if spec.kappa * r2 < _KAPPA_R_MIN or k.min() < _K_MIN * spec.kappa or g > _G_MAX:
        raise ValueError(f"the box bar is checked at kappa R >= {_KAPPA_R_MIN:g}, k >= "
                         f"{_K_MIN:g} kappa and g <= {_G_MAX:g}; here kappa R = "
                         f"{spec.kappa * r2:g} (R = {r2:g}), k = {k.min() / spec.kappa:g} "
                         f"kappa at Lambda = {min(lams):g}, g = {g:g}")
    n = int(round(config.grid_points * r2 / (2.0 * r1)))   # coarse grid; the fine one has 2n
    h = r2 / (2 * n)   # the fine step
    if k.max() * h > _KH_MAX:
        raise ValueError(f"the grid step is checked at k h <= {_KH_MAX:g}; here k h = "
                         f"{k.max() * h:g} (h = {h:g}) at Lambda = {max(lams):g}; lower "
                         f"Lambda or raise grid_points")
    # the box ends at kappa R = _KAPPA_R_CAP, at the same step, or at r2 if that is sooner
    n_box = min(n, math.ceil(_KAPPA_R_CAP / (2.0 * spec.kappa * h)))
    r_box = r2 if n_box == n else 2 * n_box * h
    c_p1, c_m1, c_ph, c_mh = _classical_difference(spec, units, _COUPLING_FACTORS[:-1], lams,
                                                   r_box, config.ell_max + 1.0)
    # (grid, factor, lam, ell): every sum runs over ell as the contiguous last
    # axis, so that it adds in the order of a 1-D np.sum over one channel series
    diffs = _grid_traces(spec, units, lams, r_box, n_box, config.ell_max)
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
    box_err = _box_error(np.abs(q_fine) + np.abs(c_even), k, spec.kappa, r_box)
    err = _tail_error(terms[0]) + h_err + odd_resid + box_err
    return TraceSamples(lams, tuple(w.tolist()), tuple(err.tolist()), Source.ORACLE, spec, units)
