import math
import re
import tracemalloc
import warnings
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import digamma, jv, lambertw

from anomaly_forge import spectral_oracle
from anomaly_forge.anomaly import delta_an_case_a_exact, extract_anomalies, fit_power_law
from anomaly_forge.errors import UnconvergedError, UnsupportedPotentialError
from anomaly_forge.perturbation import Source, compute_w1, compute_w2, geometric_grid
from anomaly_forge.potentials import coulomb, cutoff_coulomb, evaluate, inverse_square, yukawa
from anomaly_forge.spectral_oracle import (
    OracleConfig,
    _classical_difference,
    _COUPLING_FACTORS,
    _grid_traces,
    _lambert_w,
    _turning_point,
    bessel_channel_sums,
    oracle_trace,
)
from anomaly_forge.units import ATOMIC, UnitSystem
from references import (
    bessel_ratio_cf_one_box,
    bessel_ratio_nu_derivative,
    case_a_box_orders,
    case_a_trace_one_box_at_a_time,
    grid_channel_levels,
    grid_trace_differences,
    grid_trace_differences_two_wall,
    pivot_pass,
    two_wall_trace,
    yukawa_classical_adaptive,
    yukawa_classical_cut_mpmath,
)

ALPHA_100 = 50.0  # 2 m alpha / hbar^2 = 100 in atomic units

# The benchmark's reduced screened box and criterion 9's box, with its Lambda grid
BENCH_BOX = OracleConfig(ell_max=30, grid_points=500, richardson_levels=(8.0, 12.0))
CRITERION_9_LAMS = tuple(geometric_grid(10.0, 100.0, 6))


def criterion_9_box(ell_max: int) -> OracleConfig:
    return OracleConfig(ell_max=ell_max, grid_points=2000, richardson_levels=(16.0, 22.0))


def jnu_zeros(nu: float, count: int) -> np.ndarray:
    """First ``count`` positive zeros of J_nu, by scan-and-bisect."""
    if nu < 0.0:
        raise ValueError("order must be nonnegative")
    zeros = []
    # start safely below the first zero
    x = max(1.0, nu + 1.85 * nu ** (1.0 / 3.0) - 1.0) if nu > 0 else 1.0
    step = 0.8
    f_prev = jv(nu, x)
    while len(zeros) < count:
        x_next = x + step
        f_next = jv(nu, x_next)
        if f_prev == 0.0:
            zeros.append(x)
            f_prev = f_next
            x = x_next
            continue
        if f_prev * f_next < 0.0:
            zeros.append(brentq(lambda t: jv(nu, t), x, x_next, xtol=1e-14))
        x, f_prev = x_next, f_next
    return np.array(zeros)


def _ladder_tail(n_from: int, delta: float, lam: float, level_scale: float) -> float:
    """sum_{n > n_from} (lam + level_scale (n+delta)^2)^-1, in digamma closed form."""
    y = math.sqrt(lam / level_scale)
    z = complex(n_from + 1 + delta, y)
    return float(digamma(z).imag) / (y * level_scale)


def channel_sum(nu: float, lam: float, r_box: float) -> float:
    """sum_n (lam + E_n)^-1 over one atomic-unit box channel, from production."""
    x = math.sqrt(2.0 * lam) * r_box
    return float(bessel_channel_sums(np.array([nu]), x)[0]) / lam


class TestChannelSpectrum:
    def test_free_s_wave_box(self):
        # the grid operator behind the screened oracle: at R = pi the free
        # s-wave levels are n^2/2, up to the O((k h)^2) grid error
        levels = grid_channel_levels(lambda r: 0.0 * r, 0, math.pi, 2400, ATOMIC)
        for n, e in enumerate(levels[:6], start=1):
            assert e == pytest.approx(n * n / 2.0, rel=1e-5)

    def test_jnu_zeros_interlace_known_orders(self):
        z0 = jnu_zeros(0.0, 3)
        assert z0 == pytest.approx([2.404825557695773, 5.520078110286311,
                                    8.653727912911012], rel=1e-12)
        zh = jnu_zeros(0.5, 4)
        assert zh == pytest.approx([math.pi * n for n in range(1, 5)], rel=1e-12)

    def test_yukawa_channel_vs_shooting(self):
        # independent oracle: radial shooting with bisection on the energy
        spec = yukawa(1.0, 1.0)
        r_box = 30.0
        lowest = grid_channel_levels(lambda r: evaluate(spec, ATOMIC, r), 0, r_box,
                                      6000, ATOMIC)[0]

        def u_at_wall(energy):
            def rhs(r, y):
                v = -math.exp(-r) / r
                return [y[1], 2.0 * (v - energy) * y[0]]

            r0 = 1e-6
            sol = solve_ivp(rhs, (r0, r_box), [r0, 1.0], rtol=1e-10, atol=1e-12,
                            dense_output=False)
            return sol.y[0][-1]

        e_shoot = brentq(u_at_wall, lowest - 0.01, lowest + 0.01, xtol=1e-9)
        assert lowest == pytest.approx(e_shoot, abs=1e-5)


class TestGridTraces:
    @pytest.mark.parametrize("n_fine", [200, 500, 1500])
    def test_free_box_closed_form(self, n_fine):
        # cutoff Coulomb with r_cut >= R is the constant U = -Z e^2 / r_cut in
        # the box; at ell = 0 the grid levels are kin (1 - cos(k pi/N)),
        # k = 1 .. N-1, so each factor's difference is the closed-form sum at
        # Lambda + f U minus the one at Lambda, written as one sum.  The pivot
        # recursion's own rounding leaves up to 1.3e-10 of it (N = 1500), with
        # the difference summed or taken from two compensated totals alike.
        r_box, lams = 8.0, [0.5, 10.0, 100.0, 3000.0]
        spec = cutoff_coulomb(1.0, 10.0)
        u = float(evaluate(spec, ATOMIC, np.array([r_box]))[0])
        traces = _grid_traces(spec, ATOMIC, lams, r_box, n_fine // 2, 10)
        assert traces.shape == (2, len(_COUPLING_FACTORS) - 1, len(lams), 11)
        for diffs, n_points in zip(traces, (n_fine, n_fine // 2)):
            kin = (n_points / r_box) ** 2
            k = np.arange(1, n_points)
            levels = kin * (1.0 - np.cos(k * math.pi / n_points))
            for i, factor in enumerate(_COUPLING_FACTORS[:-1]):
                for j, lam in enumerate(lams):
                    exact = float(np.sum(-factor * u / ((lam + factor * u + levels)
                                                        * (lam + levels))))
                    assert diffs[i, j, 0] == pytest.approx(exact, rel=3e-10), (n_points, factor,
                                                                               lam)

    @pytest.mark.parametrize("spec, lams, indefinite", [
        (yukawa(0.05, 1.0), [10.0, 100.0], False),
        (cutoff_coulomb(10.0, 0.1), [5.0], True),
        (yukawa(3.0, 0.5), [0.5], True),
    ], ids=["weak-yukawa", "cutoff-coulomb", "strong-yukawa"])
    def test_matches_eigensolve_reference(self, spec, lams, indefinite):
        # every grid, factor and channel against the eigenvalue sums, free
        # channel subtracted; in the indefinite cases some levels lie below
        # -Lambda, so lam + H has negative pivots and the recursion runs
        # through them unguarded
        r_box, n, ell_max = 8.0, 250, 12
        traces = _grid_traces(spec, ATOMIC, lams, r_box, n, ell_max)
        for diffs, n_points in zip(traces, (2 * n, n)):
            below = 0
            for ell in range(ell_max + 1):
                free = grid_channel_levels(lambda r: 0.0 * r, ell, r_box, n_points, ATOMIC)
                for i, factor in enumerate(_COUPLING_FACTORS[:-1]):
                    levels = grid_channel_levels(lambda r: factor * evaluate(spec, ATOMIC, r),
                                                  ell, r_box, n_points, ATOMIC)
                    for j, lam in enumerate(lams):
                        below += int(np.sum(levels < -lam))
                        exact = float(np.sum(1.0 / (lam + levels)) - np.sum(1.0 / (lam + free)))
                        assert diffs[i, j, ell] == pytest.approx(exact, rel=1e-9)
            assert (below > 0) == indefinite, n_points

    def test_coarse_nodes_are_every_second_fine_node(self):
        # the sweep evaluates U and 1/r^2 on the fine nodes (R/2n) i only and
        # reads the coarse nodes (R/n) i at fine index 2i: halving the step is
        # exact, so the two must agree bit for bit, odd n included (the
        # benchmark's, the default and criterion 9's boxes, then seeded ones)
        rng = np.random.default_rng(29)
        boxes = [(12.0, 375), (40.0, 2400), (22.0, 1375), (18.0, 771), (9.0, 451)]
        boxes += zip(rng.uniform(2.0, 80.0, 300).tolist(), rng.integers(100, 6000, 300).tolist())
        for r_box, n in boxes:
            coarse = (r_box / n) * np.arange(1, n)
            fine = (r_box / (2 * n)) * np.arange(1, 2 * n)
            assert np.array_equal(coarse, fine[1::2]), (r_box, n)

    def test_one_potential_evaluation_per_sweep(self, monkeypatch):
        # both grids read U from one evaluation on the fine nodes
        calls = []

        def counting(spec, units, r):
            calls.append(np.shape(r))
            return evaluate(spec, units, r)

        monkeypatch.setattr(spectral_oracle, "evaluate", counting)
        _grid_traces(yukawa(0.05, 1.0), ATOMIC, [10.0, 100.0], 12.0, 375, 10)
        assert calls == [(749,)]

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble has the precision of a double here")
    def test_extended_precision_sweep(self):
        # the benchmark's boxes (Yukawa Z = 0.05, kappa = 1, R 8 and 12, N 500
        # at R = 8, ell <= 30): the same recursion in np.longdouble bounds
        # the rounding of the double sweep; its worst lane measured 6.1e-10
        spec, lams, ell_max = yukawa(0.05, 1.0), [10.0, 20.0, 37.5, 100.0], 30
        for r_box, n in [(8.0, 250), (12.0, 375)]:
            traces = _grid_traces(spec, ATOMIC, lams, r_box, n, ell_max)
            for diffs, n_points in zip(traces, (2 * n, n)):
                ref = grid_trace_differences(spec, lams, r_box, n_points, ell_max,
                                             _COUPLING_FACTORS[:-1], ATOMIC)
                worst = float(np.max(np.abs((diffs - ref) / ref)))
                assert worst < 1e-9, (r_box, n_points)

    @pytest.mark.parametrize("spec, units, lams, boxes, ell_max", [
        (yukawa(0.05, 1.0), ATOMIC, [10.0, 20.0, 37.5, 100.0], [(8.0, 250), (12.0, 375)], 30),
        (yukawa(3.0, 0.5), ATOMIC, [0.5, 4.0], [(8.0, 150), (9.0, 451), (10.0, 100)], 12),
        (yukawa(1.0, 0.5), UnitSystem(hbar=0.5, m=2.0, e2=1.5), [3.0, 40.0],
         [(6.0, 203), (9.0, 317)], 10),
    ], ids=["bench-box", "strong-yukawa", "scaled-units"])
    def test_sweep_equals_row_by_row_reference(self, spec, units, lams, boxes, ell_max):
        # the sweep runs both walls of both grids as lanes of one pass,
        # tabulates its diagonals a block of row steps at a time and reads the
        # coarse grid's U from the fine nodes, yet every lane must do the
        # row-at-a-time two-wall recursion's arithmetic, twist included, in its
        # order on its own grid's nodes, so the double-precision reference
        # agrees bit for bit; the strong case has indefinite pivots, and odd n
        # and sequences that end inside a block
        for r_box, n in boxes:
            traces = _grid_traces(spec, units, lams, r_box, n, ell_max)
            for diffs, n_points in zip(traces, (2 * n, n)):
                ref = grid_trace_differences_two_wall(spec, lams, r_box, n_points, ell_max,
                                                      _COUPLING_FACTORS[:-1], units)
                assert np.array_equal(diffs, ref), (r_box, n_points)

    @pytest.mark.parametrize("n_rows", [7, 8])
    @pytest.mark.parametrize("definite", [True, False], ids=["spd", "indefinite"])
    def test_two_wall_split_identity(self, n_rows, definite):
        # Tr A^-1 from top pivots, bottom pivots and the twist equals the dense
        # inverse's trace at every split row, on seeded tridiagonals: diagonally
        # dominant ones are positive definite; the others are kept only when
        # indefinite, with every pivot from either wall and every 1 - tau at
        # least 0.2 from zero and the trace not a cancellation of its terms
        rng = np.random.default_rng(31 + n_rows)
        kept = 0
        while kept < 10:
            off2 = rng.uniform(0.1, 1.0, n_rows - 1)
            diag = rng.uniform(2.5, 4.0, n_rows) if definite else rng.uniform(-3.0, 3.0, n_rows)
            a = np.diag(diag) + np.diag(np.sqrt(off2), 1) + np.diag(np.sqrt(off2), -1)
            levels = np.linalg.eigvalsh(a)
            exact = float(np.trace(np.linalg.inv(a)))
            if not definite:
                pivots = [d for rows, couplings in ((diag, [0.0, *off2]),
                                                    (diag[::-1], [0.0, *off2[::-1]]))
                          for d, _ in pivot_pass(rows, couplings)]
                taus = [off2[k - 1] / (pivots[k - 1] * pivots[2 * n_rows - 1 - k])
                        for k in range(1, n_rows)]
                if (levels.min() > 0.0 or min(np.abs(pivots)) < 0.2
                        or min(abs(1.0 - t) for t in taus) < 0.2
                        or abs(exact) < 0.1 * np.sum(1.0 / np.abs(levels))):
                    continue
            kept += 1
            for k in range(1, n_rows):
                assert two_wall_trace(diag, off2, k) == pytest.approx(exact, rel=1e-12), k

    @pytest.mark.parametrize("lams, r_box, n, ell_max, limit_kib", [
        ([10.0, 20.0, 37.5, 100.0], 12.0, 375, 30, 220),
        (list(geometric_grid(10.0, 100.0, 12)), 40.0, 2400, 60, 1280),
    ], ids=["bench-box", "default-box"])
    def test_sweep_memory_stays_lane_sized(self, lams, r_box, n, ell_max, limit_kib):
        # the row tables may cost a small multiple of the lanes, never a
        # block of full-lane diagonals: the bound is twice the traced peak
        # of a sweep that built each row's diagonal in the loop (110 KiB on
        # the benchmark's box, 640 KiB on the default box)
        spec = yukawa(0.05, 1.0)
        _grid_traces(spec, ATOMIC, [10.0], 8.0, 100, 10)   # first-call set-up is not counted
        tracemalloc.start()
        try:
            _grid_traces(spec, ATOMIC, lams, r_box, n, ell_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_kib * 1024, peak

    def test_no_eigensolve_in_production(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the screened oracle called an eigensolver")

        monkeypatch.setattr(spectral_oracle, "eigvalsh_tridiagonal", forbidden)
        cfg = OracleConfig(ell_max=10, grid_points=200, richardson_levels=(8.0, 12.0))
        samples = oracle_trace(yukawa(0.05, 1.0), ATOMIC, [20.0], cfg)
        assert all(math.isfinite(v) for v in samples.values + samples.errors)


class TestQuantumChannelTrace:
    def test_free_box_tail_vs_direct_summation(self):
        # R = pi free s-wave: E_n = n^2/2; direct summation with 1e5 terms
        # plus the midpoint remainder of the summed series
        got = channel_sum(0.5, 1.0, math.pi)
        n = np.arange(1, 100_001)
        direct = float(np.sum(1.0 / (1.0 + n * n / 2.0)))
        direct += math.sqrt(2.0) * math.atan(math.sqrt(2.0) / 100_000.5)
        assert got == pytest.approx(direct, rel=1e-9)

    def test_positive_lambda(self):
        with pytest.raises(ValueError):
            oracle_trace(inverse_square(1.0), ATOMIC, [10.0, 0.0])


class TestExactChannelSum:
    def test_matches_direct_zero_summation_half_integer(self):
        # nu = 1/2 has exactly the asymptotic ladder, so zeros + digamma
        # tail reproduce the closed form to round-off
        lam, r_box = 5.0, 20.0
        closed = channel_sum(0.5, lam, r_box)
        ev = (np.arange(1, 401) * math.pi) ** 2 / (2.0 * r_box * r_box)
        partial = float(np.sum(1.0 / (lam + ev)))
        scale = math.pi**2 / (2.0 * r_box * r_box)
        tail = _ladder_tail(400, 0.0, lam, scale)
        assert closed == pytest.approx(partial + tail, rel=1e-12)

    def test_matches_direct_zero_summation_large_order(self):
        # high effective order: the tail ladder is asymptotic, agreement at
        # the ppm level with 600 explicit zeros
        nu = math.sqrt(100.25)
        lam, r_box = 5.0, 20.0
        closed = channel_sum(nu, lam, r_box)
        z = jnu_zeros(nu, 600)
        ev = z * z / (2.0 * r_box * r_box)
        partial = float(np.sum(1.0 / (lam + ev)))
        scale = math.pi**2 / (2.0 * r_box * r_box)
        delta = nu / 2.0 - 0.25
        tail = _ladder_tail(600, delta, lam, scale)
        assert closed == pytest.approx(partial + tail, rel=3e-6)

    @pytest.mark.parametrize("ell", [0, 5])
    def test_channel_difference_approaches_half_order_gap(self, ell):
        # Lambda [sum_nu - sum_mu] -> -(nu - mu)/2 as the box grows, the
        # per-channel identity behind anomaly.delta_an_case_a_exact; the
        # gap is (nu + mu)/(2x) relative, x = sqrt(2 m Lambda) R / hbar, so
        # it halves when R doubles and a 1/R extrapolation removes it
        lam = 10.0
        mu = ell + 0.5
        nu = math.sqrt(mu * mu + 100.0)
        target = -(nu - mu) / 2.0

        def scaled_difference(r_box):
            return lam * (channel_sum(nu, lam, r_box) - channel_sum(mu, lam, r_box))

        d_half, d_full = scaled_difference(500.0), scaled_difference(1000.0)
        assert abs(d_full / target - 1.0) < 2.5e-3
        assert (d_half - target) / (d_full - target) == pytest.approx(2.0, rel=1e-2)
        assert 2.0 * d_full - d_half == pytest.approx(target, rel=1e-5)


_MIXED_X = (0.5, 5.0, 63.0, 800.0, 1e4)


class TestBesselRatioRoutes:
    # Every order takes the backward continued fraction.  Each point's
    # reference is x I_{nu+1}(x) / (2 I_nu(x)) at 50 digits; at 35 digits
    # the reference itself is off by about 4e-13 at x = 800.

    @staticmethod
    def _reference(nus, x):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        xm = mpmath.mpf(x)
        return np.array([float(xm / 2 * mpmath.besseli(mpmath.mpf(nu) + 1, xm)
                               / mpmath.besseli(mpmath.mpf(nu), xm)) for nu in nus])

    @pytest.mark.parametrize("x", [5.0, 63.0, 800.0, 1e4])
    def test_continued_fraction_orders(self, x):
        # at x/2, where the fraction is shallowest, up to 6x; at x = 800
        # nu = 1.33 x is where scipy's ive ratio is off by about 4e-13
        nus = np.array([0.5 * x, 0.5 * x + 1e-9, 0.5 * x + 0.5, 0.8 * x, 1.33 * x,
                        2.0 * x, 6.0 * x + 200.0])
        got = bessel_channel_sums(nus, x)
        assert got == pytest.approx(self._reference(nus, x), rel=2e-15, abs=0)

    @pytest.mark.parametrize("x", [5.0, 63.0, 800.0, 1e4])
    def test_ive_orders(self, x):
        # the orders below x/2 that scipy's ive ratio once served, from nu = 0,
        # where the fraction is deepest; that ratio was off by 2.9e-15 at
        # x = 63, 3.3e-14 at 800 and 6.6e-14 at 1e4 below x/2
        nus = np.array([0.0, 0.5, 1.0, 0.1 * x, 0.25 * x, 0.5 * x - 0.5,
                        0.5 * x - 1e-9])
        got = bessel_channel_sums(nus, x)
        assert got == pytest.approx(self._reference(nus, x), rel=2e-15, abs=0)

    def test_case_a_needs_no_ive(self, monkeypatch):
        # criterion 3's case-A fixture runs with ive unusable: one
        # _bessel_ratio_cf call on the quantum and free orders below 1.5 x and
        # the eight end orders of every box, each with its box's x, then one
        # per box on its quantum and free orders at or above 1.5 x
        calls = []

        def recording_cf(nu, x):
            calls.append((nu.copy(), np.copy(x)))
            return ratio_cf(nu, x)

        def no_ive(nu, x):
            raise AssertionError("the case-A oracle called ive")

        ratio_cf = spectral_oracle._bessel_ratio_cf
        monkeypatch.setattr(spectral_oracle, "_bessel_ratio_cf", recording_cf)
        monkeypatch.setattr(spectral_oracle, "ive", no_ive)
        lams = np.geomspace(5.0, 50.0, 8)
        oracle_trace(inverse_square(ALPHA_100), ATOMIC, lams)
        boxes = [math.sqrt(2.0 * ATOMIC.m * lam) * r / ATOMIC.hbar
                 for lam in lams for r in OracleConfig().richardson_levels]
        assert len(calls) == 1 + 2 * lams.size == 1 + len(boxes)
        (low, x_low), *rest = calls
        orders = [case_a_box_orders(x, 100.0) for x in boxes]
        # the quantum and free orders come first, then the eight end orders
        low_part = [(nu < 1.5 * x) | (np.arange(nu.size) >= nu.size - 8)
                    for nu, x in zip(orders, boxes)]
        assert np.array_equal(low, np.concatenate([nu[b] for nu, b in zip(orders, low_part)]))
        assert np.array_equal(x_low, np.repeat(boxes, [np.count_nonzero(b) for b in low_part]))
        for (nu, x), box, box_orders, b in zip(rest, boxes, orders, low_part):
            assert x.ndim == 0 and x == box
            assert np.array_equal(nu, box_orders[~b]) and np.all(nu >= 1.5 * box)
            # quantum orders, free orders and the eight end orders of the box
            assert box_orders.size == 2 * (math.ceil(6.0 * box) + 200) + 8

    @pytest.mark.parametrize("x", _MIXED_X)
    def test_one_box_call_matches_the_unshared_fraction(self, x):
        # one call on the orders of five boxes, shuffled together, each order
        # with its box's x, gives this box's orders the bits of every step of
        # the fraction on this box alone; so does a call on this box alone
        orders = [np.concatenate([np.arange(40.0) + 0.5, np.linspace(0.0, 7.0 * b + 200.0, 301)])
                  for b in _MIXED_X]
        reference = np.concatenate([bessel_ratio_cf_one_box(nu, b)
                                    for nu, b in zip(orders, _MIXED_X)])
        box = np.repeat(np.arange(len(_MIXED_X)), [nu.size for nu in orders])
        mix = np.random.default_rng(32).permutation(box.size)
        got = spectral_oracle._bessel_ratio_cf(np.concatenate(orders)[mix],
                                               np.array(_MIXED_X)[box[mix]])
        mine = box[mix] == _MIXED_X.index(x)
        assert np.array_equal(got[mine], reference[mix][mine])
        nus = orders[_MIXED_X.index(x)]
        assert np.array_equal(bessel_channel_sums(nus, x),
                              0.5 * x * bessel_ratio_cf_one_box(nus, x))

    @pytest.mark.parametrize("x", [0.01, 0.5, 8.0, 63.0, 800.0, 2000.0, 1e4, 1e5])
    def test_deep_orders_lie_below_one_and_a_half_x(self, x):
        # the case-A oracle runs each box's orders at or above 1.5 x in a call
        # of their own: every one of them is at most ceil(44/3) + 8 = 23 steps
        # deep, the edge order 1.5 x included
        nus = np.concatenate([[1.5 * x, np.nextafter(1.5 * x, math.inf)],
                              np.linspace(1.5 * x, 7.0 * x + 200.0, 3001),
                              np.arange(40.0) + 0.5])
        assert spectral_oracle._cf_depth(nus[nus >= 1.5 * x], x).max() <= 23

    @pytest.mark.parametrize("x", [0.01, 0.5, 8.0, 63.0, 800.0, 2000.0, 1e4, 1e5])
    def test_depth_rule_converges(self, x):
        # the depth K = ceil(sqrt(nu^2 + 44 x) - nu) + 8 passes the tail
        # bound over the orders the case-A oracle uses and beyond
        nus = np.concatenate([np.linspace(0.0, 7.0 * x + 200.0, 2001),
                              np.linspace(0.0, 3.0 * math.sqrt(x), 101)])
        got = bessel_channel_sums(nus, x)
        assert np.all(np.isfinite(got) & (got > 0.0))

    @pytest.mark.parametrize("nu, x, expected", [
        (1e300, 63.0, 9.9225e-298),     # the naive depth overflows here
        (0.5, 1e-300, 0.0),
        (0.5, 1e6, 499999.5),
        (1e5, 1e-3, 2.4999750002499975e-12),
    ])
    def test_extreme_finite_inputs(self, nu, x, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = bessel_channel_sums(np.array([nu]), x)
        assert got[0] == pytest.approx(expected, rel=1e-14, abs=0)

    @pytest.mark.parametrize("x", [0.5, 5.0, 63.0, 800.0])
    def test_batching_invariance(self, x):
        # one call on a mixed array equals one call per order, bit for bit:
        # orders of other depths summed in the same sweep must not let an
        # order's value depend on its neighbours
        half = 0.5 * x
        across = half + 0.125 + np.arange(-3.0, 5.0)
        nus = np.concatenate([
            np.arange(12.0) + 0.5,                  # unit ladder from the bottom
            np.sqrt(np.arange(6.0) ** 2 + 7.3),     # no ladder
            [3.5],                                  # duplicate of a ladder order
            [2.75], [3.75, 0.3],
            across[across >= 0.0],                  # unit ladder across x/2
            [half - 1e-9, half, 2.0 * x, 6.0 * x + 200.0],
        ])
        batch = bessel_channel_sums(nus, x)
        single = np.array([bessel_channel_sums(np.array([nu]), x)[0] for nu in nus])
        assert np.array_equal(batch, single)
        empty = bessel_channel_sums(np.array([]), x)
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)

    @pytest.mark.parametrize("nu, x", [
        ([1.0, math.nan], 10.0),
        ([1.0, -0.5], 10.0),
        ([1.0, math.inf], 10.0),
        ([1.0], 0.0),
        ([1.0], -3.0),
        ([1.0], math.nan),
        ([1.0], math.inf),
    ])
    def test_invalid_input_rejected(self, nu, x):
        with pytest.raises(ValueError):
            bessel_channel_sums(np.array(nu), x)

    def test_term_cap_raises(self, monkeypatch):
        # a tail bound that never counts as small enough must raise, not
        # return the value at the depth reached
        with monkeypatch.context() as patch:
            patch.setattr(spectral_oracle, "_EPS", -1.0)
            with pytest.raises(UnconvergedError, match="^Bessel-ratio continued fraction at "
                               "x = 63: 2 orders unconverged at their depth$"):
                bessel_channel_sums(np.array([0.5, 400.0]), 63.0)
        # with one x per order the message names the x of an unconverged
        # order: one step is far too shallow, and only the orders at x = 63 take it
        depth = spectral_oracle._cf_depth
        monkeypatch.setattr(spectral_oracle, "_cf_depth",
                            lambda nu, x: np.where(x == 63.0, 1.0, depth(nu, x)))
        with pytest.raises(UnconvergedError, match="^Bessel-ratio continued fraction at "
                           "x = 63: 2 orders unconverged at their depth$"):
            spectral_oracle._bessel_ratio_cf(np.array([0.5, 0.5, 400.0, 3.0]),
                                             np.array([800.0, 63.0, 63.0, 5.0]))

    def test_tail_check_reads_each_orders_own_depth(self, monkeypatch):
        # with _EPS just above, then just below, one order's own tail bound
        # prod r_j^2 / (b_{K+1} r), worked out for that order alone, exactly
        # the orders whose bound exceeds it are unconverged, in a call that
        # mixes depths and x; K off by one moves a bound by 0.2-4%
        def bound(nu, x):
            depth = int(spectral_oracle._cf_depth(np.array([nu]), x)[0])
            step, r, slope = 2.0 / x, 0.0, 1.0
            for j in range(depth, 0, -1):
                r = 1.0 / (r + (nu * step + j * step))
                slope *= r
            return slope * slope / (nu * step + (depth + 1) * step) / r

        nus = np.array([0.5, 3.5, 40.0, 400.0] * 3)
        xs = np.repeat([5.0, 63.0, 800.0], 4)
        bounds = np.array([bound(nu, x) for nu, x in zip(nus, xs)])
        for eps in np.concatenate([bounds * (1.0 + 1e-6), bounds * (1.0 - 1e-6)]):
            monkeypatch.setattr(spectral_oracle, "_EPS", eps)
            with pytest.raises(UnconvergedError, match=f": {np.count_nonzero(bounds > eps)} "
                               "orders unconverged") if np.any(bounds > eps) else nullcontext():
                spectral_oracle._bessel_ratio_cf(nus, xs)


class TestCaseASharedDeepSteps:
    # oracle_trace runs the orders below 1.5 x of every box of its grid, the
    # deep ones, through one fraction call; each value and bar must keep the
    # bits of the oracle that ran every step one box at a time

    @pytest.mark.parametrize("alpha, units, lams", [
        (ALPHA_100, ATOMIC, np.geomspace(5.0, 50.0, 8)),   # criterion 3's fixture
        *((beta2 * hbar * hbar / 2.0, UnitSystem(hbar=hbar), np.geomspace(5.0, 50.0, 8))
          for hbar in (0.5, 0.625, 0.8, 1.0) for beta2 in (50.0, 150.0)),
        (3.0, ATOMIC, np.geomspace(0.08, 1250.0, 7)),      # x = 8 at R = 20, 2000 at R = 40
    ], ids=["criterion-3", *(f"hbar={h}-beta2={b}" for h in (0.5, 0.625, 0.8, 1.0)
                             for b in (50, 150)), "x-8-to-2000"])
    def test_values_and_bars_match_one_box_at_a_time(self, alpha, units, lams):
        samples = oracle_trace(inverse_square(alpha), units, lams)
        vals, errs = case_a_trace_one_box_at_a_time(inverse_square(alpha), units, lams)
        assert [v.hex() for v in samples.values] == [v.hex() for v in vals]
        assert [e.hex() for e in samples.errors] == [e.hex() for e in errs]

    @pytest.mark.parametrize("hbar, counts", [
        (1.0, (17, 41_284, 855_406)),    # criterion 3's fixture
        (0.8, (17, 49_968, 1_067_566)),
        (0.625, (17, 62_124, 1_369_480)),
        (0.5, (17, 76_024, 1_720_334)),
    ], ids=["hbar=1-criterion-3", "hbar=0.8", "hbar=0.625", "hbar=0.5"])
    def test_kernel_work_is_counted(self, monkeypatch, hbar, counts):
        # one fraction call on the grid's low orders and one per box, with
        # the orders and the steps (the sum of every order's depth) of the
        # benchmark's case-A hbar values on its window, at beta^2 = 100: the
        # benchmark draws beta^2 from 50-150.  A change that adds fraction work
        # fails here, where timing noise would hide it
        calls = []

        def counting_cf(nu, x):
            calls.append((nu.size, int(spectral_oracle._cf_depth(nu, x).sum())))
            return ratio_cf(nu, x)

        ratio_cf = spectral_oracle._bessel_ratio_cf
        monkeypatch.setattr(spectral_oracle, "_bessel_ratio_cf", counting_cf)
        spec = inverse_square(100.0 * hbar * hbar / 2.0)
        oracle_trace(spec, UnitSystem(hbar=hbar), np.geomspace(5.0, 50.0, 8))
        orders, steps = (sum(column) for column in zip(*calls))
        assert (len(calls), orders, steps) == counts

    def test_memory_stays_box_sized(self):
        # only the low orders of the grid and one box's orders are held at a
        # time.  The traced peak is 1119 KiB, in the call on the grid's low
        # orders and every box's end orders; the bound leaves it 7.2%.  A
        # kernel that kept its b_j buffer through the tail check read 1250
        # KiB, one that kept two temporaries per step 1369 KiB, one that built
        # the grid's full order ladders before the low call 1232 KiB, and one
        # that held every box's orders at once 1.7 MiB
        units = UnitSystem(hbar=0.5)
        spec = inverse_square(150.0 * 0.25 / 2.0)
        oracle_trace(spec, units, [5.0])   # first-call set-up is not counted
        tracemalloc.start()
        try:
            oracle_trace(spec, units, np.geomspace(5.0, 50.0, 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1200 * 1024, peak

    def test_memory_does_not_grow_with_the_grid(self):
        # the low fraction call holds the low orders of at most 32 boxes (16
        # Lambda) at once: 128 points peak at 3460 KiB against 2214 at 16.
        # One call on the low orders of every box read 17 508 KiB at 128
        units = UnitSystem(hbar=0.5)
        spec = inverse_square(150.0 * 0.25 / 2.0)
        oracle_trace(spec, units, [5.0])   # first-call set-up is not counted
        peaks = []
        for points in (16, 128):
            tracemalloc.start()
            try:
                oracle_trace(spec, units, np.geomspace(5.0, 50.0, points))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0], peaks


class TestCaseAUnitCovariance:
    # At fixed beta^2 = 2 m alpha / hbar^2, Lambda w depends on (hbar, m,
    # Lambda) only through x = sqrt(2 m Lambda) R / hbar: Lambda' = Lambda
    # hbar'^2 / m' matches the reference point (hbar, m, Lambda) = (1, 1, 10).
    LAM = 10.0

    @staticmethod
    def _run(beta2, units, lam):
        """(Lambda w, the rounded beta^2 and x at every radius) of one point."""
        alpha = beta2 * units.hbar**2 / (2.0 * units.m)
        (w,) = oracle_trace(inverse_square(alpha), units, [lam]).values
        inputs = (2.0 * units.m * alpha / units.hbar**2,
                  *(math.sqrt(2.0 * units.m * lam) * r / units.hbar
                    for r in OracleConfig().richardson_levels))
        return lam * w, inputs

    @settings(max_examples=20, deadline=None)
    @given(hbar=st.floats(0.5, 2.0), m=st.floats(0.5, 2.0),
           beta2=st.floats(20.0, 150.0))
    def test_lambda_w_depends_on_x_only(self, hbar, m, beta2):
        ref, ref_inputs = self._run(beta2, ATOMIC, self.LAM)
        got, inputs = self._run(beta2, UnitSystem(hbar=hbar, m=m), self.LAM * hbar * hbar / m)
        # Where beta^2 and every x round alike, nothing else may matter.  A
        # last-bit change in x moves Lambda w through the rounding of the
        # channel sums: up to 3.7e-9 relative over 340 random points.
        rel = 1e-10 if inputs == ref_inputs else 3e-8
        assert got == pytest.approx(ref, rel=rel, abs=0)


def _values_in_atomic_units(units):
    """The screened oracle's values and bars for yukawa(0.05, 1) on the bench box and the
    default box, case A's at alpha = 50 on Lambda 5-50, w2 of yukawa(0.3, 1) and w1 of
    coulomb(1), each posed in ``units`` (kappa / a0, alpha E a0^2, Lambda E, radii a0)
    and returned times the energy unit E = e2 / a0."""
    a0 = units.a0
    energy = units.e2 / a0

    def scaled(config):
        return OracleConfig(config.box_radius * a0, config.ell_max, config.grid_points,
                            tuple(r * a0 for r in config.richardson_levels))

    out = []
    for spec, lams, config in [
        (yukawa(0.05, 1.0 / a0), (10.0, 20.0, 37.5, 100.0), BENCH_BOX),
        (yukawa(0.05, 1.0 / a0), (10.0, 20.0, 37.5, 100.0), OracleConfig()),
        (inverse_square(50.0 * energy * a0 * a0), geometric_grid(5.0, 50.0, 8), OracleConfig()),
    ]:
        samples = oracle_trace(spec, units, [lam * energy for lam in lams], scaled(config))
        out.append([w * energy for w in samples.values + samples.errors])
    for compute, spec in [(compute_w2, yukawa(0.3, 1.0 / a0)), (compute_w1, coulomb(1.0))]:
        out.append([compute(spec, units, lam * energy) * energy for lam in (1.0, 10.0, 100.0)])
    return out


@pytest.mark.parametrize("units", [UnitSystem(hbar=2.0), UnitSystem(hbar=0.5),
                                   UnitSystem(e2=2.0), UnitSystem(m=0.25)],
                         ids=["hbar-2", "hbar-half", "e2-2", "m-quarter"])
def test_exact_unit_covariance(units):
    # a0 a power of two and the energy unit e2/a0 a power of four: every
    # scaled input, and sqrt(2 m Lambda)/hbar, then differs from its atomic
    # value by an exact power of two, so each value times the energy unit is
    # the atomic value bit for bit (not so at m = 2 or hbar = 3)
    assert _values_in_atomic_units(units) == _values_in_atomic_units(ATOMIC)


class TestCaseAClassical:
    # _case_a_w_at_radius's classical term at its own j = ceil(6x) + 200,
    # against 40-digit mpmath of the eight powers whose sum it is

    @staticmethod
    def _reference(x, j, beta2):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        x, j, b2 = mpmath.mpf(x), mpmath.mpf(j), mpmath.mpf(beta2)
        p = lambda t: t * mpmath.sqrt(t)
        return float((p(x * x + j * j + b2) - p(x * x + b2) - p(x * x + j * j) + x**3
                      - p(j * j + b2) + p(b2) + j**3) / 3)

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(20.0, 2000.0), beta2=st.floats(20.0, 150.0))
    def test_against_mpmath(self, x, beta2):
        j = float(math.ceil(6.0 * x) + 200)
        got = spectral_oracle._case_a_classical(x, j, beta2)
        assert got == pytest.approx(self._reference(x, j, beta2), rel=0, abs=1e-8)

    @pytest.mark.parametrize("x", [20.0, 179.0, 2000.0])
    def test_free_is_exactly_zero(self, x):
        assert spectral_oracle._case_a_classical(x, float(math.ceil(6.0 * x) + 200), 0.0) == 0.0


class TestCaseALinearResponse:
    # The coupling-linear box response sum_{l<j} s'(l + 1/2) - [c(j) - c(0)],
    # s(nu) = x I_{nu+1}(x) / (2 I_nu(x)), taken in telescoped form, against
    # the ladder sum of exact nu-derivatives.  The central difference in the
    # order with step 1/4 that it replaced missed by 3e-5 to 1e-3 relative.

    @pytest.mark.parametrize("x, nu", [(5.0, 0.0), (20.0, 0.5), (63.0, 31.5),
                                       (63.0, 578.0), (800.0, 3.25), (800.0, 5000.0)])
    def test_reference_derivative_against_mpmath(self, x, nu):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        ratio = lambda v: mpmath.besseli(v + 1, x) / mpmath.besseli(v, x)
        got, d_got = bessel_ratio_nu_derivative(np.array([nu]), x)
        assert got[0] == pytest.approx(float(ratio(nu)), rel=1e-14)
        assert d_got[0] == pytest.approx(float(mpmath.diff(ratio, nu)), rel=1e-13)

    @pytest.mark.parametrize("x", [20.0, 63.0, 800.0])
    def test_telescoped_sum_matches_ladder_sum(self, x):
        j = float(math.ceil(6.0 * x) + 200)
        c_of = lambda nu: (math.sqrt(x * x + nu * nu) - nu) / 2.0
        _, d_ratio = bessel_ratio_nu_derivative(np.arange(j) + 0.5, x)
        reference = math.fsum(0.5 * x * d_ratio) - (c_of(j) - c_of(0.0))
        s_end = bessel_channel_sums(spectral_oracle._case_a_end_orders(j), x)
        got = spectral_oracle._case_a_linear_response(s_end, x, j)
        assert got == pytest.approx(reference, rel=1e-6)


class TestOracleW:
    def test_free_is_zero(self):
        samples = oracle_trace(inverse_square(0.0), ATOMIC, [10.0])
        (w,), (err,) = samples.values, samples.errors
        assert w == pytest.approx(0.0, abs=max(err, 1e-12))

    def test_case_a_power_law(self):
        spec = inverse_square(ALPHA_100)
        lams = np.geomspace(5.0, 50.0, 8)
        samples = oracle_trace(spec, ATOMIC, lams)
        assert samples.source is Source.ORACLE
        fit = fit_power_law(samples)
        assert fit.gamma == pytest.approx(1.0, abs=0.05)

    def test_case_a_box_scale_floor(self):
        # beta = 0.5: x = 5 at the smaller radius (20) is above 2 beta but
        # below the floor of 8; just above the floor the grid is accepted
        spec = inverse_square(0.125)
        with pytest.raises(ValueError, match=r"= 5 at .*\[max\(2 beta, 8\), 2000\] = \[8, 2000\]"):
            oracle_trace(spec, ATOMIC, [0.03125, 1.0])
        assert len(oracle_trace(spec, ATOMIC, [0.0801]).values) == 1

    def test_case_a_number_anomaly_near_exact(self):
        # criterion 3's fixture: 0.063% off the exact value (the step-h
        # difference left 0.99%); the rest is the 1/R box term
        samples = oracle_trace(inverse_square(ALPHA_100), ATOMIC, np.geomspace(5.0, 50.0, 8))
        exact = delta_an_case_a_exact(ALPHA_100, ATOMIC)
        assert extract_anomalies(samples).a_n == pytest.approx(exact, rel=1.5e-3)

    def test_case_a_box_convergence(self):
        spec = inverse_square(ALPHA_100)
        lam = 10.0
        s1 = oracle_trace(spec, ATOMIC, [lam], OracleConfig(richardson_levels=(15.0, 30.0)))
        s2 = oracle_trace(spec, ATOMIC, [lam], OracleConfig(richardson_levels=(30.0, 60.0)))
        (w1,), (e1,) = s1.values, s1.errors
        (w2,), (e2,) = s2.values, s2.errors
        assert abs(w1 - w2) <= e1 + e2

    def test_case_a_hbar_scaling(self):
        # fixed alpha, two hbar values: the reduced trace difference scales
        # like 1/hbar
        spec = inverse_square(ALPHA_100)
        lam = 10.0
        (w1,) = oracle_trace(spec, ATOMIC, [lam]).values
        (w2,) = oracle_trace(spec, UnitSystem(hbar=0.5), [lam]).values
        assert w2 / w1 == pytest.approx(2.0, rel=0.10)

    def test_case_a_strong_coupling_asymptote(self):
        # at strong coupling the trace difference approaches
        # -sqrt(2 m alpha)/(24 hbar Lambda): the gradient (hbar^2) correction
        # of the phase-space trace, which for a pure x^-2 potential is exact
        # in Lambda and leading in 1/coupling.  The channel construction and
        # that closed form are two independent routes; they must agree.
        for beta in (10.0, 20.0):
            spec = inverse_square(beta * beta / 2.0)
            lam = 10.0
            (w,) = oracle_trace(spec, ATOMIC, [lam]).values
            asymptote = -beta / (24.0 * lam)
            assert w == pytest.approx(asymptote, rel=0.02)

    def test_weak_yukawa_matches_w2(self):
        # light configuration, one Lambda; the full window is covered by the
        # acceptance suite
        spec = yukawa(0.05, 1.0)
        lam = 20.0
        cfg = OracleConfig(box_radius=18.0, ell_max=40, grid_points=1200,
                           richardson_levels=(14.0, 18.0))
        (w,) = oracle_trace(spec, ATOMIC, [lam], cfg).values
        target = compute_w2(spec, ATOMIC, lam)
        assert w == pytest.approx(target, rel=0.05)

    @pytest.mark.parametrize("spec, config, pinned", [
        # the benchmark's reduced box, capped at R = 10.016; w keeps only the
        # part even in U, so these are also the bits of the repulsive -U
        (yukawa(0.05, 1.0), BENCH_BOX, [
            ("-0x1.65b73d9bacbf5p-19", "0x1.f8baf2cae5d39p-23"),
            ("-0x1.7636b99689700p-21", "0x1.b6b680469c9cfp-25"),
            ("-0x1.b6a132ab9a6abp-23", "0x1.eb50adf3ff6bcp-27"),
            ("-0x1.fb582ddcb1000p-26", "0x1.b20e0d3b3b506p-29"),
        ]),
        # a radius ratio whose scaled grid is odd (1200 * 18/14 = 1542.9): the
        # grids at R = 18 take N 1542 and 771, exactly twice the step apart,
        # and the box ends after 429 coarse rows, at R = 10.016
        (yukawa(0.05, 1.0), OracleConfig(ell_max=40, grid_points=1200,
                                         richardson_levels=(14.0, 18.0)), [
            ("-0x1.65b764b551110p-19", "0x1.f25d6cf2a8899p-23"),
            ("-0x1.763a84dffffc0p-21", "0x1.a350b250fce55p-25"),
            ("-0x1.b6bfd95c2bb00p-23", "0x1.b2b01528c608ep-27"),
            ("-0x1.fd54b18887955p-26", "0x1.392f42a446210p-29"),
        ]),
        # kappa r2 = 10 = _KAPPA_R_CAP: the whole default box runs, with the
        # bits it had before the box was capped
        (yukawa(0.05, 0.25), OracleConfig(), [
            ("-0x1.9235d879760abp-19", "0x1.15335acf93558p-22"),
            ("-0x1.973ab91642555p-21", "0x1.d49efc2f1419bp-25"),
            ("-0x1.d32b72fdb2000p-23", "0x1.00ea02c48290bp-26"),
            ("-0x1.096f659957800p-25", "0x1.b605fbc174ad8p-29"),
        ]),
    ], ids=["repulsive-8-12", "attractive-14-18", "kappa-quarter-default-box"])
    def test_screened_values_pinned(self, spec, config, pinned):
        """Screened values and errors, bit for bit.

        Reorganising how the oracle assembles its grids, radii and coupling
        factors must leave every bit of both alone; any change to them is
        recorded in CHANGES.md with the old and new values.
        """
        samples = oracle_trace(spec, ATOMIC, (10.0, 20.0, 37.5, 100.0), config)
        assert [(v.hex(), e.hex()) for v, e in zip(samples.values, samples.errors)] == pinned

    def test_yukawa_runs_one_radius(self, monkeypatch):
        # 1200 * 18/14 = 1542.9 rounds odd: the coarse grid at R = 18 would take
        # round(771.4) rows and the fine grid twice that, so the step ratio is
        # exactly 2; the smaller radius sets only the step.  At kappa = 1 the
        # box ends at c/kappa = 10: ceil(10 / 2h) = 429 coarse rows of the same
        # step, R = 858 h, and the sweep, the classical term and the box term
        # all take that radius
        grid_calls, classical_calls, box_calls = [], [], []

        def grid_traces(spec, units, lams, r_box, n, ell_max):
            grid_calls.append((r_box, n))
            return real_grids(spec, units, lams, r_box, n, ell_max)

        def classical_difference(spec, units, factors, lams, r_box, L):
            classical_calls.append(r_box)
            return real_classical(spec, units, factors, lams, r_box, L)

        def box_error(scale, k, kappa, r_box):
            box_calls.append(r_box)
            return real_box(scale, k, kappa, r_box)

        real_grids = spectral_oracle._grid_traces
        real_classical = spectral_oracle._classical_difference
        real_box = spectral_oracle._box_error
        monkeypatch.setattr(spectral_oracle, "_grid_traces", grid_traces)
        monkeypatch.setattr(spectral_oracle, "_classical_difference", classical_difference)
        monkeypatch.setattr(spectral_oracle, "_box_error", box_error)
        cfg = OracleConfig(ell_max=10, grid_points=1200, richardson_levels=(14.0, 18.0))
        oracle_trace(yukawa(0.05, 1.0), ATOMIC, [20.0], cfg)
        ((r_box, n),) = grid_calls
        assert n == 429
        assert r_box / (2 * n) == 18.0 / 1542   # the step of the R = 18 grid, to the bit
        assert r_box == pytest.approx(10.0156, abs=1e-4)
        assert classical_calls == box_calls == [r_box]

    @pytest.mark.parametrize("kappa, config, rows", [
        (1.0, OracleConfig(), 600),      # R 40 -> 10: ceil(10 * 120 / 2)
        (1.0, BENCH_BOX, 313),           # R 12 -> 10.016: ceil(10 / 0.032)
        (0.25, OracleConfig(), 2400),    # kappa r2 = 10: the whole box
    ], ids=["default-box", "bench-box", "default-box-kappa-quarter"])
    def test_sweep_row_steps(self, monkeypatch, kappa, config, rows):
        # the sweep takes n row steps (each grid's top half; ``_grid_traces``);
        # a count, unlike a time, repeats exactly, so a change that grows the
        # sweep fails here.  The wrapper stops the run before the sweep
        class Stop(Exception):
            pass

        def grid_traces(spec, units, lams, r_box, n, ell_max):
            raise Stop(r_box, n)

        monkeypatch.setattr(spectral_oracle, "_grid_traces", grid_traces)
        with pytest.raises(Stop) as stop:
            oracle_trace(yukawa(0.05, kappa), ATOMIC, (10.0, 100.0), config)
        r_box, n = stop.value.args
        r1, r2 = config.richardson_levels
        assert n == rows
        assert r_box / (2 * n) == r2 / (2 * round(config.grid_points * r2 / (2 * r1)))
        assert (r_box == r2) == (kappa * r2 <= spectral_oracle._KAPPA_R_CAP)

    @pytest.mark.parametrize("spec, lams", [
        (yukawa(0.05, 1.0), (4.5, 10.0, 25.0, 60.0)),
        (yukawa(1.0, 0.5), (1.125, 3.0, 8.0, 15.0)),
        (yukawa(39.0, 1.0), (4.5, 10.0, 25.0, 60.0)),
    ], ids=["weak", "bound-state", "strong"])
    def test_capped_box_agrees_with_the_whole_box(self, monkeypatch, spec, lams):
        # kappa r2 = 20 on a coarse grid (225 coarse rows), capped to kappa R =
        # 10 against the whole box: the values agree within 1e-4 of the capped
        # bar and the bars within 1%, as in the sweep that chose the cap over
        # kappa 0.1-3, these three couplings (g = 0.1, 4 and 78) and the
        # default, bench and criterion-9 boxes
        r2 = 20.0 / spec.kappa
        cfg = OracleConfig(ell_max=20, grid_points=300, richardson_levels=(2.0 * r2 / 3.0, r2))
        capped = oracle_trace(spec, ATOMIC, lams, cfg)
        monkeypatch.setattr(spectral_oracle, "_KAPPA_R_CAP", 1e9)
        whole = oracle_trace(spec, ATOMIC, lams, cfg)
        w, err = np.array(capped.values), np.array(capped.errors)
        assert np.all(np.abs(w - np.array(whole.values)) <= 1e-4 * err)
        assert np.all(np.abs(err / np.array(whole.errors) - 1.0) <= 0.01)

    @pytest.mark.parametrize("spec, lams", [
        (yukawa(0.05, 1.0), (4.5, 8.0, 20.0, 100.0)),
        (yukawa(1.0, 0.5), (1.125, 5.0, 30.0, 100.0)),
        (yukawa(12.0, 1.0), (4.5, 5.0, 21.5, 50.0)),
    ], ids=["weak", "bound-state", "strong"])
    def test_box_bar_covers_the_box_effect_at_the_floor(self, monkeypatch, spec, lams):
        # kappa R = 4, the smallest box the guard admits, against kappa R = 12,
        # both at the step h = 0.016, from k = 3 kappa up: what the larger box
        # adds is the part of w beyond the smaller one's wall, and the box term
        # must cover it, yet not by more than 20x at the tightest point (measured
        # 0.075, 0.081 and 0.45 of it).  The strong case's w changes sign near
        # Lambda = 21.5, where a term relative to |w| would not cover it
        box_terms = []

        def box_error(*args):
            box_terms.append(real_box_error(*args))
            return box_terms[-1]

        real_box_error = spectral_oracle._box_error
        monkeypatch.setattr(spectral_oracle, "_box_error", box_error)
        r_box = spectral_oracle._KAPPA_R_MIN / spec.kappa
        w, w_ref = (np.array(oracle_trace(spec, ATOMIC, lams, OracleConfig(
            ell_max=20, grid_points=200, richardson_levels=(3.2, r))).values)
            for r in (r_box, 3.0 * r_box))
        ratio = np.abs(w - w_ref) / box_terms[0]
        assert np.all(ratio <= 1.0), ratio
        assert np.max(ratio) >= 0.05, ratio

    @pytest.mark.parametrize("spec, r_box, lam, message", [
        (yukawa(0.05, 1.0), 3.9, 10.0, r"kappa R = 3\.9 \(R = 3\.9\)"),
        (yukawa(0.3, 1.0), 4.0, 0.125, r"k = 0\.5 kappa at Lambda = 0\.125"),
        (yukawa(50.0, 1.0), 12.0, 10.0, r"g = 100$"),
    ], ids=["kappa-R", "k-over-kappa", "coupling"])
    def test_unchecked_box_bar_rejected_before_any_work(self, monkeypatch, spec, r_box, lam,
                                                        message):
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle worked outside the box bar's checked bounds")

        for name in ("_grid_traces", "_classical_difference"):
            monkeypatch.setattr(spectral_oracle, name, forbidden)
        cfg = OracleConfig(grid_points=200, richardson_levels=(2.0, r_box))
        with pytest.raises(ValueError, match=r"the box bar is checked at kappa R >= 4, k >= 3 "
                                             r"kappa and g <= 80; here .*" + message):
            oracle_trace(spec, ATOMIC, [lam, 20.0], cfg)

    def test_box_bar_bounds_are_inclusive(self):
        # kappa R = 4 and k = 3 kappa exactly (Lambda = 4.5) run
        cfg = OracleConfig(ell_max=10, grid_points=200, richardson_levels=(2.0, 4.0))
        assert len(oracle_trace(yukawa(0.05, 1.0), ATOMIC, [4.5], cfg).values) == 1

    def test_grid_step_bound(self, monkeypatch):
        # the fine step h = 12/300: k h = 0.31 at Lambda = 30 runs, and k h =
        # 0.57 at Lambda = 100, where the value missed its bar, raises before
        # any work
        cfg = OracleConfig(ell_max=30, grid_points=200, richardson_levels=(8.0, 12.0))
        spec = yukawa(0.05, 1.0)
        assert len(oracle_trace(spec, ATOMIC, [30.0], cfg).values) == 1

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle worked past the grid step's checked bound")

        for name in ("_grid_traces", "_classical_difference"):
            monkeypatch.setattr(spectral_oracle, name, forbidden)
        with pytest.raises(ValueError, match=r"^the grid step is checked at k h <= 0\.5; here "
                                             r"k h = 0\.565685 \(h = 0\.04\) at Lambda = 100; "):
            oracle_trace(spec, ATOMIC, [30.0, 100.0], cfg)

    def test_bench_box_integrand_nodes_are_counted(self, monkeypatch):
        # the benchmark's screened job evaluates U twice: once on the 8208
        # nodes of the classical batch, 228 segments of 24 + 12 Gauss nodes,
        # then once on the 625 fine nodes of the sweep's box (R 12 -> 10.016).
        # A change that adds integrand work fails here, where timing noise
        # would hide it
        calls = []

        def counting(spec, units, r):
            calls.append(np.shape(r))
            return evaluate(spec, units, r)

        monkeypatch.setattr(spectral_oracle, "evaluate", counting)
        oracle_trace(yukawa(0.05, 1.0), ATOMIC, [10.0, 20.0, 40.0, 100.0], BENCH_BOX)
        assert calls == [(228, 36), (625,)]

    def test_bench_box_lambda_100_near_w2(self):
        # the fitted power-law l-tail left this point 17.3% off w2
        spec = yukawa(0.05, 1.0)
        samples = oracle_trace(spec, ATOMIC, [100.0], BENCH_BOX)
        (w,), (err,) = samples.values, samples.errors
        target = compute_w2(spec, ATOMIC, 100.0)
        assert abs(w / target - 1.0) <= 0.01
        assert abs(w - target) <= err

    def test_criterion_9_box_with_sixteen_channels(self):
        # l_max = 15 on criterion 9's box: 0.16% worst (the fitted tail: 160%)
        spec = yukawa(0.05, 1.0)
        samples = oracle_trace(spec, ATOMIC, CRITERION_9_LAMS, criterion_9_box(15))
        targets = [compute_w2(spec, ATOMIC, lam) for lam in CRITERION_9_LAMS]
        assert max(abs(w / t - 1.0) for w, t in zip(samples.values, targets)) <= 0.005
        assert all(abs(w - t) <= e for w, t, e in zip(samples.values, targets, samples.errors))

    @pytest.mark.parametrize("ell_max", [10, 15])
    def test_tail_bar_covers_the_channels_left_out(self, ell_max, monkeypatch):
        # the tail component, from the even channel terms of the fine grid of
        # the box the oracle runs (criterion 9's box ends at kappa R = 10, on
        # its 625th coarse row), against what doubling the channel list moves
        spec = yukawa(0.05, 1.0)
        swept = []

        def recording_sweep(*args):
            swept.append((args, grid_traces(*args)))
            return swept[-1][1]

        grid_traces = spectral_oracle._grid_traces
        monkeypatch.setattr(spectral_oracle, "_grid_traces", recording_sweep)
        w, w_double = (np.array(oracle_trace(spec, ATOMIC, CRITERION_9_LAMS,
                                             criterion_9_box(l)).values)
                       for l in (ell_max, 2 * ell_max))
        (args, diffs), _ = swept
        assert args[3:] == (pytest.approx(10.0, rel=1e-12), 625, ell_max)
        t_p1, t_m1 = (2.0 * np.arange(ell_max + 1) + 1.0) * diffs[0, :2]
        tail_bar = spectral_oracle._tail_error(0.5 * (t_p1 + t_m1))
        ratio = tail_bar / np.abs(w - w_double)
        assert np.all((ratio >= 1.0) & (ratio <= 10.0)), ratio

    @pytest.mark.parametrize("spec", [yukawa(0.05, 1.0), inverse_square(ALPHA_100)],
                             ids=["yukawa", "inverse-square"])
    @pytest.mark.parametrize("grid, message", [
        ([10.0, math.nan], "Lambda values must be finite and positive"),
        ([10.0, math.inf], "Lambda values must be finite and positive"),
        ([], "Lambda grid must not be empty"),
        ([-1.0, 10.0], "Lambda values must be finite and positive"),
        # the grid the oracle once ran a whole pass on before it refused it
        ([100.0, 10.0, 20.0, 40.0], "Lambda values must be strictly increasing"),
        ([10.0, 20.0, 20.0, 40.0], "Lambda values must be strictly increasing"),
    ], ids=["nan", "inf", "empty", "negative", "unsorted", "repeated"])
    def test_nonfinite_lambda_rejected_before_any_work(self, monkeypatch, spec, grid, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle worked on a bad Lambda grid")

        for name in ("_grid_traces", "_classical_difference", "_case_a_ladders",
                     "_bessel_ratio_cf", "_case_a_boxes"):
            monkeypatch.setattr(spectral_oracle, name, forbidden)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            oracle_trace(spec, ATOMIC, grid)

    def test_coulomb_rejected(self):
        with pytest.raises(UnsupportedPotentialError):
            oracle_trace(coulomb(1.0), ATOMIC, [10.0])

    def test_cutoff_coulomb_rejected_before_any_work(self, monkeypatch):
        # a box cannot hold the 1/r tail: no sweep and no quadrature runs
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle worked on a cutoff-Coulomb spec")

        for name in ("_grid_traces", "_classical_difference"):
            monkeypatch.setattr(spectral_oracle, name, forbidden)
        with pytest.raises(UnsupportedPotentialError, match="cutoff Coulomb tail"):
            oracle_trace(cutoff_coulomb(1.0, 1.0), ATOMIC, [10.0])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            oracle_trace(inverse_square(1.0), ATOMIC, [])


# The classical term's configurations: the bench box, the CLI's default window
# (R = 40, l_max = 60) for Z = 0.05 and Z = 1, Z = 3 at small Lambda, and
# criterion 9's box.  The factors +-1 and +-1/2 run each cell as an attractive
# and a repulsive lane
_CLASSICAL_CONFIGS = {
    "bench-attractive": (yukawa(0.05, 1.0), (10.0, 20.0, 37.5, 100.0), 12.0, 31.0),
    "default-0.05": (yukawa(0.05, 1.0), tuple(geometric_grid(10.0, 100.0, 12)), 40.0, 61.0),
    "default-1": (yukawa(1.0, 0.5), tuple(geometric_grid(10.0, 100.0, 12)), 40.0, 61.0),
    "strong-3": (yukawa(3.0, 0.5), tuple(geometric_grid(0.5, 10.0, 8)), 40.0, 61.0),
    "criterion-9": (yukawa(0.05, 1.0), CRITERION_9_LAMS, 22.0, 61.0),
}


class TestClassicalDifference:
    @pytest.mark.parametrize("factor", [1.0, -1.0, 0.5, -0.5])
    def test_weak_yukawa_converges_cheaply(self, monkeypatch, factor):
        # |f U| << Lambda over most of the box: the integrand must not
        # cancel, or the two Gauss rules disagree on rounding noise; every
        # node of every segment goes through one integrand call
        mpmath = pytest.importorskip("mpmath")
        shapes = []

        def counting(spec, units, r):
            shapes.append(np.shape(r))
            return evaluate(spec, units, r)

        monkeypatch.setattr(spectral_oracle, "evaluate", counting)
        lam, r_box = 100.0, 12.0
        ((got,),) = _classical_difference(yukawa(0.05, 1.0), ATOMIC, [factor], [lam], r_box,
                                          math.inf)
        assert len(shapes) == 1 and shapes[0][1] == 36

        mpmath.mp.dps = 30
        lam_mp, f_mp = mpmath.mpf(lam), mpmath.mpf(factor)

        def inside(r):
            return lam_mp - f_mp * mpmath.mpf("0.05") * mpmath.exp(-r) / r

        def integrand(r):
            return r * r * (mpmath.sqrt(lam_mp) - mpmath.sqrt(max(inside(r), 0)))

        knots = [0, r_box]
        if factor > 0.0:
            knots.insert(1, mpmath.findroot(inside, (1e-4, 1e-3), solver="illinois"))
        exact = 2 * mpmath.sqrt(2) * mpmath.quad(integrand, knots)
        assert got == pytest.approx(float(exact), abs=1e-12)

    @pytest.mark.parametrize("config", list(_CLASSICAL_CONFIGS))
    def test_matches_the_adaptive_rule(self, config):
        # the fixed rule against adaptive Gauss-Kronrod on the knots 0, r0,
        # min(10 r0, R), R at abs_tol 1e-15 and rel_tol 1e-11
        spec, lams, r_box, L = _CLASSICAL_CONFIGS[config]
        factors = _COUPLING_FACTORS[:4]
        got = _classical_difference(spec, ATOMIC, factors, lams, r_box, L)
        ref = yukawa_classical_adaptive(spec, ATOMIC, factors, lams, r_box, L)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_cut_term_against_mpmath(self):
        # the channels l <= 10 of a repulsive lane (f = -1), where lam + f U > 0
        pytest.importorskip("mpmath")
        spec, lam, r_box, L = yukawa(1.0, 0.5), 4.0, 12.0, 11.0
        ((got,),) = _classical_difference(spec, ATOMIC, [-1.0], [lam], r_box, L)
        exact = yukawa_classical_cut_mpmath(spec, ATOMIC, -1.0, lam, r_box, L)
        assert got == pytest.approx(exact, rel=1e-9)

    def test_strong_attraction_cut_terms_finite(self):
        # at L = 1, lam + hbar^2 L^2/(2 m r^2) + U < 0 on a shell around r = 1:
        # the cut bracket changes branch at radii the rule has no knots for, so
        # L = 1 raises; at L = 11, L^2 is above g/e = 4.4 and it cannot
        spec, lam, r_box = yukawa(3.0, 0.5), 0.5, 12.0
        r = np.linspace(0.5, 1.5, 11)
        assert np.any(lam + 1.0 / (2.0 * r * r) + evaluate(spec, ATOMIC, r) < 0.0)
        with pytest.raises(ValueError, match="cut bracket can change branch"):
            _classical_difference(spec, ATOMIC, _COUPLING_FACTORS[:4], [lam], r_box, 1.0)
        cut = _classical_difference(spec, ATOMIC, _COUPLING_FACTORS[:4], [lam], r_box, 11.0)
        assert np.all(np.isfinite(cut))

    def test_strong_coupling_raises_or_matches(self):
        # yukawa(100, 0.5): g = 400, so g/e = 147 is above L^2 = 121 and the
        # coupling lanes raise; a half lane passes that guard but not the
        # rules' check, and a quarter lane (L^2 > 37) passes both
        spec, lams, r_box, L = yukawa(100.0, 0.5), [1.0, 3.0], 12.0, 11.0
        with pytest.raises(ValueError, match="cut bracket can change branch"):
            _classical_difference(spec, ATOMIC, _COUPLING_FACTORS[:4], lams, r_box, L)
        with pytest.raises(UnconvergedError, match="rules differ"):
            _classical_difference(spec, ATOMIC, [0.5], lams, r_box, L)
        got = _classical_difference(spec, ATOMIC, [0.25], lams, r_box, L)
        ref = yukawa_classical_adaptive(spec, ATOMIC, [0.25], lams, r_box, L)
        np.testing.assert_allclose(got, ref, rtol=1e-11, atol=0.0)

    def test_an_admitted_tail_segment_passes_the_check(self):
        # g = 80 at kappa R = 40, the lowest admitted Lambda = 4.5 kappa^2: the
        # last segment is 1e-8 of its cell and its 12-node rule is 2e-10 off,
        # so the check is on the cell's value, not the segment's
        spec = yukawa(4.0, 0.1)
        got = _classical_difference(spec, ATOMIC, [0.5], [0.045], 400.0, 61.0)
        ref = yukawa_classical_adaptive(spec, ATOMIC, [0.5], [0.045], 400.0, 61.0)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
           st.floats(-3.0, 3.0), st.floats(4.0, 1e3), st.floats(3.0, 1e3), st.floats(1e-6, 80.0),
           st.integers(10, 200))
    @settings(max_examples=300, deadline=None)
    def test_guards_cannot_fire_inside_the_oracles_bounds(self, log_hbar, log_m, log_e2,
                                                          log_kappa, kappa_r, k_over_kappa, g,
                                                          ell_max):
        # oracle_trace admits kappa R >= 4, k >= 3 kappa, g <= 80 and l_max >= 10.
        # There L^2 >= 121 > 80/e, and z = |f| g kappa^2/k^2 <= g/9 <= 8.9, so an
        # attractive lane's r* <= W0(8.9)/kappa, about 1.6/kappa, below R: neither
        # ValueError of _classical_difference can fire from the oracle
        units = UnitSystem(hbar=10.0**log_hbar, m=10.0**log_m, e2=10.0**log_e2)
        hbar, m = units.hbar, units.m
        kappa = 10.0**log_kappa
        spec = yukawa(g * hbar * hbar * kappa / (2.0 * m * units.e2), kappa)
        r_box = kappa_r / kappa
        lam = (hbar * k_over_kappa * kappa) ** 2 / (2.0 * m)
        # the admitted region as oracle_trace tests it
        k = math.sqrt(2.0 * m * lam) / hbar
        g = 2.0 * m * spec.Z * units.e2 / (hbar * hbar * kappa)
        assume(kappa * r_box >= 4.0 and k >= 3.0 * kappa and g <= 80.0)
        L = ell_max + 1.0
        factors = _COUPLING_FACTORS[:-1]
        assert L * L > max(abs(f) for f in factors) * g / math.e
        r_star = _turning_point(spec, units, factors, [lam])[:, 0]
        for f, rs in zip(factors, r_star):
            if f > 0.0:
                assert rs < r_box, (f, rs, r_box)

    def test_batch_equals_single_calls(self):
        # one call over (factors x Lambda) returns what one call per element
        # does, bit for bit, in a box that cuts some cells' doubling segments
        # short (R = 12) and one that does not (R = 20); f > 0 lanes are
        # attractive, f < 0 lanes repulsive
        spec = yukawa(1.0, 0.5)
        factors, lams = (1.0, -1.0, 0.5, -0.5), (1.5, 4.0, 40.0)
        for r_box in (12.0, 20.0):
            batch = _classical_difference(spec, ATOMIC, factors, lams, r_box, 31.0)
            assert batch.shape == (4, 3)
            for j, f in enumerate(factors):
                for k, lam in enumerate(lams):
                    alone = _classical_difference(spec, ATOMIC, [f], [lam], r_box, 31.0)
                    assert np.array_equal(batch[j, k], alone[0, 0]), (r_box, f, lam)


def _brentq_turning_point(spec, units, factor, lam):
    """The root of lam - |f U| by bracketing, or None where f = 0."""
    def inside(r):
        return lam - abs(factor * evaluate(spec, units, r))

    probe = 1e-12
    if not inside(probe) < 0.0:
        return None
    hi = 1.0
    while inside(hi) < 0.0:
        hi *= 2.0
    return brentq(inside, probe, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)


def _brentq_turning_points(spec, units, factors, lams):
    """``_turning_point``'s array of radii by bracketing, with 0 where f = 0."""
    return np.array([[_brentq_turning_point(spec, units, f, lam) or 0.0 for lam in lams]
                     for f in factors])


# the last is nearly Coulomb (kappa r* <= 0.033), where W0's argument is small and r*
# is within 3.3% of the bare Coulomb core |f| Z e^2 / Lambda
_TURNING_SPECS = [yukawa(1.0, 0.5), yukawa(0.05, 1.0), yukawa(3.0, 2.0), yukawa(1.0, 0.01)]
# cores from r0 = 3.23 (Lambda = 0.3, kappa = 0.01) down to 6.2e-4 (Lambda = 40, g = 0.025)
_TURNING_LAMS = (0.3, 1.5, 4.0, 40.0)


def _spec_id(spec):
    return f"Z{spec.Z:g}-kappa{spec.kappa:g}"


class TestTurningPoint:
    @pytest.mark.parametrize("spec", _TURNING_SPECS, ids=_spec_id)
    @pytest.mark.parametrize("factor", _COUPLING_FACTORS)
    def test_against_brentq(self, spec, factor):
        # both signs: the turning point of an attractive lane, and where a
        # repulsive one has fallen to Lambda
        for lam in _TURNING_LAMS:
            ref = _brentq_turning_point(spec, ATOMIC, factor, lam)
            ((got,),) = _turning_point(spec, ATOMIC, [factor], [lam])
            if ref is None:
                assert got == 0.0, lam
            else:
                assert got == pytest.approx(ref, rel=1e-13, abs=0.0), lam

    @pytest.mark.parametrize("spec", _TURNING_SPECS, ids=_spec_id)
    def test_classical_difference_matches_brentq_knots(self, monkeypatch, spec):
        r_box = 12.0
        got = _classical_difference(spec, ATOMIC, _COUPLING_FACTORS, _TURNING_LAMS, r_box,
                                    math.inf)
        monkeypatch.setattr(spectral_oracle, "_turning_point", _brentq_turning_points)
        ref = _classical_difference(spec, ATOMIC, _COUPLING_FACTORS, _TURNING_LAMS, r_box,
                                    math.inf)
        for i, f in enumerate(_COUPLING_FACTORS):
            for j, lam in enumerate(_TURNING_LAMS):
                assert got[i, j] == pytest.approx(ref[i, j], rel=1e-12, abs=0.0), (f, lam)

    def test_core_edge_at_the_wall(self):
        # Yukawa, g = 1: at Lambda = exp(-kappa r0) / r0 the core edge r0
        # sits just inside, then just outside a box of radius 20
        spec = yukawa(1.0, 0.1)
        lam_at = lambda r0: math.exp(-0.1 * r0) / r0
        ((inside,),) = _classical_difference(spec, ATOMIC, [1.0], [lam_at(19.5)], 20.0,
                                             math.inf)
        assert math.isfinite(inside)
        with pytest.raises(ValueError, match="r0 = 20.5 lies beyond"):
            _classical_difference(spec, ATOMIC, [1.0], [lam_at(20.5)], 20.0, math.inf)


class TestLambertW:
    def test_against_scipy(self):
        z = np.geomspace(1e-8, 1e6, 4001)
        got, ref = _lambert_w(z), lambertw(z).real
        assert np.all(np.abs(got - ref) <= 4.0 * np.spacing(ref))

    def test_small_and_zero_arguments_do_not_warn(self):
        # a start like log(log z) would warn below z = 1; log1p(z) does not
        z = np.array([0.0, 1e-300, 1e-20, 0.3, 1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = _lambert_w(z)
        assert w[0] == 0.0
        np.testing.assert_allclose(w * np.exp(w), z, rtol=1e-15, atol=0.0)

    def test_batch_equals_single_calls(self):
        # every element takes the same steps as it would alone, bit for bit
        z = np.geomspace(1e-6, 1e4, 41)
        batch = _lambert_w(z)
        assert all(batch[i] == _lambert_w(z[i:i + 1])[0] for i in range(z.size))

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(spectral_oracle, "_HALLEY_STEPS", 2)
        with pytest.raises(UnconvergedError, match="Halley"):
            _lambert_w(np.array([0.1, 1e6]))


class TestGaussLegendre:
    def test_against_mpmath(self):
        # mpmath's Gauss-Legendre of degree m has 3 2^(m-1) nodes on [-1, 1]
        mpmath = pytest.importorskip("mpmath")
        from mpmath.calculus.quadrature import GaussLegendre

        t_ref, w_ref = [], []
        with mpmath.workdps(40):
            for degree in (4, 3):   # 24 nodes, then 12
                nodes = sorted(GaussLegendre(mpmath.mp).calc_nodes(degree, mpmath.mp.prec))
                t_ref += [float((x + 1) / 2) for x, _ in nodes]
                w_ref += [float(w / 2) for _, w in nodes]
        t, w = spectral_oracle._gauss_rules()
        np.testing.assert_allclose(t, t_ref, rtol=0.0, atol=4e-16)
        np.testing.assert_allclose(w, w_ref, rtol=5e-14, atol=0.0)


class TestOracleConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            OracleConfig(box_radius=-1.0)
        with pytest.raises(ValueError):
            OracleConfig(ell_max=5)
        with pytest.raises(ValueError):
            OracleConfig(grid_points=100)
        with pytest.raises(ValueError):
            OracleConfig(richardson_levels=(40.0,))
        with pytest.raises(ValueError):
            OracleConfig(richardson_levels=(40.0, 20.0))
        with pytest.raises(ValueError):
            OracleConfig(richardson_levels=(8.0, 12.0, 16.0))
        for radii in ((0.0, 10.0), (-5.0, 10.0), (10.0, math.inf), (math.nan, 10.0)):
            with pytest.raises(ValueError, match="finite, positive"):
                OracleConfig(richardson_levels=radii)
