import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomaly_forge import perturbation
from anomaly_forge.errors import MixedSignError
from anomaly_forge.perturbation import Source, TraceSamples, _w1_result, _w2_result
from anomaly_forge.potentials import coulomb, yukawa
from anomaly_forge.quadrature import (
    _SERIES_SWITCH,
    _WG,
    _WK,
    _XK,
    QuadratureBudget,
    _panel_1d,
    _panel_2d,
    angle_averaged_resolvent,
    feynman_combine,
    fit_power_law,
    integrate_adaptive,
    resolvent_bracket,
    small_k_curvature,
)
from anomaly_forge.units import ATOMIC, UnitSystem


def _midpoint_oracle(f, a, b, n=1_000_000):
    h = (b - a) / n
    x = a + h * (np.arange(n) + 0.5)
    return h * float(np.sum(f(x)))


class TestIntegrateAdaptive:
    def test_polynomial(self):
        res = integrate_adaptive(lambda x: x * x, (0.0, 1.0))
        assert res.converged
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_semi_infinite_exponential(self):
        res = integrate_adaptive(lambda x: np.exp(-x), (0.0, math.inf))
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_momentum_kernel_vs_midpoint_oracle(self):
        # closed form pi sqrt(2)/8 via trigonometric substitution; the same
        # value recomputed with a brute-force midpoint rule on the
        # compactified axis
        f = lambda p: p * p / (1.0 + p * p / 2.0) ** 3
        res = integrate_adaptive(f, (0.0, math.inf))
        closed = math.pi * math.sqrt(2.0) / 8.0
        t = lambda t_: f(t_ / (1.0 - t_)) / (1.0 - t_) ** 2
        oracle = _midpoint_oracle(t, 0.0, 1.0)
        assert res.value == pytest.approx(closed, abs=1e-10)
        assert oracle == pytest.approx(closed, abs=1e-7)

    def test_2d_rectangle(self):
        res = integrate_adaptive(lambda x, y: x * y * y, ((0.0, 2.0), (0.0, 1.0)))
        assert res.value == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_2d_semi_infinite(self):
        res = integrate_adaptive(lambda x, y: np.exp(-x - 2 * y),
                                 ((0.0, math.inf), (0.0, math.inf)))
        assert res.value == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("f, domain", [
        (lambda x: np.sin(50.0 * x) ** 2 / (1e-3 + x), (0.0, 1.0)),
        (lambda x, y: np.sin(20.0 * x * y) ** 2 / (1e-2 + x * x + y * y),
         ((0.0, 1.0), (0.0, 1.0))),
    ], ids=["1d", "2d"])
    def test_unconverged_flag(self, f, domain):
        budget = QuadratureBudget(abs_tol=1e-300, rel_tol=1e-16, max_evals=1000)
        full = integrate_adaptive(f, domain)
        assert full.converged  # default budget reaches it
        res = integrate_adaptive(f, domain, budget)
        assert not res.converged
        assert res.evals <= budget.max_evals
        assert res.value == pytest.approx(full.value, rel=0.05)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            QuadratureBudget(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureBudget(max_evals=10)

    @pytest.mark.parametrize("f,domain,exact", [
        (lambda x: x * x, (0.0, 1.0), 1.0 / 3.0),
        (lambda x: np.exp(-x), (0.0, math.inf), 1.0),
        (lambda x: np.sin(x), (0.0, math.pi), 2.0),
        (lambda x: 1.0 / (1.0 + x * x), (0.0, math.inf), math.pi / 2.0),
        (lambda x: np.sqrt(x), (0.0, 1.0), 2.0 / 3.0),
        (lambda x: np.log(1.0 + x), (0.0, 1.0), 2.0 * math.log(2.0) - 1.0),
        (lambda x: x * np.exp(-x * x), (0.0, math.inf), 0.5),
        (lambda x: np.cos(10.0 * x), (0.0, 1.0), math.sin(10.0) / 10.0),
        (lambda x: 1.0 / (1.0 + x) ** 3, (0.0, math.inf), 0.5),
        (lambda x: x ** 4 * np.exp(-x), (0.0, math.inf), 24.0),
    ])
    def test_error_estimate_bounds_truth(self, f, domain, exact):
        res = integrate_adaptive(f, domain)
        assert abs(res.value - exact) <= max(res.error, 1e-13)


class TestVectorisedPanels:
    def test_1d_panel_gets_node_array(self):
        shapes = []

        def f(x):
            shapes.append(x.shape)
            return np.exp(-x)

        res = integrate_adaptive(f, (0.0, math.inf))
        assert set(shapes) == {(15,)}
        assert len(shapes) * 15 == res.evals

    def test_2d_panel_gets_broadcast_pair(self):
        shapes = []

        def f(x, y):
            shapes.append((x.shape, y.shape))
            return np.exp(-x - 2 * y) * np.cos(x * y)

        res = integrate_adaptive(f, ((0.0, math.inf), (0.0, 1.0)))
        assert set(shapes) == {((15, 1), (1, 15))}
        assert len(shapes) * 225 == res.evals

    def test_panels_match_node_loop(self):
        # the node-by-node panels they replace, as the reference.  With only
        # + - * / in the integrand the node values and the Kronrod sum are
        # the same; the Gauss sum of a strided view may round differently
        # from that of a copy, so the error estimate gets 4 ulp of the value
        f1 = lambda x: x * x / (1.0 + x)
        f2 = lambda x, y: x * y * y / (1.0 + x + 3.0 * y)
        a, b, ay, by = 0.3, 1.7, 0.1, 2.5
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        fv = np.array([f1(c + h * x) for x in _XK])
        ik = h * float(fv @ _WK)
        ig = h * float(fv[np.arange(1, 15, 2)] @ _WG)
        val, err = _panel_1d(f1, a, b)
        assert val == ik
        assert err == pytest.approx(abs(ik - ig), rel=0.0, abs=4e-16 * abs(ik))
        cy, hy = 0.5 * (ay + by), 0.5 * (by - ay)
        fv = np.array([[f2(c + h * x, cy + hy * y) for y in _XK] for x in _XK])
        ik = h * hy * float(_WK @ fv @ _WK)
        ig = h * hy * float(_WG @ fv[np.ix_(range(1, 15, 2), range(1, 15, 2))] @ _WG)
        val, err = _panel_2d(f2, a, b, ay, by)
        assert val == ik
        assert err == pytest.approx(abs(ik - ig), rel=0.0, abs=4e-16 * abs(ik))

    @pytest.mark.parametrize("run, nodes, evals", [
        (lambda: _w2_result(coulomb(1.0), ATOMIC, 10.0, None), 225, 12_375),
        (lambda: _w2_result(yukawa(1.0, 0.5), ATOMIC, 10.0, None), 225, 16_875),
        (lambda: _w1_result(coulomb(1.0), ATOMIC, 1.0, None), 15, 105),
    ], ids=["w2-coulomb", "w2-yukawa", "w1-coulomb"])
    def test_production_integrands_one_call_per_panel(self, monkeypatch, run, nodes, evals):
        # the evaluation counts are those of the node-by-node integrator
        calls = []

        def counting(f, domain, budget=None):
            def g(*args):
                calls.append(np.broadcast_shapes(*(np.shape(a) for a in args)))
                return f(*args)
            return integrate_adaptive(g, domain, budget)

        monkeypatch.setattr(perturbation, "integrate_adaptive", counting)
        res = run()
        assert res.converged
        assert res.evals == evals
        assert len(calls) * nodes == evals
        assert set(calls) == {(15, 15) if nodes == 225 else (15,)}


class TestFeynman:
    def test_identity_cases(self):
        assert feynman_combine(1.0, 1.0) == pytest.approx(1.0, abs=1e-10)
        assert feynman_combine(2.0, 3.0) == pytest.approx(1.0 / 6.0, abs=1e-10)
        assert feynman_combine(10.0, 0.1) == pytest.approx(1.0, rel=1e-8)

    def test_random_pairs(self):
        rng = np.random.default_rng(20260808)
        for _ in range(100):
            a, b = 10.0 ** rng.uniform(-2, 2, size=2)
            assert feynman_combine(a, b) * a * b == pytest.approx(1.0, abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            feynman_combine(0.0, 1.0)
        with pytest.raises(ValueError):
            feynman_combine(1.0, -2.0)


class TestAngleAverage:
    def test_exact_limits(self):
        assert angle_averaged_resolvent(0.0, 2.0, 1.0, ATOMIC) == pytest.approx(1.0 / 3.0)
        assert angle_averaged_resolvent(1.0, 0.0, 1.0, ATOMIC) == pytest.approx(2.0 / 3.0)

    def test_log_value(self):
        # direct numerical average over the polar angle (midpoint rule)
        p = k = lam = 1.0
        n = 2_000_000
        h = 2.0 / n
        mu = -1.0 + h * (np.arange(n) + 0.5)
        vals = 1.0 / (lam + (p * p + k * k + 2 * p * k * mu) / 2.0)
        oracle = h * float(np.sum(vals)) / 2.0
        got = angle_averaged_resolvent(p, k, lam, ATOMIC)
        assert got == pytest.approx(0.5 * math.log(3.0), abs=1e-12)
        assert got == pytest.approx(oracle, abs=1e-9)

    @given(st.floats(0.01, 50.0), st.floats(0.01, 50.0), st.floats(0.1, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_under_exchange(self, p, k, lam):
        a = angle_averaged_resolvent(p, k, lam, ATOMIC)
        b = angle_averaged_resolvent(k, p, lam, ATOMIC)
        assert a == pytest.approx(b, rel=1e-12)

    def test_mass_dependence(self):
        units = UnitSystem(m=2.0)
        # at p=0 the average is (lam + k^2/2m)^-1
        assert angle_averaged_resolvent(0.0, 2.0, 1.0, units) == pytest.approx(0.5)


class TestSmallKCurvature:
    def test_reference_values(self):
        assert small_k_curvature(0.0, 1.0, ATOMIC) == pytest.approx(-0.5)
        assert small_k_curvature(1.0, 1.0, ATOMIC) == pytest.approx(-10.0 / 81.0)

    def test_finite_difference_oracle(self):
        for p, lam in [(0.0, 1.0), (1.0, 1.0), (0.7, 3.0)]:
            k = 1e-3
            fd = resolvent_bracket(p, k, lam, ATOMIC) / (k * k)
            assert small_k_curvature(p, lam, ATOMIC) == pytest.approx(fd, rel=1e-5)

    def test_lambda_scaling_at_origin(self):
        lam = 0.7
        assert small_k_curvature(0.0, 4.0 * lam, ATOMIC) == pytest.approx(
            small_k_curvature(0.0, lam, ATOMIC) / 16.0)

    def test_bracket_converges_to_curvature(self):
        # invariant: bracket / k^2 -> curvature with 1e-3 relative at k = 1e-2
        for p in (0.0, 0.5, 1.0, 3.0):
            k = 1e-2
            ratio = resolvent_bracket(p, k, 1.0, ATOMIC) / (k * k)
            assert ratio == pytest.approx(small_k_curvature(p, 1.0, ATOMIC), rel=1e-3)

    def test_bracket_smooth_across_switch(self):
        # the bracket must track k^2 * curvature through the small-k range,
        # where the uncancelled log form used to lose it to rounding
        p, lam = 1.3, 2.0
        c2 = small_k_curvature(p, lam, ATOMIC)
        for k in (5e-5, 1e-4, 3e-4, 1e-3):
            ratio = resolvent_bracket(p, k, lam, ATOMIC) / (k * k)
            assert ratio == pytest.approx(c2, rel=3e-4)


class TestBracketPrecision:
    @pytest.mark.parametrize("p", [0.7, 1.0, 3.0])
    def test_against_mpmath(self, p):
        # 40-digit reference of the log form on a k grid from deep in the
        # series branch to deep in the log branch, plus the two k that put
        # x = 2pk/(2 m lam + p^2 + k^2) just either side of the switch
        mpmath = pytest.importorskip("mpmath")
        lam = 1.0
        ks = [1e-3, 1e-2, 0.1, 0.2, 0.3, 0.5, 1.0, 3.0]
        for x in (_SERIES_SWITCH * (1.0 - 1e-9), _SERIES_SWITCH * (1.0 + 1e-9)):
            ks.append((p - math.sqrt(p * p - x * x * (2.0 * lam + p * p))) / x)
        xs = [2.0 * p * k / (2.0 * lam + p * p + k * k) for k in ks]
        assert xs[-2] < _SERIES_SWITCH <= xs[-1]
        with mpmath.workdps(40):
            for k in ks:
                mp, mk, ml = mpmath.mpf(p), mpmath.mpf(k), mpmath.mpf(lam)
                a = ml + (mp * mp + mk * mk) / 2
                b = mp * mk
                avg = mpmath.log((a + b) / (a - b)) / (2 * b)
                bracket = avg - 1 / (ml + mp * mp / 2)
                got = angle_averaged_resolvent(p, k, lam, ATOMIC)
                assert got == pytest.approx(float(avg), rel=1e-13, abs=0.0)
                got = resolvent_bracket(p, k, lam, ATOMIC)
                assert got == pytest.approx(float(bracket), rel=1e-13, abs=0.0)

    def test_arrays_match_scalars(self):
        p = np.array([[0.0], [0.3], [1.0], [3.0]])
        k = np.array([[0.0, 1e-3, 0.31, 2.0]])
        br = resolvent_bracket(p, k, 1.0, ATOMIC)
        avg = angle_averaged_resolvent(p, k, 1.0, ATOMIC)
        assert br.shape == avg.shape == (4, 4)
        for i in range(4):
            for j in range(4):
                pij, kij = float(p[i, 0]), float(k[0, j])
                assert br[i, j] == pytest.approx(
                    resolvent_bracket(pij, kij, 1.0, ATOMIC), rel=1e-15, abs=0.0)
                assert avg[i, j] == pytest.approx(
                    angle_averaged_resolvent(pij, kij, 1.0, ATOMIC), rel=1e-15, abs=0.0)


def _samples(lams, values):
    return TraceSamples(tuple(lams), tuple(values), tuple(0.0 for _ in lams),
                        Source.ORACLE, coulomb(1.0), ATOMIC)


class TestFitPowerLaw:
    def test_exact_power_law(self):
        fit = fit_power_law(_samples([1, 2, 4, 8], [2.0, 1.0, 0.5, 0.25]))
        assert fit.amplitude == pytest.approx(2.0, abs=1e-12)
        assert fit.gamma == pytest.approx(1.0, abs=1e-12)
        assert fit.residual < 1e-10

    def test_negative_amplitude(self):
        fit = fit_power_law(_samples([1, 10, 100, 1000], [-3.0, -3e-2, -3e-4, -3e-6]))
        assert fit.amplitude == pytest.approx(-3.0, rel=1e-10)
        assert fit.gamma == pytest.approx(2.0, abs=1e-10)

    @given(st.floats(0.1, 10.0), st.floats(0.5, 3.0), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_recovers_synthetic(self, c, gamma, negate):
        amp = -c if negate else c
        lams = [1.0, 3.0, 10.0, 30.0, 100.0]
        fit = fit_power_law(_samples(lams, [amp * l ** (-gamma) for l in lams]))
        assert fit.amplitude == pytest.approx(amp, rel=1e-9)
        assert fit.gamma == pytest.approx(gamma, abs=1e-9)
        assert fit.residual < 1e-10

    def test_mixed_sign_rejected(self):
        with pytest.raises(MixedSignError):
            fit_power_law(_samples([1, 2, 4, 8], [1.0, -1.0, 1.0, -1.0]))
        with pytest.raises(MixedSignError):
            fit_power_law(_samples([1, 2, 4, 8], [1.0, 0.0, 0.5, 0.25]))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_power_law(_samples([1, 2, 4], [1.0, 0.5, 0.25]))

    def test_noise_shows_in_residual(self):
        lams = [1.0, 2.0, 4.0, 8.0, 16.0]
        vals = [2.0 * l ** -1.0 * (1.0 + 0.05 * (-1) ** i) for i, l in enumerate(lams)]
        fit = fit_power_law(_samples(lams, vals))
        assert fit.residual > 1e-3
        assert fit.gamma_err > 0.0
