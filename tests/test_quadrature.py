import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomaly_forge.errors import MixedSignError
from anomaly_forge.perturbation import Source, TraceSamples
from anomaly_forge.potentials import coulomb
from anomaly_forge.quadrature import (
    QuadratureBudget,
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
        res = integrate_adaptive(lambda x: math.exp(-x), (0.0, math.inf))
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
        res = integrate_adaptive(lambda x, y: math.exp(-x - 2 * y),
                                 ((0.0, math.inf), (0.0, math.inf)))
        assert res.value == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("f, domain", [
        (lambda x: math.sin(50.0 * x) ** 2 / (1e-3 + x), (0.0, 1.0)),
        (lambda x, y: math.sin(20.0 * x * y) ** 2 / (1e-2 + x * x + y * y),
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
        (lambda x: math.exp(-x), (0.0, math.inf), 1.0),
        (lambda x: math.sin(x), (0.0, math.pi), 2.0),
        (lambda x: 1.0 / (1.0 + x * x), (0.0, math.inf), math.pi / 2.0),
        (lambda x: math.sqrt(x), (0.0, 1.0), 2.0 / 3.0),
        (lambda x: math.log(1.0 + x), (0.0, 1.0), 2.0 * math.log(2.0) - 1.0),
        (lambda x: x * math.exp(-x * x), (0.0, math.inf), 0.5),
        (lambda x: math.cos(10.0 * x), (0.0, 1.0), math.sin(10.0) / 10.0),
        (lambda x: 1.0 / (1.0 + x) ** 3, (0.0, math.inf), 0.5),
        (lambda x: x ** 4 * math.exp(-x), (0.0, math.inf), 24.0),
    ])
    def test_error_estimate_bounds_truth(self, f, domain, exact):
        res = integrate_adaptive(f, domain)
        assert abs(res.value - exact) <= max(res.error, 1e-13)


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
        # series branch and log branch must both track k^2 * curvature across
        # the switch threshold (it sits near k ~ 2e-4 for these parameters)
        p, lam = 1.3, 2.0
        c2 = small_k_curvature(p, lam, ATOMIC)
        for k in (5e-5, 1e-4, 3e-4, 1e-3):
            ratio = resolvent_bracket(p, k, lam, ATOMIC) / (k * k)
            assert ratio == pytest.approx(c2, rel=3e-4)


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
