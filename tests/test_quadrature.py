import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomaly_forge import spectral_oracle
from anomaly_forge.anomaly import fit_power_law
from anomaly_forge.errors import MixedSignError
from anomaly_forge.perturbation import Order, Source, TraceSamples, geometric_grid, sample_w
from anomaly_forge.potentials import coulomb, inverse_square, yukawa
from anomaly_forge.quadrature import (
    _WG,
    _WK,
    _XK,
    QuadratureBudget,
    _panels,
    integrate_adaptive,
)
from anomaly_forge.units import ATOMIC, UnitSystem
import references
from references import (
    _SERIES_SWITCH,
    fit_power_law_lstsq,
    angle_averaged_resolvent,
    feynman_combine,
    resolvent_bracket,
    small_k_curvature,
)


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

    @pytest.mark.parametrize("f, domain", [
        (lambda x: np.sin(50.0 * x) ** 2 / (1e-3 + x), (0.0, 1.0)),
    ], ids=["1d"])
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
        (lambda x: np.exp(-x), (1.0, math.inf), math.exp(-1.0)),
        (lambda x: 1.0 / (1.0 + x * x), (-0.5, math.inf), math.pi / 2.0 + math.atan(0.5)),
    ])
    def test_error_estimate_bounds_truth(self, f, domain, exact):
        res = integrate_adaptive(f, domain)
        assert abs(res.value - exact) <= max(res.error, 1e-13)


class TestVectorisedPanels:
    def test_1d_panel_gets_node_array(self):
        # one call per round of bisection: the first panel's 15 nodes, then
        # both children of the bisected panel as two rows
        shapes = []

        def f(x):
            shapes.append(x.shape)
            return np.exp(-x)

        res = integrate_adaptive(f, (0.0, math.inf))
        assert shapes[0] == (1, 15)
        assert set(shapes[1:]) == {(2, 15)}
        assert sum(rows for rows, _ in shapes) * 15 == res.evals

    def test_panels_match_node_loop(self):
        # the node-by-node panel it replaces, as the reference.  With only
        # + - * / in the integrand the node values and the Kronrod sum are
        # the same; the Gauss sum of a strided view may round differently
        # from that of a copy, so the error estimate gets 4 ulp of the value
        f1 = lambda x: x * x / (1.0 + x)
        a, b = 0.3, 1.7
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        fv = np.array([f1(c + h * x) for x in _XK])
        ik = h * float(fv @ _WK)
        ig = h * float(fv[np.arange(1, 15, 2)] @ _WG)
        (val,), (err,) = _panels(f1, np.array([a]), np.array([b]))
        assert val == ik
        assert err == pytest.approx(abs(ik - ig), rel=0.0, abs=4e-16 * abs(ik))

    @pytest.mark.parametrize("spec, evals", [
        (coulomb(1.0), 135),
        (yukawa(1.0, 0.5), 255),
    ], ids=["w2-coulomb", "w2-yukawa"])
    def test_production_integrands_one_call_per_round(self, monkeypatch, spec, evals):
        # the w2 k-integral that the closed form of compute_w2 replaced, as
        # kept in references.w2_k_quadrature: 15-node panels, one integrand
        # call for the first panel and one per bisection round
        calls, results = [], []

        def counting(f, domain, budget=None):
            def g(x):
                calls.append(np.shape(x))
                return f(x)
            res = integrate_adaptive(g, domain, budget)
            results.append(res)
            return res

        monkeypatch.setattr(references, "integrate_adaptive", counting)
        references.w2_k_quadrature(spec, ATOMIC, 10.0)
        (res,) = results
        assert res.converged
        assert res.evals == evals
        assert calls == [(1, 15)] + [(2, 15)] * ((evals - 15) // 30)


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

    def test_exact_power_law_recovers_gamma_to_rounding(self):
        lams = geometric_grid(10.0, 1000.0, 8)
        fit = fit_power_law(_samples(lams, [-3.7 * l ** -1.5 for l in lams]))
        assert abs(fit.gamma - 1.5) <= 1e-14
        assert fit.amplitude == pytest.approx(-3.7, rel=1e-13)

    @pytest.mark.parametrize("make", [
        lambda: sample_w(yukawa(1.0, 0.5), ATOMIC, geometric_grid(10.0, 100.0, 12),
                         Order.SECOND),
        # criterion 3's case-A grid
        lambda: spectral_oracle.oracle_trace(inverse_square(50.0), ATOMIC,
                                             geometric_grid(5.0, 50.0, 8)),
    ], ids=["perturbative-yukawa", "oracle-case-a"])
    def test_matches_lstsq_reference(self, make):
        samples = make()
        fit, ref = fit_power_law(samples), fit_power_law_lstsq(samples)
        assert fit.residual > 1e-6   # samples that are not an exact power law
        assert fit.amplitude == pytest.approx(ref.amplitude, rel=1e-12, abs=0.0)
        assert fit.gamma == pytest.approx(ref.gamma, rel=1e-12, abs=0.0)
        for name in ("gamma_err", "amplitude_err", "residual"):
            assert getattr(fit, name) == pytest.approx(getattr(ref, name), rel=1e-9, abs=0.0)
        assert (fit.lambda_range, fit.n_samples) == (ref.lambda_range, ref.n_samples)

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

    def test_mixed_sign_names_the_first_flip(self):
        # the first adjacent pair that straddles a sign change, with both values
        message = ("samples change sign between Lambda = 2 (w = -1.00e+00) and 4 "
                   "(w = +5.00e-01); log-log fit would be meaningless")
        with pytest.raises(MixedSignError, match=f"^{re.escape(message)}$"):
            fit_power_law(_samples([1, 2, 4, 8], [-2.0, -1.0, 0.5, -0.25]))
        with pytest.raises(MixedSignError, match="^samples contain exact zeros; no power law"):
            fit_power_law(_samples([1, 2, 4, 8], [1.0, -1.0, 0.0, 0.25]))

    @pytest.mark.parametrize("lams, values, message", [
        ([1, 2, 4, 8], [1.0, math.nan, -0.5, 0.25],
         "sample at Lambda = 2 is not finite: w = nan; no power law to fit"),
        ([1, 2, 4, 8], [1.0, 0.5, 0.25, math.inf],
         "sample at Lambda = 8 is not finite: w = inf; no power law to fit"),
        ([1, 2, 4, 8], [-math.inf, 0.0, 1.0, math.nan],
         "sample at Lambda = 1 is not finite: w = -inf; no power law to fit"),
        ([1, 2, math.inf, 8], [1.0, 0.5, 0.25, 0.125], "Lambda values must be finite and positive"),
        ([1, math.nan, 4, 8], [1.0, 0.5, 0.25, 0.125], "Lambda values must be finite and positive"),
    ], ids=["nan", "plus-inf", "minus-inf-before-zero-and-flip", "infinite-lambda", "nan-lambda"])
    def test_nonfinite_named_before_zero_and_sign_tests(self, lams, values, message):
        # plain samples: TraceSamples would reject a non-finite value itself; a
        # non-finite Lambda meets the Lambda-grid check first
        samples = SimpleNamespace(lambdas=lams, values=values)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            fit_power_law(samples)
        assert not isinstance(info.value, MixedSignError)

    @pytest.mark.parametrize("lams, message", [
        ([0, 1, 2, 3], "Lambda values must be finite and positive"),
        ([-1, 1, 2, 3], "Lambda values must be finite and positive"),
        ([1, 1, 1, 1], "Lambda values must be strictly increasing"),
        # strictly increasing, yet one ulp apart at 1e10 their logarithms are one float
        ([1e10, 10000000000.000002, 10000000000.000004, 10000000000.000006],
         "all 4 samples sit at Lambda = 1e+10; no power law to fit"),
    ], ids=["zero-lambda", "negative-lambda", "equal-lambdas", "one-log-value"])
    def test_lambdas_without_a_log_spread_named(self, lams, message):
        # plain samples: before any check, a bare "math domain error" or a ZeroDivisionError
        samples = SimpleNamespace(lambdas=lams, values=[1.0, 0.5, 0.25, 0.125])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit_power_law(samples)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_power_law(_samples([1, 2, 4], [1.0, 0.5, 0.25]))

    def test_noise_shows_in_residual(self):
        lams = [1.0, 2.0, 4.0, 8.0, 16.0]
        vals = [2.0 * l ** -1.0 * (1.0 + 0.05 * (-1) ** i) for i, l in enumerate(lams)]
        fit = fit_power_law(_samples(lams, vals))
        assert fit.residual > 1e-3
        assert fit.gamma_err > 0.0
