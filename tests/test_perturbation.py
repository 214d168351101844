import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anomaly_forge.errors import NotRepresentableError
from anomaly_forge.perturbation import (
    Order,
    Source,
    TraceSamples,
    compute_w1,
    compute_w2,
    geometric_grid,
    sample_w,
    w2_closed_form,
)
from anomaly_forge.potentials import (
    coulomb,
    coulomb_tail_coefficient,
    cutoff_coulomb,
    inverse_square,
    yukawa,
)
from anomaly_forge.quadrature import (
    QuadratureBudget,
    fit_power_law,
    integrate_adaptive,
    resolvent_bracket,
)
from anomaly_forge.units import ATOMIC, UnitSystem

# First-order value for Coulomb Z=1 at Lambda=1 in atomic units.  Derived
# once from the brute-force small-k oracle below (and reproduced by the
# closed-form reduction sqrt(2)/24); frozen here.
W1_COULOMB_Z1_L1 = 0.058925565098879

def _w1_small_k_oracle(spec, units, lam, k_probe):
    """First order via U(k) x bracket at small but finite k, no curvature
    closed form: -(2 pi hbar)^-3 C int d3p [bracket/k^2] (lam+p^2/2m)^-1."""
    c_tail = coulomb_tail_coefficient(spec, units)
    hbar, m = units.hbar, units.m
    pref = -c_tail * 4.0 * math.pi / (2.0 * math.pi * hbar) ** 3
    scale = math.sqrt(2.0 * m * lam)

    def integrand(t):
        p = scale * t
        e_free = lam + p * p / (2.0 * m)
        return (pref * scale * p * p / e_free
                * resolvent_bracket(p, k_probe, lam, units) / (k_probe * k_probe))

    budget = QuadratureBudget(abs_tol=1e-13, rel_tol=1e-10, max_evals=500_000)
    res = integrate_adaptive(integrand, (0.0, math.inf), budget)
    return res.require_converged("small-k first-order oracle").value


class TestComputeW1:
    def test_screened_exact_zero(self):
        assert compute_w1(yukawa(1.0, 0.5), ATOMIC, 7.3) == 0.0
        assert compute_w1(cutoff_coulomb(1.0, 1.0), ATOMIC, 7.3) == 0.0

    def test_lambda_scaling(self):
        spec = coulomb(1.0)
        ratio = compute_w1(spec, ATOMIC, 4.0) / compute_w1(spec, ATOMIC, 1.0)
        assert ratio == pytest.approx(1.0 / 8.0, rel=1e-2)

    def test_frozen_value(self):
        assert compute_w1(coulomb(1.0), ATOMIC, 1.0) == pytest.approx(
            W1_COULOMB_Z1_L1, rel=1e-10)

    def test_against_small_k_extrapolation(self):
        # brute-force oracle: evaluate at k in (0, 1e-2] and extrapolate the
        # k^2-linear trend to zero
        spec = coulomb(1.0)
        lam = 1.0
        v1 = _w1_small_k_oracle(spec, ATOMIC, lam, 1.0e-2)
        v2 = _w1_small_k_oracle(spec, ATOMIC, lam, 0.5e-2)
        extrap = (4.0 * v2 - v1) / 3.0
        assert compute_w1(spec, ATOMIC, lam) == pytest.approx(extrap, rel=1e-6)

    def test_linear_in_Z(self):
        lam = 3.0
        r = compute_w1(coulomb(3.0), ATOMIC, lam) / compute_w1(coulomb(1.0), ATOMIC, lam)
        assert r == pytest.approx(3.0, rel=1e-6)

    def test_positive_lambda_required(self):
        with pytest.raises(ValueError):
            compute_w1(coulomb(1.0), ATOMIC, -1.0)


class TestComputeW2:
    @pytest.mark.parametrize("Z", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("lam", [10.0, 30.0, 100.0])
    def test_matches_closed_form(self, Z, lam):
        got = compute_w2(coulomb(Z), ATOMIC, lam)
        assert got == pytest.approx(w2_closed_form(Z, ATOMIC, lam), rel=1e-3)

    def test_reference_values(self):
        assert compute_w2(coulomb(1.0), ATOMIC, 10.0) == pytest.approx(-1.25e-3, rel=1e-3)
        assert compute_w2(coulomb(2.0), ATOMIC, 10.0) == pytest.approx(-5.0e-3, rel=1e-3)

    def test_quadratic_in_Z(self):
        lam = 10.0
        r = compute_w2(coulomb(3.0), ATOMIC, lam) / compute_w2(coulomb(1.0), ATOMIC, lam)
        assert r == pytest.approx(9.0, rel=1e-6)

    def test_inverse_square_rejected(self):
        with pytest.raises(NotRepresentableError):
            compute_w2(inverse_square(50.0), ATOMIC, 10.0)

    def test_cutoff_coulomb_rejected(self):
        with pytest.raises(NotRepresentableError):
            compute_w2(cutoff_coulomb(1.0, 1.0), ATOMIC, 10.0)

    def test_yukawa_approaches_coulomb(self):
        # screening correction dies as kappa/sqrt(2 m Lambda)
        lam = 200.0
        c = compute_w2(coulomb(1.0), ATOMIC, lam)
        y = compute_w2(yukawa(1.0, 0.05), ATOMIC, lam)
        assert y == pytest.approx(c, rel=5e-3)

    def test_nonatomic_units(self):
        units = UnitSystem(hbar=2.0, m=3.0, e2=0.5)
        got = compute_w2(coulomb(1.0), units, 10.0)
        assert got == pytest.approx(w2_closed_form(1.0, units, 10.0), rel=1e-3)

    @given(st.floats(0.25, 4.0), st.floats(0.25, 4.0), st.floats(0.25, 4.0),
           st.floats(0.5, 3.0), st.floats(1.0, 100.0))
    @settings(max_examples=40, deadline=None)
    @example(hbar=4.0, m=0.25, e2=0.25, Z=0.5, lam=100.0)  # smallest |w2| in the box
    def test_unit_scaling(self, hbar, m, e2, Z, lam):
        units = UnitSystem(hbar=hbar, m=m, e2=e2)
        got = compute_w2(coulomb(Z), units, lam)
        assert got == pytest.approx(w2_closed_form(Z, units, lam), rel=1e-7, abs=0.0)


class TestClosedForm:
    def test_values(self):
        assert w2_closed_form(1.0, ATOMIC, 10.0) == pytest.approx(-1.25e-3)
        assert w2_closed_form(1.0, ATOMIC, 40.0) == pytest.approx(-7.8125e-5)
        assert w2_closed_form(0.0, ATOMIC, 17.0) == 0.0


class TestSampleW:
    def test_second_order_grid(self):
        grid = (10.0, 20.0, 40.0, 80.0)
        samples = sample_w(coulomb(1.0), ATOMIC, grid, Order.SECOND)
        assert samples.source is Source.SECOND_ORDER
        assert len(samples) == 4
        for lam, w in zip(samples.lambdas, samples.values):
            assert w < 0.0
            assert w == pytest.approx(w2_closed_form(1.0, ATOMIC, lam), rel=1e-3)

    def test_screened_first_order_zeros(self):
        samples = sample_w(yukawa(1.0, 0.5), ATOMIC, (10.0, 20.0, 40.0, 80.0), Order.FIRST)
        assert all(w == 0.0 for w in samples.values)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sample_w(coulomb(1.0), ATOMIC, (), Order.FIRST)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            sample_w(coulomb(1.0), ATOMIC, (10.0, 5.0, 20.0, 40.0), Order.FIRST)

    def test_sum_order(self):
        grid = (10.0, 20.0, 40.0, 80.0)
        s1 = sample_w(coulomb(1.0), ATOMIC, grid, Order.FIRST)
        s2 = sample_w(coulomb(1.0), ATOMIC, grid, Order.SECOND)
        ss = sample_w(coulomb(1.0), ATOMIC, grid, Order.SUM)
        for a, b, c in zip(s1.values, s2.values, ss.values):
            assert c == pytest.approx(a + b, rel=1e-12)


class TestScalingExponents:
    def test_w2_gamma(self):
        samples = sample_w(coulomb(1.0), ATOMIC, geometric_grid(10.0, 100.0, 8), Order.SECOND)
        fit = fit_power_law(samples)
        assert fit.gamma == pytest.approx(2.0, abs=0.02)

    def test_w1_gamma(self):
        samples = sample_w(coulomb(1.0), ATOMIC, geometric_grid(10.0, 100.0, 8), Order.FIRST)
        fit = fit_power_law(samples)
        assert fit.gamma == pytest.approx(1.5, abs=0.05)


class TestTraceSamplesInvariants:
    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            TraceSamples((1.0, 2.0), (1.0,), (0.0, 0.0), Source.ORACLE,
                         coulomb(1.0), ATOMIC)

    def test_negative_errors(self):
        with pytest.raises(ValueError):
            TraceSamples((1.0, 2.0), (1.0, 0.5), (0.0, -1.0), Source.ORACLE,
                         coulomb(1.0), ATOMIC)

    def test_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            TraceSamples((0.0, 2.0), (1.0, 0.5), (0.0, 0.0), Source.ORACLE,
                         coulomb(1.0), ATOMIC)
