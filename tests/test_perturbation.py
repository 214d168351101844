import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomaly_forge import perturbation, quadrature
from anomaly_forge.errors import NotRepresentableError
from anomaly_forge.perturbation import (
    _PHI_SWITCH,
    Order,
    Source,
    TraceSamples,
    _phi,
    compute_w1,
    compute_w2,
    geometric_grid,
    sample_w,
    w2_closed_form,
)
from anomaly_forge.potentials import (
    Family,
    coulomb,
    coulomb_tail_coefficient,
    cutoff_coulomb,
    inverse_square,
    yukawa,
)
from anomaly_forge.quadrature import QuadratureBudget, fit_power_law, integrate_adaptive
from anomaly_forge.units import ATOMIC, UnitSystem
from references import resolvent_bracket, second_order_kernel, w2_k_quadrature

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
        # no power of Lambda is taken, so none can leave the floats
        for lam in (1e-320, 1e300):
            assert compute_w1(yukawa(1.0, 0.5), ATOMIC, lam) == 0.0

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

    @pytest.mark.parametrize("lam, power", [(1e-300, "inf"), (1e-320, "inf"), (1e250, "0")])
    def test_unrepresentable_lambda_rejected(self, lam, power):
        message = f"Lambda = {lam:g} is out of range: Lambda^-3/2 = {power} is not a normal float"
        with pytest.raises(ValueError, match=re.escape(message)):
            compute_w1(coulomb(1.0), ATOMIC, lam)

    @given(st.floats(0.25, 4.0), st.floats(0.25, 4.0), st.floats(0.25, 4.0),
           st.floats(0.5, 3.0), st.floats(1.0, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_unit_covariance(self, hbar, m, e2, Z, lam):
        # w1 = Z e^2 sqrt(m) / hbar * Lambda^-3/2 * w1(atomic units, Z = 1, Lambda = 1)
        units = UnitSystem(hbar=hbar, m=m, e2=e2)
        ref = compute_w1(coulomb(1.0), ATOMIC, 1.0)
        want = Z * e2 * math.sqrt(m) / hbar * lam**-1.5 * ref
        assert compute_w1(coulomb(Z), units, lam) == pytest.approx(want, rel=1e-13, abs=0.0)


class TestComputeW2:
    @pytest.mark.parametrize("Z", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("lam", [10.0, 30.0, 100.0])
    def test_matches_closed_form(self, Z, lam):
        # Coulomb's w2 is w2_closed_form itself, in any units and through
        # sample_w; TestClosedFormsAgainstKQuadrature and acceptance
        # criterion 2 check that formula against the k-quadrature
        for units in (ATOMIC, UnitSystem(hbar=2.0, m=3.0, e2=0.5)):
            want = w2_closed_form(Z, units, lam)
            assert compute_w2(coulomb(Z), units, lam) == want
            samples = sample_w(coulomb(Z), units, (lam,), Order.SECOND)
            assert (samples.source, samples.values) == (Source.SECOND_ORDER, (want,))

    def test_inverse_square_rejected(self):
        with pytest.raises(NotRepresentableError):
            compute_w2(inverse_square(50.0), ATOMIC, 10.0)

    @pytest.mark.parametrize("Z, r_cut, lam", [(1.0, 1.0, 10.0), (2.0, 0.3, 1.0),
                                               (1.0, 0.05, 77.0)])
    def test_cutoff_coulomb_closed_form(self, Z, r_cut, lam):
        # with U(s t) = 4 pi Z e^2 hbar^2 sin(a t) / (s^2 t^2 a t), a = r_cut s / hbar,
        # the k-integral is -pi/16 times int_0^inf sin^2(a t) / (a^2 t^2 (t^2+4)) dt
        # = [pi a/2 - pi (1 - e^(-4a))/8] / (4 a^2), from partial fractions and
        # the residue of e^(2iat)/(t^2+4) at t = 2i
        s = math.sqrt(2.0 * lam)
        a = r_cut * s
        t_integral = (math.pi * a / 2.0
                      - math.pi * (1.0 - math.exp(-4.0 * a)) / 8.0) / (4.0 * a * a)
        want = (16.0 * math.pi**2 / (2.0 * math.pi) ** 6 * s**2 / lam**3
                * (4.0 * math.pi * Z) ** 2 * (-math.pi / 16.0) * t_integral)
        got = compute_w2(cutoff_coulomb(Z, r_cut), ATOMIC, lam)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_yukawa_approaches_coulomb(self):
        # screening correction dies as kappa/sqrt(2 m Lambda)
        lam = 200.0
        c = compute_w2(coulomb(1.0), ATOMIC, lam)
        y = compute_w2(yukawa(1.0, 0.05), ATOMIC, lam)
        assert y == pytest.approx(c, rel=5e-3)

    @pytest.mark.parametrize("Z, kappa, lam", [(3.0, 2.0, 1.0), (1.0, 0.5, 10.0),
                                               (1.0, 0.5, 77.0)])
    def test_yukawa_closed_form(self, Z, kappa, lam):
        # with U(s t) = 4 pi Z e^2 hbar^2 / (s^2 (t^2 + mu^2)), s = sqrt(2 m Lambda),
        # mu = hbar kappa / s, the k-integral is -pi/16 times
        # int_0^inf t^4 / ((t^2+mu^2)^2 (t^2+4)) dt = pi (mu+4) / (4 (mu+2)^2),
        # summed from its residues at t = i mu (double) and t = 2i
        s = math.sqrt(2.0 * lam)
        mu = kappa / s
        t_integral = math.pi * (mu + 4.0) / (4.0 * (mu + 2.0) ** 2)
        want = (16.0 * math.pi**2 / (2.0 * math.pi) ** 6 * s**2 / lam**3
                * (4.0 * math.pi * Z) ** 2 * (-math.pi / 16.0) * t_integral)
        got = compute_w2(yukawa(Z, kappa), ATOMIC, lam)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


_FAMILIES = {
    # each family at dimensionless parameter x: mu = x for Yukawa, a = x for
    # cutoff Coulomb (mu = hbar kappa / s, a = r_cut s / hbar, s = sqrt(2 m Lambda))
    "coulomb": lambda Z, x, s, hbar: coulomb(Z),
    "yukawa": lambda Z, x, s, hbar: yukawa(Z, x * s / hbar),
    "cutoff-coulomb": lambda Z, x, s, hbar: cutoff_coulomb(Z, x * hbar / s),
}


class TestClosedFormsAgainstKQuadrature:
    @pytest.mark.parametrize("units", [ATOMIC, UnitSystem(hbar=0.7, m=1.3, e2=2.0)],
                             ids=["atomic", "scaled"])
    @pytest.mark.parametrize("family", list(_FAMILIES))
    def test_agree(self, family, units):
        # the k-quadrature over K(t) that compute_w2's formulas replace
        for lam in (1.0, 10.0, 300.0):
            s = math.sqrt(2.0 * units.m * lam)
            for x in (0.01, 0.1, 1.0, 10.0):
                spec = _FAMILIES[family](1.3, x, s, units.hbar)
                ref = w2_k_quadrature(spec, units, lam)
                got = compute_w2(spec, units, lam)
                assert got == pytest.approx(ref, rel=1e-9, abs=0.0), (lam, x)


class TestPhi:
    def test_against_mpmath(self):
        # 30-digit 1F1(1; 3; -y)/2, the series sum_n (-y)^n/(n+2)! of phi,
        # on both sides of the series switch
        mpmath = pytest.importorskip("mpmath")
        ys = [0.0, 1e-12, 1e-6, 1e-3, 0.1, 0.5, _PHI_SWITCH * (1.0 - 1e-9),
              _PHI_SWITCH, _PHI_SWITCH * (1.0 + 1e-9), 2.0, 10.0, 40.0, 1e3, 1e8]
        with mpmath.workdps(30):
            for y in ys:
                ref = mpmath.hyp1f1(1, 3, -mpmath.mpf(y)) / 2
                assert _phi(y) == pytest.approx(float(ref), rel=1e-15, abs=0.0), y


class TestW2Scaling:
    @given(st.floats(0.25, 4.0), st.floats(0.25, 4.0), st.floats(0.25, 4.0),
           st.floats(0.5, 3.0), st.floats(1.0, 300.0), st.floats(0.01, 10.0),
           st.sampled_from(["yukawa", "cutoff-coulomb"]))
    @settings(max_examples=60, deadline=None)
    def test_reduced_w2_depends_only_on_mu_or_a(self, hbar, m, e2, Z, lam, x, family):
        # w2 a0 Lambda^2 / (Z^2 e^2) is a function of mu (Yukawa) or a
        # (cutoff) alone: compare with atomic units, Z = 1, Lambda = 1
        units = UnitSystem(hbar=hbar, m=m, e2=e2)
        spec = _FAMILIES[family](Z, x, math.sqrt(2.0 * m * lam), hbar)
        got = compute_w2(spec, units, lam) * units.a0 * lam * lam / (Z * Z * e2)
        spec_1 = _FAMILIES[family](1.0, x, math.sqrt(2.0), 1.0)
        assert got == pytest.approx(compute_w2(spec_1, ATOMIC, 1.0), rel=1e-12, abs=0.0)


class TestLargeLambdaLimits:
    @pytest.mark.parametrize("lam", [1e2, 1e4, 1e6, 1e8])
    def test_yukawa_tends_to_coulomb(self, lam):
        # (mu+4)/(mu+2)^2 = 1 - 3 mu/4 + O(mu^2)
        mu = 0.5 / math.sqrt(2.0 * lam)
        ratio = compute_w2(yukawa(1.0, 0.5), ATOMIC, lam) / w2_closed_form(1.0, ATOMIC, lam)
        assert 1.0 - ratio == pytest.approx(0.75 * mu, rel=2.0 * mu)

    @pytest.mark.parametrize("lam", [1e2, 1e4, 1e6, 1e8])
    def test_cutoff_tends_to_coulomb_over_2a(self, lam):
        # 2 phi(4a) 2a = 1 - (1 - e^(-4a))/(4a), so w2 -> w2_Coulomb / (2a)
        a = 1.0 * math.sqrt(2.0 * lam)
        got = compute_w2(cutoff_coulomb(1.0, 1.0), ATOMIC, lam)
        ratio = got / (w2_closed_form(1.0, ATOMIC, lam) / (2.0 * a))
        assert 1.0 - ratio == pytest.approx(1.0 / (4.0 * a), rel=1e-6)

    def test_cutoff_falls_like_lambda_to_minus_five_halves(self):
        spec = cutoff_coulomb(1.0, 1.0)
        for lam in (1e4, 1e6):
            ratio = compute_w2(spec, ATOMIC, 100.0 * lam) / compute_w2(spec, ATOMIC, lam)
            assert ratio == pytest.approx(1e-5, rel=1.0 / math.sqrt(2.0 * lam))


class TestSecondOrderKernel:
    @pytest.mark.parametrize("t", [1e-3, 0.3, 0.7, 3.0, 30.0])
    def test_against_mpmath(self, t):
        # 30-digit p-integral of the angle-averaged log form, in units 2m = Lambda = 1
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            mt = mpmath.mpf(t)

            def f(p):
                avg = mpmath.log((1 + (p + mt) ** 2) / (1 + (p - mt) ** 2)) / (4 * p * mt)
                return p * p * (avg - 1 / (1 + p * p)) / (1 + p * p) ** 2

            # break points around the log's peak at p = t, which is one wide
            pts = sorted({0, 1, mt, mt + 1, 2 * mt + 2} | ({mt - 1} if t > 2 else set()))
            ref = mpmath.quad(f, [mpmath.mpf(x) for x in pts] + [mpmath.inf])
            assert second_order_kernel(t) == pytest.approx(float(ref), rel=1e-14, abs=0.0)

    def test_against_bracket_quadrature(self):
        # the p-integral of the cancellation-free resolvent bracket, which the
        # kernel replaces; m = 1/2 and Lambda = 1 make the momenta the scaled ones
        units = UnitSystem(m=0.5)
        budget = QuadratureBudget(abs_tol=1e-15, rel_tol=1e-12)
        ts = np.array([1e-2, 0.5, 2.0, 10.0])
        for t in ts:
            res = integrate_adaptive(
                lambda p: p * p * resolvent_bracket(p, t, 1.0, units) / (1.0 + p * p) ** 2,
                (0.0, math.inf), budget).require_converged("kernel reference")
            assert second_order_kernel(t) == pytest.approx(res.value, rel=1e-10)
        assert np.array_equal(second_order_kernel(ts),
                              [second_order_kernel(float(t)) for t in ts])


class TestClosedForm:
    def test_values(self):
        assert w2_closed_form(1.0, ATOMIC, 10.0) == pytest.approx(-1.25e-3)
        assert w2_closed_form(1.0, ATOMIC, 40.0) == pytest.approx(-7.8125e-5)
        assert w2_closed_form(0.0, ATOMIC, 17.0) == 0.0

    @pytest.mark.parametrize("lam, square", [(1e-200, "0"), (1e-160, "9.99989e-321"),
                                             (1e200, "inf")])
    def test_unrepresentable_lambda_rejected(self, lam, square):
        # Lambda^2 = 0 would divide by zero, a subnormal Lambda^2 would lose
        # digits, and Lambda^2 = inf would give w2 = -0.0
        message = f"Lambda = {lam:g} is out of range: Lambda^2 = {square} is not a normal float"
        with pytest.raises(ValueError, match=re.escape(message)):
            w2_closed_form(1.0, ATOMIC, lam)


class TestGeometricGrid:
    @pytest.mark.parametrize("lam_min, lam_max, message", [
        (10.0, math.inf, "Lambda bounds must be finite"),
        (math.nan, 100.0, "Lambda bounds must be finite"),
        (100.0, 10.0, "need 0 < lam_min < lam_max"),
        (1e-300, 1e300, "Lambda window 1e-300 to 1e+300 is too wide"),
    ])
    def test_bad_window_rejected(self, lam_min, lam_max, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            geometric_grid(lam_min, lam_max, 5)


class TestSampleW:
    def test_screened_first_order_zeros(self):
        samples = sample_w(yukawa(1.0, 0.5), ATOMIC, (10.0, 20.0, 40.0, 80.0), Order.FIRST)
        assert all(w == 0.0 for w in samples.values)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sample_w(coulomb(1.0), ATOMIC, (), Order.FIRST)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            sample_w(coulomb(1.0), ATOMIC, (10.0, 5.0, 20.0, 40.0), Order.FIRST)


@pytest.mark.parametrize("order", list(Order))
@pytest.mark.parametrize("spec", [coulomb(1.0), yukawa(1.0, 0.5), cutoff_coulomb(1.0, 1.0),
                                  inverse_square(50.0)],
                         ids=["coulomb", "yukawa", "cutoff-coulomb", "inverse-square"])
def test_perturbative_path_makes_no_quadrature(monkeypatch, spec, order):
    def forbidden(*args, **kwargs):
        raise AssertionError("the perturbative path called a quadrature")

    monkeypatch.setattr(perturbation, "integrate_adaptive", forbidden)
    monkeypatch.setattr(quadrature, "integrate_adaptive", forbidden)
    grid = geometric_grid(10.0, 100.0, 5)
    if order is not Order.FIRST and spec.family is Family.INVERSE_SQUARE:
        with pytest.raises(NotRepresentableError):
            sample_w(spec, ATOMIC, grid, order)
        return
    samples = sample_w(spec, ATOMIC, grid, order)
    assert samples.errors == (0.0,) * len(grid)


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

    @pytest.mark.parametrize("values, errors", [((1.0, -math.inf), (0.0, 0.0)),
                                                ((1.0, 0.5), (0.0, math.nan))])
    def test_nonfinite_sample_rejected_with_its_lambda(self, values, errors):
        with pytest.raises(ValueError, match="Lambda = 2 is not finite"):
            TraceSamples((1.0, 2.0), values, errors, Source.ORACLE, coulomb(1.0), ATOMIC)
