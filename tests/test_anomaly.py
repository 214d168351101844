import pytest

from anomaly_forge.anomaly import (
    AnomalyResult,
    Status,
    delta_ae_case_b_closed_form,
    delta_an_case_a_closed_form,
    delta_an_case_a_exact,
    extract_anomalies,
)
from anomaly_forge.cli import main
from anomaly_forge.errors import MixedSignError, NotPowerLawError
from anomaly_forge.perturbation import Order, Source, TraceSamples, geometric_grid, sample_w
from anomaly_forge.potentials import CaseLabel, coulomb, cutoff_coulomb, inverse_square, yukawa
from anomaly_forge.units import ATOMIC, UnitSystem


def _synthetic(spec, values_of):
    grid = geometric_grid(10.0, 1000.0, 10)
    vals = tuple(values_of(l) for l in grid)
    return TraceSamples(grid, vals, tuple(0.0 for _ in grid), Source.ORACLE, spec, ATOMIC)


class TestExtractionAlgebra:
    def test_gamma_one(self):
        r = extract_anomalies(_synthetic(inverse_square(1.0), lambda l: 5.0 / l))
        assert r.status_n is Status.FINITE
        assert r.a_n == pytest.approx(10.0, abs=1e-10)
        assert r.status_e is Status.ZERO
        assert r.a_e == 0.0

    def test_gamma_two(self):
        r = extract_anomalies(_synthetic(coulomb(1.0), lambda l: -3.0 / l**2))
        assert r.status_n is Status.ZERO
        assert r.status_e is Status.FINITE
        assert r.a_e == pytest.approx(6.0, abs=1e-10)

    def test_gamma_three_halves(self):
        # between the two critical exponents: number limit vanishes, energy
        # limit diverges like Lambda^(1/2)
        r = extract_anomalies(_synthetic(coulomb(1.0), lambda l: 2.0 * l**-1.5))
        assert r.status_n is Status.ZERO
        assert r.status_e is Status.DIVERGENT
        assert r.a_e is None
        assert r.growth_exponent_e == pytest.approx(0.5, abs=1e-9)
        assert r.growth_amplitude_e == pytest.approx(2.0 * 2.0 * (1.0 - 1.5), rel=1e-9)

    def test_gamma_below_one_diverges_both(self):
        r = extract_anomalies(_synthetic(coulomb(1.0), lambda l: 1.0 * l**-0.5))
        assert r.status_n is Status.DIVERGENT
        assert r.growth_exponent_n == pytest.approx(0.5, abs=1e-9)
        assert r.status_e is Status.DIVERGENT
        assert r.growth_exponent_e == pytest.approx(1.5, abs=1e-9)

    def test_gamma_above_two_all_zero(self):
        r = extract_anomalies(_synthetic(coulomb(1.0), lambda l: 4.0 / l**3))
        assert (r.status_n, r.status_e) == (Status.ZERO, Status.ZERO)

    def test_truth_table(self):
        # (gamma -> status_n, status_e) on clean synthetic data; gammas within
        # EXPONENT_TOLERANCE of 1 or 2 snap to it, and near 0 nothing snaps
        table = {
            0.05: (Status.DIVERGENT, Status.DIVERGENT),
            0.95: (Status.FINITE, Status.ZERO),
            1.0: (Status.FINITE, Status.ZERO),
            1.05: (Status.FINITE, Status.ZERO),
            1.2: (Status.ZERO, Status.DIVERGENT),
            1.5: (Status.ZERO, Status.DIVERGENT),
            1.95: (Status.ZERO, Status.FINITE),
            2.0: (Status.ZERO, Status.FINITE),
            2.05: (Status.ZERO, Status.FINITE),
        }
        for gamma, expected in table.items():
            r = extract_anomalies(_synthetic(coulomb(1.0), lambda l, g=gamma: -2.0 * l**-g))
            assert (r.status_n, r.status_e) == expected, f"gamma={gamma}"

    def test_residual_gate(self):
        grid = geometric_grid(10.0, 1000.0, 10)
        vals = tuple((1.0 / l) * (1.0 + 0.4 * ((-1.0) ** i)) for i, l in enumerate(grid))
        samples = TraceSamples(grid, vals, tuple(0.0 for _ in grid), Source.ORACLE,
                               coulomb(1.0), ATOMIC)
        with pytest.raises(NotPowerLawError):
            extract_anomalies(samples)

    def test_small_finite_value_reports_zero_status(self):
        r = extract_anomalies(_synthetic(coulomb(1.0), lambda l: 1e-8 / l))
        assert r.status_n is Status.ZERO

    def test_divergent_result_has_no_value(self):
        with pytest.raises(ValueError):
            AnomalyResult(a_n=1.0, a_e=None, status_n=Status.DIVERGENT,
                          status_e=Status.ZERO, a_n_err=0.0, a_e_err=0.0,
                          case_label=CaseLabel.B, fit=None)


class TestClosedForms:
    def test_case_a(self):
        assert delta_an_case_a_closed_form(50.0, ATOMIC) == pytest.approx(-10.0 / 36.0)
        assert delta_an_case_a_closed_form(200.0, ATOMIC) == pytest.approx(-20.0 / 36.0)
        assert delta_an_case_a_closed_form(0.0, ATOMIC) == 0.0

    def test_case_a_hbar(self):
        units = UnitSystem(hbar=0.5)
        assert delta_an_case_a_closed_form(50.0, units) == pytest.approx(-20.0 / 36.0)

    def test_case_b(self):
        assert delta_ae_case_b_closed_form(1.0, ATOMIC) == pytest.approx(0.25)
        assert delta_ae_case_b_closed_form(3.0, ATOMIC) == pytest.approx(2.25)
        assert delta_ae_case_b_closed_form(0.0, ATOMIC) == 0.0

    def test_case_b_units(self):
        units = UnitSystem(hbar=2.0, e2=3.0)  # a0 = 4/3
        assert delta_ae_case_b_closed_form(1.0, units) == pytest.approx(
            3.0 / (4.0 * 4.0 / 3.0))


class TestCaseAExact:
    """The exact case-A number anomaly, checked without the oracle."""

    @staticmethod
    def _alpha(beta, units=ATOMIC):
        # beta = sqrt(2 m alpha)/hbar
        return (beta * units.hbar) ** 2 / (2.0 * units.m)

    def test_beta_10_value(self):
        # 30-digit mpmath evaluation of 2 [sum_l g(l+1/2) - int g]
        got = delta_an_case_a_exact(self._alpha(10.0), ATOMIC)
        assert got == pytest.approx(-0.8326032004, rel=1e-9)

    def test_large_beta_asymptote(self):
        beta = 20.0
        got = delta_an_case_a_exact(self._alpha(beta), ATOMIC)
        assert got == pytest.approx(-beta / 12.0 + 7.0 / (960.0 * beta), rel=1e-6)

    def test_matches_high_precision_midpoint_sum(self):
        # brute force: the plain forms of g and of its antiderivative
        # (lam^3 - s^3)/3, summed cell by cell at 30 digits; the cells past
        # n = 4000 add about 1e-10 relative
        mp = pytest.importorskip("mpmath")
        beta = 3.0
        with mp.workdps(30):
            b = mp.mpf(beta)

            def g(lam):
                return -lam * (mp.sqrt(lam * lam + b * b) - lam)

            def antiderivative(lam):
                return (lam**3 - mp.sqrt(lam * lam + b * b) ** 3) / 3

            total = mp.fsum(g(n + mp.mpf(0.5)) - (antiderivative(n + 1) - antiderivative(n))
                            for n in range(4000))
            brute = float(2 * total)
        assert delta_an_case_a_exact(self._alpha(beta), ATOMIC) == pytest.approx(
            brute, rel=1e-9)

    def test_zero_coupling(self):
        assert delta_an_case_a_exact(0.0, ATOMIC) == 0.0

    def test_depends_on_units_only_through_beta(self):
        reference = delta_an_case_a_exact(self._alpha(10.0), ATOMIC)
        for units in (UnitSystem(hbar=0.5, m=2.0), UnitSystem(hbar=3.0, m=0.7, e2=5.0)):
            got = delta_an_case_a_exact(self._alpha(10.0, units), units)
            assert got == pytest.approx(reference, rel=1e-13)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            delta_an_case_a_exact(-1.0, ATOMIC)


class TestEndToEndCaseB:
    @pytest.mark.parametrize("Z", [1.0, 2.0])
    def test_matches_closed_form(self, Z):
        samples = sample_w(coulomb(Z), ATOMIC, geometric_grid(10.0, 100.0, 12),
                           Order.SECOND)
        r = extract_anomalies(samples)
        assert r.status_e is Status.FINITE
        assert r.a_e == pytest.approx(delta_ae_case_b_closed_form(Z, ATOMIC), rel=1e-2)
        assert r.status_n is Status.ZERO
        assert r.case_label is CaseLabel.B


def _first_order(Z):
    return extract_anomalies(sample_w(coulomb(Z), ATOMIC, geometric_grid(10.0, 1000.0, 10),
                                      Order.FIRST))


class TestFirstOrderClassification:
    def test_coulomb_divergent(self):
        r = _first_order(1.0)
        assert r.status_e is Status.DIVERGENT
        assert r.growth_exponent_e == pytest.approx(0.5, abs=0.05)
        assert r.status_n is Status.ZERO

    def test_screened_both_zero(self, capsys):
        # vanishing samples give both zeros without a fit
        for potential in ("yukawa:Z=1,kappa=0.5", "cutoff-coulomb:Z=1,rcut=1"):
            code = main(["anomaly", "--method", "perturbative-1", "--potential", potential,
                         "--lambda-min", "10", "--lambda-max", "1000", "--points", "10"])
            out = capsys.readouterr().out
            assert code == 0
            assert "a_n_status=zero\n" in out and "a_e_status=zero\n" in out, potential

    def test_amplitude_linear_in_Z(self):
        r1, r2 = _first_order(1.0), _first_order(2.0)
        assert r2.growth_amplitude_e / r1.growth_amplitude_e == pytest.approx(2.0, rel=0.02)


class TestZeroResult:
    """Samples that vanish within their errors give both channels zero, no fit."""

    def test_shape(self):
        samples = sample_w(cutoff_coulomb(1.0, 1.0), ATOMIC, geometric_grid(10.0, 1000.0, 10),
                           Order.FIRST)
        r = extract_anomalies(samples)
        assert (r.status_n, r.status_e) == (Status.ZERO, Status.ZERO)
        assert r.a_n == 0.0 and r.a_e == 0.0 and r.fit is None
        assert r.case_label is CaseLabel.C

    def test_screened_first_order_keeps_its_case(self):
        # the library path the CLI takes: no MixedSignError from a fit of zeros
        samples = sample_w(yukawa(1.0, 0.5), ATOMIC, geometric_grid(10.0, 1000.0, 10),
                           Order.FIRST)
        r = extract_anomalies(samples)
        assert (r.status_n, r.status_e) == (Status.ZERO, Status.ZERO)
        assert r.fit is None
        assert r.case_label is CaseLabel.B

    def test_values_within_their_errors(self):
        grid = geometric_grid(10.0, 1000.0, 6)
        vals = tuple(1e-9 * (-1.0) ** i for i in range(len(grid)))
        samples = TraceSamples(grid, vals, tuple(2e-9 for _ in grid), Source.ORACLE,
                               coulomb(1.0), ATOMIC)
        r = extract_anomalies(samples)
        assert (r.status_n, r.status_e, r.fit) == (Status.ZERO, Status.ZERO, None)

    def test_partly_zero_samples_still_raise(self):
        grid = geometric_grid(10.0, 1000.0, 6)
        vals = (0.0,) + tuple(1.0 / l for l in grid[1:])
        samples = TraceSamples(grid, vals, tuple(0.0 for _ in grid), Source.ORACLE,
                               coulomb(1.0), ATOMIC)
        with pytest.raises(MixedSignError):
            extract_anomalies(samples)
