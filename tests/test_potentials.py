import math

import numpy as np
import pytest

from anomaly_forge.errors import NotRepresentableError
from anomaly_forge.potentials import (
    CaseLabel,
    Family,
    LargeXTail,
    classify,
    coulomb,
    coulomb_tail_coefficient,
    cutoff_coulomb,
    evaluate,
    fourier_transform_at,
    inverse_square,
    parse_potential,
    yukawa,
)
from anomaly_forge.quadrature import QuadratureBudget, integrate_adaptive
from anomaly_forge.units import ATOMIC, UnitSystem


class TestEvaluate:
    def test_coulomb(self):
        assert evaluate(coulomb(1.0), ATOMIC, 2.0) == pytest.approx(-0.5)

    def test_inverse_square(self):
        assert evaluate(inverse_square(50.0), ATOMIC, 5.0) == pytest.approx(2.0)

    def test_yukawa(self):
        assert evaluate(yukawa(1.0, 1.0), ATOMIC, 1.0) == pytest.approx(-math.exp(-1.0))

    def test_cutoff_coulomb_flat_core(self):
        spec = cutoff_coulomb(1.0, 1.0)
        assert evaluate(spec, ATOMIC, 0.25) == pytest.approx(-1.0)
        assert evaluate(spec, ATOMIC, 4.0) == pytest.approx(-0.25)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            evaluate(coulomb(1.0), ATOMIC, 0.0)
        with pytest.raises(ValueError):
            evaluate(coulomb(1.0), ATOMIC, -1.0)

    def test_units_enter_through_e2(self):
        units = UnitSystem(e2=2.0)
        assert evaluate(coulomb(1.0), units, 1.0) == pytest.approx(-2.0)


class TestTransform:
    def test_coulomb_printed_value(self):
        # 4 pi / k^2 at k = 2 in atomic units
        assert fourier_transform_at(coulomb(1.0), ATOMIC, 2.0) == pytest.approx(math.pi)

    def test_linear_in_Z(self):
        assert fourier_transform_at(coulomb(2.0), ATOMIC, 1.0) == pytest.approx(8.0 * math.pi)

    def test_yukawa_coulomb_limit(self):
        # kappa -> 0 approaches the Coulomb transform pointwise
        c = fourier_transform_at(coulomb(1.0), ATOMIC, 2.0)
        y = fourier_transform_at(yukawa(1.0, 1e-4), ATOMIC, 2.0)
        assert y == pytest.approx(c, rel=1e-3)

    def test_inverse_square_not_representable(self):
        with pytest.raises(NotRepresentableError):
            fourier_transform_at(inverse_square(50.0), ATOMIC, 1.0)

    def test_nonpositive_momentum_rejected(self):
        with pytest.raises(ValueError):
            fourier_transform_at(coulomb(1.0), ATOMIC, 0.0)

    @pytest.mark.parametrize("spec", [
        coulomb(1.0),
        yukawa(1.0, 0.5),
        cutoff_coulomb(1.0, 1.0),
    ], ids=["coulomb", "yukawa", "cutoff-coulomb"])
    @pytest.mark.parametrize("k", [0.1, 1.0, 10.0])
    def test_against_radial_integration(self, spec, k):
        # direct radial transform 4 pi / q * int |U(r)| r sin(q r) dr; the
        # conditionally convergent tail is summed over half-period cells and
        # accelerated with repeated averaging of the alternating partials
        q = k / ATOMIC.hbar
        budget = QuadratureBudget(abs_tol=1e-14, rel_tol=1e-11, max_evals=100_000)

        def integrand(r):
            return np.abs(evaluate(spec, ATOMIC, r)) * r * np.sin(q * r)

        cell = math.pi / q
        n_cells = 96
        cells = [integrate_adaptive(integrand, (i * cell, (i + 1) * cell), budget).value
                 for i in range(n_cells)]
        partials = np.cumsum(cells)
        seq = partials[-41:]
        while len(seq) > 1:
            seq = 0.5 * (seq[1:] + seq[:-1])
        numeric = 4.0 * math.pi / q * float(seq[0])
        closed = fourier_transform_at(spec, ATOMIC, k)
        assert numeric == pytest.approx(closed, rel=1e-6)


class TestClassify:
    def test_case_table(self):
        assert classify(inverse_square(50.0)).case_label is CaseLabel.A
        assert classify(inverse_square(50.0)).small_x_exponent == 2.0
        b = classify(coulomb(1.0))
        assert (b.case_label, b.small_x_exponent, b.large_x_tail) == (
            CaseLabel.B, 1.0, LargeXTail.COULOMB_TAIL)
        y = classify(yukawa(1.0, 1.0))
        assert (y.case_label, y.large_x_tail) == (CaseLabel.B, LargeXTail.SCREENED)
        c = classify(cutoff_coulomb(1.0, 1.0))
        assert (c.case_label, c.small_x_exponent) == (CaseLabel.C, 0.0)

    def test_pure_function(self):
        spec = yukawa(2.0, 0.3)
        assert classify(spec) == classify(spec)

    def test_exponent_case_consistency(self):
        for spec in (inverse_square(1.0), coulomb(1.0), yukawa(1.0, 1.0),
                     cutoff_coulomb(1.0, 1.0)):
            sc = classify(spec)
            s = sc.small_x_exponent
            if s == 2.0:
                assert sc.case_label is CaseLabel.A
            elif s == 1.0:
                assert sc.case_label is CaseLabel.B
            elif 0.0 <= s < 1.0:
                assert sc.case_label is CaseLabel.C


class TestTailCoefficient:
    def test_coulomb(self):
        assert coulomb_tail_coefficient(coulomb(1.0), ATOMIC) == pytest.approx(4 * math.pi)
        assert coulomb_tail_coefficient(coulomb(3.0), ATOMIC) == pytest.approx(12 * math.pi)

    def test_screened(self):
        assert coulomb_tail_coefficient(yukawa(1.0, 0.5), ATOMIC) == 0.0
        assert coulomb_tail_coefficient(cutoff_coulomb(1.0, 1.0), ATOMIC) == 0.0
        assert coulomb_tail_coefficient(inverse_square(1.0), ATOMIC) == 0.0

    def test_matches_small_k_transform(self):
        spec = coulomb(2.0)
        c = coulomb_tail_coefficient(spec, ATOMIC)
        k = 1e-5
        assert k * k * fourier_transform_at(spec, ATOMIC, k) == pytest.approx(c, rel=1e-12)


class TestSpecValidation:
    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            coulomb(0.0)
        with pytest.raises(ValueError):
            coulomb(-1.0)
        with pytest.raises(ValueError):
            yukawa(1.0, 0.0)
        with pytest.raises(ValueError):
            cutoff_coulomb(1.0, -1.0)
        with pytest.raises(ValueError):
            inverse_square(-5.0)
        for spec in (lambda: coulomb(math.inf), lambda: yukawa(1.0, math.inf),
                     lambda: cutoff_coulomb(1.0, math.nan), lambda: inverse_square(math.inf)):
            with pytest.raises(ValueError, match="must be finite"):
                spec()

    def test_unit_system_positive(self):
        with pytest.raises(ValueError):
            UnitSystem(hbar=0.0)
        with pytest.raises(ValueError):
            UnitSystem(m=-1.0)
        with pytest.raises(ValueError, match="hbar must be finite"):
            UnitSystem(hbar=math.inf)

    def test_a0_recomputed(self):
        units = UnitSystem(hbar=2.0, m=1.0, e2=1.0)
        assert units.a0 == pytest.approx(4.0)


class TestParse:
    def test_grammar(self):
        spec = parse_potential("coulomb:Z=1")
        assert spec.family is Family.COULOMB and spec.Z == 1.0
        spec = parse_potential("inverse-square:alpha=50")
        assert spec.family is Family.INVERSE_SQUARE and spec.alpha == 50.0
        spec = parse_potential("yukawa:Z=1,kappa=0.5")
        assert spec.kappa == 0.5
        spec = parse_potential("cutoff-coulomb:Z=2,rcut=1.5")
        assert spec.r_cut == 1.5 and spec.Z == 2.0

    def test_case_insensitive(self):
        spec = parse_potential("COULOMB:Z=1")
        assert spec.family is Family.COULOMB
        spec = parse_potential("Yukawa:KAPPA=0.5,z=1")
        assert spec.kappa == 0.5

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            parse_potential("coulomb:Z=1,kappa=2")
        with pytest.raises(ValueError):
            parse_potential("coulomb:charge=1")

    def test_missing_and_malformed(self):
        with pytest.raises(ValueError):
            parse_potential("yukawa:Z=1")
        with pytest.raises(ValueError):
            parse_potential("notafamily:Z=1")
        with pytest.raises(ValueError):
            parse_potential("coulomb")
        with pytest.raises(ValueError):
            parse_potential("coulomb:Z=abc")
