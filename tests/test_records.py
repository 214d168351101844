"""The eight immutable records keep the contract of the frozen dataclasses they replaced:
no assignment or deletion, equality and hashing on the fields, the dataclass repr,
pickle and copy round trips, the same signatures and every validation message."""

import copy
import inspect
import math
import pickle
import re

import pytest

from anomaly_forge.anomaly import AnomalyResult, PowerLawFit, Status
from anomaly_forge.perturbation import Source, TraceSamples
from anomaly_forge.potentials import (
    CaseLabel,
    Family,
    LargeXTail,
    PotentialSpec,
    SingularityClass,
    coulomb,
)
from anomaly_forge.quadrature import QuadratureBudget
from anomaly_forge.spectral_oracle import OracleConfig
from anomaly_forge.units import ATOMIC, UnitSystem


def _fit():
    return PowerLawFit(-0.125, 2.0, 0.0, (10.0, 100.0), 0.0, 0.0, 4)


def _samples(lams=(10.0, 100.0), values=(-0.00125, -1.25e-05), errors=(0.0, 0.0)):
    return TraceSamples(lams, values, errors, Source.SECOND_ORDER, coulomb(1.0), ATOMIC)


def _result(**kw):
    args = dict(a_n=0.0, a_e=0.25, status_n=Status.ZERO, status_e=Status.FINITE,
                a_n_err=0.0, a_e_err=0.001, case_label=CaseLabel.B, fit=_fit())
    return AnomalyResult(**{**args, **kw})


# class -> (fields in declaration order, factory of one instance, that instance's repr);
# the reprs are the ones the frozen dataclasses printed
RECORDS = {
    UnitSystem: (
        ("hbar", "m", "e2"),
        lambda: UnitSystem(hbar=0.5, m=2.0, e2=1.0),
        "UnitSystem(hbar=0.5, m=2.0, e2=1.0)"),
    PotentialSpec: (
        ("family", "Z", "alpha", "kappa", "r_cut", "attractive"),
        lambda: PotentialSpec(Family.YUKAWA, Z=1.0, kappa=0.5),
        "PotentialSpec(family=<Family.YUKAWA: 'yukawa'>, Z=1.0, alpha=0.0, kappa=0.5, r_cut=0.0, "
        "attractive=True)"),
    SingularityClass: (
        ("small_x_exponent", "large_x_tail", "case_label"),
        lambda: SingularityClass(1.0, LargeXTail.COULOMB_TAIL, CaseLabel.B),
        "SingularityClass(small_x_exponent=1.0, large_x_tail=<LargeXTail.COULOMB_TAIL: 'coulomb'>, "
        "case_label=<CaseLabel.B: 'B'>)"),
    QuadratureBudget: (
        ("abs_tol", "rel_tol", "max_evals"),
        QuadratureBudget,
        "QuadratureBudget(abs_tol=1e-10, rel_tol=1e-08, max_evals=500000)"),
    PowerLawFit: (
        ("amplitude", "gamma", "residual", "lambda_range", "gamma_err", "amplitude_err",
         "n_samples"),
        _fit,
        "PowerLawFit(amplitude=-0.125, gamma=2.0, residual=0.0, lambda_range=(10.0, 100.0), "
        "gamma_err=0.0, amplitude_err=0.0, n_samples=4)"),
    TraceSamples: (
        ("lambdas", "values", "errors", "source", "spec", "units"),
        _samples,
        "TraceSamples(lambdas=(10.0, 100.0), values=(-0.00125, -1.25e-05), errors=(0.0, 0.0), "
        "source=<Source.SECOND_ORDER: 'second-order'>, spec=PotentialSpec(family=<Family.COULOMB: "
        "'coulomb'>, Z=1.0, alpha=0.0, kappa=0.0, r_cut=0.0, attractive=True), "
        "units=UnitSystem(hbar=1.0, m=1.0, e2=1.0))"),
    AnomalyResult: (
        ("a_n", "a_e", "status_n", "status_e", "a_n_err", "a_e_err", "case_label", "fit",
         "growth_exponent_n", "growth_exponent_e", "growth_amplitude_n", "growth_amplitude_e"),
        _result,
        "AnomalyResult(a_n=0.0, a_e=0.25, status_n=<Status.ZERO: 'zero'>, status_e=<Status.FINITE: "
        "'finite'>, a_n_err=0.0, a_e_err=0.001, case_label=<CaseLabel.B: 'B'>, "
        "fit=PowerLawFit(amplitude=-0.125, gamma=2.0, residual=0.0, lambda_range=(10.0, 100.0), "
        "gamma_err=0.0, amplitude_err=0.0, n_samples=4), growth_exponent_n=None, "
        "growth_exponent_e=None, growth_amplitude_n=None, growth_amplitude_e=None)"),
    OracleConfig: (
        ("box_radius", "ell_max", "grid_points", "richardson_levels"),
        OracleConfig,
        "OracleConfig(box_radius=40.0, ell_max=60, grid_points=2400, "
        "richardson_levels=(20.0, 40.0))"),
}
_ids = [cls.__name__ for cls in RECORDS]
per_record = pytest.mark.parametrize("cls", list(RECORDS), ids=_ids)


def _values(obj):
    return tuple(getattr(obj, name) for name in RECORDS[type(obj)][0])


@per_record
def test_fields_are_the_init_parameters_in_order(cls):
    assert tuple(inspect.signature(cls).parameters) == RECORDS[cls][0]


@per_record
def test_assignment_and_deletion_raise(cls):
    obj = RECORDS[cls][1]()
    before = _values(obj)
    for name in (*RECORDS[cls][0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert _values(obj) == before
    assert not hasattr(obj, "not_a_field")


@per_record
def test_equal_fields_give_equal_objects_and_hashes(cls):
    a, b = RECORDS[cls][1](), RECORDS[cls][1]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(_values(a))


@per_record
def test_other_classes_never_compare_equal(cls):
    obj = RECORDS[cls][1]()
    assert obj.__eq__(_values(obj)) is NotImplemented
    assert obj != _values(obj)
    for other in RECORDS:
        if other is not cls:
            assert obj != RECORDS[other][1]()


def test_a_differing_field_breaks_equality():
    assert UnitSystem(hbar=0.5) != UnitSystem()
    assert _result() != _result(a_e_err=0.002)
    assert OracleConfig(ell_max=30) != OracleConfig()


@per_record
def test_repr_is_the_dataclass_form(cls):
    assert repr(RECORDS[cls][1]()) == RECORDS[cls][2]


@per_record
@pytest.mark.parametrize("roundtrip", [lambda o: pickle.loads(pickle.dumps(o)), copy.copy,
                                       copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_pickle_and_copy_round_trips(cls, roundtrip):
    obj = RECORDS[cls][1]()
    twin = roundtrip(obj)
    assert type(twin) is cls
    assert twin == obj and hash(twin) == hash(obj) and repr(twin) == repr(obj)
    with pytest.raises(AttributeError):
        setattr(twin, RECORDS[cls][0][0], 0.0)


def test_positional_and_keyword_construction():
    # the call forms the package itself uses
    assert UnitSystem(hbar=0.5, m=2.0, e2=3.0) == UnitSystem(0.5, 2.0, 3.0)
    assert PotentialSpec(Family.COULOMB, Z=1.0, attractive=False) == \
        PotentialSpec(Family.COULOMB, 1.0, 0.0, 0.0, 0.0, False)
    assert QuadratureBudget() == QuadratureBudget(1e-10, 1e-8, 500_000)
    assert OracleConfig(box_radius=12.0, ell_max=30, grid_points=500,
                        richardson_levels=(6.0, 12.0)) == OracleConfig(12.0, 30, 500, (6.0, 12.0))
    # a list of radii is stored as the tuple: the same record, and hashable
    listed = OracleConfig(richardson_levels=[20.0, 40.0])
    assert (listed, hash(listed)) == (OracleConfig(), hash(OracleConfig()))
    assert PowerLawFit(amplitude=-0.125, gamma=2.0, residual=0.0, lambda_range=(10.0, 100.0),
                       gamma_err=0.0, amplitude_err=0.0, n_samples=4) == _fit()
    assert _result().growth_exponent_e is None
    divergent = AnomalyResult(0.0, None, Status.ZERO, Status.DIVERGENT, 0.0, 0.0, CaseLabel.B,
                              None, growth_exponent_e=0.5, growth_amplitude_e=-0.3)
    assert (divergent.growth_exponent_e, divergent.growth_amplitude_e) == (0.5, -0.3)


def test_inverse_square_is_stored_repulsive():
    spec = PotentialSpec(Family.INVERSE_SQUARE, alpha=2.0, attractive=True)
    assert spec.attractive is False
    assert spec == PotentialSpec(Family.INVERSE_SQUARE, alpha=2.0)


@pytest.mark.parametrize("make", [lambda: UnitSystem(hbar=1.0, mass=1.0),
                                  lambda: UnitSystem(1.0, 1.0, 1.0, 1.0),
                                  lambda: SingularityClass(1.0, LargeXTail.SCREENED),
                                  lambda: OracleConfig(ell_max=30, ell=30)],
                         ids=["unknown-keyword", "too-many", "missing", "unknown-keyword-2"])
def test_bad_arguments_raise_pythons_type_error(make):
    with pytest.raises(TypeError):
        make()


_INV = Family.INVERSE_SQUARE


@pytest.mark.parametrize("make, message", [
    (lambda: UnitSystem(hbar=0.0), "hbar must be strictly positive, got 0.0"),
    (lambda: UnitSystem(m=-1.0), "m must be strictly positive, got -1.0"),
    (lambda: UnitSystem(e2=math.nan), "e2 must be strictly positive, got nan"),
    (lambda: UnitSystem(hbar=math.inf), "hbar must be finite, got inf"),
    (lambda: PotentialSpec(Family.COULOMB, Z=math.inf), "Z must be finite, got inf"),
    (lambda: PotentialSpec(_INV, alpha=math.nan), "alpha must be finite, got nan"),
    (lambda: PotentialSpec(_INV, alpha=-1.0), "inverse-square strength alpha must be >= 0"),
    (lambda: PotentialSpec(Family.COULOMB), "coulomb requires charge Z > 0, got 0.0"),
    (lambda: PotentialSpec(Family.YUKAWA, Z=1.0), "Yukawa requires kappa > 0, got 0.0"),
    (lambda: PotentialSpec(Family.CUTOFF_COULOMB, Z=1.0, r_cut=-1.0),
     "cutoff Coulomb requires r_cut > 0, got -1.0"),
    (lambda: QuadratureBudget(abs_tol=0.0), "tolerances must be strictly positive"),
    (lambda: QuadratureBudget(rel_tol=-1e-8), "tolerances must be strictly positive"),
    (lambda: QuadratureBudget(max_evals=999), "max_evals must be at least 1000"),
    (lambda: PowerLawFit(1.0, 2.0, -0.1, (1.0, 2.0), 0.0, 0.0, 4),
     "residual must be nonnegative"),
    (lambda: PowerLawFit(1.0, 2.0, 0.0, (2.0, 2.0), 0.0, 0.0, 4),
     "lambda_range must be increasing"),
    (lambda: PowerLawFit(1.0, 2.0, 0.0, (1.0, 2.0), 0.0, 0.0, 3),
     "fit requires at least 4 samples"),
    (lambda: _samples((), (), ()), "Lambda grid must not be empty"),
    (lambda: _samples(values=(1.0,)), "lambdas, values and errors must have equal length"),
    (lambda: _samples((100.0, 10.0)), "Lambda values must be strictly increasing"),
    (lambda: _samples((10.0, math.inf)), "Lambda values must be finite and positive"),
    (lambda: _samples(errors=(0.0, -1.0)), "errors must be nonnegative"),
    (lambda: _samples(values=(1.0, math.nan)),
     "sample at Lambda = 100 is not finite: w = nan, err = 0.0"),
    (lambda: _result(status_n=Status.DIVERGENT),
     "divergent number channel must not report a value"),
    (lambda: _result(a_e=1.0, status_e=Status.ZERO),
     "zero-status energy value exceeds its uncertainty"),
    (lambda: OracleConfig(box_radius=0.0), "box_radius must be positive"),
    (lambda: OracleConfig(ell_max=9), "ell_max must be at least 10"),
    (lambda: OracleConfig(grid_points=199), "grid_points must be at least 200"),
    (lambda: OracleConfig(ell_max=math.nan), "ell_max must be an integer, got nan"),
    (lambda: OracleConfig(grid_points=math.nan), "grid_points must be an integer, got nan"),
    (lambda: OracleConfig(ell_max=30.0), "ell_max must be an integer, got 30.0"),
    (lambda: OracleConfig(grid_points=2400.0), "grid_points must be an integer, got 2400.0"),
    (lambda: OracleConfig(richardson_levels=(40.0, 20.0)),
     "richardson_levels must be two finite, positive, strictly increasing radii"),
    (lambda: OracleConfig(richardson_levels="ab"),
     "richardson_levels must be two finite, positive, strictly increasing radii"),
    (lambda: OracleConfig(richardson_levels=None),
     "richardson_levels must be two finite, positive, strictly increasing radii"),
])
def test_validation_messages(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
