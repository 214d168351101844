"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
are produced.  Criterion tolerances are fixed here, not configurable.
"""

import contextlib
import io
import time

import numpy as np
import pytest

from anomaly_forge.anomaly import (
    Status,
    delta_ae_case_b_closed_form,
    delta_an_case_a_closed_form,
    delta_an_case_a_exact,
    extract_anomalies,
    fit_power_law,
)
from anomaly_forge.cli import main
from anomaly_forge.perturbation import (
    Order,
    compute_w2,
    geometric_grid,
    sample_w,
    w2_closed_form,
)
from anomaly_forge.potentials import coulomb, inverse_square, yukawa
from anomaly_forge.spectral_oracle import OracleConfig, oracle_trace
from anomaly_forge.units import ATOMIC, UnitSystem
from references import (
    angle_averaged_resolvent,
    feynman_combine,
    resolvent_bracket,
    small_k_curvature,
    w2_k_quadrature,
)

ALPHA_100 = 50.0  # 2 m alpha/hbar^2 = 100, atomic units


def _report(num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {desc}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    return ok


@pytest.fixture(scope="module")
def case_a_samples():
    grid = geometric_grid(5.0, 50.0, 8)
    return oracle_trace(inverse_square(ALPHA_100), ATOMIC, grid)


@pytest.fixture(scope="module")
def case_a_result(case_a_samples):
    return extract_anomalies(case_a_samples)


def test_criterion_01_case_b_energy_anomaly():
    ok = True
    details = []
    for z in (1.0, 2.0):
        samples = sample_w(coulomb(z), ATOMIC, geometric_grid(10.0, 100.0, 12),
                           Order.SECOND)
        result = extract_anomalies(samples)
        expected = delta_ae_case_b_closed_form(z, ATOMIC)
        ok &= abs(result.a_e - expected) <= 0.01 * expected
        details.append(f"Z={z:g}: {result.a_e:.5f} vs {expected:.5f}")
    assert _report(1, "case-B energy anomaly = Z^2/4 within 1%", ok, "; ".join(details))


def test_criterion_02_w2_closed_form():
    # compute_w2 is the closed form; the numeric check is the k-quadrature
    # over the second-order kernel that it replaces
    cases = [(10.0, -1.25e-3), (40.0, -7.8125e-5)]
    ok = True
    details = []
    for lam, expected in cases:
        assert expected == pytest.approx(w2_closed_form(1.0, ATOMIC, lam))
        assert compute_w2(coulomb(1.0), ATOMIC, lam) == pytest.approx(expected, rel=1e-15)
        got = w2_k_quadrature(coulomb(1.0), ATOMIC, lam)
        ok &= abs(got - expected) <= 1e-3 * abs(expected)
        details.append(f"L={lam:g}: {got:.6e}")
    assert _report(2, "numeric second-order kernel = -Z^2/(8 L^2) within 0.1%",
                   ok, "; ".join(details))


def test_criterion_03_case_a_number_anomaly(case_a_result):
    t0 = time.time()
    expected = delta_an_case_a_exact(ALPHA_100, ATOMIC)  # -0.8326032004
    published = delta_an_case_a_closed_form(ALPHA_100, ATOMIC)  # -10/36
    got = case_a_result.a_n
    ok = (case_a_result.status_n is Status.FINITE
          and abs(got - expected) <= 0.10 * abs(expected))
    detail = (f"computed {got:.4f} vs exact {expected:.4f}; published "
              f"{published:.4f}, computed/published {got / published:.3f}; "
              f"{time.time()-t0:.0f}s")
    _report(3, "case-A number anomaly = exact -beta/12 + 7/(960 beta) + ... "
            "within 10%", ok, detail)
    # The exact value is a_n = 2 [sum_l g(l+1/2) - int_0^inf g], with
    # g(lam) = -lam (sqrt(lam^2 + beta^2) - lam) and beta^2 = 2 m alpha/hbar^2:
    # in each channel the quantum and the phase-space parts of Lambda w are
    # both -(nu-mu)/2 (see test_oracle.py::TestExactChannelSum), so only the
    # sum over l against the integral over continuous l remains.  It is
    # evaluated without the oracle.  The published coefficient -beta/36 is
    # about three times smaller; it stays on the report line to keep the
    # disagreement with the paper in view.
    assert ok, (
        f"oracle gives {got:.4f}, the exact value is {expected:.4f} "
        f"(published closed form {published:.4f})"
    )


def test_criterion_04_scaling_exponents(case_a_samples):
    fit_a = fit_power_law(case_a_samples)
    ok_a = abs(fit_a.gamma - 1.0) <= 0.05

    w2_samples = sample_w(coulomb(1.0), ATOMIC, geometric_grid(10.0, 100.0, 10),
                          Order.SECOND)
    fit2 = fit_power_law(w2_samples)
    ok_2 = abs(fit2.gamma - 2.0) <= 0.02

    w1_samples = sample_w(coulomb(1.0), ATOMIC, geometric_grid(10.0, 100.0, 10),
                          Order.FIRST)
    fit1 = fit_power_law(w1_samples)
    ok_1 = abs(fit1.gamma - 1.5) <= 0.05

    ok = ok_a and ok_2 and ok_1
    detail = f"case-A {fit_a.gamma:.3f}; W2 {fit2.gamma:.3f}; W1 {fit1.gamma:.3f}"
    assert _report(4, "scaling exponents 1.00/2.00/1.50 within stated windows",
                   ok, detail)


def test_criterion_05_case_a_energy_anomaly_vanishes(case_a_result):
    ok = case_a_result.status_e is Status.ZERO
    assert _report(5, "case-A energy anomaly status is zero", ok,
                   f"status_e={case_a_result.status_e.value}")


def test_criterion_06_first_order_divergence():
    samples = sample_w(coulomb(1.0), ATOMIC, geometric_grid(10.0, 1000.0, 10), Order.FIRST)
    result = extract_anomalies(samples)
    ok = (result.status_e is Status.DIVERGENT
          and abs(result.growth_exponent_e - 0.5) <= 0.05
          and result.status_n is Status.ZERO)
    detail = (f"status_e={result.status_e.value}, "
              f"growth={result.growth_exponent_e:.3f}, "
              f"status_n={result.status_n.value}")
    assert _report(6, "Coulomb-tail first order: energy divergent (exp 0.5), "
                   "number zero", ok, detail)


def test_criterion_07_screened_null_result():
    ok = True
    details = []
    for potential in ("yukawa:Z=1,kappa=0.5", "cutoff-coulomb:Z=1,rcut=1"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["anomaly", "--method", "perturbative-1", "--potential", potential,
                         "--lambda-min", "10", "--lambda-max", "1000", "--points", "8"])
        fields = dict(line.split("=", 1) for line in out.getvalue().splitlines())
        ok &= code == 0 and fields["a_n_status"] == fields["a_e_status"] == "zero"
        details.append(f"{potential}: exit {code}, "
                       f"({fields.get('a_n_status')}, {fields.get('a_e_status')})")
    assert _report(7, "screened specs: both anomalies zero", ok, "; ".join(details))


def test_criterion_08_hbar_scaling():
    grid = geometric_grid(5.0, 50.0, 6)
    spec = inverse_square(ALPHA_100)

    def a_n_at(units):
        samples = oracle_trace(spec, units, grid)
        result = extract_anomalies(samples)
        return result.a_n

    a1 = a_n_at(ATOMIC)
    a2 = a_n_at(UnitSystem(hbar=0.5))
    ratio = a2 / a1
    ok = abs(ratio - 2.0) <= 0.10 * 2.0
    assert _report(8, "reduced number anomaly scales as 1/hbar within 10%",
                   ok, f"ratio {ratio:.4f}")


def test_criterion_09_oracle_vs_perturbation():
    spec = yukawa(0.05, 1.0)  # Z e^2 m/(hbar^2 kappa) = 0.05
    grid = geometric_grid(10.0, 100.0, 6)
    config = OracleConfig(box_radius=22.0, ell_max=60, grid_points=2000,
                          richardson_levels=(16.0, 22.0))
    samples = oracle_trace(spec, ATOMIC, grid, config)
    ok = True
    worst = 0.0
    for lam, w in zip(samples.lambdas, samples.values):
        target = compute_w2(spec, ATOMIC, lam)
        dev = abs(w / target - 1.0)
        worst = max(worst, dev)
        ok &= dev <= 0.05
    assert _report(9, "weak-Yukawa oracle matches second order within 5% on "
                   "[10, 100]", ok, f"worst deviation {worst:.2%}")


def test_criterion_10_property_suites():
    timings = {}

    t0 = time.time()
    rng = np.random.default_rng(20260808)
    ok_feyn = all(
        abs(feynman_combine(a, b) * a * b - 1.0) <= 1e-8
        for a, b in 10.0 ** rng.uniform(-2, 2, size=(100, 2))
    )
    timings["feynman"] = time.time() - t0

    t0 = time.time()
    ok_fit = True
    for c, gamma in ((2.0, 1.0), (-3.0, 2.0), (0.7, 1.5)):
        lams = (1.0, 3.0, 10.0, 30.0, 100.0)
        from anomaly_forge.perturbation import Source, TraceSamples
        fit = fit_power_law(TraceSamples(
            lams, tuple(c * l**-gamma for l in lams), tuple(0.0 for _ in lams),
            Source.ORACLE, coulomb(1.0), ATOMIC))
        ok_fit &= fit.residual < 1e-10
        ok_fit &= abs(fit.amplitude - c) <= 1e-9 * abs(c)
        ok_fit &= abs(fit.gamma - gamma) <= 1e-9
    timings["fit"] = time.time() - t0

    t0 = time.time()
    rng = np.random.default_rng(7)
    ok_angle = True
    for _ in range(200):
        p, k, lam = rng.uniform(0.01, 20.0, 3)
        a = angle_averaged_resolvent(p, k, lam, ATOMIC)
        b = angle_averaged_resolvent(k, p, lam, ATOMIC)
        ok_angle &= abs(a - b) <= 1e-12 * abs(a)
    for p in (0.0, 0.5, 1.0, 3.0):
        k = 1e-2
        ratio = resolvent_bracket(p, k, 1.0, ATOMIC) / (k * k)
        ok_angle &= abs(ratio / small_k_curvature(p, 1.0, ATOMIC) - 1.0) <= 1e-3
    timings["angle"] = time.time() - t0

    t0 = time.time()
    from anomaly_forge.perturbation import Source, TraceSamples
    table = {1.0: (Status.FINITE, Status.ZERO),
             1.5: (Status.ZERO, Status.DIVERGENT),
             2.0: (Status.ZERO, Status.FINITE)}
    ok_table = True
    grid = geometric_grid(10.0, 1000.0, 8)
    for gamma, expected in table.items():
        samples = TraceSamples(grid, tuple(-2.0 * l**-gamma for l in grid),
                               tuple(0.0 for _ in grid), Source.ORACLE,
                               coulomb(1.0), ATOMIC)
        r = extract_anomalies(samples)
        ok_table &= (r.status_n, r.status_e) == expected
    timings["extraction"] = time.time() - t0

    ok = ok_feyn and ok_fit and ok_angle and ok_table
    ok &= all(dt < 10.0 for dt in timings.values())
    detail = ", ".join(f"{k} {v:.1f}s" for k, v in timings.items())
    assert _report(10, "property suites (feynman, fit, angle, extraction) "
                   "each < 10 s", ok, detail)
