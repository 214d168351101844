"""Self-tests of the benchmark: seeded job lists, span arithmetic, checks.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from anomaly_forge import ATOMIC, yukawa  # noqa: E402
from anomaly_forge.perturbation import Source, TraceSamples  # noqa: E402

COULOMB_REPORT = ("case=B\na_n_reduced=0 (below tolerance)\na_n_status=zero\n"
                  "a_e_reduced={a_e:.4f}\na_e_status=finite\ngamma=2.0000\n"
                  "gamma_err=2.91e-12\nfit_residual=6.65e-12\n")
W1_REPORT = ("case=B\na_n_reduced=0 (below tolerance)\na_n_status=zero\n"
             "a_e_reduced=n/a (divergent)\na_e_status=divergent growth_exponent=0.50\n"
             "gamma={gamma:.4f}\ngamma_err=1.65e-15\nfit_residual=6.86e-15\n")
CASE_A_REPORT = ("case=A\na_n_reduced={a_n:.4f}\na_n_status=finite\n"
                 "a_e_reduced=0 (below tolerance)\na_e_status={a_e_status}\n"
                 "gamma=0.9985\ngamma_err=1.00e-03\nfit_residual=1.00e-03\n")


def _cli(text, code=0):
    return workloads.CliOutput(code, text, "")


def _job(workload, check):
    return next(j for j in workloads.make_jobs(workload, 7) if j.check == check)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_jobs_other_seed_other_jobs(workload):
    assert workloads.make_jobs(workload, 3) == workloads.make_jobs(workload, 3)
    assert workloads.make_jobs(workload, 3) != workloads.make_jobs(workload, 4)


def test_workload_names_and_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert run.WORKLOAD_NAMES == workloads.WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert all(m["unit"] == run.END_TO_END_UNITS[m["name"]] for m in spec["end_to_end"])
    passes = [run.Pass(1.0, traced, [], [], [1.0]) for traced in (False, True)]
    layer = run.per_layer(tracing, passes, 0.5)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])


def test_end_to_end_times_are_rescaled_by_the_host_scale():
    passes = [run.Pass(sum(t), False, [], [], list(t)) for t in ((1.0, 2.0), (2.0, 3.0))]
    ref_i, ref_n = run.CALIBRATION_REF_S
    # interpreted part 2x slower than nominal, LAPACK part at nominal speed
    calibrations = [(ref_i * f, ref_n) for f in (1.5, 2.5)]
    assert run.host_scale(calibrations, (1.0, 0.0)) == pytest.approx(0.5)
    assert run.host_scale(calibrations, (0.0, 1.0)) == pytest.approx(1.0)
    mixed = run.host_scale(calibrations, (0.5, 0.5))
    assert mixed == pytest.approx(1.0 / 1.5)
    metrics = run.end_to_end(passes, [0.8, 1.0, 3.0], 0.5, mixed)
    assert metrics["run_s"] == pytest.approx((3.0 + 5.0) / 2 / 1.5)
    assert metrics["setup_s"] == pytest.approx(0.5 * 1.0)


def test_every_workload_has_a_kernel_mix_summing_to_one():
    assert set(workloads.KERNEL_MIX) == set(workloads.WORKLOADS)
    assert all(sum(mix) == pytest.approx(1.0) for mix in workloads.KERNEL_MIX.values())


def _span(i, name, start, end, parent=None, **counts):
    return tracing.Span(i, name, start, end, parent, counts)


def test_self_time_subtracts_union_of_direct_children_only():
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "perturbation.sample_w", 1.0, 3.0, 0, points=12),
        _span(2, "quadrature.w2", 1.5, 2.5, 1, evals=450, unconverged=0),
        _span(3, "quadrature.fit", 2.0, 4.0, 0),       # overlaps span 1
        _span(4, "anomaly.extract", 6.0, 7.0, 0),
        _span(5, "quadrature.fit", 9.5, 12.0, 0),      # clipped at the parent's end
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (3.0 + 1.0 + 0.5))
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(1.0)
    m = tracing.layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(5.5)
    assert m["perturbation.sample_w.points"] == 12
    assert m["quadrature.w2.evals"] == 450
    assert m["quadrature.w2.us_per_eval"] == pytest.approx(1.0 / 450 * 1e6)
    assert m["quadrature.fit.s"] == pytest.approx(2.0 + 2.5)
    assert m["spectral_oracle.eigensolve.calls"] == 0


def test_tracer_records_nesting_and_restores_originals():
    class Layer:
        @staticmethod
        def inner(n):
            return list(range(n))

        @staticmethod
        def outer(n):
            return Layer.inner(n)

    tracer = tracing.Tracer()
    points = ((Layer, "inner", "inner", lambda a, r: {"rows": len(r)}),
              (Layer, "outer", "outer", None))
    original = Layer.inner
    with tracer.installed(points):
        Layer.outer(5)
    assert Layer.inner is original
    outer, inner = sorted(tracer.spans, key=lambda s: s.name, reverse=True)
    assert (outer.parent, inner.parent, inner.counts) == (None, outer.id, {"rows": 5})


def test_coulomb_check_rejects_wrong_energy_anomaly():
    job = _job("perturbative", "coulomb-ae")
    a_e = job.params["Z"] ** 2 / 4.0
    assert workloads.check_job(job, _cli(COULOMB_REPORT.format(a_e=a_e))).ok
    assert not workloads.check_job(job, _cli(COULOMB_REPORT.format(a_e=a_e * 1.1))).ok
    assert not workloads.check_job(job, _cli(COULOMB_REPORT.format(a_e=a_e), code=3)).ok
    swapped = COULOMB_REPORT.format(a_e=a_e).replace("a_e_status=finite", "a_e_status=zero")
    assert not workloads.check_job(job, _cli(swapped)).ok


def test_w1_check_rejects_wrong_exponent():
    job = _job("perturbative", "w1-divergent")
    assert workloads.check_job(job, _cli(W1_REPORT.format(gamma=1.5))).ok
    assert not workloads.check_job(job, _cli(W1_REPORT.format(gamma=1.5 * 1.1))).ok


def test_trace_check_rejects_wrong_w():
    job = _job("perturbative", "coulomb-w2-trace")
    z = job.params["Z"]
    lams = [10.0 * 10 ** (i / 11) for i in range(12)]

    def csv(scale):
        rows = [f"{lam!r},{-scale * z * z / (8 * lam * lam)!r},1e-15,second-order"
                for lam in lams]
        return "lambda,w,err,source\n" + "\n".join(rows) + "\n"

    assert workloads.check_job(job, _cli(csv(1.0))).ok
    assert not workloads.check_job(job, _cli(csv(1.0 + 1e-5))).ok
    assert not workloads.check_job(job, _cli(csv(1.0).replace("second-order", "oracle"))).ok


def test_case_a_check_rejects_wrong_number_anomaly_and_status():
    job = _job("oracle-inverse-square", "case-a")
    a_n = workloads.case_a_reference(job.params["alpha"], job.params["hbar"])
    good = CASE_A_REPORT.format(a_n=a_n, a_e_status="zero")
    assert workloads.check_job(job, _cli(good)).ok
    assert not workloads.check_job(
        job, _cli(CASE_A_REPORT.format(a_n=a_n * 1.1, a_e_status="zero"))).ok
    assert not workloads.check_job(
        job, _cli(CASE_A_REPORT.format(a_n=a_n, a_e_status="finite"))).ok
    # the published coefficient is a third of the package's: reported, not checked
    ratio, = workloads.case_a_published_ratios([job], [_cli(good)])
    assert ratio == pytest.approx(3.0, rel=1e-3)


def test_screened_check_rejects_point_outside_its_error_bar():
    job = _job("oracle-screened", "screened-w2")
    lams = job.params["lambdas"]
    refs = tuple(-1.0 / lam**2 for lam in lams)

    def samples(shift):
        return TraceSamples(lams, tuple(r * (1.0 + shift) for r in refs),
                            tuple(0.05 * abs(r) for r in refs), Source.ORACLE,
                            yukawa(job.params["Z"], job.params["kappa"]), ATOMIC)

    good = workloads.check_job(job, samples(0.01), refs)
    assert good.ok and good.rel_dev == pytest.approx(0.01)
    assert good.err_over_dev == pytest.approx((5.0,) * len(lams))
    assert not workloads.check_job(job, samples(0.1), refs).ok


def test_jobs_serialise_for_the_run_record():
    for workload in workloads.WORKLOADS:
        json.dumps([dataclasses.asdict(j) for j in workloads.make_jobs(workload, 1)])
