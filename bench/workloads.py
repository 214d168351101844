"""Seeded job lists, job runners and independent output checks.

A workload is a fixed list of jobs, run one after another by a single
client (closed loop).  ``make_jobs`` draws each job's parameters from the
seed; the program under test only sees the generated CLI arguments or
potential specs.  ``run_job`` executes one job and returns its raw output;
``check_job`` compares that output with a reference that the package does
not compute the same way.  See README.md for why each workload exists.

Parameter ranges are chosen so that every seed costs the same work.  Before
the classical integrand is made cancellation-free, the screened oracle's
classical quadratures exhaust their evaluation budget chaotically in
(Z, kappa): a +-10% box around Z=0.05, kappa=1 gives 0 to 4 unconverged
integrals per pass, each worth 300 k evaluations.  The screened workload
therefore keeps the criterion-9 physics fixed and draws only the interior
Lambda points, all of which converge cheaply on [15, 50].
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field

from anomaly_forge import ATOMIC, UnitSystem, cli, spectral_oracle, yukawa
from anomaly_forge.anomaly import delta_an_case_a_closed_form
from anomaly_forge.perturbation import compute_w2
from anomaly_forge.spectral_oracle import OracleConfig

WORKLOADS = ("oracle-screened", "perturbative", "oracle-inverse-square")

# Key order of the `anomaly` report, as documented in the package README.
REPORT_KEYS = ("case", "a_n_reduced", "a_n_status", "a_e_reduced", "a_e_status",
               "gamma", "gamma_err", "fit_residual")

# Reduced box for the screened oracle: two radii, l_max = 30, 500 grid points
# at the smaller radius.  l_max = 20 no longer covers w2 at Lambda = 100.
SCREENED_CONFIG = OracleConfig(box_radius=12.0, ell_max=30, grid_points=500,
                               richardson_levels=(8.0, 12.0))
SCREENED_Z, SCREENED_KAPPA = 0.05, 1.0

# hbar values of the four case-A jobs.  The box radius is fixed in absolute
# units, so the number of channels grows like 1/hbar: using every value once
# per pass, in seeded order, keeps the pass cost independent of the seed.
CASE_A_HBARS = (0.5, 0.625, 0.8, 1.0)

# Shares of each workload's pass time that run interpreted Python (with the
# numpy and scipy calls it makes) and LAPACK eigensolves, from the --trace 1
# spans at the commit that added them: on oracle-screened the eigensolve
# takes 2.8 s of a 5.1 s pass and the rest is mostly the Python integrand of
# the classical quadrature.  They weigh the two parts of the host-speed
# calibration in run.py; update them when a change moves a workload's mix.
KERNEL_MIX = {
    "oracle-screened": (0.45, 0.55),
    "perturbative": (1.0, 0.0),
    "oracle-inverse-square": (1.0, 0.0),
}

TRACE_REL_TOL = 1e-6      # w2 quadrature runs at rel_tol 1e-7
COULOMB_AE_REL_TOL = 0.01
CASE_A_AN_REL_TOL = 0.02
GAMMA_TOL = 0.05


@dataclass(frozen=True)
class Job:
    """One unit of work: a CLI invocation or a library oracle call.

    ``check`` names the reference the output is compared with; ``params``
    holds the drawn values that reference needs.
    """

    check: str
    argv: tuple = ()
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CliOutput:
    exit_code: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Verdict:
    ok: bool
    rel_dev: float | None      # None when the job has no numeric reference
    detail: str = ""
    err_over_dev: tuple = ()   # screened oracle only: err / |w - w2| per Lambda


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one pass; the same seed always gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "oracle-screened":
        lams = (10.0, round(rng.uniform(15.0, 25.0), 4),
                round(rng.uniform(30.0, 50.0), 4), 100.0)
        return [Job("screened-w2", params={"Z": SCREENED_Z, "kappa": SCREENED_KAPPA,
                                           "lambdas": lams})]
    if workload == "perturbative":
        z1, z2, z_y, z_w1, z_tr = (rng.choice((1, 2, 3)) for _ in range(5))
        kappa = round(rng.uniform(0.45, 0.55), 4)
        return [
            Job("coulomb-ae", ("anomaly", "--potential", f"coulomb:Z={z1}"), {"Z": z1}),
            Job("coulomb-ae", ("anomaly", "--potential", f"coulomb:Z={z2}"), {"Z": z2}),
            Job("screened-status",
                ("anomaly", "--potential", f"yukawa:Z={z_y},kappa={kappa}"), {}),
            Job("w1-divergent",
                ("anomaly", "--method", "perturbative-1", "--potential", f"coulomb:Z={z_w1}",
                 "--lambda-min", "10", "--lambda-max", "1000", "--points", "10"), {}),
            # The report prints four decimals; the trace CSV carries all digits.
            Job("coulomb-w2-trace", ("trace", "--potential", f"coulomb:Z={z_tr}"),
                {"Z": z_tr, "points": 12}),
        ]
    if workload == "oracle-inverse-square":
        hbars = list(CASE_A_HBARS)
        rng.shuffle(hbars)
        jobs = []
        for hbar in hbars:
            beta2 = round(rng.uniform(50.0, 150.0), 3)   # 2 m alpha / hbar^2
            alpha = beta2 * hbar * hbar / 2.0
            jobs.append(Job(
                "case-a",
                ("anomaly", "--method", "oracle", "--potential", f"inverse-square:alpha={alpha!r}",
                 "--hbar", repr(hbar), "--lambda-min", "5", "--lambda-max", "50",
                 "--points", "8"),
                {"alpha": alpha, "hbar": hbar}))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def references(job: Job) -> tuple:
    """Reference values computed outside the timed passes (screened jobs only)."""
    if job.check != "screened-w2":
        return ()
    spec = yukawa(job.params["Z"], job.params["kappa"])
    return tuple(compute_w2(spec, ATOMIC, lam) for lam in job.params["lambdas"])


def run_job(job: Job):
    """Execute one job.  Module attributes are looked up at call time so that
    the tracer's wrappers, when installed, see the call."""
    if job.check == "screened-w2":
        spec = yukawa(job.params["Z"], job.params["kappa"])
        return spectral_oracle.oracle_trace(spec, ATOMIC, job.params["lambdas"],
                                            SCREENED_CONFIG)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(job.argv))
    return CliOutput(code, out.getvalue(), err.getvalue())


def check_job(job: Job, output, refs: tuple = ()) -> Verdict:
    """Compare a job's output with its independent reference."""
    if job.check == "screened-w2":
        return _check_screened(output, refs)
    if output.exit_code != 0:
        return Verdict(False, None, f"exit code {output.exit_code}: {output.stderr.strip()}")
    try:
        if job.check == "coulomb-w2-trace":
            return _check_trace(output.stdout, job.params["Z"], job.params["points"])
        fields = _parse_report(output.stdout)
        if fields is None:
            return Verdict(False, None, f"report keys differ from {REPORT_KEYS}")
        return _REPORT_CHECKS[job.check](fields, job.params)
    except ValueError as exc:       # a number or CSV row that does not parse
        return Verdict(False, None, f"unparsable output: {exc}")


def _rel_dev(value: float, ref: float) -> float:
    return abs(value / ref - 1.0)


def _check_screened(samples, w_ref) -> Verdict:
    """|w - w2| <= err at every Lambda; w2 from the 2D perturbative quadrature."""
    if len(samples.lambdas) != len(w_ref):
        return Verdict(False, None, "oracle returned the wrong number of points")
    devs, ratios, uncovered = [], [], []
    for lam, w, err, ref in zip(samples.lambdas, samples.values, samples.errors, w_ref):
        dev = abs(w - ref)
        devs.append(dev / abs(ref))
        ratios.append(err / dev if dev > 0.0 else math.inf)
        if dev > err:
            uncovered.append(f"Lambda={lam:g}: |w-w2|={dev:.3e} > err={err:.3e}")
    return Verdict(not uncovered, max(devs), "; ".join(uncovered), tuple(ratios))


def _check_trace(stdout: str, z: float, points: int) -> Verdict:
    """Second-order CSV against the bare-Coulomb closed form -Z^2 e^2/(8 Lambda^2 a0)."""
    lines = stdout.splitlines()
    if not lines or lines[0] != "lambda,w,err,source" or len(lines) != points + 1:
        return Verdict(False, None, "trace CSV header or row count is wrong")
    worst = 0.0
    for line in lines[1:]:
        lam, w, _err, source = line.split(",")
        if source != "second-order":
            return Verdict(False, None, f"trace source {source!r}")
        ref = -z * z / (8.0 * float(lam) ** 2)
        worst = max(worst, _rel_dev(float(w), ref))
    ok = worst <= TRACE_REL_TOL
    return Verdict(ok, worst, "" if ok else f"w deviates {worst:.2e} from closed form")


def _parse_report(stdout: str) -> dict | None:
    pairs = [line.partition("=") for line in stdout.splitlines()]
    if tuple(k for k, _, _ in pairs) != REPORT_KEYS:
        return None
    return {k: v for k, _, v in pairs}


def _statuses(fields: dict, case: str, a_n: str, a_e: str) -> list[str]:
    want = {"case": case, "a_n_status": a_n, "a_e_status": a_e}
    return [f"{k}={fields[k]!r}, expected {v!r}" for k, v in want.items()
            if not fields[k].startswith(v)]


def _check_coulomb_ae(fields: dict, params: dict) -> Verdict:
    problems = _statuses(fields, "B", "zero", "finite")
    if problems:
        return Verdict(False, None, "; ".join(problems))
    ref = params["Z"] ** 2 / 4.0     # Z^2 e^2 / (4 a0), atomic units
    dev = _rel_dev(float(fields["a_e_reduced"]), ref)
    ok = dev <= COULOMB_AE_REL_TOL
    return Verdict(ok, dev, "" if ok else f"a_e off Z^2/4 by {dev:.2%}")


def _check_screened_status(fields: dict, params: dict) -> Verdict:
    problems = _statuses(fields, "B", "zero", "finite")
    return Verdict(not problems, None, "; ".join(problems))


def _check_w1(fields: dict, params: dict) -> Verdict:
    problems = _statuses(fields, "B", "zero", "divergent")
    gamma = float(fields["gamma"])
    if abs(gamma - 1.5) > GAMMA_TOL:
        problems.append(f"gamma={gamma}, expected 1.5 +- {GAMMA_TOL}")
    return Verdict(not problems, _rel_dev(gamma, 1.5), "; ".join(problems))


def case_a_reference(alpha: float, hbar: float) -> float:
    """-sqrt(2 m alpha)/(12 hbar): the package's cross-checked case-A value."""
    return -math.sqrt(2.0 * alpha) / (12.0 * hbar)


def case_a_published_ratios(jobs: list[Job], outputs: list) -> list[float]:
    """a_n over the published ``delta_an_case_a_closed_form`` for each case-A
    job that reported a number.  About 3 (acceptance criterion 3); shown,
    never checked."""
    ratios = []
    for job, out in zip(jobs, outputs):
        if job.check != "case-a" or not isinstance(out, CliOutput):
            continue
        fields = _parse_report(out.stdout)
        with contextlib.suppress(TypeError, ValueError):
            published = delta_an_case_a_closed_form(job.params["alpha"],
                                                    UnitSystem(hbar=job.params["hbar"]))
            ratios.append(float(fields["a_n_reduced"]) / published)
    return ratios


def _check_case_a(fields: dict, params: dict) -> Verdict:
    problems = _statuses(fields, "A", "finite", "zero")
    if problems:
        return Verdict(False, None, "; ".join(problems))
    gamma = float(fields["gamma"])
    if abs(gamma - 1.0) > GAMMA_TOL:
        problems.append(f"gamma={gamma}, expected 1 +- {GAMMA_TOL}")
    dev = _rel_dev(float(fields["a_n_reduced"]),
                   case_a_reference(params["alpha"], params["hbar"]))
    if dev > CASE_A_AN_REL_TOL:
        problems.append(f"a_n off -sqrt(2 m alpha)/(12 hbar) by {dev:.2%}")
    return Verdict(not problems, dev, "; ".join(problems))


_REPORT_CHECKS = {
    "coulomb-ae": _check_coulomb_ae,
    "screened-status": _check_screened_status,
    "w1-divergent": _check_w1,
    "case-a": _check_case_a,
}
