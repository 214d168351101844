"""Command-line interface.

Commands
--------
classify    print the singularity class of a potential spec
trace       sample the trace difference over a Lambda grid, emit CSV
anomaly     sample the trace difference, then one ``extract_anomalies`` call
            (zero test, power-law fit, limits), emit a report
reproduce   run one named verification scenario and print pass/fail

Exit codes: 0 success, 1 reproduction-target failure, 2 argument errors
(non-finite parameters, units or samples, a reproduction whose computed or
expected value is not finite, a potential or units whose derived quantities
leave the float range and an unwritable --out path included), 3 unconverged
quadrature or non-power-law samples.

``main(argv)`` may be called any number of times in one process.  It builds
its argument parser once, on the first call, and reuses it: parsing fills a
fresh namespace each time and changes nothing in the parser, and argparse
looks up ``sys.stdout`` and ``sys.stderr`` only when it prints, so
``contextlib.redirect_stdout`` and ``redirect_stderr`` still apply.  Importing
the module builds no parser.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import potentials
from .anomaly import (
    AnomalyResult,
    Status,
    delta_ae_case_b_closed_form,
    delta_an_case_a_closed_form,
    delta_an_case_a_exact,
    extract_anomalies,
    fit_power_law,
)
from .errors import MixedSignError, NotPowerLawError, UnconvergedError
from .perturbation import Order, TraceSamples, geometric_grid, sample_w
from .potentials import LargeXTail, classify, parse_potential
from .units import UnitSystem

_METHOD_CHOICES = ("perturbative-1", "perturbative-2", "oracle")
_TARGETS = ("eq7", "case-b-energy", "w1-scaling", "w2-closed-form")


def oracle_trace(spec, units, lambda_grid, config=None):
    """``spectral_oracle.oracle_trace``, imported on the first call: the
    oracle needs numpy, which no other command loads."""
    from .spectral_oracle import oracle_trace as spectral_oracle_trace
    return spectral_oracle_trace(spec, units, lambda_grid, config)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="anomaly-forge",
        description="Trace-difference anomalies of singular radial potentials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_units(p):
        p.add_argument("--hbar", type=float, default=1.0)
        p.add_argument("--mass", type=float, default=1.0)
        p.add_argument("--e2", type=float, default=1.0)

    def add_grid(p):
        p.add_argument("--lambda-min", type=float, default=10.0)
        p.add_argument("--lambda-max", type=float, default=100.0)
        p.add_argument("--points", type=int, default=12)

    def add_io(p):
        p.add_argument("--format", choices=("csv", "keyvalue"), default="keyvalue")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("classify", help="print the singularity class")
    p.add_argument("--potential", required=True)

    p = sub.add_parser("trace", help="sample w(Lambda), emit CSV")
    p.add_argument("--potential", required=True)
    add_grid(p)
    p.add_argument("--method", choices=_METHOD_CHOICES, default="perturbative-2")
    p.add_argument("--out", default=None)
    add_units(p)

    p = sub.add_parser("anomaly", help="trace + fit + anomaly extraction")
    p.add_argument("--potential", required=True)
    add_grid(p)
    p.add_argument("--method", choices=_METHOD_CHOICES, default="perturbative-2")
    add_io(p)
    add_units(p)

    p = sub.add_parser("reproduce", help="run a named verification scenario")
    p.add_argument("--target", choices=_TARGETS, required=True)
    p.add_argument("--Z", type=float, default=1.0)
    add_units(p)
    return parser


def _lambda_grid(args) -> tuple:
    """The geometric grid of the window flags.  ``main`` has checked the bounds finite and
    ordered and --points >= 4, so once --lambda-min is positive and the bounds' ratio
    finite, the grid can fail only by repeating a Lambda: that error names the flags."""
    lo, hi, points = args.lambda_min, args.lambda_max, args.points
    try:
        return geometric_grid(lo, hi, points)
    except ValueError:
        if not (lo > 0.0 and math.isfinite(hi / lo)):
            raise
        raise ValueError(f"--lambda-min {lo:.17g} and --lambda-max {hi:.17g} are too close "
                         f"for --points {points} distinct Lambda values; widen the window "
                         f"or lower --points") from None


def _samples_for(args, units: UnitSystem, spec) -> TraceSamples:
    grid = _lambda_grid(args)
    if args.method == "perturbative-1":
        return sample_w(spec, units, grid, Order.FIRST)
    if args.method == "perturbative-2":
        return sample_w(spec, units, grid, Order.SECOND)
    return oracle_trace(spec, units, grid)


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --out {out_path}: {exc.strerror or exc}") from exc


def _samples_csv(samples: TraceSamples) -> str:
    lines = ["lambda,w,err,source"]
    for lam, w, e in zip(samples.lambdas, samples.values, samples.errors):
        lines.append(f"{lam:.17g},{w:.17g},{e:.17g},{samples.source.value}")
    return "\n".join(lines) + "\n"


def _report_fields(result: AnomalyResult) -> list[tuple[str, str]]:
    fields = [("case", result.case_label.value)]

    def channel(prefix, value, status, growth):
        if status is Status.DIVERGENT:
            fields.append((f"{prefix}_reduced", "n/a (divergent)"))
            fields.append((f"{prefix}_status",
                           f"divergent growth_exponent={growth:.2f}"))
        elif status is Status.ZERO:
            fields.append((f"{prefix}_reduced", "0 (below tolerance)"))
            fields.append((f"{prefix}_status", "zero"))
        else:
            fields.append((f"{prefix}_reduced", f"{value:.4f}"))
            fields.append((f"{prefix}_status", "finite"))

    channel("a_n", result.a_n, result.status_n, result.growth_exponent_n)
    channel("a_e", result.a_e, result.status_e, result.growth_exponent_e)
    if result.fit is not None:
        fields.append(("gamma", f"{result.fit.gamma:.4f}"))
        fields.append(("gamma_err", f"{result.fit.gamma_err:.2e}"))
        fields.append(("fit_residual", f"{result.fit.residual:.2e}"))
    else:
        fields.append(("gamma", "n/a"))
        fields.append(("gamma_err", "n/a"))
        fields.append(("fit_residual", "n/a"))
    return fields


def emit_report(result: AnomalyResult, fmt: str) -> str:
    """Serialize an anomaly result as key=value lines or a two-row CSV."""
    fields = _report_fields(result)
    if fmt == "keyvalue":
        return "".join(f"{k}={v}\n" for k, v in fields)
    if fmt == "csv":
        head = ",".join(k for k, _ in fields)
        row = ",".join('"' + v + '"' if "," in v else v for _, v in fields)
        return head + "\n" + row + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _cmd_classify(args) -> int:
    spec = parse_potential(args.potential)
    sc = classify(spec)
    tail = "Coulomb tail" if sc.large_x_tail is LargeXTail.COULOMB_TAIL else "screened tail"
    print(f"case {sc.case_label.value}, {tail}")
    return 0


def _cmd_trace(args, units: UnitSystem) -> int:
    spec = parse_potential(args.potential)
    samples = _samples_for(args, units, spec)
    _emit(_samples_csv(samples), args.out)
    return 0


def _cmd_anomaly(args, units: UnitSystem) -> int:
    spec = parse_potential(args.potential)
    result = extract_anomalies(_samples_for(args, units, spec))
    _emit(emit_report(result, args.format), args.out)
    return 0


def _check(label, computed, expected, rel_tol) -> bool:
    """Print one PASS/FAIL line.  A non-finite value is no reproduction to judge: it
    raises ValueError (exit 2) instead."""
    if not (math.isfinite(computed) and math.isfinite(expected)):
        raise ValueError(f"{label} is not finite: computed {computed:+.6g}, "
                         f"expected {expected:+.6g}")
    ok = abs(computed - expected) <= rel_tol * abs(expected)
    verdict = "PASS" if ok else "FAIL"
    print(f"{label}: computed {computed:+.6g}, expected {expected:+.6g} "
          f"(tolerance {rel_tol:.1%}) -> {verdict}")
    return ok


def _cmd_reproduce(args, units: UnitSystem) -> int:
    z = args.Z
    spec = potentials.coulomb(z)   # every target checks --Z, eq7 too, which does not read it
    ok = True
    if args.target == "w2-closed-form":
        from .perturbation import compute_w2, w2_closed_form
        for lam in (10.0, 40.0):
            ok &= _check(f"w2(Z={z:g}, Lambda={lam:g})",
                         compute_w2(spec, units, lam),
                         w2_closed_form(z, units, lam), 1e-3)
    elif args.target == "case-b-energy":
        samples = sample_w(spec, units, geometric_grid(10.0, 100.0, 12), Order.SECOND)
        result = extract_anomalies(samples)
        ok &= _check(f"energy anomaly (Z={z:g})", result.a_e,
                     delta_ae_case_b_closed_form(z, units), 1e-2)
    elif args.target == "w1-scaling":
        samples = sample_w(spec, units, geometric_grid(10.0, 1000.0, 10), Order.FIRST)
        fit = fit_power_law(samples)
        ok &= _check("first-order decay exponent", fit.gamma, 1.5, 0.05 / 1.5)
    elif args.target == "eq7":
        alpha = 50.0 * units.hbar**2 / units.m
        spec = potentials.inverse_square(alpha)
        result = extract_anomalies(oracle_trace(spec, units, geometric_grid(5.0, 50.0, 8)))
        ok &= _check("number anomaly (2 m alpha/hbar^2 = 100)", result.a_n,
                     delta_an_case_a_exact(alpha, units), 0.10)
        published = delta_an_case_a_closed_form(alpha, units)
        print(f"published closed form -sqrt(2 m alpha)/(36 hbar) (not a check): "
              f"{published:+.6g}, computed/published {result.a_n / published:.3f}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "classify":
            return _cmd_classify(args)
        units = UnitSystem(hbar=args.hbar, m=args.mass, e2=args.e2)
        if args.command == "reproduce":
            return _cmd_reproduce(args, units)
        for name, value in (("--lambda-min", args.lambda_min), ("--lambda-max", args.lambda_max)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (args.lambda_min < args.lambda_max):
            raise ValueError("--lambda-min must be below --lambda-max")
        if args.points < 4:
            raise ValueError("--points must be at least 4 for fit-consuming commands")
        if args.command == "trace":
            return _cmd_trace(args, units)
        return _cmd_anomaly(args, units)
    except (UnconvergedError, NotPowerLawError, MixedSignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:   # argument, spec, unit and representability errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError:     # e.g. hbar^2 overflowing, or a0 underflowing to 0
        spec = f"--potential {args.potential}, " if "potential" in args else ""
        print(f"error: a derived quantity is out of float range at {spec}--hbar {args.hbar:g}, "
              f"--mass {args.mass:g} and --e2 {args.e2:g}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
