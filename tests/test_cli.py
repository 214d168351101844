import csv
import io

import pytest

from anomaly_forge.anomaly import extract_anomalies
from anomaly_forge.cli import emit_report, main
from anomaly_forge.perturbation import Order, geometric_grid, sample_w
from anomaly_forge.potentials import coulomb, cutoff_coulomb
from anomaly_forge.units import ATOMIC


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# (argv, exit code, stdout, stderr), byte for byte.  The first-order Coulomb
# gamma_err and fit_residual are rounding noise of an exact power law; they
# move with any last-bit change in w1 and are pinned all the same.
_PINNED = {
    "anomaly-yukawa-keyvalue": (
        ("anomaly", "--potential", "yukawa:Z=1,kappa=0.5"),
        0,
        "case=B\n"
        "a_n_reduced=0 (below tolerance)\n"
        "a_n_status=zero\n"
        "a_e_reduced=0.2194\n"
        "a_e_status=finite\n"
        "gamma=1.9765\n"
        "gamma_err=1.14e-03\n"
        "fit_residual=2.60e-03\n",
        ""),
    "anomaly-yukawa-csv": (
        ("anomaly", "--potential", "yukawa:Z=1,kappa=0.5", "--format", "csv"),
        0,
        "case,a_n_reduced,a_n_status,a_e_reduced,a_e_status,gamma,gamma_err,fit_residual\n"
        "B,0 (below tolerance),zero,0.2194,finite,1.9765,1.14e-03,2.60e-03\n",
        ""),
    "anomaly-coulomb-first-order": (
        ("anomaly", "--method", "perturbative-1", "--potential", "coulomb:Z=1",
         "--lambda-min", "10", "--lambda-max", "1000", "--points", "8"),
        0,
        "case=B\n"
        "a_n_reduced=0 (below tolerance)\n"
        "a_n_status=zero\n"
        "a_e_reduced=n/a (divergent)\n"
        "a_e_status=divergent growth_exponent=0.50\n"
        "gamma=1.5000\n"
        "gamma_err=8.50e-17\n"
        "fit_residual=3.14e-16\n",
        ""),
    "anomaly-cutoff": (
        ("anomaly", "--potential", "cutoff-coulomb:Z=1,rcut=1"),
        0,
        "case=C\n"
        "a_n_reduced=0 (below tolerance)\n"
        "a_n_status=zero\n"
        "a_e_reduced=0 (below tolerance)\n"
        "a_e_status=zero\n"
        "gamma=2.4831\n"
        "gamma_err=8.81e-04\n"
        "fit_residual=2.01e-03\n",
        ""),
    "classify": (
        ("classify", "--potential", "coulomb:Z=1"),
        0, "case B, Coulomb tail\n", ""),
    "reproduce-w1-scaling": (
        ("reproduce", "--target", "w1-scaling"),
        0,
        "first-order decay exponent: computed +1.5, expected +1.5 (tolerance 3.3%) -> PASS\n",
        ""),
    "bad-window": (
        ("anomaly", "--potential", "coulomb:Z=1", "--lambda-min", "50", "--lambda-max", "10"),
        2, "", "error: --lambda-min must be below --lambda-max\n"),
    "too-few-points": (
        ("anomaly", "--potential", "coulomb:Z=1", "--points", "2"),
        2, "", "error: --points must be at least 4 for fit-consuming commands\n"),
    "zero-hbar": (
        ("anomaly", "--potential", "coulomb:Z=1", "--hbar", "0"),
        2, "", "error: hbar must be strictly positive, got 0.0\n"),
    # the unit system is checked before the grid options
    "zero-hbar-and-too-few-points": (
        ("anomaly", "--potential", "coulomb:Z=1", "--hbar", "0", "--points", "2"),
        2, "", "error: hbar must be strictly positive, got 0.0\n"),
}


@pytest.mark.parametrize("argv, code, out, err", list(_PINNED.values()), ids=list(_PINNED))
def test_pinned_bytes(capsys, argv, code, out, err):
    assert run_cli(capsys, *argv) == (code, out, err)


@pytest.mark.parametrize("argv, message", [
    (("anomaly", "--potential", "coulomb:Z=inf"), "Z must be finite, got inf"),
    (("anomaly", "--potential", "coulomb:Z=1", "--hbar", "inf"), "hbar must be finite, got inf"),
    (("trace", "--potential", "coulomb:Z=1e200", "--points", "4"),
     "sample at Lambda = 10 is not finite: w = -inf"),
    (("anomaly", "--potential", "coulomb:Z=1", "--lambda-max", "inf"),
     "--lambda-max must be finite, got inf"),
    (("anomaly", "--potential", "coulomb:Z=1", "--lambda-min", "nan"),
     "--lambda-min must be finite, got nan"),
    # the unit system is checked before the Lambda window
    (("anomaly", "--potential", "coulomb:Z=1", "--hbar", "0", "--lambda-max", "inf"),
     "hbar must be strictly positive, got 0.0"),
    (("anomaly", "--potential", "coulomb:Z=1", "--lambda-min", "1e-200", "--lambda-max", "1e-100"),
     "Lambda = 1e-200 is out of range: Lambda^2 = 0 is not a normal float"),
    (("anomaly", "--potential", "coulomb:Z=1", "--lambda-min", "1e200", "--lambda-max", "1e300"),
     "Lambda = 1e+200 is out of range: Lambda^2 = inf is not a normal float"),
    (("anomaly", "--method", "perturbative-1", "--potential", "coulomb:Z=1",
      "--lambda-min", "1e-300", "--lambda-max", "1e-290"),
     "Lambda = 1e-300 is out of range: Lambda^-3/2 = inf is not a normal float"),
    (("anomaly", "--method", "perturbative-1", "--potential", "coulomb:Z=1",
      "--lambda-min", "1e-320", "--lambda-max", "1"),
     "Lambda window 9.99989e-321 to 1 is too wide: lam_max / lam_min overflows"),
], ids=["infinite-charge", "infinite-hbar", "overflowing-w", "infinite-lambda-max",
        "nan-lambda-min", "zero-hbar-and-infinite-lambda-max", "underflowing-lambda-squared",
        "overflowing-lambda-squared", "overflowing-lambda-power", "overflowing-window"])
def test_nonfinite_input_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


class TestClassifyCommand:
    def test_coulomb(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--potential", "coulomb:Z=1")
        assert code == 0
        assert out.strip() == "case B, Coulomb tail"

    def test_cutoff(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--potential",
                               "cutoff-coulomb:Z=1,rcut=1")
        assert code == 0
        assert out.strip() == "case C, screened tail"

    def test_bad_spec_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--potential", "coulomb:charge=1")
        assert code == 2
        assert "unknown keys" in err


class TestTraceCommand:
    def test_csv_schema(self, capsys, tmp_path):
        out_file = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "trace", "--potential", "coulomb:Z=1",
                             "--lambda-min", "10", "--lambda-max", "80",
                             "--points", "4", "--out", str(out_file))
        assert code == 0
        rows = list(csv.reader(io.StringIO(out_file.read_text())))
        assert rows[0] == ["lambda", "w", "err", "source"]
        assert len(rows) == 5
        assert rows[1][3] == "second-order"
        assert all(r[2] == "0" for r in rows[1:])
        lams = [float(r[0]) for r in rows[1:]]
        assert lams == sorted(lams)

    def test_too_few_points_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "trace", "--potential", "coulomb:Z=1",
                               "--points", "2")
        assert code == 2
        assert "at least 4" in err

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "trace", "--potential", "yukawa:Z=1,kappa=0.5",
                                 "--lambda-min", "10", "--lambda-max", "40",
                                 "--points", "5", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_case_a_oracle_digits_pinned(self, capsys):
        """The case-A oracle's trace at 2 m alpha / hbar^2 = 100, to all 17 digits.

        Every Bessel ratio comes from the backward continued fraction, one
        batched call per box; reorganising that work (batching, the order of
        the sweep) must leave these bytes alone.
        The linear response is already the telescoped ladder sum, with no
        step-h difference in the order; ROADMAP item 4's remaining bias fix,
        a 1/R radius term, will move them on purpose.  Any such update is
        recorded in CHANGES.md with the old and new values.
        """
        code, out, _ = run_cli(capsys, "trace", "--method", "oracle",
                               "--potential", "inverse-square:alpha=50",
                               "--lambda-min", "5", "--lambda-max", "50", "--points", "8")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["lambda", "w", "err", "source"]
        assert [(r[1], r[2]) for r in rows[1:]] == [
            ("-0.083239936607755999", "0.0052698462214682863"),
            ("-0.059894473847136746", "0.0027335471969121405"),
            ("-0.043106037638380661", "0.0014166709363478114"),
            ("-0.031025478917765852", "0.00073379478585878068"),
            ("-0.022330631337499653", "0.00037996268898191212"),
            ("-0.016072253081317139", "0.00019671301561096938"),
            ("-0.011567625080582893", "0.00010183342292295557"),
            ("-0.0083253867643157051", "5.2716913927978288e-05"),
        ]

    def test_screened_oracle_digits_pinned(self, capsys):
        """The weak-Yukawa box oracle's trace, to all 17 digits.

        Reorganising the classical term or the pivot recursion must leave
        these bytes alone; any change to them is recorded in CHANGES.md with
        the old and new values.
        """
        code, out, _ = run_cli(capsys, "trace", "--method", "oracle",
                               "--potential", "yukawa:Z=0.05,kappa=1",
                               "--lambda-min", "10", "--lambda-max", "100", "--points", "4")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["lambda", "w", "err", "source"]
        assert [(r[1], r[2]) for r in rows[1:]] == [
            ("-2.6651791574353677e-06", "2.3033650709511528e-07"),
            ("-6.0312133313835254e-07", "4.0116602080259747e-08"),
            ("-1.3447104085570895e-07", "7.3854182618589292e-09"),
            ("-2.9667536646324413e-08", "1.7124359086205263e-09"),
        ]

    def test_bad_window_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "trace", "--potential", "coulomb:Z=1",
                             "--lambda-min", "50", "--lambda-max", "10")
        assert code == 2


class TestAnomalyCommand:
    def test_keyvalue_keys_exact(self, capsys):
        code, out, _ = run_cli(capsys, "anomaly", "--potential", "coulomb:Z=1")
        assert code == 0
        keys = [line.split("=", 1)[0] for line in out.strip().splitlines()]
        assert keys == ["case", "a_n_reduced", "a_n_status", "a_e_reduced",
                        "a_e_status", "gamma", "gamma_err", "fit_residual"]
        assert "a_e_reduced=0.2500" in out

    def test_zero_status_line(self, capsys):
        code, out, _ = run_cli(capsys, "anomaly", "--potential", "coulomb:Z=1")
        assert code == 0
        assert "a_n_reduced=0 (below tolerance)" in out

    def test_divergent_line(self, capsys):
        code, out, _ = run_cli(capsys, "anomaly", "--potential", "coulomb:Z=1",
                               "--method", "perturbative-1",
                               "--lambda-min", "10", "--lambda-max", "1000",
                               "--points", "8")
        assert code == 0
        assert "a_e_status=divergent growth_exponent=0.50" in out

    def test_screened_first_order_all_zero(self, capsys):
        code, out, _ = run_cli(capsys, "anomaly", "--potential", "yukawa:Z=1,kappa=0.5",
                               "--method", "perturbative-1")
        assert code == 0
        assert "a_n_status=zero" in out and "a_e_status=zero" in out

    def test_cutoff_second_order_case_c(self, capsys):
        # w2 falls like Lambda^-5/2, past both limit-critical powers
        code, out, _ = run_cli(capsys, "anomaly", "--method", "perturbative-2",
                               "--potential", "cutoff-coulomb:Z=1,rcut=1")
        assert code == 0
        assert out.startswith("case=C\n")
        assert "a_n_status=zero" in out and "a_e_status=zero" in out

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "anomaly", "--potential", "coulomb:Z=1",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "case" and len(rows) == 2

    def test_unit_overrides(self, capsys):
        # hbar = 2, e2 = 1, m = 1: a0 = 4, energy anomaly Z^2 e2/(4 a0) = 1/16
        code, out, _ = run_cli(capsys, "anomaly", "--potential", "coulomb:Z=1",
                               "--hbar", "2")
        assert code == 0
        assert "a_e_reduced=0.0625" in out


    @pytest.mark.parametrize("potential, lambda_min", [
        ("yukawa:Z=50,kappa=0.01", "0.05"),
        ("yukawa:Z=50,kappa=0.1", "0.01"),
    ])
    def test_core_past_the_wall_exits_2(self, capsys, potential, lambda_min):
        # both classically forbidden cores reach past the default box (R = 40)
        # at the lowest Lambda, and the box-bar guard refuses both before any
        # work: at kappa = 0.01 the box is 0.4 screening lengths, and at
        # kappa = 0.1 (kappa R = 4) Lambda = 0.01 has k = 1.41 kappa and g = 1000.
        # Within the guard's bounds no core reaches the wall: Z e2 e^-kappa R / R
        # > Lambda would need e^-kappa R > (9/80) kappa R, false at kappa R >= 4
        code, _, err = run_cli(capsys, "anomaly", "--method", "oracle",
                               "--potential", potential, "--lambda-min", lambda_min,
                               "--lambda-max", "1", "--points", "4")
        assert code == 2
        assert "the box bar is checked at kappa R >= 4, k >= 3 kappa and g <= 80" in err
        assert f"at Lambda = {float(lambda_min):g}," in err
        if potential.endswith("kappa=0.01"):
            assert "here kappa R = 0.4 (R = 40)" in err
        else:
            assert "k = 1.41421 kappa" in err and "g = 1000" in err

    @pytest.mark.parametrize("potential", [
        "cutoff-coulomb:Z=1,rcut=1", "cutoff-coulomb:Z=0.01,rcut=0.1",
        "cutoff-coulomb:Z=50,rcut=0.5",
    ])
    def test_cutoff_coulomb_oracle_exits_2(self, capsys, potential):
        # a box cannot hold the 1/r tail; the oracle says so before any work
        code, out, err = run_cli(capsys, "anomaly", "--method", "oracle",
                                 "--potential", potential, "--lambda-min", "0.5")
        assert (code, out) == (2, "")
        assert err == "error: cutoff Coulomb tail is not representable in a finite box oracle\n"

    @pytest.mark.parametrize("command", ["trace", "anomaly"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(capsys, command, "--potential", "coulomb:Z=1",
                                 "--out", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write --out {path}: No such file or directory\n"
        assert not path.parent.exists()

    @pytest.mark.parametrize("alpha, window, lam, r_box, x, bounds", [
        ("50", ("0.001", "0.01"), "0.001", "20", "0.894427", "[20, 2000]"),
        ("50", ("1e4", "1e5"), "100000", "40", "17888.5", "[20, 2000]"),
        # beta = 0.5: x = 5 clears 2 beta but not the floor of 8
        ("0.125", ("0.03125", "1"), "0.03125", "20", "5", "[8, 2000]"),
    ], ids=["small-box", "large-box", "small-beta"])
    def test_case_a_box_scale_outside_range_exits_2(self, capsys, alpha, window, lam, r_box,
                                                    x, bounds):
        # x = sqrt(2 m Lambda) R / hbar must lie in [max(2 beta, 8), 2000]
        code, out, err = run_cli(capsys, "anomaly", "--method", "oracle",
                                 "--potential", f"inverse-square:alpha={alpha}",
                                 "--lambda-min", window[0], "--lambda-max", window[1],
                                 "--points", "4")
        assert code == 2
        assert out == ""
        assert f"x = sqrt(2 m Lambda) R / hbar = {x} at Lambda = {lam}" in err
        assert f"box radius R = {r_box}," in err
        assert f"[max(2 beta, 8), 2000] = {bounds}" in err


class TestEmitReport:
    def test_divergent_has_no_value_line(self):
        samples = sample_w(coulomb(1.0), ATOMIC, geometric_grid(10.0, 1000.0, 8),
                           Order.FIRST)
        text = emit_report(extract_anomalies(samples), "keyvalue")
        assert "a_e_reduced=n/a (divergent)" in text
        assert "growth_exponent=0.50" in text

    @staticmethod
    def _vanishing():
        samples = sample_w(cutoff_coulomb(1.0, 1.0), ATOMIC, geometric_grid(10.0, 1000.0, 8),
                           Order.FIRST)
        return extract_anomalies(samples)

    def test_zero_result_format(self):
        text = emit_report(self._vanishing(), "keyvalue")
        assert "case=C" in text
        assert "a_n_reduced=0 (below tolerance)" in text
        assert "gamma=n/a" in text

    def test_lf_endings(self):
        text = emit_report(self._vanishing(), "keyvalue")
        assert "\r" not in text
        assert text.endswith("\n")


class TestReproduceCommand:
    def test_w2_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--target", "w2-closed-form")
        assert code == 0
        assert out.count("PASS") == 2

    def test_case_b_energy(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--target", "case-b-energy",
                               "--Z", "1")
        assert code == 0
        assert "PASS" in out

    def test_w1_scaling(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--target", "w1-scaling")
        assert code == 0

    def test_eq7(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--target", "eq7")
        assert code == 0
        check, published = out.splitlines()
        assert check.startswith("number anomaly") and check.endswith("PASS")
        assert "expected -0.832603" in check
        assert published.startswith("published closed form")
        assert "(not a check)" in published and "PASS" not in published

    def test_unknown_target_exits_2(self, capsys):
        assert main(["reproduce", "--target", "nonsense"]) == 2
