import csv
import io
import shlex

import pytest

import cli_replay
from anomaly_forge import cli
from anomaly_forge.anomaly import extract_anomalies
from anomaly_forge.cli import emit_report, main
from anomaly_forge.perturbation import Order, geometric_grid, sample_w
from anomaly_forge.potentials import coulomb, cutoff_coulomb
from anomaly_forge.units import ATOMIC

_RECORDED = cli_replay.load()
_BY_COMMAND = {r["command"]: r for r in _RECORDED}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_bad_window_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "trace", "--potential", "coulomb:Z=1",
                             "--lambda-min", "50", "--lambda-max", "10")
        assert code == 2

    @pytest.mark.parametrize("command", ["trace", "anomaly"])
    def test_window_too_narrow_for_points_names_its_flags(self, capsys, command):
        # two ulps hold no 5 distinct geometric points
        code, out, err = run_cli(capsys, command, "--potential", "coulomb:Z=1",
                                 "--lambda-min", "1", "--lambda-max", "1.0000000000000004",
                                 "--points", "5")
        assert (code, out) == (2, "")
        assert err == ("error: --lambda-min 1 and --lambda-max 1.0000000000000004 are too "
                       "close for --points 5 distinct Lambda values; widen the window or "
                       "lower --points\n")

    def test_screened_oracle_step_too_coarse_exits_2(self, capsys):
        # the default box's fine step h = 40/4800 gives k h = 1.18 at Lambda = 1e4
        code, out, err = run_cli(capsys, "trace", "--method", "oracle",
                                 "--potential", "yukawa:Z=0.05,kappa=1", "--lambda-max", "10000")
        assert (code, out) == (2, "")
        assert err == ("error: the grid step is checked at k h <= 0.5; here k h = 1.17851 "
                       "(h = 0.00833333) at Lambda = 10000; lower Lambda or raise grid_points\n")


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

    def test_sign_change_exits_3_and_says_where(self, capsys):
        # on the default window w changes sign near the binding scale, so no
        # power law fits; the message names the pair of Lambda around it
        code, out, err = run_cli(capsys, "anomaly", "--method", "oracle",
                                 "--potential", "yukawa:Z=3,kappa=0.5")
        assert (code, out) == (3, "")
        assert err == ("error: samples change sign between Lambda = 15.199 (w = +5.43e-04) "
                       "and 18.738 (w = -2.84e-04); log-log fit would be meaningless\n")

    @pytest.mark.parametrize("command", ["trace", "anomaly"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(capsys, command, "--potential", "coulomb:Z=1",
                                 "--out", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write --out {path}: No such file or directory\n"
        assert not path.parent.exists()

    @pytest.mark.parametrize("points", range(4, 17))
    def test_case_a_readme_window_runs_at_every_point_count(self, capsys, points):
        # the README's window at alpha = 50, Lambda 0.5 to 1250, puts x at 20 and
        # 2000, the ends of the admitted range; a last point one ulp past 1250
        # once left it at 5, 6, 11 and 16 points
        code, out, err = run_cli(capsys, "trace", "--method", "oracle",
                                 "--potential", "inverse-square:alpha=50",
                                 "--lambda-min", "0.5", "--lambda-max", "1250",
                                 "--points", str(points))
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == points + 1
        assert (rows[1][0], rows[-1][0]) == ("0.5", "1250")

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

    @pytest.mark.parametrize("z", ["nan", "inf", "-1"])
    def test_eq7_checks_z_as_the_other_targets_do(self, capsys, z):
        # eq7 does not read --Z, but refuses what the Coulomb targets refuse,
        # with their message, before any work
        eq7 = run_cli(capsys, "reproduce", "--target", "eq7", "--Z", z)
        assert eq7[0] == 2 and eq7[1] == ""
        assert eq7 == run_cli(capsys, "reproduce", "--target", "w2-closed-form", "--Z", z)

    def test_unknown_target_exits_2(self, capsys):
        assert main(["reproduce", "--target", "nonsense"]) == 2


class TestSharedParser:
    """``main`` builds its parser once per process; nothing of one call reaches the next.
    The commands and their bytes are records of ``cli_bytes.json``."""

    def test_overrides_do_not_reach_the_next_call(self, capsys, tmp_path):
        record = _BY_COMMAND["anomaly --potential yukawa:Z=1,kappa=0.5"]
        path = tmp_path / "report.csv"
        first = run_cli(capsys, *shlex.split(record["command"]),
                        "--hbar", "0.5", "--format", "csv", "--out", str(path))
        assert first == (0, "", "")
        assert path.read_text().startswith("case,a_n_reduced,")
        assert cli_replay.run(record["command"]) == record

    @pytest.mark.parametrize("before, before_code", [
        (("anomaly", "--potential", "coulomb:Z=1", "--format", "xml"), 2),
        (("anomaly", "--points", "8"), 2),
        (("--help",), 0),
        (("anomaly", "--help"), 0),
    ], ids=["bad-choice", "missing-potential", "help", "subcommand-help"])
    def test_exit_paths_leave_the_next_call_unchanged(self, capsys, before, before_code):
        first = run_cli(capsys, *before)
        code, out, err = first
        assert code == before_code
        assert (out if before_code == 0 else err).startswith("usage: anomaly-forge")
        for command in ("anomaly --potential yukawa:Z=1,kappa=0.5",
                        "classify --potential coulomb:Z=1",
                        "anomaly --potential coulomb:Z=1 --lambda-min 50 --lambda-max 10"):
            assert cli_replay.run(command) == _BY_COMMAND[command]
        # the same bytes again: the failed or help call changed nothing in the parser
        assert run_cli(capsys, *before) == first

    def test_many_calls_build_one_parser(self):
        # every record that runs no oracle, one after another in one process
        records = [r for r in _RECORDED
                   if "--method oracle" not in r["command"] and "eq7" not in r["command"]]
        cli._build_parser.cache_clear()
        for record in records:
            assert cli_replay.run(record["command"]) == record
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(records) - 1)
