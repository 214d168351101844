"""numpy stays out of processes that do not run the spectral oracle, and scipy out
of every command; ``dataclasses`` stays out of every process, and ``inspect`` out
of those that do not run the oracle (numpy imports it)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anomaly_forge

# Runs in a fresh interpreter: after the import and after each CLI command,
# print the numpy, scipy, dataclasses and inspect modules loaded so far and the
# number of argument parsers built so far, one JSON list per line.
_SCRIPT = """
import contextlib, io, json, sys
import anomaly_forge, anomaly_forge.cli

def report(code):
    print(json.dumps([code, sorted(k for k in sys.modules
                                   if k.split(".")[0] in ("numpy", "scipy", "dataclasses",
                                                          "inspect")),
                      anomaly_forge.cli._build_parser.cache_info().misses]))

report(0)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = anomaly_forge.cli.main(argv)
    report(code)
"""

_COMMANDS = {
    "classify": ["classify", "--potential", "coulomb:Z=1"],
    # --method perturbative-2 is the default
    "anomaly": ["anomaly", "--potential", "coulomb:Z=1"],
    "yukawa": ["anomaly", "--potential", "yukawa:Z=1,kappa=0.5"],
    "cutoff": ["anomaly", "--potential", "cutoff-coulomb:Z=1,rcut=1"],
    **{f"first-order-{name}": ["anomaly", "--method", "perturbative-1", "--potential", spec]
       for name, spec in (("coulomb", "coulomb:Z=1"), ("yukawa", "yukawa:Z=1,kappa=0.5"),
                          ("cutoff", "cutoff-coulomb:Z=1,rcut=1"))},
    "trace": ["trace", "--potential", "coulomb:Z=1"],
    "reproduce": ["reproduce", "--target", "w2-closed-form"],
    "reproduce-case-b-energy": ["reproduce", "--target", "case-b-energy"],
    "reproduce-w1-scaling": ["reproduce", "--target", "w1-scaling"],
    # the last two load numpy for the rest of the process
    "oracle": ["anomaly", "--method", "oracle", "--potential", "inverse-square:alpha=50",
               "--lambda-min", "5", "--lambda-max", "50", "--points", "4"],
    "screened-oracle": ["trace", "--method", "oracle", "--potential", "yukawa:Z=0.05,kappa=1",
                        "--points", "4"],
}
_WITHOUT_ORACLE = ["import", *(step for step in _COMMANDS if "oracle" not in step)]


@pytest.fixture(scope="module")
def loaded():
    """Step name -> (exit code, numpy, scipy, dataclasses and inspect modules loaded after
    it, parsers built)."""
    src = str(Path(anomaly_forge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, json.dumps(list(_COMMANDS.values()))],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    steps = [json.loads(line) for line in proc.stdout.splitlines()]
    return dict(zip(["import", *_COMMANDS], steps))


def _named(modules, top):
    return [m for m in modules if m.split(".")[0] == top]


@pytest.mark.parametrize("step", _WITHOUT_ORACLE)
def test_no_scipy_without_the_oracle(loaded, step):
    code, modules, _ = loaded[step]
    assert code == 0
    assert _named(modules, "scipy") == []


@pytest.mark.parametrize("step", _WITHOUT_ORACLE)
def test_no_numpy_without_the_oracle(loaded, step):
    code, modules, _ = loaded[step]
    assert code == 0
    assert _named(modules, "numpy") == []


@pytest.mark.parametrize("step", ["import", *_COMMANDS])
def test_no_dataclasses(loaded, step):
    # the package's records are plain classes (anomaly_forge._records)
    code, modules, _ = loaded[step]
    assert code == 0
    assert _named(modules, "dataclasses") == []


@pytest.mark.parametrize("step", _WITHOUT_ORACLE)
def test_no_inspect_without_the_oracle(loaded, step):
    # numpy imports inspect itself, so the oracle steps are exempt
    code, modules, _ = loaded[step]
    assert code == 0
    assert _named(modules, "inspect") == []


def test_case_a_oracle_loads_no_scipy(loaded):
    code, modules, _ = loaded["oracle"]
    assert code == 0
    assert _named(modules, "scipy") == []


def test_screened_oracle_loads_no_scipy(loaded):
    # its turning points come from a Lambert W of its own
    code, modules, _ = loaded["screened-oracle"]
    assert code == 0
    assert _named(modules, "scipy") == []


def test_oracle_loads_numpy(loaded):
    code, modules, _ = loaded["oracle"]
    assert code == 0
    assert "numpy" in modules


def test_parser_built_on_the_first_command_only(loaded):
    # importing the CLI builds no parser; every command after the first reuses it
    assert [loaded[step][2] for step in ["import", *_COMMANDS]] == [0] + [1] * len(_COMMANDS)


class TestPackageNames:
    """The oracle's names resolve on first access (PEP 562)."""

    def test_every_public_name_resolves(self):
        for name in anomaly_forge.__all__:
            assert getattr(anomaly_forge, name) is not None, name

    def test_oracle_names_come_from_spectral_oracle(self):
        from anomaly_forge import spectral_oracle
        assert anomaly_forge.oracle_trace is spectral_oracle.oracle_trace
        assert anomaly_forge.OracleConfig is spectral_oracle.OracleConfig
        assert anomaly_forge.bessel_channel_sums is spectral_oracle.bessel_channel_sums

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            anomaly_forge.no_such_name
