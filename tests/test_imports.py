"""scipy stays out of processes that do not run the spectral oracle."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anomaly_forge

# Runs in a fresh interpreter: after the import and after each CLI command,
# print the scipy modules loaded so far, one JSON list per line.
_SCRIPT = """
import contextlib, io, json, sys
import anomaly_forge, anomaly_forge.cli

def report(code):
    print(json.dumps([code, sorted(k for k in sys.modules
                                   if k == "scipy" or k.startswith("scipy."))]))

report(0)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = anomaly_forge.cli.main(argv)
    report(code)
"""

_COMMANDS = {
    "anomaly": ["anomaly", "--potential", "coulomb:Z=1"],
    "trace": ["trace", "--potential", "coulomb:Z=1"],
    "reproduce": ["reproduce", "--target", "w2-closed-form"],
    "cutoff": ["anomaly", "--potential", "cutoff-coulomb:Z=1,rcut=1"],
    # last: loads scipy.special for the rest of the process
    "oracle": ["anomaly", "--method", "oracle", "--potential", "inverse-square:alpha=50",
               "--lambda-min", "5", "--lambda-max", "50", "--points", "4"],
}


@pytest.fixture(scope="module")
def loaded():
    """Step name -> (exit code, scipy modules loaded after it)."""
    src = str(Path(anomaly_forge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, json.dumps(list(_COMMANDS.values()))],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    steps = [json.loads(line) for line in proc.stdout.splitlines()]
    return dict(zip(["import", *_COMMANDS], steps))


@pytest.mark.parametrize("step", ["import", "anomaly", "trace", "reproduce", "cutoff"])
def test_no_scipy_without_the_oracle(loaded, step):
    code, modules = loaded[step]
    assert code == 0
    assert modules == []


def test_oracle_loads_only_scipy_special(loaded):
    code, modules = loaded["oracle"]
    assert code == 0
    assert "scipy.special" in modules
    assert not any(m.startswith(("scipy.optimize", "scipy.linalg")) for m in modules)
