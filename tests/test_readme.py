"""The README's python example runs against the package and prints what it says."""

import contextlib
import io
import pathlib
import re

import pytest

_README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```", _README.read_text(encoding="utf-8"),
                      flags=re.MULTILINE | re.DOTALL)


def test_example_prints_the_case_b_energy_anomaly():
    (example,) = _python_blocks()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(_README), "exec"), {})
    assert float(out.getvalue()) == pytest.approx(0.25, rel=1e-12)
