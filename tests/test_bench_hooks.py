"""The benchmark's modules must keep working against the package.

``bench/tracing.py`` wraps package functions by module and attribute name
(``layer_entry_points``); a rename in the package would make a
``--trace 1`` run fail on ``getattr``.  ``bench/workloads.py`` imports
package names and drives the CLI and the oracle; one seeded pass of each
workload, checked against its own references, shows that a deletion in the
package has not broken a job before a full benchmark run does.
"""

import importlib.util
import pathlib
import sys

import pytest

_BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def tracing():
    yield from _load("tracing")


@pytest.fixture(scope="module")
def workloads():
    yield from _load("workloads")


def test_every_entry_point_resolves(tracing):
    entries = tracing.layer_entry_points()
    assert entries
    for module, attr, _, _ in entries:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


@pytest.mark.parametrize("workload", ["oracle-screened", "perturbative", "oracle-inverse-square"])
def test_one_pass_of_each_workload_checks_ok(workloads, workload):
    assert workload in workloads.WORKLOADS
    for job in workloads.make_jobs(workload, 1):
        verdict = workloads.check_job(job, workloads.run_job(job), workloads.references(job))
        assert verdict.ok, (job, verdict.detail)
