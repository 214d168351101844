"""The benchmark's span tracer must find every function it wraps.

``bench/tracing.py`` wraps package functions by module and attribute name
(``layer_entry_points``); a rename in the package would make a
``--trace 1`` run fail on ``getattr``.  This keeps those names resolvable.
"""

import importlib.util
import pathlib
import sys

import pytest

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_entry_point_resolves(tracing):
    entries = tracing.layer_entry_points()
    assert entries
    for module, attr, _, _ in entries:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
