"""Outside-in span tracing of the package's layer entry points.

``layer_entry_points`` lists the functions to wrap, each as the module that
calls it imported it (``spectral_oracle.eigvalsh_tridiagonal`` is scipy's
solver as the oracle sees it).  ``Tracer.installed`` swaps in wrappers that
record one span per call -- name, start, end, parent and counts taken from
the return value -- and restores the originals on exit.  Spans stay in
memory; ``layer_metrics`` turns one pass's spans into the per-layer numbers.

Not wrapped: ``potentials``.  Every integrand node is one scalar
``evaluate`` or ``fourier_transform_at`` call (about 1.2 M per screened pass),
so ``quadrature.*.evals`` counts that layer's work without the cost of a span
per call.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field

import numpy as np

from anomaly_forge import cli, perturbation, spectral_oracle


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans of a single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = Span(len(self.spans), name, time.perf_counter(), float("nan"), parent)
        self.spans.append(rec)
        self._open.append(rec.id)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name, counts=None):
        """``fn`` with a span per call.  ``name`` is a string or a function of
        the call's arguments; ``counts`` maps (args, result) to a dict."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            with self.span(label) as rec:
                result = fn(*args, **kwargs)
                if counts is not None:
                    rec.counts.update(counts(args, result))
                return result

        return traced

    @contextlib.contextmanager
    def installed(self, entry_points):
        """Wrap every (module, attribute, name, counts) entry point for the
        duration of the block."""
        saved = []
        try:
            for module, attr, name, counts in entry_points:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, counts))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _quadrature_counts(args, result):
    return {"evals": result.evals, "unconverged": int(not result.converged)}


def _w_order(args):
    # integrate_adaptive(f, domain): a 2D domain is the w2 kernel, 1D is w1.
    return "quadrature.w1" if np.isscalar(args[1][0]) else "quadrature.w2"


def _oracle_family(args):
    # spec is the first argument; case A (inverse-square) has its own path.
    return ("spectral_oracle.case_a" if args[0].family.value == "inverse-square"
            else "spectral_oracle.grid")


def layer_entry_points():
    """The wrapped functions, each as its calling module imported it."""
    return (
        (spectral_oracle, "eigvalsh_tridiagonal", "spectral_oracle.eigensolve",
         lambda args, r: {"rows": len(r)}),
        (spectral_oracle, "integrate_adaptive", "quadrature.classical", _quadrature_counts),
        (perturbation, "integrate_adaptive", _w_order, _quadrature_counts),
        (spectral_oracle, "ive", "spectral_oracle.bessel",
         lambda args, r: {"elements": int(np.size(r))}),
        (spectral_oracle, "oracle_trace", _oracle_family, None),
        (cli, "oracle_trace", _oracle_family, None),
        (cli, "sample_w", "perturbation.sample_w", lambda args, r: {"points": len(r)}),
        (cli, "fit_power_law", "quadrature.fit", None),
        (cli, "extract_anomalies", "anomaly.extract", None),
        (cli, "main", "cli.main", None),
    )


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, run_start, run_end = 0.0, None, None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[s.id] = (s.end - s.start) - covered
    return out


def span_totals(spans: list[Span]) -> dict[str, float]:
    """Per span name: calls, total seconds, self seconds and summed counts."""
    selfs = self_times(spans)
    tot: dict[str, float] = {}
    for s in spans:
        for key, value in (("calls", 1), ("s", s.end - s.start), ("self_s", selfs[s.id]),
                           *s.counts.items()):
            tot[f"{s.name}.{key}"] = tot.get(f"{s.name}.{key}", 0) + value
    return tot


# Reported per-layer metrics, each read from the span total of the same name
# unless _RENAMED says otherwise.
LAYER_METRICS = (
    "quadrature.classical.calls", "quadrature.classical.evals",
    "quadrature.classical.unconverged", "quadrature.classical.s",
    "quadrature.w2.calls", "quadrature.w2.evals", "quadrature.w2.s",
    "quadrature.w1.evals", "quadrature.w1.s",
    "quadrature.fit.s", "anomaly.extract.s",
    "spectral_oracle.eigensolve.calls", "spectral_oracle.eigensolve.rows",
    "spectral_oracle.eigensolve.s", "spectral_oracle.grid.self_s",
    "spectral_oracle.bessel.ive_calls", "spectral_oracle.bessel.ive_elements",
    "spectral_oracle.bessel.ive_s", "spectral_oracle.case_a.self_s",
    "perturbation.sample_w.points", "perturbation.sample_w.s",
    "cli.self_s",
)
_RENAMED = {
    "spectral_oracle.bessel.ive_calls": "spectral_oracle.bessel.calls",
    "spectral_oracle.bessel.ive_elements": "spectral_oracle.bessel.elements",
    "spectral_oracle.bessel.ive_s": "spectral_oracle.bessel.s",
    "cli.self_s": "cli.main.self_s",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The reported per-layer numbers of one traced pass (0 where a layer
    did not run)."""
    tot = span_totals(spans)
    out = {name: tot.get(_RENAMED.get(name, name), 0) for name in LAYER_METRICS}
    evals = out["quadrature.w2.evals"]
    out["quadrature.w2.us_per_eval"] = out["quadrature.w2.s"] / evals * 1e6 if evals else 0.0
    return out
