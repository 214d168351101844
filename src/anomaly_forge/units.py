"""Unit system for the nonrelativistic single-particle problem.

Everything in the package is expressed through hbar, the particle mass m
and the squared charge e2; the Bohr-like length a0 = hbar^2/(m e2) is
always derived, never stored.  The default is atomic units
(hbar = m = e2 = 1, hence a0 = 1).
"""

from __future__ import annotations

import math

from ._records import Record


class UnitSystem(Record):
    def __init__(self, hbar: float = 1.0, m: float = 1.0, e2: float = 1.0) -> None:
        """Raises ValueError unless hbar, m and e2 are finite and strictly positive."""
        self._set(hbar=hbar, m=m, e2=e2)
        for name in ("hbar", "m", "e2"):
            v = getattr(self, name)
            if not (v > 0.0):
                raise ValueError(f"{name} must be strictly positive, got {v}")
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")

    @property
    def a0(self) -> float:
        """Bohr radius hbar^2 / (m e2), recomputed on every access."""
        return self.hbar**2 / (self.m * self.e2)


ATOMIC = UnitSystem()
