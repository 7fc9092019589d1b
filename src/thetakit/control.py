"""Evaluation context: series truncation policy and points of the upper half-plane."""

from __future__ import annotations

from cmath import exp, isfinite, pi
from dataclasses import dataclass

_IPI = 1j * pi


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for symmetric q-series summation.

    A term group (symmetric index pair) is negligible when its magnitude
    falls below ``abs_floor`` times the running maximum of the partial-sum
    magnitude; summation stops after ``consecutive_negligible`` successive
    negligible groups, and raises if ``max_terms`` indices are consumed
    first.  The q-decay of all series here is Gaussian, so this policy is
    both cheap and robust.
    """

    abs_floor: float = 1e-17
    consecutive_negligible: int = 3
    max_terms: int = 4096

    def __post_init__(self):
        if self.max_terms < 16:
            raise ValueError("max_terms must be at least 16")
        if self.consecutive_negligible < 2:
            raise ValueError("consecutive_negligible must be at least 2")
        if not self.abs_floor > 0:
            raise ValueError("abs_floor must be positive")


DEFAULT_CONTROL = SeriesControl()


@dataclass(frozen=True)
class TauPoint:
    """A point of the upper half-plane carrying its evaluation policy."""

    value: complex
    series_control: SeriesControl = DEFAULT_CONTROL

    def __post_init__(self):
        v = complex(self.value)
        if not v.imag > 0:
            raise ValueError(f"tau must satisfy Im(tau) > 0, got {v}")
        # |e^{pi i tau}| < 1 is equivalent, but assert it explicitly: both
        # invariants must hold for every summation below.
        if not abs(exp(_IPI * v)) < 1:
            raise ValueError(f"nome magnitude is not < 1 at tau={v}")
        # Im tau = +inf passes both tests above (the nome underflows to 0)
        if not isfinite(v):
            raise ValueError(f"tau must be finite, got {v}")


def as_tau(tau) -> TauPoint:
    """Coerce a complex number (or TauPoint) to a TauPoint."""
    if isinstance(tau, TauPoint):
        return tau
    return TauPoint(complex(tau))
