"""Evaluation context: series truncation policy and points of the upper half-plane."""

from __future__ import annotations

from cmath import exp, isfinite, pi
from dataclasses import dataclass

_IPI = 1j * pi


# Truncation policy of every q-series sum.  A term group (symmetric index
# pair) is negligible when its magnitude falls below ABS_FLOOR times the
# running maximum of the partial-sum magnitude; summation stops after
# NEGLIGIBLE_RUN successive negligible groups, and raises if MAX_TERMS
# indices are consumed first.  The q-decay of all series here is Gaussian,
# so this policy is both cheap and robust.
ABS_FLOOR = 1e-17
NEGLIGIBLE_RUN = 3
MAX_TERMS = 4096


@dataclass(frozen=True)
class TauPoint:
    """A validated point of the upper half-plane."""

    value: complex

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
