"""Independent oracles used to freeze expected values, and the small
constructors several test modules share.

The oracles are deliberately primitive and separate from the package
implementation: direct fixed-range summation for the theta series, a
minimal AGM for the complete integrals, and step-halved Richardson
finite differences for derivatives.
"""

import cmath
import math

from thetakit.jets import Jet
from thetakit.rational import Poly, RationalFunc

PI = math.pi


def theta_direct(alpha, beta, z, tau, terms=30):
    """Direct bilateral summation with a fixed symmetric range."""
    total = 0j
    for k in range(-terms, terms + 1):
        kh = k + alpha / 2.0
        total += cmath.exp(1j * PI * kh * kh * tau
                           + 2j * PI * kh * (z + beta / 2.0))
    return total


def jacobi_theta_direct(k, z, tau, terms=30):
    alpha, beta, sign = {1: (1, 1, -1), 2: (1, 0, 1),
                         3: (0, 0, 1), 4: (0, 1, 1)}[k]
    return sign * theta_direct(alpha, beta, z, tau, terms)


def agm(a, b, tol=1e-16):
    for _ in range(64):
        a, b = 0.5 * (a + b), cmath.sqrt(a * b)
        if abs(a - b) > abs(a + b):
            b = -b
        if abs(a - b) <= tol * abs(a):
            break
    return 0.5 * (a + b)


def k_agm(m):
    """Complete integral K at parameter m via the AGM alone."""
    return PI / (2.0 * agm(1.0 + 0j, cmath.sqrt(1.0 - m)))


def vartheta3_agm_at_i():
    """vartheta_3(i) from the AGM: at the square point K = K', m = 1/2,
    and vartheta_3^2 = 2K/pi."""
    return cmath.sqrt(2.0 * k_agm(0.5) / PI)


def richardson_diff(f, x, h=1e-4, order=1):
    """Step-halved central differences with one extrapolation level."""
    if order == 1:
        def d(hh):
            return (f(x + hh) - f(x - hh)) / (2.0 * hh)
    elif order == 2:
        def d(hh):
            return (f(x + hh) - 2.0 * f(x) + f(x - hh)) / (hh * hh)
    else:
        raise ValueError("order 1 or 2 only")
    d1, d2 = d(h), d(h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def variable_jet(base: complex, order: int) -> Jet:
    """The identity function tau as a jet at ``base``."""
    return Jet(base, [complex(base), 1.0] + [0j] * (order - 1))


def mobius(a, b, c, d) -> RationalFunc:
    """(a x + b)/(c x + d) as an exact RationalFunc."""
    return RationalFunc(Poly([b, a]), Poly([d, c]))
