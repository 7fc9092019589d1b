"""Primitive transcendental layer: theta series, Dedekind's function,
Weierstrass functions, elliptic constants, and complete elliptic integrals.

Conventions (Hermite characteristics, nome q = e^{i pi tau}):

    theta[a,b](z|tau) = sum_k exp(i*pi*(k+a/2)^2*tau + 2*i*pi*(k+a/2)*(z+b/2)),

    theta1 = -theta[1,1],  theta2 = theta[1,0],
    theta3 =  theta[0,0],  theta4 = theta[0,1],

with theta-constants vartheta_k(tau) = theta_k(0|tau).  The fifth generator
is the z-derivative series

    dtheta(z|tau) = pi e^{i pi tau/4} sum_k (-1)^k (2k+1)
                      e^{(k^2+k) i pi tau} e^{(2k+1) i pi z},

which termwise equals d/dz theta1.  Weierstrass functions are taken with
half-periods (1, tau); eta = zeta(1|tau) is computed from the logarithmic
tau-derivative of Dedekind's function, which avoids the removable 0/0 at
the half-period.
"""

from __future__ import annotations

import cmath
from cmath import pi, sqrt
from dataclasses import dataclass

from ._series import dedekind_sums, theta_sums
from .control import ABS_FLOOR, MAX_TERMS, NEGLIGIBLE_RUN, TauPoint, as_tau
from .errors import PoleProximityError, ThetaKitError

_IPI = 1j * pi

# Jacobi index -> (alpha, beta, sign) with theta_k = sign * theta[alpha,beta]
JACOBI_CHARS = {1: (1, 1, -1.0), 2: (1, 0, 1.0), 3: (0, 0, 1.0), 4: (0, 1, 1.0)}


def reduce_characteristics(alpha: int, beta: int) -> tuple[int, int, int]:
    """Reduce integer characteristics mod 2 and record the sign.

    theta[a+2m, b+2n] = (-1)^{n a} theta[a, b] with a, b in {0, 1}.
    """
    a0 = alpha & 1
    b0 = beta & 1
    n = (beta - b0) // 2
    sign = -1 if (n * a0) & 1 else 1
    return a0, b0, sign


@dataclass(frozen=True)
class ThetaSpec:
    """Characteristics plus the affine argument parameters of a moving
    theta-constant theta[alpha,beta](A*tau + B | tau)."""

    alpha: int
    beta: int
    A: complex = 0j
    B: complex = 0j

    def reduced(self) -> tuple[int, int, int]:
        return reduce_characteristics(self.alpha, self.beta)


def _sums(spec_or_chars, tau: TauPoint, *, a_lin=0j, b_lin=0j, m_scale=1.0,
          c_shift=0.0, nz=0, order=0):
    if isinstance(spec_or_chars, ThetaSpec):
        a0, b0, sign = spec_or_chars.reduced()
    else:
        a0, b0, sign = reduce_characteristics(*spec_or_chars)
    sums = theta_sums(a0, b0, a_lin, b_lin, m_scale, c_shift, tau.value,
                      nz, order, ABS_FLOOR, NEGLIGIBLE_RUN, MAX_TERMS)
    if sign != 1:
        sums = [sign * s for s in sums]
    return sums


def theta(spec: ThetaSpec, z: complex, tau) -> complex:
    """theta[alpha,beta](z|tau); the ThetaSpec A, B play no role when z is supplied."""
    t = as_tau(tau)
    return _sums(spec, t, b_lin=complex(z))[0]


def theta_dz(spec: ThetaSpec, z: complex, tau, n: int) -> complex:
    """n-th z-derivative of theta[alpha,beta] by termwise differentiation."""
    if not 0 <= n <= 6:
        raise ValueError("z-derivative order limited to 0..6")
    t = as_tau(tau)
    return _sums(spec, t, b_lin=complex(z), nz=n)[0]


def jacobi_theta(k: int, z: complex, tau) -> complex:
    """theta_k(z|tau) for k in 1..4."""
    a, b, sign = JACOBI_CHARS[k]
    t = as_tau(tau)
    return sign * _sums((a, b), t, b_lin=complex(z))[0]


def vartheta(k: int, tau) -> complex:
    """Theta-constant vartheta_k(tau) = theta_k(0|tau)."""
    return jacobi_theta(k, 0j, tau)


def theta1_prime(z: complex, tau) -> complex:
    """dtheta(z|tau): the fifth generator series, termwise equal to d/dz theta1."""
    t = as_tau(tau)
    return -_sums((1, 1), t, b_lin=complex(z), nz=1)[0]


def dedekind_eta(tau) -> complex:
    """Dedekind's function, summed as the pentagonal series.

    The infinite product is evaluated alongside as a self-check; the two
    forms must agree to 1e-12 relative.
    """
    t = as_tau(tau)
    s = dedekind_sums(t.value, 0, ABS_FLOOR, NEGLIGIBLE_RUN, MAX_TERMS)[0]
    p = dedekind_product(tau)
    if abs(s - p) > 1e-12 * max(abs(s), abs(p)):
        raise ThetaKitError(
            f"Dedekind sum/product forms disagree at tau={t.value}: {s} vs {p}")
    return s


def dedekind_product(tau) -> complex:
    """Dedekind's function as e^{i pi tau/12} prod (1 - e^{2 pi i k tau})."""
    t = as_tau(tau)
    qbar = cmath.exp(2j * pi * t.value)
    acc = cmath.exp(_IPI * t.value / 12.0)
    power = 1.0 + 0j
    for k in range(1, MAX_TERMS):
        power *= qbar
        acc *= 1.0 - power
        if abs(power) < 1e-18:
            return acc
    raise ThetaKitError("Dedekind product did not settle")


def eta1(tau) -> complex:
    """Weierstrass eta(tau) = zeta(1|tau), via the logarithmic derivative
    of Dedekind's function: eta = (pi/i) * ded'/ded."""
    t = as_tau(tau)
    s = dedekind_sums(t.value, 1, ABS_FLOOR, NEGLIGIBLE_RUN, MAX_TERMS)
    return -_IPI * s[1] / s[0]


def _lattice_distance(w: complex, tau: complex) -> float:
    """Distance from w to the period lattice 2Z + 2 tau Z."""
    b = w.imag / (2.0 * tau.imag)
    a = (w.real - 2.0 * b * tau.real) / 2.0
    best = float("inf")
    import math

    for m in (math.floor(a), math.ceil(a)):
        for n in (math.floor(b), math.ceil(b)):
            d = abs(w - (2.0 * m + 2.0 * n * tau))
            if d < best:
                best = d
    return best


def weierstrass(kind: str, w: complex, tau, *, pole_threshold: float = 1e-6) -> complex:
    """Weierstrass P, Zeta, or Pprime with half-periods (1, tau).

    Uses the theta translations with z = w/2:

        P(2z)  = (pi^2/12) {v3^4 + v4^4 + 3 v3^2 v4^2 theta2(z)^2/theta1(z)^2},
        Zeta(2z) = 2 eta z + (1/2) dtheta(z)/theta1(z),
        Pprime(2z) = -pi^3 ded^9 theta1(2z)/theta1(z)^4.
    """
    t = as_tau(tau)
    w = complex(w)
    if _lattice_distance(w, t.value) < pole_threshold:
        raise PoleProximityError(f"{w} is within {pole_threshold} of the period lattice")
    z = w / 2.0
    if kind == "P":
        v3 = vartheta(3, t)
        v4 = vartheta(4, t)
        r = jacobi_theta(2, z, t) / jacobi_theta(1, z, t)
        return (pi * pi / 12.0) * (v3 ** 4 + v4 ** 4 + 3.0 * v3 * v3 * v4 * v4 * r * r)
    if kind == "Zeta":
        return 2.0 * eta1(t) * z + 0.5 * theta1_prime(z, t) / jacobi_theta(1, z, t)
    if kind == "Pprime":
        ded = dedekind_eta(t)
        return -pi ** 3 * ded ** 9 * jacobi_theta(1, 2.0 * z, t) / jacobi_theta(1, z, t) ** 4
    raise ValueError(f"unknown Weierstrass kind {kind!r}")


@dataclass(frozen=True)
class EllipticConstants:
    """Half-period values, invariants, eta, and Klein's J at a fixed tau."""

    e1: complex
    e2: complex
    e3: complex
    g2: complex
    g3: complex
    eta1: complex
    J: complex


def elliptic_constants(tau) -> EllipticConstants:
    """Half-period values of P and derived invariants.

    e1 = P(1|tau), e2 = P(1+tau|tau), e3 = P(tau|tau), expressed through
    x = v4^4/v3^4:

        P(1)     = (pi^2/12) v3^4 (x+1),
        P(tau)   = (pi^2/12) v3^4 (x-2),
        P(tau+1) = (pi^2/12) v3^4 (1-2x).
    """
    t = as_tau(tau)
    v3 = vartheta(3, t)
    v4 = vartheta(4, t)
    x = (v4 / v3) ** 4
    scale = (pi * pi / 12.0) * v3 ** 4
    e1 = scale * (x + 1.0)
    e3 = scale * (x - 2.0)
    e2 = scale * (1.0 - 2.0 * x)
    g2 = -4.0 * (e1 * e2 + e2 * e3 + e3 * e1)
    g3 = 4.0 * e1 * e2 * e3
    j = (4.0 / 27.0) * (x * x - x + 1.0) ** 3 / (x * x * (x - 1.0) ** 2)
    return EllipticConstants(e1=e1, e2=e2, e3=e3, g2=g2, g3=g3,
                             eta1=eta1(t), J=j)


def _agm(a: complex, b: complex, tol: float = 1e-16) -> complex:
    """Arithmetic-geometric mean with the standard optimal branch choice."""
    for _ in range(64):
        am = 0.5 * (a + b)
        gm = sqrt(a * b)
        if abs(am - gm) > abs(am + gm):
            gm = -gm
        a, b = am, gm
        if abs(a - b) <= tol * abs(a):
            return 0.5 * (a + b)
    return 0.5 * (a + b)


def _k_from_agm(m: complex) -> complex:
    return pi / (2.0 * _agm(1.0 + 0j, sqrt(1.0 - m)))


def _e_from_agm(m: complex) -> complex:
    """E via the AGM companion sequence: E = K (1 - sum 2^{n-1} c_n^2)."""
    a = 1.0 + 0j
    b = sqrt(1.0 - m)
    c2_sum = 0.5 * m  # n = 0 term: 2^{-1} c_0^2 with c_0^2 = m
    weight = 1.0
    for _ in range(64):
        am = 0.5 * (a + b)
        gm = sqrt(a * b)
        if abs(am - gm) > abs(am + gm):
            gm = -gm
        c = 0.5 * (a - b)
        c2_sum += weight * c * c
        a, b = am, gm
        weight *= 2.0
        if abs(a - b) <= 1e-16 * abs(a):
            break
    k_val = pi / (2.0 * a)
    return k_val * (1.0 - c2_sum)


def _k_series(m: complex, terms: int = 220) -> complex:
    """(pi/2) 2F1(1/2,1/2;1|m), usable for |m| < 1."""
    total = 1.0 + 0j
    coeff = 1.0 + 0j
    power = 1.0 + 0j
    for n in range(1, terms):
        coeff *= ((n - 0.5) / n) ** 2
        power *= m
        term = coeff * power
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return (pi / 2.0) * total


def elliptic_K(kind: str, m: complex, *, cut_margin: float = 1e-6) -> complex:
    """Complete elliptic integrals as functions of the parameter m = k^2.

    kind "K" is K(sqrt(m)) = (pi/2) 2F1(1/2,1/2;1|m); "Kprime" is K at the
    complementary parameter 1-m; "E"/"Eprime" likewise.  AGM is the primary
    path, with the hypergeometric series as a small-|m| fallback/cross-check.
    """
    m = complex(m)
    if kind in ("Kprime", "Eprime"):
        m = 1.0 - m
        kind = "K" if kind == "Kprime" else "E"
    if kind not in ("K", "E"):
        raise ValueError(f"unknown integral kind {kind!r}")
    if abs(m.imag) < cut_margin and m.real >= 1.0 - cut_margin:
        raise ThetaKitError(
            f"parameter {m} is within {cut_margin} of the branch cut [1, oo)")
    if kind == "K":
        if abs(m) < 0.25:
            # series and AGM agree here; prefer the cheap series
            return _k_series(m)
        return _k_from_agm(m)
    return _e_from_agm(m)


def elliptic_K_modular(kind: str, tau) -> complex:
    """Modular-form path for K, K', E, E' at modulus k = v2^2/v3^2.

    Exposed separately so the AGM implementation can be cross-checked:

        K  = (pi/2) v3^2,            K' = (pi/2i) tau v3^2,
        E  = (2/pi) (1/v3^2) { eta + (pi^2/12)(v3^4 + v4^4) },
        E' = (2/pi) (i/v3^2) { tau eta - (pi^2/12)(v2^4 + v3^4) tau - i pi/2 }.
    """
    t = as_tau(tau)
    v2 = vartheta(2, t)
    v3 = vartheta(3, t)
    v4 = vartheta(4, t)
    tv = t.value
    if kind == "K":
        return (pi / 2.0) * v3 * v3
    if kind == "Kprime":
        return (pi / 2j) * tv * v3 * v3
    e = eta1(t)
    if kind == "E":
        return (2.0 / pi) * (e + (pi * pi / 12.0) * (v3 ** 4 + v4 ** 4)) / (v3 * v3)
    if kind == "Eprime":
        return (2.0 / pi) * 1j * (tv * e - (pi * pi / 12.0) * (v2 ** 4 + v3 ** 4) * tv
                                  - 0.5j * pi) / (v3 * v3)
    raise ValueError(f"unknown integral kind {kind!r}")


__all__ = [
    "ThetaSpec", "TauPoint", "as_tau",
    "reduce_characteristics", "theta", "theta_dz", "jacobi_theta",
    "vartheta", "theta1_prime", "dedekind_eta", "dedekind_product",
    "eta1", "weierstrass", "EllipticConstants", "elliptic_constants",
    "elliptic_K", "elliptic_K_modular", "JACOBI_CHARS",
]
