"""Weierstrass functions on general lattices, inversion of P by Newton
continuation, and the transcendental equations on punctured tori:

* the singly punctured torus  [u,tau] = -2 P(2u) - 8/3  tied to the Heun
  Hauptmodul through s = P(u) + 10/3 on the lattice with invariants
  (292/3, 4760/27);
* its lemniscatic companion  [p,tau] = -2 P(2p | i)  with P(p|i) equal to
  the Legendre modulus ratio;
* the hyperelliptic reduction P(u) = ((z +- i sqrt3)/(z -+ i sqrt3))^2 on
  the equianharmonic lattice with invariants (0, 4);
* the transcendental cover pairing the two punctured tori, with its
  28-digit period constant.

P is inverted from a closed-form start, Carlson's symmetric integral
R_F(t - e1, t - e2, t - e3), polished by Newton.  The tau-jet of an
inverse u = P^{-1}(t(tau)) on a fixed lattice is the jet of t composed
with the exact derivatives of P^{-1}, so the third-order equations read
[u,tau] off exact jets; nothing here uses finite differences.
"""

from __future__ import annotations

import math
from cmath import exp, pi, sqrt as csqrt
from dataclasses import dataclass
from fractions import Fraction

from .control import as_tau
from .errors import BranchJumpError, NewtonError
from .fuchs import heun_s_jet
from .jets import Jet, jacobi_theta_jet, meromorphic_derivative, vartheta_jet
from .thetafuncs import elliptic_constants, weierstrass

# Constants of the exceptional torus: period ratio (imaginary axis),
# half-period scale, invariants, and the Klein invariant value.
#
# EPSILON is the root of J(i t) = 73^3/(2^4 3^7) on the imaginary axis
# (computed at 40 digits and rounded to double).  The commonly tabulated
# approximation of the same ratio, kept for reference below, carries only
# about 11 correct digits; its tail disagrees with the defining equation.
# The tabulated OMEGA is exact to all 28 digits.
EPSILON = 1.5634019226961115069504881287j
EPSILON_TABULATED = 1.5634019226921973634612986241j
OMEGA = 0.5391289118749108088596687497
INVARIANT_A = Fraction(292, 3)
INVARIANT_B = Fraction(4760, 27)
J_EPSILON = Fraction(73 ** 3, 2 ** 4 * 3 ** 7)


@dataclass(frozen=True)
class Lattice:
    """Half-period pair (omega, omega*ratio) with Im(ratio) > 0."""

    omega: complex
    ratio: complex

    def __post_init__(self):
        if not complex(self.ratio).imag > 0:
            raise ValueError("lattice ratio must lie in the upper half-plane")



def wp_lattice(kind: str, z: complex, lat: Lattice, **kw) -> complex:
    """P, Zeta, or Pprime on the lattice (omega, omega*ratio), through the
    homogeneity relations: P(z|w,w*r) = w^-2 P(z/w|r), Zeta scales as w^-1,
    Pprime as w^-3."""
    w = complex(lat.omega)
    val = weierstrass(kind, complex(z) / w, lat.ratio, **kw)
    power = {"P": 2, "Zeta": 1, "Pprime": 3}[kind]
    return val / w ** power


def lattice_invariants(lat: Lattice) -> tuple[complex, complex]:
    ec = elliptic_constants(lat.ratio)
    w = complex(lat.omega)
    return ec.g2 / w ** 4, ec.g3 / w ** 6


def klein_j_jet(tau, order: int = 1) -> Jet:
    """J = (4/27) (x^2 - x + 1)^3 / (x^2 (x - 1)^2) with x = v4^4/v3^4,
    as a tau-jet."""
    x = (vartheta_jet(4, tau, order) / vartheta_jet(3, tau, order)) ** 4
    return (4.0 / 27.0) * (x * x - x + 1.0) ** 3 / (x * x * (x - 1.0) ** 2)


def invariants_to_lattice(g2: complex, g3: complex, *,
                          seed: complex | None = None) -> Lattice:
    """Solve J(ratio) = g2^3/(g2^3 - 27 g3^2) by Newton (seeded from a
    fundamental-domain scan unless given), then fix omega by matching the
    invariant scaling; the round trip is verified to 1e-9."""
    g2 = complex(g2)
    g3 = complex(g3)
    disc = g2 ** 3 - 27.0 * g3 ** 2
    scale3 = max(abs(g2) ** 1.5, abs(g3), 1.0)
    if abs(disc) < 1e-12 * scale3 ** 2:
        raise ValueError("degenerate invariants (vanishing discriminant)")
    # J is critical at the two symmetric points, so Newton cannot localize
    # them; route the g3 = 0 and g2 = 0 cases directly.
    if abs(g3) < 1e-12 * scale3:
        ec = elliptic_constants(1j)
        return Lattice(_normalize_omega((ec.g2 / g2) ** 0.25), 1j)
    if abs(g2) < 1e-12 * scale3 ** (2.0 / 3.0):
        rho = exp(1j * pi / 3.0)
        ec = elliptic_constants(rho)
        return Lattice(_normalize_omega((ec.g3 / g3) ** (1.0 / 6.0)), rho)
    target = g2 ** 3 / disc
    if seed is None:
        best = None
        for re in [x / 10.0 for x in range(-5, 6)]:
            for im in [0.75 + 0.15 * k for k in range(12)]:
                t = complex(re, im)
                d = abs(klein_j_jet(t, 0).value - target)
                if best is None or d < best[0]:
                    best = (d, t)
        seed = best[1]
    tau = seed
    for _ in range(80):
        jj = klein_j_jet(tau)
        r = jj.value - target
        if abs(r) < 1e-13 * max(1.0, abs(target)):
            break
        jd = jj.d(1)
        if abs(jd) < 1e-14:
            raise NewtonError("J'(tau) degenerate during inversion")
        step = -r / jd
        if (tau + step).imag <= 0.05:
            step *= 0.5
        tau = tau + step
    else:
        raise NewtonError("invariants_to_lattice: Newton did not converge")
    ec = elliptic_constants(tau)
    omega = csqrt((ec.g3 / g3) / (ec.g2 / g2))
    lat = Lattice(_normalize_omega(omega), tau)
    gg2, gg3 = lattice_invariants(lat)
    if abs(gg2 - g2) > 1e-9 * scale3 ** (2.0 / 3.0) or \
       abs(gg3 - g3) > 1e-9 * scale3:
        raise NewtonError(f"invariant round trip failed: {(gg2, gg3)} vs {(g2, g3)}")
    return lat


def _normalize_omega(omega: complex) -> complex:
    """Deterministic sign: Re > 0, or Re = 0 and Im > 0 (the lattice is
    the same either way)."""
    if omega.real > 0 or (omega.real == 0 and omega.imag > 0):
        return omega
    return -omega


def wp_second_derivative(p_val: complex, lat: Lattice) -> complex:
    """P'' = 6 P^2 - g2/2 on the given lattice."""
    g2, _ = lattice_invariants(lat)
    return 6.0 * p_val * p_val - 0.5 * g2


def carlson_rf(x: complex, y: complex, z: complex) -> complex:
    """Carlson's symmetric integral R_F(x, y, z) for complex arguments in
    the plane cut along (-inf, 0], at most one of them zero, by the
    duplication theorem (DLMF 19.36.1).  An argument on the cut takes its
    value from the upper side."""
    x, y, z = complex(x) + 0j, complex(y) + 0j, complex(z) + 0j
    for _ in range(60):
        a = (x + y + z) / 3.0
        if max(abs(a - x), abs(a - y), abs(a - z)) < 2.5e-3 * abs(a):
            break
        sx, sy, sz = csqrt(x), csqrt(y), csqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        x, y, z = (x + lam) / 4.0, (y + lam) / 4.0, (z + lam) / 4.0
    a = (x + y + z) / 3.0
    dx, dy = 1.0 - x / a, 1.0 - y / a
    dz = -(dx + dy)
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0
            - 3.0 * e2 * e3 / 44.0) / csqrt(a)


def wp_inverse(target: complex, lat: Lattice, seed: complex | None = None, *,
               max_iter: int = 60, tol: float = 5e-15) -> complex:
    """Newton inversion of P on a lattice; quadratic convergence with P' as
    the derivative, with a square-root step through near-critical points
    (where P' ~ 0 the local model P(z) ~ e + P''(z-z_e)^2/2 applies).

    Without a seed the start is z = R_F(t - e1, t - e2, t - e3), which
    solves P(z) = t, reduced to lattice coordinates in [0, 2) x [0, 2).
    Newton stops at tol after one more polishing step, or at the rounding
    floor: once |P(z) - t| < 1e-12 max(1, |t|), the first step that does
    not decrease it returns the iterate before that step.
    """
    target = complex(target)
    if seed is None:
        w = complex(lat.omega)
        ratio = complex(lat.ratio)
        ec = elliptic_constants(ratio)
        e1, e2, e3 = (e / (w * w) for e in (ec.e1, ec.e2, ec.e3))
        c = carlson_rf(target - e1, target - e2, target - e3) / w
        b = c.imag / ratio.imag
        seed = w * ((c.real - b * ratio.real) % 2.0 + (b % 2.0) * ratio)
    z = complex(seed)
    scale = max(1.0, abs(target))
    polished = 0
    floor = None
    for _ in range(max_iter):
        p = wp_lattice("P", z, lat)
        f = p - target
        fp = wp_lattice("Pprime", z, lat)
        af = abs(f)
        if af < tol * scale:
            if polished or abs(fp) < 1e-7 * scale:
                return z
            polished = 1
        elif floor is not None and af >= floor[0]:
            return floor[1]
        floor = (af, z) if af < 1e-12 * scale else None
        if abs(fp) < 1e-7 * scale:
            # critical point: quadratic local model
            z = z + csqrt(-2.0 * f / wp_second_derivative(p, lat))
            continue
        z = z - f / fp
    raise NewtonError(f"wp_inverse did not converge for target {target}")


def wp_inverse_jet(target: Jet, lat: Lattice,
                   seed: complex | None = None) -> Jet:
    """Jet of u = P^{-1}(target) on a fixed lattice, to order at most 3:
    the target jet composed with the derivatives of the inverse,

        u' = 1/P',  u'' = -P''/P'^3,  u''' = (3 P''^2 - P' P''')/P'^5,

    at P = target.value, with P'' = 6 P^2 - g2/2 and P''' = 12 P P'."""
    u = wp_inverse(target.value, lat, seed)
    p = target.value
    p1 = wp_lattice("Pprime", u, lat)
    p2 = wp_second_derivative(p, lat)
    p3 = 12.0 * p * p1
    return target.compose_scalar(
        [u, 1.0 / p1, -p2 / p1 ** 3, (3.0 * p2 * p2 - p1 * p3) / p1 ** 5])


# --------------------------------------------------------------------------
# The exceptional torus and its companions
# --------------------------------------------------------------------------

def exceptional_lattice() -> Lattice:
    """The (omega, epsilon) lattice carrying invariants (292/3, 4760/27),
    built directly from the tabulated constants."""
    return Lattice(OMEGA, EPSILON)


def torus_u(tau, lat: Lattice | None = None, *, u_prev: complex | None = None,
            jump_cap: float = 0.5) -> complex:
    """u(tau) = P^{-1}(s(tau) - 10/3) on the exceptional lattice, branch
    selected by the previous point when continuing."""
    lat = lat or exceptional_lattice()
    s = heun_s_jet(tau, 0).value
    u = wp_inverse(s - Fraction(10, 3), lat, seed=u_prev)
    if u_prev is not None and abs(u - u_prev) > jump_cap:
        raise BranchJumpError(f"u jumped by {abs(u - u_prev)}")
    return u


def verify_torus_equation(tau) -> float:
    """|[u,tau] + 2 P(2u) + 8/3| on the exceptional lattice."""
    t = as_tau(tau)
    lat = exceptional_lattice()
    u = wp_inverse_jet(heun_s_jet(t.value, 3) - Fraction(10, 3), lat)
    return abs(meromorphic_derivative(u)
               + 2.0 * wp_lattice("P", 2.0 * u.value, lat) + 8.0 / 3.0)


def verify_lemniscatic(tau, *, wrong_ratio: complex | None = None) -> float:
    """|[p,tau] + 2 P(2p|i)| with P(p|i) equal to v4^2/v3^2(tau).

    Passing ``wrong_ratio`` evaluates the right side on a different
    lattice (negative control)."""
    t = as_tau(tau)
    lat = lemniscatic_40_lattice()
    p = wp_inverse_jet((vartheta_jet(4, t.value, 3)
                        / vartheta_jet(3, t.value, 3)) ** 2, lat)
    rhs_lat = lat if wrong_ratio is None else Lattice(lat.omega, wrong_ratio)
    return abs(meromorphic_derivative(p)
               + 2.0 * wp_lattice("P", 2.0 * p.value, rhs_lat))


def z_hauptmodul_jet(tau, order: int = 5):
    """z(tau) = 2 + 3 (v4/v3)^2 (t1/t2)^2 - (v2/v3)^2 (t1/t4)^2,
    thetas at the moving argument 1/6."""
    v2 = vartheta_jet(2, tau, order)
    v3 = vartheta_jet(3, tau, order)
    v4 = vartheta_jet(4, tau, order)
    t1 = jacobi_theta_jet(1, 0.0, 1.0 / 6.0, tau, order)
    t2 = jacobi_theta_jet(2, 0.0, 1.0 / 6.0, tau, order)
    t4 = jacobi_theta_jet(4, 0.0, 1.0 / 6.0, tau, order)
    return 2.0 + 3.0 * (v4 / v3) ** 2 * (t1 / t2) ** 2 \
        - (v2 / v3) ** 2 * (t1 / t4) ** 2


def equianharmonic_lattice() -> Lattice:
    """Lattice with invariants (0, 4): ratio at the hexagonal point and
    omega fixed by the g3 scaling."""
    rho = exp(1j * pi / 3.0)
    # nudge into the open upper half-plane numerically exact point
    ec = elliptic_constants(rho)
    omega = (ec.g3 / 4.0) ** (1.0 / 6.0)
    return Lattice(omega, rho)


KAPPA = 1j * math.sqrt(3.0)


def verify_reduction_pzk(tau, branch: int = +1) -> dict:
    """Checks of the holomorphic reduction of the genus-2 pencil:

        P(u) = ((z + k)/(z - k))^2   (branch=+1;  k = i sqrt 3)
        P(u) = ((z - k)/(z + k))^2   (branch=-1),

    on the equianharmonic lattice, with the holomorphic differential

        sqrt(-+k) du = (z +- k) dz / sqrt(z^5 - 10 z^3 + 9 z)

    (sign of the square roots fixed at the evaluation point, so the
    differential residual is reported modulo an overall sign) and the
    Fuchsian equation [u,tau] = -6 (2 P^3 + 1)/(P^2 P'^2)."""
    t = as_tau(tau)
    lat = equianharmonic_lattice()
    k = (1.0 if branch >= 0 else -1.0) * KAPPA
    zj = z_hauptmodul_jet(t.value, 3)
    u = wp_inverse_jet(((zj + k) / (zj - k)) ** 2, lat)
    zv, zd = zj.value, zj.d(1)
    lhs = csqrt(-k) * u.d(1)
    rhs = (zv + k) * zd / csqrt(zv ** 5 - 10.0 * zv ** 3 + 9.0 * zv)
    diff_resid = min(abs(lhs - rhs), abs(lhs + rhs)) / max(abs(rhs), 1e-30)

    md = meromorphic_derivative(u)
    pv = wp_lattice("P", u.value, lat)
    ppv = wp_lattice("Pprime", u.value, lat)
    fuchs_resid = abs(md + 6.0 * (2.0 * pv ** 3 + 1.0) / (pv ** 2 * ppv ** 2))
    ode_resid = abs(ppv ** 2 - (4.0 * pv ** 3 - 4.0))
    return {"differential": diff_resid, "fuchsian": fuchs_resid,
            "wp_ode": ode_resid}


def lemniscatic_40_lattice() -> Lattice:
    """Lattice with invariants (4, 0): square point, omega from g2."""
    ec = elliptic_constants(1j)
    omega = (ec.g2 / 4.0) ** 0.25
    return Lattice(omega, 1j)


def verify_pu(tau, *, u_prev: complex | None = None,
              mismatched: bool = False) -> dict:
    """Residual of the transcendental cover tying the two punctured tori:

        ((P(u; 292/3, 4760/27) + 1/3)^2 - 12) / (2 P(p; 4, 0)^2 - 1)
            = 2 v2(eps/2)^2 (pi/omega) theta4(u/2omega | eps)
                                       / theta1(u/2omega | eps),

    where u comes from s = P(u) + 10/3 and p from the Legendre-variable
    chain x = 1 - 9/s, (2 X^2 - 1)^2 = (x^2-20x-8)^2/(64 (1-x)^3),
    P(p) = X.  The square-root branch in the chain and the sign branch of
    u are searched; the winner is reported so a caller can require path
    continuity.  ``mismatched=True`` pairs u and p from different tau
    (negative control).

    On the prefactor: a tabulated variant of this cover carries
    sqrt8 (pi/omega) v2(eps/2), which cannot hold for any branch (it
    would force v2(eps/2) = sqrt2).  The half-period representation
    sqrt(P(u) - e3) = (pi/2omega) v2(eps) v3(eps) theta4/theta1 together
    with the Landen duplication v2(eps/2)^2 = 2 v2(eps) v3(eps) pins the
    constant to 2 v2(eps/2)^2, which the residual confirms to 1e-14.  The
    result carries the variant-prefactor residual as a diagnostic."""
    t = as_tau(tau)
    lat_u = exceptional_lattice()
    s = heun_s_jet(t.value, 0).value
    u = wp_inverse(s - Fraction(10, 3), lat_u, seed=u_prev)
    if mismatched:
        s_other = heun_s_jet(t.value + 0.37j, 0).value
        x = 1.0 - 9.0 / s_other
    else:
        x = 1.0 - 9.0 / s
    w_sq = (x * x - 20.0 * x - 8.0) ** 2 / (64.0 * (1.0 - x) ** 3)
    sqrt_w = csqrt(w_sq)
    v2_eps_half = vartheta_jet(2, EPSILON / 2.0, 0).value
    arg = u / (2.0 * OMEGA)
    th4 = jacobi_theta_jet(4, 0.0, arg, EPSILON, 0).value
    th1 = jacobi_theta_jet(1, 0.0, arg, EPSILON, 0).value
    rhs_base = 2.0 * v2_eps_half ** 2 * (pi / OMEGA) * th4 / th1
    rhs_variant = math.sqrt(8.0) * (pi / OMEGA) * v2_eps_half * th4 / th1
    lhs_num = (s - 3.0) ** 2 - 12.0  # (P(u) + 1/3)^2 - 12 with P(u) = s - 10/3
    lat_p = lemniscatic_40_lattice()
    best = None
    for w_sign in (+1.0, -1.0):
        lhs_den = w_sign * sqrt_w          # = 2 X^2 - 1 = 2 P(p)^2 - 1
        x_sq = (1.0 + w_sign * sqrt_w) / 2.0
        p = wp_inverse(csqrt(x_sq), lat_p)
        pipeline = abs(2.0 * wp_lattice("P", p, lat_p) ** 2 - 1.0 - lhs_den)
        lhs = lhs_num / lhs_den
        for u_sign in (+1.0, -1.0):
            resid = abs(lhs - u_sign * rhs_base)
            if best is None or resid < best["residual"]:
                best = {"residual": resid, "w_sign": w_sign,
                        "u_sign": u_sign, "u": u, "p": p,
                        "pipeline": pipeline,
                        "variant_prefactor_residual":
                            min(abs(lhs - u_sign * rhs_variant)
                                for u_sign in (1.0, -1.0))}
    return best
