"""Analytic (affine) connections on genus-zero orbifolds.

The connection of a Hauptmodul x is Gamma = d/dtau ln(xdot), possibly
calibrated by subtracting the logarithmic derivative of a function of x.
With Omega = Gamma' - Gamma^2/2 and the covariant derivatives

    nabla Omega   = Omega' - 2 Gamma Omega,
    nabla^2 Omega = (d/dtau - 3 Gamma)(d/dtau - 2 Gamma) Omega,

the Fuchsian equation [x,tau] = Q(x) is equivalent to the pair of scalar
identities (nabla Omega)^2/Omega^3 = Q'^2/Q^3 and nabla^2 Omega/Omega^2
= Q''/Q^2, which hold for *any* local solution of the Schwarzian equation,
uniformizing or not.  That licence is exercised here with an adaptive
Runge-Kutta integrator for the third-order Schwarzian ODE, used whenever
no closed Hauptmodul is available.
"""

from __future__ import annotations

from cmath import pi
from dataclasses import dataclass, field
from fractions import Fraction

from .control import as_tau
from .errors import CriticalPointError, PoleProximityError, ThetaKitError
from .fuchs import heun_s_jet
from .jets import Jet, eta1_jet, jet_newton_inverse, vartheta_jet
from .rational import Poly, RationalFunc, complex_roots
from .thetafuncs import elliptic_constants, eta1

_IPI = 1j * pi


@dataclass(frozen=True)
class ConnectionJet:
    """gamma and its first three tau-derivatives at a base point."""

    base: complex
    gamma: complex
    d1: complex
    d2: complex
    d3: complex

    @classmethod
    def from_jet(cls, g: Jet) -> "ConnectionJet":
        if g.order < 3:
            raise ValueError("connection jet needs order >= 3")
        return cls(g.base, g.value, g.d(1), g.d(2), g.d(3))

    def as_jet(self) -> Jet:
        return Jet(self.base, [self.gamma, self.d1, self.d2 / 2.0, self.d3 / 6.0])


def log_derivative_jet(f: Jet) -> Jet:
    """Jet of d/dtau ln f (order drops by one)."""
    return f.derivative() / f.truncate(f.order - 1)


def connection_from_jet(x: Jet, calibration: RationalFunc | None = None
                        ) -> ConnectionJet:
    """Gamma = d/dtau ln xdot, minus d/dtau ln S(x) when a calibrating
    function S is supplied."""
    if x.order < 5:
        raise ValueError("need an order-5 Hauptmodul jet")
    xd = x.derivative()
    if abs(xd.value) < 1e-12 * max(1.0, x.max_abs()):
        raise CriticalPointError("Hauptmodul is critical at the base point")
    g = log_derivative_jet(xd)
    if calibration is not None:
        s_jet = calibration(x.truncate(x.order - 1))
        g = g - log_derivative_jet(s_jet)
    return ConnectionJet.from_jet(g)


def nabla_quantities(cj: ConnectionJet) -> tuple[complex, complex, complex]:
    """(Omega, nabla Omega, nabla^2 Omega) at the base point."""
    g = cj.as_jet()
    om = g.derivative() - 0.5 * (g * g).truncate(2)
    om_d = om.derivative()
    nab = om_d - 2.0 * (g.truncate(1) * om.truncate(1))
    nab2 = (nab.derivative() - 3.0 * g.truncate(0) * nab.truncate(0)).value
    return om.value, nab.value, nab2


def identity_residuals(cj: ConnectionJet, q: RationalFunc, x0: complex
                       ) -> tuple[float, float]:
    """Relative residuals of the two elimination identities against Q at x0."""
    om, nab, nab2 = nabla_quantities(cj)
    qv = q(x0)
    q1 = q.derivative()(x0)
    q2 = q.derivative().derivative()(x0)
    lhs1 = nab * nab / om ** 3
    rhs1 = q1 * q1 / qv ** 3
    lhs2 = nab2 / om ** 2
    rhs2 = q2 / qv ** 2
    r1 = abs(lhs1 - rhs1) / max(abs(lhs1), abs(rhs1), 1e-30)
    r2 = abs(lhs2 - rhs2) / max(abs(lhs2), abs(rhs2), 1e-30)
    return r1, r2


def chazy_residual(tau, coefficient: complex = 12j) -> float:
    """Relative residual of pi eta''' = 12 i (2 eta eta'' - 3 eta'^2),
    with the eta-jet from exact termwise differentiation.  ``coefficient``
    replaces the 12i (the negative control uses 13i)."""
    ej = eta1_jet(tau, 3)
    e0, e1, e2, e3 = ej.value, ej.d(1), ej.d(2), ej.d(3)
    lhs = pi * e3
    rhs = coefficient * (2.0 * e0 * e2 - 3.0 * e1 * e1)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


def prop6_connection(x: Jet, elliptic_points) -> ConnectionJet:
    """Holomorphic connection with conical corrections:

        Gamma = d/dtau ln xdot - sum_k ((N_k - 1)/N_k) d/dtau ln(x - C_k).
    """
    xd = x.derivative()
    g = log_derivative_jet(xd)
    for c_k, n_k in elliptic_points:
        shifted = x.truncate(x.order - 1) - complex(c_k)
        g = g - (float(n_k - 1) / float(n_k)) * log_derivative_jet(shifted)
    return ConnectionJet.from_jet(g)


# --------------------------------------------------------------------------
# Schwarzian integrator
# --------------------------------------------------------------------------

# Cash-Karp embedded Runge-Kutta 4(5) tableau
_CK_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_CK_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)


@dataclass
class SchwarzState:
    """State of the third-order Schwarzian ODE at one path point."""

    tau: complex
    x: complex
    xd: complex
    xdd: complex

    def as_jet(self, q: RationalFunc, order: int = 5) -> Jet:
        """Extend the state to a Taylor jet using the ODE and its exact
        x-derivatives: every coefficient past c_2 comes from differentiating
        x''' = Q(x) x'^3 + (3/2) x''^2/x'."""
        coeffs = [self.x, self.xd, self.xdd / 2.0]
        import math

        while len(coeffs) < order + 1:
            n = len(coeffs)
            pad = Jet(self.tau, coeffs + [0j] * 3)
            d1 = pad.derivative()
            d2 = d1.derivative()
            rhs = q(pad) * d1 ** 3 + 1.5 * (d2 * d2) / d1
            j = n - 3
            coeffs.append(rhs.coeffs[j] * math.factorial(j)
                          / math.factorial(j + 3))
        return Jet(self.tau, coeffs[:order + 1])


@dataclass
class SchwarzPath:
    samples: list[SchwarzState] = field(default_factory=list)
    steps_taken: int = 0
    steps_rejected: int = 0


def _schwarz_rhs(q: RationalFunc, y: tuple[complex, complex, complex]):
    x, xd, xdd = y
    return (xd, xdd, q(x) * xd ** 3 + 1.5 * xdd * xdd / xd)


def schwarz_integrate(q: RationalFunc, init: tuple[complex, complex, complex],
                      path, *, rtol: float = 1e-10, min_xd: float = 1e-8,
                      pole_margin: float = 1e-3, sample_every: float = 0.05,
                      max_steps: int = 20000) -> SchwarzPath:
    """Integrate x''' = Q(x) x'^3 + (3/2) x''^2/x' along a polyline in tau.

    Adaptive Cash-Karp 4(5); a step is rejected (and halved) when the
    embedded error estimate exceeds tolerance, |x'| falls under ``min_xd``,
    or x drifts within ``pole_margin`` of a pole of Q.  Samples (with
    jets available through ``SchwarzState.as_jet``) are recorded roughly
    every ``sample_every`` of path length, plus both endpoints.
    """
    # the guard needs only the distinct poles: the roots of the square-free
    # part of the exact denominator, which are simple, so Aberth converges
    # fast on them
    den = q.den
    poles = complex_roots(den.divmod(den.gcd(den.derivative()))[0].coeffs)

    def guard(x: complex, xd: complex):
        if abs(xd) < min_xd:
            raise CriticalPointError(f"x' collapsed to {abs(xd)} during integration")
        for p in poles:
            if abs(x - p) < pole_margin:
                raise PoleProximityError(f"x hit a pole neighborhood at {p}")

    out = SchwarzPath()
    y = tuple(complex(v) for v in init)
    tau = complex(path[0])
    guard(y[0], y[1])
    out.samples.append(SchwarzState(tau, *y))
    since_sample = 0.0
    for seg_end in path[1:]:
        seg_end = complex(seg_end)
        while abs(seg_end - tau) > 1e-14:
            remaining = seg_end - tau
            h = min(0.02, abs(remaining))
            direction = remaining / abs(remaining)
            accepted = False
            while not accepted:
                if out.steps_taken + out.steps_rejected > max_steps:
                    raise ThetaKitError("integration step budget exhausted")
                dt = h * direction
                try:
                    ks = []
                    for stage in range(6):
                        yy = list(y)
                        for j, aij in enumerate(_CK_A[stage]):
                            for comp in range(3):
                                yy[comp] = yy[comp] + dt * aij * ks[j][comp]
                        guard(yy[0], yy[1])
                        ks.append(_schwarz_rhs(q, tuple(yy)))
                    y5 = tuple(y[c] + dt * sum(b * ks[j][c] for j, b in enumerate(_CK_B5))
                               for c in range(3))
                    y4 = tuple(y[c] + dt * sum(b * ks[j][c] for j, b in enumerate(_CK_B4))
                               for c in range(3))
                    guard(y5[0], y5[1])
                except (CriticalPointError, PoleProximityError):
                    h *= 0.5
                    out.steps_rejected += 1
                    if h < 1e-12:
                        raise
                    continue
                scale = max(abs(y5[0]), abs(y5[1]), abs(y5[2]), 1.0)
                err = max(abs(y5[c] - y4[c]) for c in range(3)) / scale
                tol = rtol * max(h, 1e-3)
                if err <= tol:
                    accepted = True
                    y = y5
                    tau = tau + dt
                    since_sample += h
                    out.steps_taken += 1
                    if err < tol / 64:
                        h = min(h * 2.0, 0.05)
                else:
                    h *= 0.5
                    out.steps_rejected += 1
                    if h < 1e-12:
                        raise ThetaKitError("step underflow in integrator")
            if since_sample >= sample_every:
                out.samples.append(SchwarzState(tau, *y))
                since_sample = 0.0
        out.samples.append(SchwarzState(tau, *y))
    return out


def schwarz_gamma_jet(state: SchwarzState, q: RationalFunc,
                      calibration: RationalFunc | None = None) -> ConnectionJet:
    """Connection jet at an integrated sample."""
    xj = state.as_jet(q, 5)
    return connection_from_jet(xj, calibration)


# --------------------------------------------------------------------------
# Worked verifications
# --------------------------------------------------------------------------

J_RATIONAL = RationalFunc(
    Fraction(4, 27) * Poly([1, -1, 1]) ** 3,
    Poly([0, 0, 1]) * Poly([-1, 1]) ** 2)


def j_jet(tau, order: int = 5) -> Jet:
    """Klein's J as a jet, through J(x) of the Legendre Hauptmodul."""
    x = (vartheta_jet(4, tau, order) ** 4) / (vartheta_jet(3, tau, order) ** 4)
    return J_RATIONAL(x)


def fullgroup_reference_residuals(tau) -> dict[str, float]:
    """The reference relations tying (J, g1, Gamma) to the standard forms:

        g2 = 27 J/(J-1) g1^2,   g3 = 27 J/(J-1) g1^3,
        eta = (pi/4i) Gamma + (3/2)(7J-4)/(J-1) g1,
        nabla g1 = (d/dtau - Gamma) g1 = (6/pi i)(J+2)/(J-1) g1^2,

    and the holomorphic recalibration

        Gamma - (1/6) d/dtau ln J^4 (J-1)^3 = (4i/pi) eta.
    """
    t = as_tau(tau)
    jj = j_jet(t, 6)
    jd = jj.derivative()
    g1 = (_IPI / 36.0) * jd / jj.truncate(5)
    gamma = jd.derivative() / jd.truncate(4)
    jv = jj.value
    g1v = g1.value
    ec = elliptic_constants(t)
    out = {}
    scale = 27.0 * jv / (jv - 1.0)
    out["g2"] = abs(ec.g2 - scale * g1v ** 2) / max(1.0, abs(ec.g2))
    out["g3"] = abs(ec.g3 - scale * g1v ** 3) / max(1.0, abs(ec.g3))
    eta_v = ec.eta1
    out["eta"] = abs(eta_v - ((pi / 4j) * gamma.value
                              + 1.5 * (7.0 * jv - 4.0) / (jv - 1.0) * g1v))
    # holomorphic recalibration of the connection
    corr = prop6_connection(jj, [(0.0, 3), (1.0, 2)])
    out["holomorphic"] = abs(corr.gamma - (4j / pi) * eta_v)
    # covariant derivative taken with the holomorphic connection
    nabla_g1 = g1.d(1) - corr.gamma * g1v
    out["nabla_g1"] = abs(nabla_g1 - (6.0 / _IPI) * (jv + 2.0) / (jv - 1.0) * g1v ** 2)
    return out


def legendre_big_residual(tau) -> float:
    """Degree-8 polynomial identity in (A, B, Omega) for the connection of
    the Legendre modulus k = v2^2/v3^2, Gamma = d/dtau ln kdot; terms are
    normalized by the largest term magnitude (their raw sizes span many
    orders)."""
    t = as_tau(tau)
    k = (vartheta_jet(2, t, 5) ** 2) / (vartheta_jet(3, t, 5) ** 2)
    cj = connection_from_jet(k)
    om, a, b = nabla_quantities(cj)
    terms = [
        a ** 8,
        -8.0 * om * (b - 352.0 * om ** 2) * a ** 6,
        24.0 * om ** 2 * (b ** 2 - 260.0 * om ** 2 * b - 368.0 * om ** 4) * a ** 4,
        -32.0 * om ** 3 * (b ** 3 - 129.0 * om ** 2 * b ** 2
                           - 168.0 * om ** 4 * b + 944.0 * om ** 6) * a ** 2,
        16.0 * om ** 4 * (b ** 2 - 20.0 * om ** 2 * b - 80.0 * om ** 4) ** 2,
    ]
    return abs(sum(terms)) / max(abs(term) for term in terms)


def _compact_gamma_residual(g: Jet) -> float:
    """(2 g' - g^2) g''' - 2 g''(g'' - g^3) + g'^2 (2 g' - 3 g^2), relative."""
    g0, g1, g2, g3 = g.value, g.d(1), g.d(2), g.d(3)
    lhs = (2.0 * g1 - g0 * g0) * g3
    rhs = 2.0 * g2 * (g2 - g0 ** 3) - g1 * g1 * (2.0 * g1 - 3.0 * g0 * g0)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def legendre_compact_residual(tau) -> dict[str, float]:
    """Compact connection equation for the calibrated Legendre connection

        gamma = Gamma - d/dtau ln k(k^2 - 1) = d/dtau ln v3^4
              = (4i/pi) eta + (pi i/3)(2 v2^4 - v3^4),

    (the log reduces to the v3 theta-constant; the closed form matches it
    exactly, which also pins the calibration)."""
    t = as_tau(tau)
    v3 = vartheta_jet(3, t, 5)
    g = 4.0 * log_derivative_jet(v3)
    closed = (4j / pi) * eta1(t) + (_IPI / 3.0) * (
        2.0 * vartheta_jet(2, t, 0).value ** 4 - vartheta_jet(3, t, 0).value ** 4)
    return {"equation": _compact_gamma_residual(g),
            "closed_form": abs(g.value - closed)}


def cubic_family_residual(q: RationalFunc, init, path) -> float:
    """Compact omega-form equation for the second exceptional Heun operator,
    whose normal form is ``q``,

        2 w (nabla2 + 6 w^2)^2 = (2 nabla2 + 15 w^2) nabla1^2,

    verified along an integrated Schwarzian solution with the calibration
    gamma = d/dtau ln xdot - d/dtau ln{(x+1)^3 - 1}."""
    calib = RationalFunc(Poly([0, 3, 3, 1]))  # (x+1)^3 - 1
    traj = schwarz_integrate(q, init, path)
    worst = 0.0
    for state in traj.samples[1:]:
        cj = schwarz_gamma_jet(state, q, calib)
        w, n1, n2 = nabla_quantities(cj)
        lhs = 2.0 * w * (n2 + 6.0 * w * w) ** 2
        rhs = (2.0 * n2 + 15.0 * w * w) * n1 * n1
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
    return worst


def heun_hidden_connection_residual(tau) -> float:
    """The calibrated Heun-group connection

        gamma = d/dtau ln sdot - (3/2) (s-5)/(s(s-9)) sdot

    satisfies the full-modular-group equation g''' = 6 g g'' - 9 g'^2."""
    s = heun_s_jet(tau, 6)
    sd = s.derivative()
    calib = RationalFunc(Fraction(3, 2) * Poly([-5, 1]),
                         Poly([0, 1]) * Poly([-9, 1]))
    g = log_derivative_jet(sd) - (calib(s.truncate(5)) * sd.truncate(4)).truncate(4)
    g0, g1, g2, g3 = g.value, g.d(1), g.d(2), g.d(3)
    lhs = g3
    rhs = 6.0 * g0 * g2 - 9.0 * g1 * g1
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


def conical_growth_check(radii=(0.08, 0.04, 0.02, 0.01)) -> dict:
    """Corrected vs uncorrected connection growth near a conical point.

    The squared tetrahedral parameter b = T^2 (with x(T) the degree-3
    tetrahedral map) has a second-order conical point at b = 0, reached where
    x = -1.  Along a ray approaching that point the uncorrected connection
    of b blows up while the conically corrected one stays bounded.
    """
    from .catalog import TETRA_X_OF_T, tetra_branch_seeds
    from .painleve import hauptmodul_x

    # locate tau* with x(tau*) = -1 by Newton on the x-jet
    tau = 0.5 + 0.6j
    for _ in range(60):
        xj = hauptmodul_x(tau, 1)
        r = xj.value + 1.0
        if abs(r) < 1e-13:
            break
        tau = tau - r / xj.d(1)
    else:
        raise ThetaKitError("could not locate the conical base point")
    xt = TETRA_X_OF_T
    dxt = xt.derivative()
    gam_un = []
    gam_co = []
    for r in radii:
        pt = tau + r * (0.3 + 1.0j) / abs(0.3 + 1.0j)
        xj = hauptmodul_x(pt, 4)
        # invert x(T) = x(tau) near T = 0 (x(0) = -1)
        seed = min(tetra_branch_seeds(xj.value), key=abs)
        tj = jet_newton_inverse(lambda w: xt(w), lambda w: dxt(w), xj, seed)
        bj = tj * tj
        bd = bj.derivative()
        g_un = (bd.derivative() / bd.truncate(2)).value
        g_co = g_un - 0.5 * (bd.truncate(2) / bj.truncate(2)).value
        gam_un.append(abs(g_un))
        gam_co.append(abs(g_co))
    return {"tau_star": tau, "radii": radii,
            "uncorrected": gam_un, "corrected": gam_co,
            "uncorrected_growth": gam_un[-1] / gam_un[0],
            "corrected_growth": gam_co[-1] / gam_co[0]}
