"""Picard and Hitchin solution families of the sixth Painleve equation,
Okamoto maps between them, closed-form differentials, and residual
evaluators for the equation itself and its elliptic form.

Hauptmodul and solutions are produced as tau-jets so that x-derivatives
(y_x = ydot/xdot etc.) come from exact termwise series, never finite
differences.  The only finite-difference quantity in this module is the
second derivative of the elliptic-form argument z(tau), whose branch is
defined pointwise through a Newton-continued inverse of P.
"""

from __future__ import annotations

from cmath import pi
from dataclasses import dataclass

from .control import as_tau
from .errors import CriticalPointError, NewtonError, PoleProximityError
from .jets import Jet, jacobi_theta_jet, thetaprime_jet, vartheta_jet
from .rational import BivarPoly
from .thetafuncs import eta1, jacobi_theta, theta1_prime, theta_dz, ThetaSpec, \
    vartheta, weierstrass

_IPI = 1j * pi


@dataclass(frozen=True)
class PicardIndex:
    """Integer data (nu, mu, N) selecting the moving argument
    (nu*tau + mu)/(2N)."""

    nu: int
    mu: int
    N: int

    def __post_init__(self):
        if self.N == 0:
            raise ValueError("N must be a nonzero integer")

    @property
    def A(self) -> float:
        return self.nu / (2.0 * self.N)

    @property
    def B(self) -> float:
        return self.mu / (2.0 * self.N)

    @property
    def exceptional(self) -> bool:
        """The degenerate theta2 = +-theta1 case (nu, mu, N) = (0, +-1, +-2)."""
        return self.nu == 0 and abs(self.mu) == 1 and abs(self.N) == 2


@dataclass(frozen=True)
class P6Params:
    alpha: complex = 0j
    beta: complex = 0j
    gamma: complex = 0j
    delta: complex = 0j


def hauptmodul_x(tau, order: int = 5) -> Jet:
    """x(tau) = vartheta_4^4 / vartheta_3^4."""
    return (vartheta_jet(4, tau, order) ** 4) / (vartheta_jet(3, tau, order) ** 4)


def sqrt_x_jet(tau, order: int = 5) -> Jet:
    """The single-valued square root vartheta_4^2 / vartheta_3^2 of x."""
    return (vartheta_jet(4, tau, order) ** 2) / (vartheta_jet(3, tau, order) ** 2)


def picard_y(idx: PicardIndex, tau, order: int = 5) -> Jet:
    """Picard's solution y = -(v4^2/v3^2) theta2^2(w)/theta1^2(w),
    w = (nu tau + mu)/(2N)."""
    t1 = jacobi_theta_jet(1, idx.A, idx.B, tau, order)
    if abs(t1.value) < 1e-12:
        raise PoleProximityError("theta1 vanishes at the moving argument")
    t2 = jacobi_theta_jet(2, idx.A, idx.B, tau, order)
    return -sqrt_x_jet(tau, order) * (t2 / t1) ** 2


def picard_sqrt_jet(idx: PicardIndex, tau, order: int = 5) -> Jet:
    """A single-valued square root of Picard's y (the perfect-square
    property): i * (v4/v3) * theta2(w)/theta1(w)."""
    t1 = jacobi_theta_jet(1, idx.A, idx.B, tau, order)
    t2 = jacobi_theta_jet(2, idx.A, idx.B, tau, order)
    v3 = vartheta_jet(3, tau, order)
    v4 = vartheta_jet(4, tau, order)
    return 1j * (v4 / v3) * (t2 / t1)


def hitchin_y(A, B, tau, order: int = 5) -> Jet:
    """Hitchin's solution in the simplified theta-constant form:

        y = (v4^2/v3^2) (theta2/theta1^2)
            { pi v2^2 theta3 theta4 / (dtheta + 2 pi i A theta1) - theta2 },

    all moving thetas at A*tau + B.  For indexed arguments A = nu/2N the
    denominator equals dtheta + pi i (nu/N) theta1.
    """
    A = complex(A)
    B = complex(B)
    t1 = jacobi_theta_jet(1, A, B, tau, order)
    if abs(t1.value) < 1e-12:
        raise PoleProximityError("theta1 vanishes at the moving argument")
    t2 = jacobi_theta_jet(2, A, B, tau, order)
    t3 = jacobi_theta_jet(3, A, B, tau, order)
    t4 = jacobi_theta_jet(4, A, B, tau, order)
    tp = thetaprime_jet(A, B, tau, order)
    den = tp + (2j * pi * A) * t1
    if abs(den.value) < 1e-12 * max(abs(tp.value), 1.0):
        raise PoleProximityError("dtheta + 2 pi i A theta1 vanishes")
    v2 = vartheta_jet(2, tau, order)
    brace = pi * (v2 ** 2) * t3 * t4 / den - t2
    return sqrt_x_jet(tau, order) * (t2 / (t1 ** 2)) * brace


def weierstrass_eta_prime(tau) -> complex:
    """zeta(tau|tau) from the Legendre relation eta*tau - eta' = i pi / 2."""
    t = as_tau(tau)
    return eta1(t) * t.value - 0.5j * pi


def hitchin_wp_value(A, B, tau) -> complex:
    """Right side of the parametric elliptic form of Hitchin's solution:

        P(z|tau) = P(v|tau) + (1/2) P'(v|tau) / (zeta(v|tau) - a eta' - b eta),

    with v = a*tau + b.  The labels here follow the theta-constant form:
    the solution whose moving theta-argument is w = A*tau + B is the
    elliptic-form solution with v = 2w (the elliptic substitution halves
    the argument), so (a, b) = (2A, 2B).  With that pairing

        zeta(2w) - 2A eta' - 2B eta = (dtheta(w) + 2 pi i A theta1(w)) / (2 theta1(w)),

    which is exactly the denominator of the theta-constant form.
    """
    t = as_tau(tau)
    a = 2.0 * complex(A)
    b = 2.0 * complex(B)
    v = a * t.value + b
    pv = weierstrass("P", v, t)
    ppv = weierstrass("Pprime", v, t)
    zv = weierstrass("Zeta", v, t)
    den = zv - a * weierstrass_eta_prime(t) - b * eta1(t)
    if abs(den) < 1e-12:
        raise PoleProximityError("zeta(v) - a eta' - b eta vanishes")
    return pv + 0.5 * ppv / den


def y_from_wp(wp_value: complex, tau) -> complex:
    """The elliptic-substitution value y = 1/3 + x/3 - (4/pi^2) P(z)/v3^4."""
    t = as_tau(tau)
    v3 = vartheta(3, t)
    x = (vartheta(4, t) / v3) ** 4
    return 1.0 / 3.0 + x / 3.0 - (4.0 / (pi * pi)) * wp_value / v3 ** 4


def hitchin_y_original(A, B, tau) -> complex:
    """Hitchin's solution through explicit theta1 z-derivatives: an
    independent route to ``hitchin_y`` using only ``theta_dz``.

    The derivative form lives in the cross-ratio normalization
    Y = (P(z) - e1)/(e2 - e1) = y/x:

        Y = -t1'''(0)/(3 pi^2 v4^4 t1'(0)) + (1/3)(1 + v3^4/v4^4)
            + [t1'''(v) t1(v) - t1''(v) t1'(v)
               + 4 pi i A (t1''(v) t1(v) - t1'(v)^2)]
              / (2 pi^2 v4^4 t1(v) (t1'(v) + 2 pi i A t1(v))),

    with v = A*tau + B, using eta = -t1'''(0)/(12 t1'(0)).  Multiplying by
    x converts back to the elliptic-substitution normalization of y.
    """
    t = as_tau(tau)
    A = complex(A)
    B = complex(B)
    v = A * t.value + B
    s11 = ThetaSpec(1, 1)

    def t1d(z, n):
        return -theta_dz(s11, z, t, n)

    t1v = t1d(v, 0)
    if abs(t1v) < 1e-12:
        raise PoleProximityError("theta1 vanishes at the moving argument")
    t1p = t1d(v, 1)
    t1pp = t1d(v, 2)
    t1ppp = t1d(v, 3)
    t1p0 = t1d(0j, 1)
    t1ppp0 = t1d(0j, 3)
    v3 = vartheta(3, t)
    v4 = vartheta(4, t)
    den = 2.0 * pi * pi * v4 ** 4 * t1v * (t1p + 2j * pi * A * t1v)
    if abs(den) < 1e-12:
        raise PoleProximityError("denominator of the derivative form vanishes")
    head = -t1ppp0 / (3.0 * pi * pi * v4 ** 4 * t1p0) + (1.0 + (v3 / v4) ** 4) / 3.0
    tail = (t1ppp * t1v - t1pp * t1p
            + 4j * pi * A * (t1pp * t1v - t1p * t1p)) / den
    x = (v4 / v3) ** 4
    return x * (head + tail)


# --------------------------------------------------------------------------
# Okamoto transformations and closed-form differentials
# --------------------------------------------------------------------------

def okamoto(direction: str, x: Jet, y: Jet) -> Jet:
    """The Okamoto pair exchanging the Picard and Hitchin solutions.

        PtoH:  H = P + P(P-1)(P-x) / (x(x-1) P_x - P^2 + P)
        HtoP:  P = H - H(H-1)(H-x) / (x(x-1) H_x + H^2/2 - x H + x/2)

    with y_x = ydot/xdot from the jets (order drops by one).
    """
    n = min(x.order, y.order) - 1
    yx = (y.derivative() / x.derivative()).truncate(n)
    xt = x.truncate(n)
    yt = y.truncate(n)
    if direction == "PtoH":
        den = xt * (xt - 1.0) * yx - yt * yt + yt
        if abs(den.value) < 1e-12:
            raise CriticalPointError("Okamoto denominator vanishes")
        return yt + yt * (yt - 1.0) * (yt - xt) / den
    if direction == "HtoP":
        den = xt * (xt - 1.0) * yx + 0.5 * yt * yt - xt * yt + 0.5 * xt
        if abs(den.value) < 1e-12:
            raise CriticalPointError("Okamoto denominator vanishes")
        return yt - yt * (yt - 1.0) * (yt - xt) / den
    raise ValueError(f"unknown Okamoto direction {direction!r}")


def picard_ydot(idx: PicardIndex, tau, y: complex | None = None) -> complex:
    """Closed form of ydot on Picard's curves:

        ydot = i v2^2 (dtheta + pi i (nu/N) theta1) theta3 theta4/(theta2 theta1^2) y
               + pi i v3^4 y (y - 1).
    """
    t = as_tau(tau)
    w = idx.A * t.value + idx.B
    t1 = jacobi_theta(1, w, t)
    t2 = jacobi_theta(2, w, t)
    t3 = jacobi_theta(3, w, t)
    t4 = jacobi_theta(4, w, t)
    tp = theta1_prime(w, t)
    v2 = vartheta(2, t)
    v3 = vartheta(3, t)
    v4 = vartheta(4, t)
    if y is None:
        y = -(v4 / v3) ** 2 * (t2 / t1) ** 2
    return (1j * v2 ** 2 * (tp + _IPI * (idx.nu / idx.N) * t1)
            * t3 * t4 / (t2 * t1 ** 2) * y
            + _IPI * v3 ** 4 * y * (y - 1.0))


def hitchin_ydot(A, B, tau, y: complex | None = None) -> complex:
    """Closed form of ydot on Hitchin's curves:

        ydot = pi i v3^6 theta1^2 y(y-1)(y-x) / (v3^2 theta1^2 y + v4^2 theta2^2)
               + (pi/2i) v3^4 (y-x)^2 + (pi/2i) v2^4 x.
    """
    t = as_tau(tau)
    w = complex(A) * t.value + complex(B)
    t1 = jacobi_theta(1, w, t)
    t2 = jacobi_theta(2, w, t)
    v2 = vartheta(2, t)
    v3 = vartheta(3, t)
    v4 = vartheta(4, t)
    x = (v4 / v3) ** 4
    if y is None:
        y = hitchin_y(A, B, t, order=1).value
    den = v3 ** 2 * t1 ** 2 * y + v4 ** 2 * t2 ** 2
    return (_IPI * v3 ** 6 * t1 ** 2 * y * (y - 1.0) * (y - x) / den
            + (pi / 2j) * v3 ** 4 * (y - x) ** 2 + (pi / 2j) * v2 ** 4 * x)


# --------------------------------------------------------------------------
# Residual evaluators
# --------------------------------------------------------------------------

def p6_rhs(x: complex, y: complex, yx: complex, params: P6Params,
           convention: str) -> complex:
    """Right-hand side of the sixth Painleve equation for y(x).

    ``convention="delta-shift"`` uses the coefficient (delta - 1/2) on the
    last bracket term (the form under which the Picard family sits at
    parameters (0,0,0,0) and the Hitchin family at (1/8,1/8,1/8,1/8));
    ``convention="plain"`` uses delta itself.
    """
    if convention == "delta-shift":
        dcoef = params.delta - 0.5
    elif convention == "plain":
        dcoef = params.delta
    else:
        raise ValueError(f"unknown convention {convention!r}")
    first = 0.5 * (1.0 / y + 1.0 / (y - 1.0) + 1.0 / (y - x)) * yx * yx
    second = (1.0 / x + 1.0 / (x - 1.0) + 1.0 / (y - x)) * yx
    brace = (params.alpha - params.beta * x / (y * y)
             + params.gamma * (x - 1.0) / ((y - 1.0) ** 2)
             - dcoef * x * (x - 1.0) / ((y - x) ** 2))
    third = y * (y - 1.0) * (y - x) / (x * x * (x - 1.0) ** 2) * brace
    return first - second + third


def p6_residual(x: Jet, y: Jet, params: P6Params,
                convention: str = "delta-shift") -> complex:
    """y_xx minus the equation's right side, with y_x, y_xx from jets."""
    xd = x.d(1)
    if abs(xd) < 1e-12 * max(1.0, x.max_abs()):
        raise CriticalPointError("x is critical here; cannot form y_x")
    yv, xv = y.value, x.value
    for bad, what in ((0.0, "0"), (1.0, "1")):
        if abs(yv - bad) < 1e-10:
            raise CriticalPointError(f"y = {what} is a singular configuration")
    if abs(yv - xv) < 1e-10:
        raise CriticalPointError("y = x is a singular configuration")
    yd = y.d(1)
    ydd = y.d(2)
    xdd = x.d(2)
    yx = yd / xd
    yxx = (ydd * xd - yd * xdd) / xd ** 3
    return yxx - p6_rhs(xv, yv, yx, params, convention)


def wpform_residual(A, B, params: P6Params, tau, *, family: str = "hitchin",
                    seed_tau: complex = 2j, step: float = 0.02,
                    fd_step: float = 1e-3, flip_branch: bool = False) -> complex:
    """Residual of the elliptic form of the equation:

        -(pi^2/4) z'' = alpha P'(z) + beta P'(z-1) + gamma P'(z-tau)
                        + delta P'(z-1-tau).

    For ``family="picard"`` the argument is the linear z = 2(A tau + B)
    (so z'' vanishes along with the right side); for ``family="hitchin"``
    z(tau) is Newton-continued from ``seed_tau`` along a straight path.
    Either way z'' comes from step-halved Richardson differences of the
    pointwise branch.  ``flip_branch=True`` deliberately corrupts the
    branch at a far stencil point (negative control).
    """
    t = as_tau(tau)
    tv = t.value
    if family == "picard":

        def z_of(tau_pt: complex, z_prev: complex | None) -> complex:
            return 2.0 * (complex(A) * tau_pt + complex(B))

    elif family == "hitchin":

        def z_of(tau_pt: complex, z_prev: complex | None) -> complex:
            target = hitchin_wp_value(A, B, tau_pt)
            if z_prev is None:
                z0 = 2.0 * (complex(A) * tau_pt + complex(B))
                candidates = [z0, z0 + 0.05, z0 - 0.05, z0 + 0.05j, z0 + 0.1]
            else:
                candidates = [z_prev]
            for cand in candidates:
                z = cand
                ok = True
                for _ in range(60):
                    f = weierstrass("P", z, tau_pt) - target
                    if abs(f) < 1e-13 * max(1.0, abs(target)):
                        break
                    fp = weierstrass("Pprime", z, tau_pt)
                    if abs(fp) < 1e-14:
                        ok = False
                        break
                    z = z - f / fp
                else:
                    ok = False
                if ok:
                    if z_prev is not None and abs(z - z_prev) > 10.0 * step:
                        raise NewtonError("branch jump while continuing z(tau)")
                    return z
            raise NewtonError(f"could not invert P at tau={tau_pt}")

    else:
        raise ValueError(f"unknown family {family!r}")

    # continue z from the seed to tau
    npts = max(2, int(abs(tv - seed_tau) / step) + 1)
    z = None
    for i in range(npts + 1):
        pt = seed_tau + (tv - seed_tau) * i / npts
        z = z_of(pt, z)

    def z_at(offset: complex) -> complex:
        return z_of(tv + offset, z)

    def second_diff(h: float) -> complex:
        zp = z_at(h)
        zm = z_at(-h)
        if flip_branch:
            zp = -zp
        z0 = z_at(0.0)
        return (zp - 2.0 * z0 + zm) / (h * h)

    d_h = second_diff(fd_step)
    d_h2 = second_diff(fd_step / 2.0)
    d_h4 = second_diff(fd_step / 4.0)
    r1 = (4.0 * d_h2 - d_h) / 3.0
    r2 = (4.0 * d_h4 - d_h2) / 3.0
    zdd = (16.0 * r2 - r1) / 15.0

    z0 = z_at(0.0)
    rhs = 0j
    for coef, offs in ((params.alpha, 0.0), (params.beta, 1.0),
                       (params.gamma, tv), (params.delta, 1.0 + tv)):
        if coef != 0:
            rhs += coef * weierstrass("Pprime", z0 - offs, t)
    return -(pi * pi / 4.0) * zdd - rhs


def qxy_from_curve(F: BivarPoly, x: complex, y: complex) -> complex:
    """The Fuchsian Q(x,y) of an algebraic Painleve solution F(x,y)=0:

        Q = ([F,x] - [F,y]) F_y^2 + 3 (F_y/F_x) (ln(F_y/F_x))_xy
            - (1/2) (x^2-x+1)/(x^2 (x-1)^2) * F_y^2/F_x^2,

    where [F,x], [F,y] are the partial meromorphic derivatives
    F_xxx/F_x^3 - (3/2) F_xx^2/F_x^4 (and likewise in y).
    """
    fval = F(x, y)
    scale = F.max_term_magnitude(x, y)
    if abs(fval) > 1e-9 * max(1.0, scale):
        raise ValueError(f"point is not on the curve: |F| = {abs(fval)}")
    fx = F.partial(1, 0)(x, y)
    fy = F.partial(0, 1)(x, y)
    if abs(fx) < 1e-12 or abs(fy) < 1e-12:
        raise CriticalPointError("singular point of the curve")
    fxx = F.partial(2, 0)(x, y)
    fyy = F.partial(0, 2)(x, y)
    fxy = F.partial(1, 1)(x, y)
    fxxx = F.partial(3, 0)(x, y)
    fyyy = F.partial(0, 3)(x, y)
    fxxy = F.partial(2, 1)(x, y)
    fxyy = F.partial(1, 2)(x, y)
    md_x = fxxx / fx ** 3 - 1.5 * fxx ** 2 / fx ** 4
    md_y = fyyy / fy ** 3 - 1.5 * fyy ** 2 / fy ** 4
    # (ln(F_y/F_x))_xy = d/dx (F_yy/F_y) - d/dy (F_xx/F_x) ... expanded:
    lnterm = ((fxyy * fy - fyy * fxy) / fy ** 2
              - (fxxy * fx - fxx * fxy) / fx ** 2)
    k2 = -0.5 * (x * x - x + 1.0) / (x * x * (x - 1.0) ** 2)
    return ((md_x - md_y) * fy ** 2 + 3.0 * (fy / fx) * lnterm
            + k2 * fy ** 2 / fx ** 2)
