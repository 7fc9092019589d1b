"""Series solutions of Fuchsian ODEs, the Apery recursion chain, the
tau-representation of the Heun basis, and the inversion solvers
(AGM route for the Legendre modulus, Newton for the level-3 Hauptmodul).

All recursion and normal-form work is exact rational arithmetic; floating
point enters only when a transcendental function is finally evaluated.
"""

from __future__ import annotations

from cmath import pi
from dataclasses import dataclass
from fractions import Fraction

from .control import as_tau
from .errors import CuspProximityError, NewtonError, ResonanceError, ThetaKitError
from .jets import Jet, eta1_jet, rational_md, vartheta_jet
from .rational import Poly, RationalFunc
from .thetafuncs import elliptic_K, eta1, vartheta

_IPI = 1j * pi


@dataclass(frozen=True)
class LinearODE:
    """sum_j p_j(r) y^(j) = 0 with exact polynomial coefficients
    (``coeffs[j]`` multiplies the j-th derivative)."""

    coeffs: tuple[Poly, ...]

    def __post_init__(self):
        if self.coeffs[-1].is_zero():
            raise ValueError("leading coefficient is identically zero")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def build(cls, *coeff_lists) -> "LinearODE":
        return cls(tuple(Poly(c) for c in coeff_lists))


@dataclass(frozen=True)
class SeriesSolution:
    """Exponent-0 Frobenius branch at r = 0: psi = sum C_n r^n exactly."""

    coefficients: tuple[Fraction, ...]


def _falling(n: int, j: int) -> int:
    out = 1
    for t in range(j):
        out *= n - t
    return out


def frobenius_series(ode: LinearODE, m_top: int) -> SeriesSolution:
    """Exact coefficients of the analytic exponent-0 branch at r = 0.

    Collecting the coefficient of r^m gives a linear relation among the
    C_n with n = m + j - s over nonzero monomials a_{j,s} r^s of p_j; the
    relation is solved for the highest C it touches.  A resonant index
    whose cofactor vanishes while the rest does not raises ResonanceError.
    """
    terms = []
    for j, p in enumerate(ode.coeffs):
        for s, a in enumerate(p.coeffs):
            if a != 0:
                terms.append((j, s, a))
    d = max(j - s for j, s, _ in terms)
    coeffs: list[Fraction] = []

    def c_at(n: int) -> Fraction:
        return coeffs[n] if 0 <= n < len(coeffs) else Fraction(0)

    # process powers r^m in order; the relation at r^m involves C_{m+d}
    m = -d - 1
    while len(coeffs) <= m_top:
        m += 1
        n_new = m + d
        if n_new < 0:
            continue
        cof = Fraction(0)
        rest = Fraction(0)
        for j, s, a in terms:
            n = m + j - s
            if n < 0:
                continue
            w = a * _falling(n, j)
            if n == n_new:
                cof += w
            else:
                rest += w * c_at(n)
        if n_new == 0:
            # normalization slot: the indicial relation must be satisfiable
            if cof != 0:
                raise ResonanceError("exponent 0 is not an indicial root")
            coeffs.append(Fraction(1))
            continue
        if cof == 0:
            if rest != 0:
                raise ResonanceError(f"resonant index {n_new} is obstructed")
            coeffs.append(Fraction(0))
            continue
        while len(coeffs) < n_new:
            coeffs.append(Fraction(0))
        coeffs.append(-rest / cof)
    return SeriesSolution(tuple(coeffs[:m_top + 1]))


# --------------------------------------------------------------------------
# The Apery chain
# --------------------------------------------------------------------------

APERY_ODE3 = LinearODE.build(
    [-5, 1],                 # (r - 5)
    [1, -112, 7],            # 7 r^2 - 112 r + 1
    [0, 3, -153, 6],         # r (6 r^2 - 153 r + 3)
    [0, 0, 1, -34, 1],       # r^2 (r^2 - 34 r + 1)
)

APERY_ODE2 = LinearODE.build(
    [Fraction(-10, 4), Fraction(1, 4)],   # (1/4)(r - 10)
    [1, -51, 2],                          # 2 r^2 - 51 r + 1
    [0, 1, -34, 1],                       # r (r^2 - 34 r + 1)
)


def apery_coeffs(m_top: int) -> list[Fraction]:
    """C_0..C_M from n^3 C_n = (34n^3-51n^2+27n-5) C_{n-1} - (n-1)^3 C_{n-2},
    normalized by C_0 = 1 (the n = 1 step then forces C_1 = 5)."""
    if m_top < 2:
        raise ValueError("need at least C_0..C_2")
    cs = [Fraction(1)]
    for n in range(1, m_top + 1):
        val = (34 * n ** 3 - 51 * n ** 2 + 27 * n - 5) * cs[n - 1]
        if n >= 2:
            val -= (n - 1) ** 3 * cs[n - 2]
        cs.append(val / n ** 3)
    return cs


def cauchy_square(cs: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * len(cs)
    for i, a in enumerate(cs):
        for j in range(len(cs) - i):
            out[i + j] += a * cs[j]
    return out


def ode_series_residuals(ode: LinearODE, cs: list[Fraction]) -> list[Fraction]:
    """Coefficients of the formal power series sum p_j (sum c_n r^n)^(j);
    exactly zero through the reliable range when cs solves the ODE."""
    terms = []
    for j, p in enumerate(ode.coeffs):
        for s, a in enumerate(p.coeffs):
            if a != 0:
                terms.append((j, s, a))
    top = len(cs) - 1
    d = max(j - s for j, s, _ in terms)
    out = []
    for m in range(0, top - d):
        acc = Fraction(0)
        for j, s, a in terms:
            n = m + j - s
            if 0 <= n <= top:
                acc += a * _falling(n, j) * cs[n]
        out.append(acc)
    return out


def symmetric_square_check(m_top: int = 30) -> dict:
    """The square of the second-order analytic branch solves the
    third-order recursion exactly, and reproduces the integer chain."""
    phi = frobenius_series(APERY_ODE2, m_top)
    psi = cauchy_square(list(phi.coefficients))
    resid = ode_series_residuals(APERY_ODE3, psi)
    cs = apery_coeffs(m_top)
    matches = all(psi[n] == cs[n] * psi[0] for n in range(m_top + 1))
    return {
        "square_residuals_zero": all(r == 0 for r in resid),
        "max_residual_index_checked": len(resid) - 1,
        "matches_integer_chain": matches,
        "phi1": phi.coefficients[1],
    }


def pq_to_normal(ode2: LinearODE) -> RationalFunc:
    """Q with Psi'' = (1/2) Q Psi for a second-order psi'' + p psi' + q psi = 0:

        Q = -2 q + p^2/2 + p',

    exact rational arithmetic (the gauge Psi = psi exp((1/2) int p)).
    """
    if ode2.order != 2:
        raise ValueError("normal form reduction expects a 2nd-order operator")
    lead = ode2.coeffs[2]
    p = RationalFunc(ode2.coeffs[1], lead)
    q = RationalFunc(ode2.coeffs[0], lead)
    return -2 * q + p * p * Fraction(1, 2) + p.derivative()


RS_SUBSTITUTIONS = (
    RationalFunc(Poly([-9, 1]), Poly([0, -1, 1])),   # (s-9)/(s(s-1))
    RationalFunc(Poly([8, 1]), Poly([0, 1, -1])),    # (s+8)/(s(1-s))
)


def apery_normal_form_check(q_named: RationalFunc, q_heun, n_points: int = 20,
                            rng=None) -> dict:
    """(i) pq_to_normal of the second-order operator equals its named
    normal form ``q_named`` exactly; (ii) both quadratic substitutions
    carry the Heun normal form ``q_heun`` onto it (pointwise identity at
    random points).

    The first substitution acts on the Heun equation with its movable
    fourth singularity at 9; the second is the same map in the relabeled
    variable s -> 1-s, so it acts on the equivalent equation with the
    fourth singularity at -8 (Q(s) = Q_heun(1-s)).  Each substitution
    residual q_dst(R(s)) - [R,s] - q_src(s)/R'(s)^2 is relative to
    max(1, |q_dst(R(s))|, |[R,s]|, |q_src(s)/R'(s)^2|), the size of the
    terms it compares.
    """
    import random

    rng = rng or random.Random(0)
    q_derived = pq_to_normal(APERY_ODE2)
    exact_equal = q_named == q_derived
    sources = (q_heun, lambda s: q_heun(1.0 - s))
    worst = [0.0, 0.0]
    for i, (sub, src) in enumerate(zip(RS_SUBSTITUTIONS, sources)):
        d1 = sub.derivative()
        for _ in range(n_points):
            s0 = complex(rng.uniform(2, 8), rng.uniform(0.5, 3))
            lhs = q_derived(sub(s0))
            schwarzian = rational_md(sub, s0)
            moved = src(s0) / d1(s0) ** 2
            worst[i] = max(worst[i], abs(lhs - (schwarzian + moved))
                           / max(1.0, abs(lhs), abs(schwarzian), abs(moved)))
    return {"exact_normal_form": exact_equal,
            "substitution_residuals": tuple(worst)}


# --------------------------------------------------------------------------
# Heun basis in the tau-representation
# --------------------------------------------------------------------------

def heun_s_jet(tau, order: int = 5) -> Jet:
    """s(tau) = 9 vartheta_3(3 tau)^4 / vartheta_3(tau)^4 as a jet."""
    v3_3t = vartheta_jet(3, tau, order, tau_scale=3.0)
    v3 = vartheta_jet(3, tau, order)
    return 9.0 * (v3_3t / v3) ** 4


def heun_psi(tau) -> tuple[complex, complex]:
    """The tau-representation of the Heun basis attached to s(tau):

        Psi1 = (v3(3 tau)^3 / v3(tau)) * v2((tau+1)/2)^4
               / (9 v3(3 tau)^4 - v3(tau)^4),
        Psi2 = tau * Psi1.
    """
    t = as_tau(tau)
    v3_3t = vartheta_jet(3, t, 0, tau_scale=3.0).value
    v3 = vartheta(3, t)
    v2_half = vartheta_jet(2, t, 0, tau_scale=0.5, tau_shift=0.5).value
    den = 9.0 * v3_3t ** 4 - v3 ** 4
    if abs(den) < 1e-12:
        raise ThetaKitError("Heun basis denominator vanishes (cusp)")
    psi1 = (v3_3t ** 3 / v3) * v2_half ** 4 / den
    return psi1, t.value * psi1


# --------------------------------------------------------------------------
# Inversion solvers
# --------------------------------------------------------------------------

def invert_x_to_tau(x: complex, *, cut_margin: float = 1e-6) -> complex:
    """tau = i K(sqrt(x)) / K'(sqrt(x)); principal region excludes the cuts
    (-inf, 0] and [1, inf)."""
    x = complex(x)
    if abs(x.imag) < cut_margin and (x.real <= cut_margin
                                     or x.real >= 1.0 - cut_margin):
        raise ThetaKitError(f"{x} is within {cut_margin} of a branch cut")
    k_val = elliptic_K("K", x)
    kp_val = elliptic_K("Kprime", x)
    tau = 1j * k_val / kp_val
    if tau.imag <= 0:
        raise ThetaKitError(f"inversion left the upper half-plane: {tau}")
    return tau


def invert_s_to_tau(s_target: complex, seed: complex, *,
                    max_iter: int = 50, tol: float = 1e-12,
                    cusp_margin: float = 1e-2) -> complex:
    """Newton inversion of s(tau) with the exact sdot from jets.

    Damped on residual increase; cusp values s in {0, 1, 9} are rejected
    up front (sdot degenerates there)."""
    s_target = complex(s_target)
    for cusp in (0.0, 1.0, 9.0):
        if abs(s_target - cusp) < cusp_margin:
            raise CuspProximityError(
                f"target {s_target} is within {cusp_margin} of cusp value {cusp}")
    tau = complex(seed)
    jet = heun_s_jet(tau, 1)
    resid = jet.value - s_target
    for _ in range(max_iter):
        if abs(resid) < tol:
            return tau
        step = -resid / jet.d(1)
        while True:
            cand = tau + step
            if cand.imag <= 0.05:
                step *= 0.5
                if abs(step) < 1e-16:
                    raise NewtonError("step underflow during s-inversion")
                continue
            cand_jet = heun_s_jet(cand, 1)
            cand_resid = cand_jet.value - s_target
            if abs(cand_resid) <= abs(resid) or abs(step) < 1e-14:
                tau, jet, resid = cand, cand_jet, cand_resid
                break
            step *= 0.5
            if abs(step) < 1e-16:
                raise NewtonError("damping underflow during s-inversion")
    raise NewtonError(f"s-inversion did not converge; last residual {abs(resid)}")


# --------------------------------------------------------------------------
# The Legendre closed chain
# --------------------------------------------------------------------------

def ke_relations_check(tau) -> dict[str, float]:
    """Residuals of the closed Legendre chain at one tau:

    derivative identities for K, K', E, E' in the modulus, the modular
    representations against the AGM values, and the eta identity
    eta = K E + (1/3)(k^2 - 2) K^2.
    """
    t = as_tau(tau)
    order = 1
    v2 = vartheta_jet(2, t, order)
    v3 = vartheta_jet(3, t, order)
    k_jet = (v2 / v3) ** 2
    k = k_jet.value
    m = k * k
    K = elliptic_K("K", m)
    Kp = elliptic_K("Kprime", m)
    E = elliptic_K("E", m)
    Ep = elliptic_K("Eprime", m)
    # tau-side jets of the modular representations
    K_jet = (pi / 2.0) * v3 * v3
    tau_jet = Jet(t.value, [t.value, 1.0])
    Kp_jet = (pi / 2j) * tau_jet * v3 * v3
    kd = k_jet.d(1)
    out = {}
    out["K_modular"] = abs(K_jet.value - K)
    out["Kprime_modular"] = abs(Kp_jet.value - Kp)
    eta_val = eta1(t)
    E_mod = (2.0 / pi) * (eta_val + (pi * pi / 12.0)
                          * (v3.value ** 4 + vartheta(4, t) ** 4)) / v3.value ** 2
    Ep_mod = (2.0 / pi) * 1j * (t.value * eta_val
                                - (pi * pi / 12.0) * (v2.value ** 4 + v3.value ** 4)
                                * t.value - 0.5j * pi) / v3.value ** 2
    out["E_modular"] = abs(E_mod - E)
    out["Eprime_modular"] = abs(Ep_mod - Ep)
    out["dK"] = abs(K_jet.d(1) / kd - (-K / k - E / ((k * k - 1.0) * k)))
    out["dKprime"] = abs(Kp_jet.d(1) / kd
                         - (k * Kp / (1.0 - k * k) + Ep / ((k * k - 1.0) * k)))
    # E(tau), E'(tau) jets through the eta jet
    eta_j = eta1_jet(t, order)
    v4 = vartheta_jet(4, t, order)
    E_jet = (2.0 / pi) * (eta_j + (pi * pi / 12.0) * (v3 ** 4 + v4 ** 4)) / (v3 * v3)
    Ep_jet = (2.0 / pi) * 1j * (tau_jet * eta_j
                                - (pi * pi / 12.0) * (v2 ** 4 + v3 ** 4) * tau_jet
                                - 0.5j * pi) / (v3 * v3)
    out["dE"] = abs(E_jet.d(1) / kd - (-K / k + E / k))
    out["dEprime"] = abs(Ep_jet.d(1) / kd
                         - (k * Kp / (1.0 - k * k) + k * Ep / (k * k - 1.0)))
    out["eta_identity"] = abs(eta_val - (K * E + (k * k - 2.0) * K * K / 3.0))
    out["tau_identity"] = abs(t.value - 1j * Kp / K)
    return out
