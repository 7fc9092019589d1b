"""Truncated Taylor expansions in tau ("jets") and the closed differential
rings built on them.

A Jet stores Taylor coefficients c_0..c_m of an analytic function at a base
point tau_0, so f(tau_0 + h) = sum c_j h^j + O(h^{m+1}).  Jets of every
theta generator come from exact termwise series differentiation (each
series term is an exponential with a known tau-slope), never from finite
differences.  The closed differential rings -- the vartheta/eta ring and
the moving-argument theta ring -- are implemented as independent evaluators
so the two routes can be checked against each other.
"""

from __future__ import annotations

import math
from cmath import pi, sqrt as csqrt
from dataclasses import dataclass

from ._series import dedekind_sums, theta_sums
from .control import ABS_FLOOR, MAX_TERMS, NEGLIGIBLE_RUN, as_tau
from .errors import CriticalPointError
from .rational import RationalFunc
from .thetafuncs import JACOBI_CHARS, ThetaSpec

_IPI = 1j * pi


class Jet:
    """Taylor coefficients of a complex-analytic function of tau."""

    __slots__ = ("base", "coeffs")

    def __init__(self, base: complex, coeffs):
        self.base = complex(base)
        self.coeffs = tuple(complex(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a jet needs at least its value coefficient")

    # -- basic accessors -------------------------------------------------
    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self) -> complex:
        return self.coeffs[0]

    def d(self, n: int) -> complex:
        """n-th derivative value: n! * c_n."""
        if n > self.order:
            raise ValueError(f"jet of order {self.order} has no derivative {n}")
        return math.factorial(n) * self.coeffs[n]

    def derivative(self) -> "Jet":
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        return Jet(self.base, [(j + 1) * c for j, c in enumerate(self.coeffs[1:])])

    def truncate(self, order: int) -> "Jet":
        return Jet(self.base, self.coeffs[:order + 1])

    def __repr__(self):
        return f"Jet(base={self.base}, coeffs={list(self.coeffs)})"

    # -- ring operations (truncate to the shorter operand) ---------------
    def _coerce(self, other) -> "Jet | None":
        if isinstance(other, Jet):
            if other.base != self.base:
                raise ValueError("jet bases differ")
            return other
        try:
            c = complex(other)
        except (TypeError, ValueError):
            return None
        return Jet(self.base, [c] + [0j] * self.order)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        return Jet(self.base, [self.coeffs[j] + o.coeffs[j] for j in range(n + 1)])

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.base, [-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        out = [0j] * (n + 1)
        for i in range(n + 1):
            a = self.coeffs[i]
            if a == 0:
                continue
            for j in range(n + 1 - i):
                out[i + j] += a * o.coeffs[j]
        return Jet(self.base, out)

    __rmul__ = __mul__

    def inverse(self) -> "Jet":
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("jet with zero value is not invertible")
        n = self.order
        inv = [0j] * (n + 1)
        inv[0] = 1.0 / c0
        for j in range(1, n + 1):
            acc = 0j
            for i in range(1, j + 1):
                acc += self.coeffs[i] * inv[j - i]
            inv[j] = -acc / c0
        return Jet(self.base, inv)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("jets support integer powers only")
        if n < 0:
            return self.inverse() ** (-n)
        result = Jet(self.base, [1.0] + [0j] * self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def sqrt(self) -> "Jet":
        """Principal square root (branch from the value coefficient)."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("sqrt of a jet vanishing at its base")
        n = self.order
        s = [0j] * (n + 1)
        s[0] = csqrt(c0)
        for j in range(1, n + 1):
            acc = self.coeffs[j]
            for i in range(1, j):
                acc -= s[i] * s[j - i]
            s[j] = acc / (2.0 * s[0])
        return Jet(self.base, s)

    def compose_scalar(self, derivs) -> "Jet":
        """Compose an analytic map g (given by g(c0), g'(c0), ...) with self.

        ``derivs[k]`` must be the k-th derivative of g at self.value; the
        result is the jet of g(f(tau)).
        """
        n = min(self.order, len(derivs) - 1)
        delta = Jet(self.base, (0j,) + self.coeffs[1:n + 1])
        acc = Jet(self.base, [complex(derivs[0])] + [0j] * n)
        power = Jet(self.base, [1.0] + [0j] * n)
        fact = 1.0
        for k in range(1, n + 1):
            power = power * delta
            fact *= k
            acc = acc + (complex(derivs[k]) / fact) * power
        return acc

    def max_abs(self) -> float:
        return max(abs(c) for c in self.coeffs)


def variable_jet(base: complex, order: int) -> Jet:
    """The identity function tau as a jet at ``base``."""
    return Jet(base, [complex(base), 1.0] + [0j] * (order - 1))


def constant_jet(base: complex, value: complex, order: int) -> Jet:
    return Jet(base, [complex(value)] + [0j] * order)


# --------------------------------------------------------------------------
# Jets of the theta generators by termwise differentiation
# --------------------------------------------------------------------------

def theta_jet(spec: ThetaSpec, tau0, order: int, *, nz: int = 0,
              tau_scale: float = 1.0, tau_shift: complex = 0.0) -> Jet:
    """Jet of the nz-th z-derivative of theta[a,b](A*tau+B | tau_scale*tau + tau_shift).

    Each series term has tau-exponent slope i*pi*tau_scale*(k+a/2)^2
    + 2*i*pi*A*(k+a/2), so the j-th derivative sum multiplies terms by the
    slope's j-th power: exact per term.
    """
    if order > 8:
        raise ValueError("theta jets limited to order 8")
    t = as_tau(tau0)
    a0, b0, sign = spec.reduced()
    sums = theta_sums(a0, b0, spec.A, spec.B, tau_scale, tau_shift, t.value,
                      nz, order, ABS_FLOOR, NEGLIGIBLE_RUN, MAX_TERMS)
    fact = 1.0
    coeffs = []
    for j, s in enumerate(sums):
        if j > 0:
            fact *= j
        coeffs.append(sign * s / fact)
    return Jet(t.value, coeffs)


def jacobi_theta_jet(k: int, A, B, tau0, order: int, *,
                     tau_scale: float = 1.0, tau_shift: complex = 0.0) -> Jet:
    a, b, sign = JACOBI_CHARS[k]
    jet = theta_jet(ThetaSpec(a, b, complex(A), complex(B)), tau0, order,
                    tau_scale=tau_scale, tau_shift=tau_shift)
    return jet if sign == 1 else -jet


def vartheta_jet(k: int, tau0, order: int, *, tau_scale: float = 1.0,
                 tau_shift: complex = 0.0) -> Jet:
    return jacobi_theta_jet(k, 0.0, 0.0, tau0, order,
                            tau_scale=tau_scale, tau_shift=tau_shift)


def thetaprime_jet(A, B, tau0, order: int) -> Jet:
    """Jet of dtheta(A*tau+B | tau)."""
    return -theta_jet(ThetaSpec(1, 1, complex(A), complex(B)), tau0, order, nz=1)


def dedekind_jet(tau0, order: int) -> Jet:
    t = as_tau(tau0)
    sums = dedekind_sums(t.value, order, ABS_FLOOR, NEGLIGIBLE_RUN, MAX_TERMS)
    fact = 1.0
    coeffs = []
    for j, s in enumerate(sums):
        if j > 0:
            fact *= j
        coeffs.append(s / fact)
    return Jet(t.value, coeffs)


def eta1_jet(tau0, order: int) -> Jet:
    """Jet of eta(tau) = (pi/i) d/dtau log(Dedekind)."""
    ded = dedekind_jet(tau0, order + 1)
    return -_IPI * (ded.derivative() / ded.truncate(order))


# --------------------------------------------------------------------------
# The closed differential rings (independent evaluators, test targets)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorState:
    """Values of the ring generators vartheta_2,3,4 and eta at one tau."""

    v2: complex
    v3: complex
    v4: complex
    eta: complex

    @classmethod
    def at(cls, tau) -> "GeneratorState":
        return cls(v2=vartheta_jet(2, tau, 0).value,
                   v3=vartheta_jet(3, tau, 0).value,
                   v4=vartheta_jet(4, tau, 0).value,
                   eta=eta1_jet(tau, 0).value)


@dataclass(frozen=True)
class MovingState:
    """Values of theta_k(A*tau+B|tau) and dtheta(A*tau+B|tau) at one tau."""

    t1: complex
    t2: complex
    t3: complex
    t4: complex
    tp: complex
    A: complex
    B: complex

    @classmethod
    def at(cls, A, B, tau) -> "MovingState":
        return cls(t1=jacobi_theta_jet(1, A, B, tau, 0).value,
                   t2=jacobi_theta_jet(2, A, B, tau, 0).value,
                   t3=jacobi_theta_jet(3, A, B, tau, 0).value,
                   t4=jacobi_theta_jet(4, A, B, tau, 0).value,
                   tp=thetaprime_jet(A, B, tau, 0).value,
                   A=complex(A), B=complex(B))


def generator_ring_rhs(state: GeneratorState) -> tuple[complex, complex, complex, complex]:
    """Right-hand sides of the closed vartheta/eta ring:

        v2' = (i/pi){eta + (pi^2/12)(v3^4 + v4^4)} v2,
        v3' = (i/pi){eta + (pi^2/12)(v2^4 - v4^4)} v3,
        v4' = (i/pi){eta - (pi^2/12)(v2^4 + v3^4)} v4,
        eta' = (i/pi){2 eta^2 - (pi^4/144)(v2^8 + v3^8 + v4^8)}.
    """
    v2, v3, v4, eta = state.v2, state.v3, state.v4, state.eta
    c = 1j / pi
    q = pi * pi / 12.0
    dv2 = c * (eta + q * (v3 ** 4 + v4 ** 4)) * v2
    dv3 = c * (eta + q * (v2 ** 4 - v4 ** 4)) * v3
    dv4 = c * (eta - q * (v2 ** 4 + v3 ** 4)) * v4
    deta = c * (2.0 * eta * eta - (pi ** 4 / 144.0) * (v2 ** 8 + v3 ** 8 + v4 ** 8))
    return dv2, dv3, dv4, deta


def companion_indices(k: int) -> tuple[int, int]:
    """Companion indices (nu, mu) = ((8k-28)/(3k-10), (10k-28)/(3k-8)):
    cyclic permutations of (2,3,4)."""
    nu = (8 * k - 28) // (3 * k - 10)
    mu = (10 * k - 28) // (3 * k - 8)
    return nu, mu


def moving_ring_rhs(moving: MovingState, gen: GeneratorState
                 ) -> tuple[complex, complex, complex, complex, complex]:
    """Right-hand sides of the moving theta-constant ring.

    Returns tau-derivatives of (theta_1..theta_4, dtheta), all at the
    moving argument A*tau+B.  For k = 1 the vartheta_k-proportional
    terms vanish identically (vartheta_1 = 0).
    """
    if abs(moving.t1) < 1e-300:
        raise CriticalPointError("theta_1 vanishes at the moving argument")
    th = {1: moving.t1, 2: moving.t2, 3: moving.t3, 4: moving.t4}
    vt = {1: 0j, 2: gen.v2, 3: gen.v3, 4: gen.v4}
    tp, A = moving.tp, moving.A
    t1sq = moving.t1 ** 2
    eta_blk = gen.eta + (pi * pi / 12.0) * (gen.v3 ** 4 + gen.v4 ** 4)
    derivs = []
    for k in (1, 2, 3, 4):
        term1 = (-1j / (4.0 * pi)) * (tp + 4j * pi * A * moving.t1) * tp * th[k] / t1sq
        if k == 1:
            term2 = 0j
            brace = gen.v3 ** 2 * gen.v4 ** 2 * moving.t2 ** 2
        else:
            nu, mu = companion_indices(k)
            term2 = (0.5j * vt[k] ** 2 * (tp + 2j * pi * A * moving.t1)
                     * th[nu] * th[mu] / t1sq)
            brace = (gen.v3 ** 2 * gen.v4 ** 2 * moving.t2 ** 2
                     - vt[k] ** 2 * vt[mu] ** 2 * th[nu] ** 2
                     - vt[k] ** 2 * vt[nu] ** 2 * th[mu] ** 2)
        term3 = (_IPI / 4.0) * brace * th[k] / t1sq
        term4 = (1j / pi) * eta_blk * th[k]
        derivs.append(term1 + term2 + term3 + term4)
    dtp = ((1j / pi) * (3.0 * tp + 4j * pi * A * moving.t1)
           * ((pi * pi / 4.0) * gen.v3 ** 2 * gen.v4 ** 2 * moving.t2 ** 2 / t1sq
              + eta_blk)
           - (1j / (4.0 * pi)) * (tp + 4j * pi * A * moving.t1) * tp * tp / t1sq
           + (pi * pi / 2j) * gen.v2 ** 2 * gen.v3 ** 2 * gen.v4 ** 2
           * moving.t2 * moving.t3 * moving.t4 / t1sq)
    derivs.append(dtp)
    return tuple(derivs)


# --------------------------------------------------------------------------
# Meromorphic derivative and the transformation lemma
# --------------------------------------------------------------------------

def meromorphic_derivative(x: Jet) -> complex:
    """[x,tau] = x'''/x'^3 - (3/2) x''^2/x'^4 read off the jet."""
    if x.order < 3:
        raise ValueError("meromorphic derivative needs a jet of order >= 3")
    scale = max(abs(c) for c in x.coeffs) or 1.0
    xd = x.d(1)
    if abs(xd) < 1e-10 * scale:
        raise CriticalPointError("jet has (numerically) critical first derivative")
    xdd = x.d(2)
    xddd = x.d(3)
    return xddd / xd ** 3 - 1.5 * xdd * xdd / xd ** 4


def rational_md(R: RationalFunc, x0: complex) -> complex:
    """[R(x), x] at x0 from exact rational derivatives of R."""
    r1 = R.derivative()
    r2 = r1.derivative()
    r3 = r2.derivative()
    d1 = r1(x0)
    if abs(d1) < 1e-12 * max(1.0, abs(R(x0))):
        raise CriticalPointError(f"critical point of the map at {x0}")
    d2 = r2(x0)
    d3 = r3(x0)
    return d3 / d1 ** 3 - 1.5 * d2 * d2 / d1 ** 4


def md_transport(q_src, R: RationalFunc):
    """Composite right-hand side of the change-of-variable rule.

    For z = R(x) with [x,tau] = q_src(x), returns a callable giving
    [z,tau] at a point x:  [R(x),x] + q_src(x)/R'(x)^2.
    """
    r1 = R.derivative()

    def rhs(x0: complex) -> complex:
        q = q_src(x0) if callable(q_src) else q_src
        return rational_md(R, x0) + q / r1(x0) ** 2

    return rhs


def md_transport_residual(q_dst, q_src, R: RationalFunc, x0: complex) -> complex:
    """q_dst(R(x0)) - ([R,x] + q_src(x0)/R'(x0)^2)."""
    rhs = md_transport(q_src, R)(x0)
    return q_dst(R(x0)) - rhs


def jet_newton_inverse(func, dfunc, target: Jet, seed: complex,
                       max_iter: int = 80, tol: float = 5e-13) -> Jet:
    """Solve func(w_jet) = target_jet for the jet of w(tau).

    ``func`` and ``dfunc`` map a Jet to a Jet (e.g. a RationalFunc and its
    derivative applied coefficientwise).  Plain Newton in the truncated
    power-series ring; the seed fixes the branch of the inverse.
    """
    n = target.order
    w = constant_jet(target.base, seed, n)
    scale = max(1.0, target.max_abs())
    for _ in range(max_iter):
        resid = func(w) - target
        if resid.max_abs() < tol * scale:
            return w
        w = w - resid / dfunc(w)
    raise CriticalPointError("jet Newton failed to converge")
