"""Exact rational machinery: univariate polynomials, rational functions,
and bivariate polynomials over Q, plus a complex root finder for float
polynomials.

Coefficients stay `fractions.Fraction` until the moment of evaluation, so
transcription of the large curve polynomials can be checked by
exact self-consistency; complex floats enter only through `__call__`.
All containers evaluate generically (complex numbers, Fractions, or jets),
so the same object serves exact identity checks and jet composition.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Iterable

from .errors import NewtonError


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact coefficient from {x!r}")


class Poly:
    """Dense univariate polynomial with Fraction coefficients (ascending).

    Instances are immutable after ``__init__``: nothing assigns ``coeffs``
    afterwards, which is what the cached float coefficients rely on.
    """

    __slots__ = ("coeffs", "_floats")

    def __init__(self, coeffs: Iterable):
        cs = [_frac(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        self.coeffs = tuple(cs)
        self._floats = None

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"

    def __add__(self, other):
        other = other if isinstance(other, Poly) else Poly([other])
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Poly([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = other if isinstance(other, Poly) else Poly([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly([c * _frac(other) for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a Poly")
        result = Poly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self) -> "Poly":
        if self.degree == 0:
            return Poly([0])
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(1, len(rem) - len(other.coeffs) + 1)
        d = other.coeffs
        while len(rem) >= len(d) and any(c != 0 for c in rem):
            if rem[-1] == 0:
                rem.pop()
                continue
            shift = len(rem) - len(d)
            factor = rem[-1] / d[-1]
            q[shift] = factor
            for i, c in enumerate(d):
                rem[shift + i] -= factor * c
            rem.pop()
        return Poly(q), Poly(rem or [0])

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return Poly([1])
        return a * (1 / a.coeffs[-1])

    def __call__(self, x):
        """Horner evaluation; works for complex, Fraction, Poly, jets, ...

        An exact argument (int, Fraction, Poly, RationalFunc) gets the exact
        coefficients.  Any other argument (float, complex, Jet) gets the
        float coefficients, cached on first use: ``Fraction``'s mixed-type
        arithmetic and ``Jet`` coercion round each coefficient to
        ``float(c)`` anyway, so the result is bit-for-bit the same.  A
        constant returns its exact coefficient.
        """
        cs = self.coeffs
        if len(cs) > 1 and not isinstance(x, _EXACT):
            if self._floats is None:
                self._floats = tuple(float(c) for c in cs)
            cs = self._floats
        acc = cs[-1]
        for c in cs[-2::-1]:
            acc = acc * x + c
        return acc


class RationalFunc:
    """Reduced ratio of two Polys; denominator kept monic.

    Instances are immutable after ``__init__`` (nothing assigns ``num`` or
    ``den`` afterwards), so ``derivative()`` is computed once and kept.
    Evaluation at an inexact argument uses the cached float coefficients of
    ``num`` and ``den`` (see ``Poly.__call__``).
    """

    __slots__ = ("num", "den", "_derivative")

    def __init__(self, num, den=(1,), *, reduce: bool = True):
        n = num if isinstance(num, Poly) else Poly(num)
        d = den if isinstance(den, Poly) else Poly(den)
        if d.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")
        if reduce:
            g = n.gcd(d)
            if g.degree > 0:
                n = n.divmod(g)[0]
                d = d.divmod(g)[0]
        lead = d.coeffs[-1]
        if lead != 1:
            inv = 1 / lead
            n = n * inv
            d = d * inv
        self.num = n
        self.den = d
        self._derivative = None

    def __repr__(self):
        return f"RationalFunc({list(self.num.coeffs)}, {list(self.den.coeffs)})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = _as_rational(other)
        return RationalFunc(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunc(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-_as_rational(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_rational(other)
        return RationalFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rational(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _as_rational(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return RationalFunc(self.den ** (-n), self.num ** (-n))
        return RationalFunc(self.num ** n, self.den ** n)

    def derivative(self) -> "RationalFunc":
        if self._derivative is None:
            self._derivative = RationalFunc(
                self.num.derivative() * self.den
                - self.num * self.den.derivative(), self.den * self.den)
        return self._derivative

    def compose(self, inner: "RationalFunc") -> "RationalFunc":
        """Exact composition self(inner(x)) as a RationalFunc."""
        inner = _as_rational(inner)
        # num(inner)/den(inner), cleared of inner.den powers
        n = max(self.num.degree, self.den.degree)
        num_acc = Poly([0])
        den_acc = Poly([0])
        for k in range(n + 1):
            w = inner.num ** k * inner.den ** (n - k)
            if k <= self.num.degree and self.num.coeffs[k] != 0:
                num_acc = num_acc + self.num.coeffs[k] * w
            if k <= self.den.degree and self.den.coeffs[k] != 0:
                den_acc = den_acc + self.den.coeffs[k] * w
        return RationalFunc(num_acc, den_acc)

    def __call__(self, x):
        return self.num(x) / self.den(x)


# argument types at which Poly.__call__ keeps the exact coefficients
_EXACT = (int, Fraction, Poly, RationalFunc)


def _as_rational(x) -> RationalFunc:
    if isinstance(x, RationalFunc):
        return x
    if isinstance(x, Poly):
        return RationalFunc(x)
    return RationalFunc(Poly([x]))


_EPS = 2.0 ** -52
_ABERTH_TOL = 2.0 ** -20
_ABERTH_SWEEPS = 500


def complex_roots(coeffs) -> list[complex]:
    """Every root, with multiplicity, of sum_k coeffs[k] x^k (ascending
    coefficients, anything ``complex()`` accepts; trailing zeros dropped).

    Aberth-Ehrlich iteration (D. A. Bini, Numer. Algorithms 13, 1996):
    the starting points lie on the circles of the Newton polygon of
    log|coeffs[k]|, one circle per edge, at angles 2 pi (j/m + k/n) + 0.4.
    A root stops moving once its correction falls below 2^-20 of its
    modulus (near a simple root the convergence is cubic, so the error left
    is far smaller) or its residual reaches the rounding level of Horner's
    rule. One Newton step then polishes each root, kept only if it lowers
    |p|. Zero low-order coefficients give exact zero roots. The
    coefficients are not rescaled, so no quotient of them can overflow.

    The roots come back sorted by increasing modulus, then by decreasing
    real part, then by increasing imaginary part. Pure Python and
    deterministic. A multiple root converges only linearly and to about
    eps^(1/m); pass the square-free part where that matters. Raises
    ``ValueError`` for the zero polynomial or a coefficient that is not
    finite, and ``NewtonError`` if the iteration does not settle or leaves
    a root z with |p(z)| above 2^-20 sum_k |coeffs[k]| |z|^k (as an
    overflow in Horner's rule does).
    """
    cs = [complex(c) for c in coeffs]
    if not all(cmath.isfinite(c) for c in cs):
        raise ValueError(f"polynomial coefficients must be finite: {cs}")
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("the zero polynomial has no finite root set")
    zeros = 0
    while cs[zeros] == 0:
        zeros += 1
    desc = cs[zeros:][::-1]
    roots = [0j] * zeros
    if len(desc) == 2:
        roots.append(-desc[1] / desc[0])
    elif len(desc) > 2:
        roots.extend(_aberth(desc))
    return sorted(roots, key=lambda z: (abs(z), -z.real, z.imag))


def _newton_polygon_starts(desc) -> list[complex]:
    """Bini's starting points for the polynomial with descending
    coefficients ``desc`` (nonzero constant term): for each edge k1 -> k2
    of the upper convex hull of (k, log|a_k|), m = k2 - k1 points on the
    circle of radius (|a_k1|/|a_k2|)^(1/m)."""
    n = len(desc) - 1
    hull = []
    for k in range(n + 1):
        a = abs(desc[n - k])
        if a == 0:
            continue
        y = math.log(a)
        while len(hull) >= 2:
            (k0, y0), (k1, y1) = hull[-2], hull[-1]
            if (k1 - k0) * (y - y0) < (y1 - y0) * (k - k0):
                break
            hull.pop()
        hull.append((k, y))
    z = []
    for (k1, y1), (k2, y2) in zip(hull, hull[1:]):
        m = k2 - k1
        radius = math.exp((y1 - y2) / m)
        z.extend(cmath.rect(radius, 2.0 * math.pi * (j / m + k1 / n) + 0.4)
                 for j in range(m))
    return z


def _horner(desc, z):
    """p(z), p'(z) and sum |a_k| |z|^k for the descending coefficients
    ``desc``."""
    p = desc[0]
    d = 0j
    scale = abs(p)
    az = abs(z)
    for c in desc[1:]:
        d = d * z + p
        p = p * z + c
        scale = scale * az + abs(c)
    return p, d, scale


def _aberth(desc) -> list[complex]:
    """The n >= 2 roots of the polynomial with descending coefficients
    ``desc`` (nonzero constant term), unsorted."""
    n = len(desc) - 1
    z = _newton_polygon_starts(desc)
    lead = abs(desc[0])
    tail = [(c, abs(c)) for c in desc[1:]]
    moving = list(range(n))
    for _ in range(_ABERTH_SWEEPS):
        still = []
        for i in moving:
            zi = z[i]
            # _horner inlined, with the |a_k| taken once: the hot loop
            az = abs(zi)
            p = desc[0]
            d = 0j
            scale = lead
            for c, ac in tail:
                d = d * zi + p
                p = p * zi + c
                scale = scale * az + ac
            if abs(p) <= 4.0 * _EPS * scale:
                continue
            sigma = 0j
            for j, zj in enumerate(z):
                if j != i:
                    sigma += 1.0 / (zi - zj)
            t = d / p - sigma
            if t == 0:
                still.append(i)
                continue
            w = 1.0 / t
            zi -= w
            z[i] = zi
            if abs(w) > _ABERTH_TOL * abs(zi):
                still.append(i)
        moving = still
        if not moving:
            break
    else:
        raise NewtonError(f"Aberth iteration did not settle for degree {n}")
    for i in range(n):
        p, d, scale = _horner(desc, z[i])
        if p != 0 and d != 0:
            step = z[i] - p / d
            q, _, qscale = _horner(desc, step)
            if abs(q) < abs(p):
                z[i], p, scale = step, q, qscale
        if not (math.isfinite(scale) and abs(p) <= _ABERTH_TOL * scale):
            raise NewtonError(f"Aberth iteration left a root with residual "
                              f"{abs(p):.3g} of {scale:.3g} (degree {n})")
    return z


class BivarPoly:
    """Sparse bivariate polynomial sum c_{ij} x^i y^j with exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        cleaned = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for (i, j), c in items:
            c = _frac(c)
            if c != 0:
                cleaned[(int(i), int(j))] = cleaned.get((int(i), int(j)), Fraction(0)) + c
        self.terms = {k: v for k, v in cleaned.items() if v != 0}

    def __repr__(self):
        return f"BivarPoly({sorted(self.terms.items())})"

    def __eq__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self.terms == other.terms

    def partial(self, nx: int, ny: int) -> "BivarPoly":
        out = {}
        for (i, j), c in self.terms.items():
            if i < nx or j < ny:
                continue
            f = Fraction(1)
            for t in range(nx):
                f *= i - t
            for t in range(ny):
                f *= j - t
            out[(i - nx, j - ny)] = c * f
        return BivarPoly(out)

    def __call__(self, x, y):
        """Evaluate with coefficient promotion at call time."""
        by_i: dict[int, dict[int, Fraction]] = {}
        for (i, j), c in self.terms.items():
            by_i.setdefault(i, {})[j] = c
        total = 0
        for i in sorted(by_i, reverse=True):
            row = by_i[i]
            acc = 0
            for j in sorted(row, reverse=True):
                # Horner in y with explicit powers would lose sparsity; the
                # degrees here are small enough for direct powering.
                acc = acc + row[j] * _pow(y, j)
            total = total + acc * _pow(x, i)
        return total

    def max_term_magnitude(self, x, y) -> float:
        m = 0.0
        for (i, j), c in self.terms.items():
            m = max(m, abs(complex(c) * _pow(x, i) * _pow(y, j)))
        return m


def _pow(v, n: int):
    if n == 0:
        return 1
    out = v
    for _ in range(n - 1):
        out = out * v
    return out
