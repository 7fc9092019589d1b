"""Exact rational machinery: univariate polynomials, rational functions,
and bivariate polynomials over Q.

Coefficients stay `fractions.Fraction` until the moment of evaluation, so
transcription of the large curve polynomials can be checked by
exact self-consistency; complex floats enter only through `__call__`.
All containers evaluate generically (complex numbers, Fractions, or jets),
so the same object serves exact identity checks and jet composition.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


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

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self * (1 / self.coeffs[-1])

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


def mobius(a, b, c, d) -> RationalFunc:
    """(a x + b)/(c x + d) as an exact RationalFunc."""
    return RationalFunc(Poly([_frac(b), _frac(a)]), Poly([_frac(d), _frac(c)]))


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
