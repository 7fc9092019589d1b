"""Exact rational machinery and the catalog file contract."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from thetakit.errors import CatalogError
from thetakit.jets import Jet
from thetakit.rational import BivarPoly, Poly, RationalFunc, mobius


def test_poly_arithmetic_exact():
    p = Poly([1, -34, 1])
    q = Poly([0, 1])
    assert (p * q).coeffs == (Fraction(0), Fraction(1), Fraction(-34),
                              Fraction(1))
    assert p.derivative().coeffs == (Fraction(-34), Fraction(2))
    quo, rem = (p * q + Poly([7])).divmod(p)
    assert quo == q and rem == Poly([7])
    assert (p * q).gcd(p) == p.monic()
    assert p(Fraction(2)) == Fraction(-63)
    assert (p ** 2).degree == 4


def test_rational_reduction_and_ops():
    r = RationalFunc(Poly([0, 1, 1]), Poly([0, 1]))  # (x^2+x)/x -> x+1
    assert r.num == Poly([1, 1]) and r.den == Poly([1])
    s = RationalFunc(Poly([1]), Poly([1, 1]))
    total = r + s
    x = Fraction(3, 2)
    assert total(x) == (x + 1) + 1 / (x + 1)
    d = s.derivative()
    assert d(x) == -1 / (x + 1) ** 2
    comp = s.compose(RationalFunc(Poly([0, 0, 1])))  # 1/(x^2+1)
    assert comp(x) == 1 / (x * x + 1)
    assert mobius(1, 2, 3, 4)(Fraction(1)) == Fraction(3, 7)
    with pytest.raises(ZeroDivisionError):
        RationalFunc(Poly([1]), Poly([0]))


def _fraction_horner(coeffs, x):
    """Horner over the exact coefficients: the reference that the float
    coefficients of ``Poly.__call__`` must reproduce bit for bit."""
    acc = None
    for c in reversed(coeffs):
        acc = c if acc is None else acc * x + c
    return acc


_reals = st.floats(-4.0, 4.0)
_zeros = st.sampled_from([0.0, -0.0])
_complexes = st.builds(complex, _reals, _reals)
_inexact_points = st.one_of(
    _reals,
    _complexes,
    st.builds(complex, _zeros | _reals, _zeros),
    st.builds(complex, _zeros, _reals),
    st.builds(Jet, _complexes, st.lists(_complexes, min_size=1, max_size=4)),
)


@given(cs=st.lists(st.fractions(-50, 50, max_denominator=60), min_size=1,
                   max_size=8),
       x=_inexact_points)
@settings(max_examples=50, deadline=None)
def test_poly_inexact_evaluation_matches_fraction_horner(cs, x):
    p = Poly(cs)
    want = repr(_fraction_horner(p.coeffs, x))
    assert repr(p(x)) == want
    assert repr(p(x)) == want   # again, from the cached float coefficients


def test_poly_exact_arguments_stay_exact():
    p = Poly([Fraction(1, 3), -2, Fraction(5, 7)])
    p(0.5 + 0.25j)   # fills the float cache first
    x = Fraction(3, 2)
    assert p(x) == Fraction(1, 3) - 2 * x + Fraction(5, 7) * x * x
    assert isinstance(p(x), Fraction)
    assert isinstance(p(2), Fraction)
    assert p(2) == Fraction(1, 3) - 4 + Fraction(20, 7)
    assert p(Poly([0, 1])) == p
    assert p(Poly([1, 1])) == Poly([Fraction(1, 3) - 2 + Fraction(5, 7),
                                    -2 + Fraction(10, 7), Fraction(5, 7)])
    r = RationalFunc(Poly([0, 1]), Poly([1, 1]))
    assert p(r) == Fraction(1, 3) - 2 * r + Fraction(5, 7) * r * r


def test_rational_derivative_computed_once():
    q = RationalFunc(Poly([1, -2, 0, Fraction(3, 4)]),
                     Poly([Fraction(1, 2), 0, 1]))
    d = q.derivative()
    assert q.derivative() is d
    n, den = q.num, q.den
    assert d == RationalFunc(n.derivative() * den - n * den.derivative(),
                             den * den)
    assert d.derivative() is d.derivative()


def test_bivar_partials_and_eval():
    f = BivarPoly({(2, 1): Fraction(3), (0, 4): 1, (1, 0): -2})
    assert f(Fraction(1), Fraction(2)) == 3 * 2 + 16 - 2
    fx = f.partial(1, 0)
    assert fx(Fraction(1), Fraction(2)) == 6 * 2 - 2
    fxy = f.partial(1, 1)
    assert fxy(Fraction(5), Fraction(7)) == 6 * 5
    assert f.partial(0, 3)(Fraction(0), Fraction(1)) == 24
    assert f.max_term_magnitude(1.0, 2.0) == 16.0


def test_catalog_checksum_contract(tmp_path):
    from thetakit.catalog import default_catalog_path, load_catalog

    good = default_catalog_path().read_text()
    entries = load_catalog()
    assert "k2" in entries and entries["k2"].Q is not None

    # checksum section missing
    stripped = good.split("[checksum]")[0]
    p1 = tmp_path / "no_checksum.txt"
    p1.write_text(stripped)
    with pytest.raises(CatalogError):
        load_catalog(p1)

    # tampered coefficient
    p2 = tmp_path / "tampered.txt"
    p2.write_text(good.replace("qnum: -1/2 1/2 -1/2", "qnum: -1/2 1/2 -1/3"))
    with pytest.raises(CatalogError):
        load_catalog(p2)

    # intact copy loads
    p3 = tmp_path / "copy.txt"
    p3.write_text(good)
    assert sorted(load_catalog(p3)) == sorted(entries)

