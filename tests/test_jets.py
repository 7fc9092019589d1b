"""Jet arithmetic, termwise jets against finite differences, the two
closed differential rings against the termwise oracle, and the
meromorphic-derivative machinery."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from thetakit import (CriticalPointError, GeneratorState, Jet, MovingState,
                      ThetaSpec, md_transport_residual, generator_ring_rhs,
                      meromorphic_derivative, moving_ring_rhs)
from thetakit.jets import (eta1_jet, jacobi_theta_jet, jet_newton_inverse,
                           companion_indices, rational_md, theta_jet,
                           thetaprime_jet, vartheta_jet)
from thetakit.painleve import hauptmodul_x
from thetakit.rational import Poly, RationalFunc
from thetakit.thetafuncs import theta

from oracles import mobius, richardson_diff, variable_jet

PI = math.pi

finite = st.complex_numbers(min_magnitude=0.1, max_magnitude=4.0,
                            allow_nan=False, allow_infinity=False)


@given(a=finite, b=finite, c=finite)
@settings(max_examples=60, deadline=None)
def test_jet_ring_laws(a, b, c):
    f = Jet(0.0, [a, b, c, a - b])
    g = Jet(0.0, [c, a, -b, b + c])
    assert ((f + g) - g).coeffs == pytest.approx(f.coeffs)
    prod = f * g
    for n in range(4):
        direct = sum(f.coeffs[i] * g.coeffs[n - i] for i in range(n + 1))
        assert prod.coeffs[n] == pytest.approx(direct)
    inv = f.inverse()
    one = f * inv
    assert abs(one.coeffs[0] - 1.0) < 1e-9 * max(1.0, abs(a))
    for cc in one.coeffs[1:]:
        assert abs(cc) < 1e-7 * max(1.0, f.max_abs() * inv.max_abs())


@given(a=finite, b=finite)
@settings(max_examples=40, deadline=None)
def test_jet_sqrt_squares_back(a, b):
    f = Jet(0.0, [a, b, a * b, -b])
    r = f.sqrt()
    back = r * r
    for x, y in zip(back.coeffs, f.coeffs):
        assert abs(x - y) < 1e-8 * max(1.0, f.max_abs())


def test_jet_basics_and_errors():
    j = Jet(1j, [2.0, 3.0, 4.0])
    assert j.order == 2
    assert j.d(2) == 8.0
    assert j.derivative().coeffs == (3.0, 8.0)
    with pytest.raises(ZeroDivisionError):
        Jet(0.0, [0.0, 1.0]).inverse()
    with pytest.raises(ValueError):
        j.d(3)
    with pytest.raises(ValueError):
        Jet(0.0, [1.0]) + Jet(1.0, [1.0])


def test_theta_jet_against_finite_differences():
    tau0 = 1.2j
    spec = ThetaSpec(0, 0)
    jet = theta_jet(spec, tau0, 3)
    fd = richardson_diff(lambda t: theta(spec, 0.0, t), tau0, 1e-4)
    assert abs(jet.d(1) - fd) < 1e-9
    moving = ThetaSpec(1, 0, 0.0, 1.0 / 6.0)
    jet_m = theta_jet(moving, tau0, 3)
    fd_m = richardson_diff(
        lambda t: theta(ThetaSpec(1, 0), t * 0.0 + 1.0 / 6.0, t), tau0, 1e-4)
    assert abs(jet_m.d(1) - fd_m) < 1e-9
    fd2 = richardson_diff(
        lambda t: theta(ThetaSpec(1, 0), 1.0 / 6.0, t), tau0, 1e-3, order=2)
    assert abs(jet_m.d(2) - fd2) < 1e-5
    with pytest.raises(ValueError):
        theta_jet(spec, tau0, 9)


def test_theta_jet_zero_series():
    jet = theta_jet(ThetaSpec(1, 1), 1.1j, 5)
    assert jet.max_abs() < 1e-15


def test_generator_ring_against_termwise_oracle():
    for tau0 in (1j, 1.2j, 0.3 + 1.1j):
        state = GeneratorState.at(tau0)
        got = generator_ring_rhs(state)
        want = [vartheta_jet(k, tau0, 1).d(1) for k in (2, 3, 4)]
        want.append(eta1_jet(tau0, 1).d(1))
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-9 * max(1.0, abs(w))


def test_generator_ring_swap_structure():
    # the displayed v3 and v4 derivatives differ exactly by the bracket
    # swap (v2^4 - v4^4) <-> -(v2^4 + v3^4); exercised structurally by
    # rebuilding both brackets from the state
    tau0 = 0.2 + 1.05j
    s = GeneratorState.at(tau0)
    _, dv3, dv4, _ = generator_ring_rhs(s)
    c = 1j / PI
    q = PI * PI / 12.0
    assert abs(dv3 - c * (s.eta + q * (s.v2 ** 4 - s.v4 ** 4)) * s.v3) < 1e-14
    assert abs(dv4 - c * (s.eta - q * (s.v2 ** 4 + s.v3 ** 4)) * s.v4) < 1e-14


def test_munu_cycle():
    assert [companion_indices(k) for k in (2, 3, 4)] == [(3, 4), (4, 2), (2, 3)]


@pytest.mark.parametrize("a,b,tau0,tol", [
    (0.0, 1.0 / 6.0, 1.2j, 1e-9),
    (1.0 / 6.0, 0.0, 1.5j, 1e-8),
    (1.0 / 10.0, 1.0 / 14.0, 0.2 + 1.1j, 1e-9),
])
def test_moving_ring_against_termwise_oracle(a, b, tau0, tol):
    state = GeneratorState.at(tau0)
    moving = MovingState.at(a, b, tau0)
    got = moving_ring_rhs(moving, state)
    want = [jacobi_theta_jet(k, a, b, tau0, 1).d(1) for k in (1, 2, 3, 4)]
    want.append(thetaprime_jet(a, b, tau0, 1).d(1))
    for g, w in zip(got, want):
        assert abs(g - w) < tol * max(1.0, abs(w))


def test_moving_ring_random_configurations():
    rng = random.Random(2)
    for _ in range(30):
        tau0 = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
        n = rng.randrange(2, 9)
        nu, mu = rng.randrange(0, n + 1), rng.randrange(1, n + 1)
        state = GeneratorState.at(tau0)
        moving = MovingState.at(nu / (2.0 * n), mu / (2.0 * n), tau0)
        got = moving_ring_rhs(moving, state)
        want = [jacobi_theta_jet(k, moving.A, moving.B, tau0, 1).d(1)
                for k in (1, 2, 3, 4)]
        want.append(thetaprime_jet(moving.A, moving.B, tau0, 1).d(1))
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-8 * max(1.0, abs(w))


def test_meromorphic_derivative_values():
    tau0 = 1.1j
    x = hauptmodul_x(tau0, 5)
    md = meromorphic_derivative(x)
    xv = x.value
    assert abs(md + 0.5 * (xv * xv - xv + 1.0)
               / (xv * xv * (xv - 1.0) ** 2)) < 1e-10
    assert meromorphic_derivative(variable_jet(tau0, 5)) == 0.0
    # exponential map through the displayed logarithm identity
    tau0 = 1.3j
    import cmath

    coef = [cmath.exp(1j * PI * tau0) * (1j * PI) ** j / math.factorial(j)
            for j in range(6)]
    e_jet = Jet(tau0, coef)
    ln_jet = Jet(tau0, [1j * PI * tau0, 1j * PI, 0, 0, 0, 0])
    lhs = meromorphic_derivative(e_jet)
    rhs = (meromorphic_derivative(ln_jet) - 0.5) / e_jet.value ** 2
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)
    with pytest.raises(CriticalPointError):
        meromorphic_derivative(Jet(0.0, [1.0, 0.0, 1.0, 1.0]))


def test_schwarzian_of_map():
    assert abs(rational_md(mobius(5, 2, 3, 1), 0.37 + 0.21j)) < 1e-12
    with pytest.raises(CriticalPointError):
        rational_md(RationalFunc(Poly([0, 0, 1])), 0.0)  # x^2 at 0


def test_md_transport_square_map_against_jet_oracle():
    # u = sqrt(x): the square map carries the u-equation onto the
    # x-equation; checked against the jet of u = v4^2/v3^2
    from thetakit.jets import meromorphic_derivative as md
    from thetakit.painleve import sqrt_x_jet

    tau0 = 1.1j
    u = sqrt_x_jet(tau0, 5)
    square = RationalFunc(Poly([0, 0, 1]))
    x_md = md(hauptmodul_x(tau0, 5))
    resid = md_transport_residual(lambda xv: x_md, lambda uv: md(u), square, u.value)
    assert abs(resid) < 1e-10


def test_md_transport_identity_map():
    q = RationalFunc(Poly([1, 2]), Poly([3, 0, 1]))
    ident = RationalFunc(Poly([0, 1]))
    assert abs(md_transport_residual(lambda x: q(x), lambda x: q(x), ident,
                               0.7 + 0.3j)) < 1e-15


def test_jet_newton_inverse_roundtrip():
    r = RationalFunc(Poly([1, 2, 0, 1]), Poly([2, 1]))
    x = Jet(0.0, [0.4 + 0.2j, 1.0, 0.3, -0.1, 0.05])
    target = r(x)
    back = jet_newton_inverse(lambda w: r(w), lambda w: r.derivative()(w),
                              target, x.value + 0.05)
    for a, b in zip(back.coeffs, x.coeffs):
        assert abs(a - b) < 1e-9
