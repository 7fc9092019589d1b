"""Theta kernel: series values, derivative series, Dedekind forms,
Weierstrass translations, elliptic constants, and complete integrals."""

import cmath
import math

import pytest

from thetakit import (NonConvergenceError, PoleProximityError, TauPoint,
                      ThetaSpec, dedekind_eta, elliptic_K,
                      elliptic_K_modular, elliptic_constants, eta1,
                      jacobi_theta, theta, theta1_prime, theta_dz, vartheta,
                      weierstrass)
from thetakit.control import as_tau
from thetakit.jets import theta_jet
from thetakit.thetafuncs import dedekind_product, reduce_characteristics

from oracles import (jacobi_theta_direct, k_agm, richardson_diff,
                     theta_direct, vartheta3_agm_at_i)

PI = math.pi

# frozen from the direct 30-term sum and the AGM route (they agree to
# 2e-16; both are independent of the package kernel)
VARTHETA3_AT_I = 1.0864348112133080
# frozen from 2 eta^3 = v2 v3 v4 with AGM/direct-sum thetas at tau = i
DEDEKIND_AT_I = 0.7682254223260566


def test_vartheta3_at_i_matches_both_oracles():
    direct = theta_direct(0, 0, 0.0, 1j)
    assert abs(direct - VARTHETA3_AT_I) < 1e-15
    assert abs(vartheta3_agm_at_i() - VARTHETA3_AT_I) < 1e-15
    assert abs(theta(ThetaSpec(0, 0), 0.0, 1j) - VARTHETA3_AT_I) < 1e-15
    # the closed form of the same number
    assert abs(VARTHETA3_AT_I - PI ** 0.25 / math.gamma(0.75)) < 1e-15


def test_theta1_vanishes_at_origin():
    for tau in (1j, 0.3 + 0.9j, 2.2j):
        assert abs(jacobi_theta(1, 0.0, tau)) < 1e-15


@pytest.mark.parametrize("alpha,beta,m,n,sign", [
    (1, 0, 0, 1, -1),   # the displayed sign case
    (0, 1, 1, 0, 1),
    (1, 1, 1, 1, -1),
    (0, 0, 2, 3, 1),
])
def test_characteristic_reduction(alpha, beta, m, n, sign):
    z, tau = 0.21 + 0.07j, 1.15j
    lhs = theta(ThetaSpec(alpha + 2 * m, beta + 2 * n), z, tau)
    rhs = sign * theta(ThetaSpec(alpha, beta), z, tau)
    assert abs(lhs - rhs) < 1e-14
    a0, b0, s = reduce_characteristics(alpha + 2 * m, beta + 2 * n)
    assert (a0, b0) == (alpha % 2, beta % 2)


def test_theta_matches_direct_sum_at_generic_point():
    z, tau = 0.23 + 0.11j, 0.2 + 1.1j
    for k in (1, 2, 3, 4):
        assert abs(jacobi_theta(k, z, tau)
                   - jacobi_theta_direct(k, z, tau)) < 1e-14


def test_theta1_prime_footnote_identity():
    tau = 1.1j
    v3, v4 = vartheta(3, tau), vartheta(4, tau)
    lhs = theta1_prime(0.25, tau)
    rhs = (PI / 2.0) * (v3 ** 2 + v4 ** 2) * jacobi_theta(1, 0.25, tau)
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_theta1_prime_at_origin_is_dedekind_cube():
    # theta'(0) = 2 pi ded^3 through the algebraic chain; the derivative
    # itself is cross-checked by step-halved differences of theta1 in z
    tau = 0.9j
    fd = richardson_diff(lambda z: jacobi_theta(1, z, tau), 0.0, 1e-4)
    val = theta1_prime(0.0, tau)
    assert abs(val - fd) < 1e-9
    assert abs(val - 2.0 * PI * dedekind_eta(tau) ** 3) < 1e-13


def test_theta1_prime_even():
    z, tau = 0.31 + 0.12j, 1.2j
    assert abs(theta1_prime(z, tau) - theta1_prime(-z, tau)) < 1e-14


def test_theta_dz_orders():
    z, tau = 0.17 + 0.05j, 1.3j
    spec = ThetaSpec(0, 1)
    assert theta_dz(spec, z, tau, 0) == theta(spec, z, tau)
    fd = richardson_diff(lambda w: theta(spec, w, tau), z, 1e-4)
    assert abs(theta_dz(spec, z, tau, 1) - fd) < 1e-9
    # n = 1 of the (1,1) characteristic at the origin is -theta'(0)
    assert abs(theta_dz(ThetaSpec(1, 1), 0.0, tau, 1)
               + theta1_prime(0.0, tau)) < 1e-14
    with pytest.raises(ValueError):
        theta_dz(spec, z, tau, 7)


def test_heat_equation_links_dz_and_jet():
    z, tau = 0.11 + 0.21j, 1.25j
    spec = ThetaSpec(0, 0, 0.0, z)
    lhs = 4j * PI * theta_jet(spec, tau, 1).d(1)
    rhs = theta_dz(ThetaSpec(0, 0), z, tau, 2)
    assert abs(lhs - rhs) < 1e-12


def test_dedekind_value_and_forms():
    val = dedekind_eta(1j)
    assert abs(val - DEDEKIND_AT_I) < 1e-15
    assert abs(val - math.gamma(0.25) / (2.0 * PI ** 0.75)) < 1e-15
    for tau in (1j, 0.4 + 0.8j, 2.5j):
        s = dedekind_eta(tau)
        p = dedekind_product(tau)
        assert abs(s - p) < 1e-13 * abs(s)
        v2, v3, v4 = (vartheta(k, tau) for k in (2, 3, 4))
        assert abs(2.0 * s ** 3 - v2 * v3 * v4) < 1e-12


def test_dedekind_hidden_theta_form():
    from thetakit.jets import jacobi_theta_jet

    tau = 1.3j
    lhs = dedekind_eta(tau)
    # theta1(tau | 3 tau) via the affine-argument kernel
    t1 = jacobi_theta_jet(1, 1.0, 0.0, tau, 0, tau_scale=3.0).value
    rhs = -1j * cmath.exp(1j * PI * tau / 3.0) * t1
    assert abs(lhs - rhs) < 1e-12


def test_eta1_legendre_value_and_ring_residual():
    # at the square point eta(i) = pi/4 (Legendre-type closed value)
    assert abs(eta1(1j) - PI / 4.0) < 1e-13
    k = vartheta(2, 1j) ** 2 / vartheta(3, 1j) ** 2
    kk = elliptic_K("K", k ** 2)
    ee = elliptic_K("E", k ** 2)
    assert abs(eta1(1j) - (kk * ee + (k * k - 2.0) * kk * kk / 3.0)) < 1e-12
    # the closed-ring derivative of eta, against the termwise jet
    from thetakit.jets import GeneratorState, eta1_jet, generator_ring_rhs

    tau = 0.3 + 1.1j
    ring = generator_ring_rhs(GeneratorState.at(tau))[3]
    assert abs(ring - eta1_jet(tau, 1).d(1)) < 1e-9


def test_zeta_translation_identity():
    z, tau = 0.17 + 0.05j, 1.4j
    lhs = weierstrass("Zeta", 2.0 * z, tau)
    rhs = 2.0 * eta1(tau) * z + 0.5 * theta1_prime(z, tau) / jacobi_theta(1, z, tau)
    assert abs(lhs - rhs) < 1e-11


def test_weierstrass_half_period_and_symmetries():
    tau = 1.2j
    ec = elliptic_constants(tau)
    assert abs(weierstrass("P", 1.0, tau, pole_threshold=1e-9) - ec.e1) < 1e-12
    w = 0.23 + 0.31j
    assert abs(weierstrass("Pprime", -w, tau)
               + weierstrass("Pprime", w, tau)) < 1e-12
    s = 1e-3 * cmath.exp(1j * PI / 7.0)
    assert abs(weierstrass("Zeta", s, tau, pole_threshold=1e-9) * s - 1.0) < 1e-5
    with pytest.raises(PoleProximityError):
        weierstrass("P", 2.0 + 2.0 * tau, tau)


def test_elliptic_constants_relations():
    ec = elliptic_constants(1j)
    assert abs(ec.J - 1.0) < 1e-13
    rho = cmath.exp(1j * PI / 3.0)
    ec_rho = elliptic_constants(rho)
    assert abs(ec_rho.J) < 1e-10
    assert abs(ec_rho.g2) < 1e-10
    import random

    rng = random.Random(0)
    for _ in range(20):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.7, 2.0))
        ec = elliptic_constants(tau)
        assert abs(ec.e1 + ec.e2 + ec.e3) < 1e-12
        assert abs(ec.g2 + 4.0 * (ec.e1 * ec.e2 + ec.e2 * ec.e3
                                  + ec.e3 * ec.e1)) < 1e-12
        assert abs(ec.g3 - 4.0 * ec.e1 * ec.e2 * ec.e3) < 1e-12
        w = 0.31 + 0.17j
        P = weierstrass("P", w, tau)
        Pp = weierstrass("Pprime", w, tau)
        assert abs(Pp ** 2 - (4.0 * P ** 3 - ec.g2 * P - ec.g3)) < 1e-10


def test_elliptic_K_paths():
    assert abs(elliptic_K("K", 0.5) - elliptic_K("Kprime", 0.5)) < 1e-15
    m = 0.3
    K, Kp = elliptic_K("K", m), elliptic_K("Kprime", m)
    E, Ep = elliptic_K("E", m), elliptic_K("Eprime", m)
    # the classical two-integral relation as an independent oracle
    assert abs(E * Kp + Ep * K - K * Kp - PI / 2.0) < 1e-12
    assert abs(K - k_agm(m)) < 1e-14
    tau = 1.1j
    k = vartheta(2, tau) ** 2 / vartheta(3, tau) ** 2
    assert abs(elliptic_K_modular("K", tau) - elliptic_K("K", k ** 2)) < 1e-12
    assert abs(elliptic_K_modular("E", tau) - elliptic_K("E", k ** 2)) < 1e-12
    from thetakit.errors import ThetaKitError

    with pytest.raises(ThetaKitError):
        elliptic_K("K", 1.0 + 1e-9)


def test_quasi_periodicity_grid():
    import random

    rng = random.Random(1)
    for _ in range(10):
        tau = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.6, 3.0))
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.4, 0.4))
        t1 = jacobi_theta(1, z, tau)
        assert abs(jacobi_theta(1, z + 1.0, tau) + t1) < 1e-11
        factor = cmath.exp(-1j * PI * tau - 2j * PI * z)
        assert abs(jacobi_theta(1, z + tau, tau) + factor * t1) < 1e-11


def test_jacobi_quartic_on_wide_grid():
    for k in range(50):
        tau = complex(-1.0 + 2.0 * ((k * 7) % 50) / 49.0, 0.6 + 2.4 * k / 49.0)
        v2, v3, v4 = (vartheta(j, tau) for j in (2, 3, 4))
        assert abs(v3 ** 4 - v2 ** 4 - v4 ** 4) < 1e-12 * abs(v3) ** 4


def test_quasi_period_row_passes_at_seed_66000():
    """Seed 66000 drew |theta1(z+tau)| near 10^3, where the absolute
    residual reached 1.7e-11; the row states it relative to that size."""
    from thetakit.suites import SuiteConfig, suite_theta

    row = next(r for r in suite_theta(SuiteConfig(seed=66000)).checks
               if r.check_id == "quasi-period-tau")
    assert row.passed and row.residual < 1e-13, row


def test_tau_validation_and_nonconvergence():
    with pytest.raises(ValueError):
        TauPoint(1.0 - 0.2j)
    # this close to the real axis the series does not settle in MAX_TERMS
    with pytest.raises(NonConvergenceError) as err:
        theta(ThetaSpec(0, 0), 0.0, 1e-6j)
    assert err.value.partial is not None


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("tau,message", [
    (0j, "tau must satisfy Im(tau) > 0, got 0j"),
    (0.3 - 0.1j, "tau must satisfy Im(tau) > 0, got (0.3-0.1j)"),
    (-5, "tau must satisfy Im(tau) > 0, got (-5+0j)"),
    (complex(1.0, NAN), "tau must satisfy Im(tau) > 0, got (1+nanj)"),
    (complex(INF, NAN), "tau must satisfy Im(tau) > 0, got (inf+nanj)"),
    (complex(NAN, 1.0), "nome magnitude is not < 1 at tau=(nan+1j)"),
    (complex(-INF, 1.0), "nome magnitude is not < 1 at tau=(-inf+1j)"),
    (complex(NAN, INF), "nome magnitude is not < 1 at tau=(nan+infj)"),
    (1e-320j, "nome magnitude is not < 1 at tau=1e-320j"),
    (complex(1.0, INF), "tau must be finite, got (1+infj)"),
    (complex(0.0, INF), "tau must be finite, got infj"),
])
def test_tau_point_rejects(tau, message):
    for make in (as_tau, TauPoint):
        with pytest.raises(ValueError) as err:
            make(tau)
        assert str(err.value) == message
