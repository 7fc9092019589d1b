"""Group machinery: the exact eighth-root multiplier, transformation laws,
characteristic transport, level-2 specializations, congruence predicates,
and tabulated generator sets."""

import random
from fractions import Fraction

import pytest

from thetakit import modular as mod
from thetakit.painleve import PicardIndex, hauptmodul_x, picard_y
from thetakit.suites import _random_gamma1


def rand_matrix(rng, bound=20, want_d=True):
    """randrange rejection sampling of SL2(Z); with want_d it is the
    reference stream of ``suites._random_gamma1``."""
    while True:
        a, b, c, d = (rng.randrange(-bound, bound + 1) for _ in range(4))
        if a * d - b * c == 1:
            m = mod.UnimodularMatrix(a, b, c, d).normalized()
            if m.c == 0 or not want_d or m.d != 0:
                return m


@pytest.mark.parametrize("max_entry", [9, 10, 20])
def test_random_gamma1_keeps_the_randrange_stream(max_entry):
    for seed in range(20):
        fast, ref = random.Random(seed), random.Random(seed)
        for _ in range(2):
            assert (_random_gamma1(fast, max_entry).entries()
                    == rand_matrix(ref, max_entry).entries())
        assert fast.getstate() == ref.getstate()


def test_unimodular_basics():
    m = mod.UnimodularMatrix(3, -4, 4, -5)
    assert (m @ m.inverse()).entries() == (1, 0, 0, 1)
    assert m.normalized() is m
    assert mod.UnimodularMatrix(-1, 0, 0, -1).normalized().entries() == (1, 0, 0, 1)
    with pytest.raises(ValueError):
        mod.UnimodularMatrix(2, 0, 0, 1)


def test_root_of_unity_exact():
    r = mod.RootOfUnity(Fraction(7, 4))
    assert (r * r).exponent == Fraction(7, 2) % 2
    assert (r ** 8).exponent == 0
    assert r.is_eighth_root()
    assert not mod.RootOfUnity(Fraction(1, 3)).is_eighth_root()


def test_aleph_exact_matches_empirical_ratio():
    rng = random.Random(7)
    for _ in range(60):
        m = rand_matrix(rng)
        if m.c == 0 or m.d == 0:
            continue
        exact = mod.aleph(m)
        assert exact.is_eighth_root()
        assert (exact ** 8).exponent == 0
        emp = mod.theta1_ratio(m, 0.2 + 0.1j, 1.1j)
        assert abs(exact.value() - emp) < 1e-9
    # the inversion-type d = 0 case goes through the empirical path
    s = mod.UnimodularMatrix(0, -1, 1, 0)
    with pytest.raises(Exception):
        mod.aleph(s)
    emp = mod.aleph_empirical(s)
    assert emp.is_eighth_root()


def test_aleph_specific_matrix():
    got = mod.aleph(mod.UnimodularMatrix(1, 0, 2, 1))
    assert got.exponent == Fraction(3, 2)  # value -i


def test_aleph_composition_cocycle():
    # multiplier of M then translation-by-2 composes consistently with the
    # translation line of the law (empirical composition check)
    m = mod.UnimodularMatrix(1, 0, 2, 1)
    t2 = mod.UnimodularMatrix(1, 2, 0, 1)
    combined = (m @ t2).normalized()
    z, tau = 0.2 + 0.1j, 1.1j
    lhs = mod.theta1_ratio(combined, z, tau)
    assert abs(lhs - mod.aleph(combined).value()) < 1e-9


def test_epsilon_factor():
    m = mod.UnimodularMatrix(1, 0, 2, 1)
    assert mod.epsilon_factor(0, 0, m).exponent == 0
    e = mod.epsilon_factor(1, 0, m)
    # empirically: the per-characteristic ratio against the common multiplier
    z, tau = 0.2 + 0.1j, 1.1j
    from cmath import exp, pi, sqrt

    ap, bp = mod.char_transport(m, 1, 0)
    from thetakit import ThetaSpec, theta

    cd = m.c * tau + m.d
    lhs = theta(ThetaSpec(ap - 1, bp - 1), z / cd, m.act(tau))
    rhs = theta(ThetaSpec(0, -1), z, tau)
    ratio = lhs / (mod.aleph(m).value() * sqrt(cd)
                   * exp(1j * pi * m.c * z * z / cd) * rhs)
    assert abs(e.value() - ratio) < 1e-10
    # beta -> beta + 2 changes the factor only through the sign rule
    e2 = mod.epsilon_factor(1, 2, m)
    assert (e2.exponent - e.exponent) % Fraction(1, 2) == 0


def test_char_transport_inverse():
    rng = random.Random(3)
    for _ in range(100):
        m = rand_matrix(rng, want_d=False)
        al, be = rng.randrange(-5, 6), rng.randrange(-5, 6)
        assert mod.char_transport_inverse(m, *mod.char_transport(m, al, be)) \
            == (al, be)
    ident = mod.UnimodularMatrix(1, 0, 0, 1)
    assert mod.char_transport(ident, 3, -2) == (3, -2)


def test_level2_characteristic_images():
    # theta2, theta3, theta4 transport to (c-1,d-1), (a+c-1,b+d-1), (a-1,b-1)
    # modulo the period-2 reduction of characteristics
    m = mod.UnimodularMatrix(5, 2, 2, 1)
    a, b, c, d = m.entries()
    for (al, be), want in (((2, 1), (c - 1, d - 1)),
                           ((1, 1), (a + c - 1, b + d - 1)),
                           ((1, 2), (a - 1, b - 1))):
        img = mod.char_transport_inverse(m, al, be)
        assert (img[0] - 1 - want[0]) % 2 == 0
        assert (img[1] - 1 - want[1]) % 2 == 0


def test_theta_law_random_suite():
    rng = random.Random(11)
    worst = 0.0
    for _ in range(100):
        m = rand_matrix(rng)
        alpha, beta = rng.randrange(-3, 4), rng.randrange(-3, 4)
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.9, 1.6))
        worst = max(worst, mod.theta_law_check(m, alpha, beta, z, tau))
    assert worst < 1e-9


def test_translation_line():
    assert mod.theta_law_check(mod.UnimodularMatrix(1, 2, 0, 1), 1, 0,
                              0.3 + 0.1j, 1.2j) < 1e-12


def test_thetaprime_law():
    rng = random.Random(5)
    for _ in range(20):
        m = rand_matrix(rng, 10)
        if m.c == 0 or m.d == 0:
            continue
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
        assert mod.thetaprime_law_check(m, z, 1.1j) < 1e-9


def test_gamma2_laws():
    for ents in ((1, 2, 0, 1), (1, 0, 4, 1), (3, 2, 4, 3), (5, 2, 2, 1)):
        rs = mod.gamma2_check(mod.UnimodularMatrix(*ents), 0.21 + 0.07j, 1.15j)
        assert max(rs) < 1e-10
    # p = 2 matrix: the second function's power is i^2 = -1
    n, m_, p, q = mod.gamma2_shape(mod.UnimodularMatrix(1, 0, 4, 1))
    assert (2 * q * (p - 1) + p) % 4 == 2
    with pytest.raises(ValueError):
        mod.gamma2_shape(mod.UnimodularMatrix(2, 1, 1, 1))
    # composition: the product of two members still satisfies the laws
    m1 = mod.UnimodularMatrix(1, 2, 0, 1)
    m2 = mod.UnimodularMatrix(1, 0, 4, 1)
    assert max(mod.gamma2_check(m1 @ m2, 0.1 + 0.05j, 1.2j)) < 1e-9


def test_picard_membership_and_invariance():
    assert mod.picard_group_member(mod.UnimodularMatrix(1, 0, 0, 1), 3)
    assert mod.picard_group_member(mod.UnimodularMatrix(13, 2, 84, 13), 6)
    assert not mod.picard_group_member(mod.UnimodularMatrix(13, 2, 84, 13), 5)
    # transpose shape
    assert mod.picard_group_member(mod.UnimodularMatrix(13, 84, 2, 13), 6)
    rng = random.Random(5)
    tau = 0.23 + 1.07j
    for n in (3, 5):
        idx = PicardIndex(0, 1, n)
        mats = mod.picard_group_sample(n, 20, rng)
        assert len(mats) == 20
        worst = max(mod.invariance_residual(
            lambda t: picard_y(idx, t, 0).value, m, tau) for m in mats)
        assert worst < 1e-8


def test_tabulated_groups():
    assert mod.gs_cusp_product().entries() == (1, 0, -6, 1)
    tau = 0.23 + 1.07j
    for g in mod.GU_GENERATORS:
        assert mod.invariance_residual(mod.legendre_u, g, tau) < 1e-9
    for g in mod.GS_GENERATORS:
        assert mod.invariance_residual(mod.heun_s, g, tau) < 1e-9
    assert abs(mod.heun_s(1.4j - 2.0) - mod.heun_s(1.4j)) < 1e-11
    assert abs(mod.legendre_u(6j) - 1.0) < 1e-6
    assert abs(mod.u_cusp_limit_half() + 1.0) < 1e-5


def test_gamma1_closure():
    cases = ((0, 1, 3, mod.UnimodularMatrix(1, 1, 0, 1)),
             (1, 0, 4, mod.UnimodularMatrix(1, 0, 2, 1)),
             (2, 3, 5, mod.UnimodularMatrix(1, 0, 0, 1)),
             (1, 2, 5, mod.UnimodularMatrix(3, -4, 4, -5)))
    for nu, mu, n, m in cases:
        assert mod.gamma1_closure_check(nu, mu, n, m, 1.2j) < 1e-9


def test_x_invariant_under_level2():
    rng = random.Random(6)
    tau = 0.23 + 1.07j
    checked = 0
    while checked < 30:
        m = rand_matrix(rng, 9, want_d=False)
        if m.a % 2 == 0 or m.b % 2 or m.c % 2 or abs(m.c) > 8:
            continue
        assert mod.invariance_residual(
            lambda t: hauptmodul_x(t, 0).value, m, tau) < 1e-10
        checked += 1


def test_snap_rejects_non_roots():
    from thetakit.errors import ThetaKitError

    with pytest.raises(ThetaKitError):
        mod.snap_to_root(0.9 + 0.1j)
