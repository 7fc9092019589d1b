"""Connections: the third-order equation of the quasi-period, worked
connection equations, the covariant elimination identities (on and off
the uniformizing solutions), and the Schwarzian integrator."""

import random

import pytest

from thetakit import catalog as cat
from thetakit import connections as conn
from thetakit.errors import CriticalPointError, PoleProximityError
from thetakit.painleve import hauptmodul_x
from thetakit.rational import Poly, RationalFunc

from oracles import variable_jet


def test_chazy_residual_and_control():
    for tau in (1.1j, 0.4 + 0.9j, 0.2 + 1.5j):
        assert conn.chazy_residual(tau) < 1e-10
    assert conn.chazy_residual(1.1j, 13j) > 1e-2


def test_example10():
    for tau in (1.2j, 0.3 + 1.1j):
        rep = conn.fullgroup_reference_residuals(tau)
        assert max(rep.values()) < 1e-9, rep


def test_example11():
    assert conn.legendre_big_residual(1.3j) < 1e-6
    rep = conn.legendre_compact_residual(1.3j)
    assert rep["equation"] < 1e-8
    assert rep["closed_form"] < 1e-10


def test_example12_three_inits():
    q = cat.default_catalog()["exc-heun-II"].Q
    rng = random.Random(4)
    for _ in range(3):
        init = (complex(rng.uniform(3, 6), rng.uniform(0.2, 0.8)),
                complex(rng.uniform(0.6, 1.4), rng.uniform(-0.3, 0.3)),
                complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)))
        assert conn.cubic_family_residual(q, init, [1j, 1j + 0.25]) < 1e-5


def test_heun_hidden_connection():
    for tau in (1.25j, 0.2 + 1.1j):
        assert conn.heun_hidden_connection_residual(tau) < 1e-8


def test_identities_for_catalog_pairs():
    entries = cat.load_catalog()
    for qid, recipe in (("k2", "x"), ("lemn", "u"), ("qz", "z6"),
                        ("heun", "s"), ("fj", "J")):
        q = entries[qid].Q
        for tau in (1.1j, 0.3 + 1.3j):
            x = cat.RECIPES[recipe](tau, 5)
            cj = conn.connection_from_jet(x)
            r1, r2 = conn.identity_residuals(cj, q, x.value)
            assert max(r1, r2) < 1e-8, (qid, tau, r1, r2)


def test_identities_along_integrated_solutions():
    entries = cat.load_catalog()
    qz = entries["qz"].Q
    rng = random.Random(9)
    init = (complex(rng.uniform(4, 6), 0.5), 1.1 + 0.2j, 0.1)
    traj = conn.schwarz_integrate(qz, init, [1.2j, 1.2j + 0.3])
    assert traj.steps_taken > 0
    for st in traj.samples[1:]:
        cj = conn.schwarz_gamma_jet(st, qz)
        r1, r2 = conn.identity_residuals(cj, qz, st.x)
        assert max(r1, r2) < 1e-6


def test_integrator_against_closed_form():
    entries = cat.load_catalog()
    x14 = hauptmodul_x(1.4j, 5)
    traj = conn.schwarz_integrate(entries["k2"].Q,
                                  (x14.value, x14.d(1), x14.d(2)),
                                  [1.4j, 1.0j])
    assert abs(traj.samples[-1].x - hauptmodul_x(1.0j, 0).value) < 1e-8


def test_integrator_flat_and_guards():
    traj = conn.schwarz_integrate(RationalFunc(Poly([0])), (0.0, 1.0, 0.0),
                                  [1j, 1j + 0.5])
    assert abs(traj.samples[-1].x - 0.5) < 1e-12
    with pytest.raises(CriticalPointError):
        conn.schwarz_integrate(RationalFunc(Poly([0])), (0.0, 1e-12, 0.0),
                               [1j, 1j + 0.1])
    # driving the state into a pole of Q must be rejected, not integrated
    from fractions import Fraction

    q_pole = RationalFunc(Poly([1]), Poly([Fraction(-1, 2), 1]))  # pole at 1/2
    with pytest.raises(PoleProximityError):
        conn.schwarz_integrate(q_pole, (0.4999, 1.0, 0.0), [1j, 1j + 0.2],
                               pole_margin=1e-2)


def test_state_jet_matches_ode():
    entries = cat.load_catalog()
    q = entries["qz"].Q
    st = conn.SchwarzState(1.2j, 5.0 + 0.5j, 1.0 + 0.2j, 0.3)
    jet = st.as_jet(q, 5)
    # the jet's own third derivative must satisfy the equation
    d1, d2, d3 = jet.d(1), jet.d(2), jet.d(3)
    assert abs(d3 - (q(jet.value) * d1 ** 3 + 1.5 * d2 * d2 / d1)) < 1e-10


def test_prop6_and_translation():
    jj = conn.j_jet(1.2j, 6)
    corr = conn.prop6_connection(jj, [(0.0, 3), (1.0, 2)])
    from thetakit.thetafuncs import eta1

    assert abs(corr.gamma - (4j / 3.141592653589793) * eta1(1.2j)) < 1e-9
    # with no conical points the correction reduces to the plain connection
    plain = conn.prop6_connection(jj, [])
    base = conn.connection_from_jet(jj)
    assert abs(plain.gamma - base.gamma) < 1e-12
    g_a = conn.connection_from_jet(hauptmodul_x(1.3j, 5)).gamma
    g_b = conn.connection_from_jet(hauptmodul_x(1.3j + 2.0, 5)).gamma
    assert abs(g_a - g_b) < 1e-10


def test_conical_growth():
    rep = conn.conical_growth_check()
    assert abs(rep["tau_star"] - (0.5 + 0.5j)) < 1e-9
    assert rep["uncorrected_growth"] > 4.0
    assert rep["corrected_growth"] < 2.5


def test_nabla_quantities_flat_probe():
    cj = conn.connection_from_jet(variable_jet(1.2j, 5))
    om, nab, nab2 = conn.nabla_quantities(cj)
    assert abs(cj.gamma) < 1e-14 and abs(om) < 1e-14 and abs(nab) < 1e-14
