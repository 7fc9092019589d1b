"""Verification suites: every headline identity of the library, run over
fixed grids with deterministic seeding and collected into Reports.

Each suite carries at least one deliberately broken probe (wrong
coefficient, wrong branch, or a non-solution) whose residual must EXCEED
1e-3; those rows guard the true checks against vacuous passes and have
the kind "control".
"""

from __future__ import annotations

import cmath
import math
import random
from cmath import pi
from dataclasses import dataclass, field
from fractions import Fraction

from . import catalog as cat
from . import connections as conn
from . import fuchs
from . import jets as jets_mod
from . import modular as mod
from . import painleve as pnl
from . import thetafuncs as th
from . import toroidal as tor
from .catalog import CheckRow, STANDARD_GRID, negative_control
from .errors import ThetaKitError
from .rational import BivarPoly, Poly
from .reports import Report

_IPI = 1j * pi


@dataclass
class SuiteConfig:
    seed: int = 0
    grid: tuple = STANDARD_GRID
    catalog_path: str | None = None
    suite_tolerances: dict = field(default_factory=dict)
    _catalog: dict | None = field(default=None, init=False, repr=False,
                                  compare=False)

    def rng(self, salt: int = 0) -> random.Random:
        return random.Random(self.seed * 1000003 + salt)

    def catalog(self):
        """The entries at ``catalog_path``, read and checksum-verified on
        the first call and kept on this config, or the packaged catalog,
        parsed once per process."""
        if self.catalog_path is None:
            return cat.default_catalog()
        if self._catalog is None:
            self._catalog = cat.load_catalog(self.catalog_path)
        return self._catalog


def _theta_grid(n: int = 50):
    """Deterministic 50-point grid with Im in [0.6, 3], Re in [-1, 1]."""
    pts = []
    for k in range(n):
        re = -1.0 + 2.0 * ((k * 7) % n) / (n - 1)
        im = 0.6 + 2.4 * k / (n - 1)
        pts.append(complex(re, im))
    return pts


# --------------------------------------------------------------------------
# 1. theta foundations
# --------------------------------------------------------------------------

def suite_theta(cfg: SuiteConfig) -> Report:
    rep = Report("theta")
    tol = 1e-11
    worst_q = worst_d3 = worst_d1 = 0.0
    for tau in _theta_grid():
        v2, v3, v4 = (th.vartheta(k, tau) for k in (2, 3, 4))
        worst_q = max(worst_q, abs(v3 ** 4 - v2 ** 4 - v4 ** 4) / abs(v3) ** 4)
        ded_jet = jets_mod.dedekind_jet(tau, 1)
        worst_d1 = max(worst_d1, abs(ded_jet.d(1) / ded_jet.value
                                     - (1j / pi) * th.eta1(tau)))
        worst_d3 = max(worst_d3, abs(2.0 * ded_jet.value ** 3 - v2 * v3 * v4))
    rep.add(CheckRow("jacobi-quartic", "squares of the four theta-constants",
                     "50-point grid", worst_q, tol))
    rep.add(CheckRow("eta-log-derivative", "logarithmic derivative closure",
                     "50-point grid", worst_d1, tol))
    rep.add(CheckRow("eta-cubed", "2 eta^3 = v2 v3 v4", "50-point grid",
                     worst_d3, tol))

    from .thetafuncs import _lattice_distance

    rng = cfg.rng(1)
    worst = {"P": 0.0, "Zeta": 0.0, "Pprime": 0.0}
    for _ in range(20):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
        while True:
            z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
            if _lattice_distance(2.0 * z, tau) > 0.05:
                break
        ec = th.elliptic_constants(tau)
        v3 = th.vartheta(3, tau)
        v4 = th.vartheta(4, tau)
        P = th.weierstrass("P", 2.0 * z, tau)
        Pp = th.weierstrass("Pprime", 2.0 * z, tau)
        # z-derivative routes through termwise theta_dz (independent of the
        # tau-jet machinery): d/dz zeta(2z) = -2 P(2z),  d/dz P(2z) = 2 P'(2z)
        t1 = th.jacobi_theta(1, z, tau)
        t1p = th.theta1_prime(z, tau)
        t1pp = -th.theta_dz(th.ThetaSpec(1, 1), z, tau, 2)
        dz_zeta = 2.0 * th.eta1(tau) + 0.5 * (t1pp * t1 - t1p * t1p) / (t1 * t1)
        worst["Zeta"] = max(worst["Zeta"], abs(dz_zeta + 2.0 * P)
                            / max(1.0, abs(P)))
        t2 = th.jacobi_theta(2, z, tau)
        t2p = th.theta_dz(th.ThetaSpec(1, 0), z, tau, 1)
        dz_P = (pi * pi / 2.0) * v3 ** 2 * v4 ** 2 * (t2 / t1) \
            * (t2p * t1 - t2 * t1p) / (t1 * t1)
        worst["P"] = max(worst["P"], abs(dz_P - 2.0 * Pp) / max(1.0, abs(Pp)))
        worst["Pprime"] = max(worst["Pprime"],
                              abs(Pp ** 2 - (4.0 * P ** 3 - ec.g2 * P - ec.g3))
                              / max(1.0, abs(P) ** 3))
    rep.add(CheckRow("wp-zeta-slope", "zeta translation differentiates to -P",
                     "20 random (z, tau)", worst["Zeta"], tol))
    rep.add(CheckRow("wp-P-slope", "P translation differentiates to P'",
                     "20 random (z, tau)", worst["P"], 1e-10))
    rep.add(CheckRow("wp-cubic", "P'^2 = 4P^3 - g2 P - g3",
                     "20 random (z, tau)", worst["Pprime"], 1e-10))

    worst1 = worst2 = 0.0
    rng = cfg.rng(2)
    for _ in range(10):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.4, 0.4))
        t1 = th.jacobi_theta(1, z, tau)
        worst1 = max(worst1, abs(th.jacobi_theta(1, z + 1.0, tau) + t1))
        t1_tau = th.jacobi_theta(1, z + tau, tau)
        worst2 = max(worst2, abs(t1_tau + cmath.exp(-_IPI * tau - 2j * pi * z)
                                 * t1) / max(1.0, abs(t1_tau)))
    rep.add(CheckRow("quasi-period-1", "theta1(z+1) = -theta1(z)",
                     "10 random (z, tau)", worst1, tol))
    rep.add(CheckRow("quasi-period-tau", "theta1(z+tau) law", "10 random (z, tau)",
                     worst2, tol))

    worst = 0.0
    for tau in _theta_grid(12):
        s = th.dedekind_eta(tau)
        p = th.dedekind_product(tau)
        worst = max(worst, abs(s - p) / abs(s))
    rep.add(CheckRow("dedekind-forms", "pentagonal sum vs infinite product",
                     "12-point grid", worst, 1e-13))
    hidden = abs(th.dedekind_eta(1.3j)
                 - (-1j) * cmath.exp(_IPI * 1.3j / 3.0)
                 * jets_mod.jacobi_theta_jet(1, 1.0, 0.0, 1.3j, 0,
                                             tau_scale=3.0).value)
    rep.add(CheckRow("dedekind-hidden", "level-3 moving-theta form of Dedekind",
                     "tau=1.3i", hidden, 1e-12))

    v2, v3, v4 = (th.vartheta(k, 1.1j) for k in (2, 3, 4))
    rep.add(negative_control("quartic-broken", "perturbed coefficient probe",
                             "tau=1.1i", abs(v3 ** 4 - 1.01 * v2 ** 4 - v4 ** 4)
                             / abs(v3) ** 4))
    return rep


# --------------------------------------------------------------------------
# 2. differential rings vs termwise oracle
# --------------------------------------------------------------------------

def suite_rings(cfg: SuiteConfig) -> Report:
    rep = Report("rings")
    rng = cfg.rng(3)
    worst_l2 = worst_t5 = 0.0
    for _ in range(30):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.2))
        n = rng.randrange(2, 9)
        nu = rng.randrange(0, n + 1)
        mu = rng.randrange(0, n + 1)
        if nu == 0 and mu == 0:
            mu = 1
        a = nu / (2.0 * n)
        b = mu / (2.0 * n)
        state = jets_mod.GeneratorState.at(tau)
        o2 = [jets_mod.vartheta_jet(k, tau, 1).d(1) for k in (2, 3, 4)]
        o2.append(jets_mod.eta1_jet(tau, 1).d(1))
        for got, want in zip(jets_mod.generator_ring_rhs(state), o2):
            worst_l2 = max(worst_l2, abs(got - want) / max(1.0, abs(want)))
        moving = jets_mod.MovingState.at(a, b, tau)
        got5 = jets_mod.moving_ring_rhs(moving, state)
        want5 = [jets_mod.jacobi_theta_jet(k, a, b, tau, 1).d(1)
                 for k in (1, 2, 3, 4)]
        want5.append(jets_mod.thetaprime_jet(a, b, tau, 1).d(1))
        for got, want in zip(got5, want5):
            worst_t5 = max(worst_t5, abs(got - want) / max(1.0, abs(want)))
    rep.add(CheckRow("ring-generators", "closed ring of theta-constants and eta",
                     "30 random states", worst_l2, 1e-8))
    rep.add(CheckRow("ring-moving", "closed ring of moving theta-constants",
                     "30 random (tau, N, nu, mu)", worst_t5, 1e-8))
    idx = [(2, (3, 4)), (3, (4, 2)), (4, (2, 3))]
    ok = all(jets_mod.companion_indices(k) == pair for k, pair in idx)
    rep.add(CheckRow("companion-indices", "cyclic (2,3,4) permutation rule",
                     "k=2,3,4", 0.0 if ok else 1.0, 0.5))

    rng = cfg.rng(4)
    worst = 0.0
    for _ in range(10):
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 1.8))
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
        k = rng.choice((1, 2, 3, 4))
        a, b, sgn = th.JACOBI_CHARS[k]
        lhs = 4j * pi * jets_mod.theta_jet(th.ThetaSpec(a, b, 0.0, z),
                                           tau, 1).d(1) * sgn
        rhs = sgn * th.theta_dz(th.ThetaSpec(a, b), z, tau, 2)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    rep.add(CheckRow("heat-equation", "4 pi i d_tau theta = d_zz theta",
                     "10 random (z, tau, k)", worst, 1e-10))

    # jet-algebra coherence and the Moebius invariance of [x,tau]
    rng = cfg.rng(5)
    worst_alg = worst_mob = 0.0
    for _ in range(5):
        tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.9, 1.6))
        f = jets_mod.vartheta_jet(2, tau, 5)
        g = jets_mod.eta1_jet(tau, 5)
        prod = f * g
        fd = [f.coeffs[i] for i in range(6)]
        gd = [g.coeffs[i] for i in range(6)]
        for n in range(6):
            direct = sum(fd[i] * gd[n - i] for i in range(n + 1))
            worst_alg = max(worst_alg, abs(prod.coeffs[n] - direct))
        x = pnl.hauptmodul_x(tau, 5)
        mob = (2.0 * x + 3.0) / (x + 5.0)
        worst_mob = max(worst_mob,
                        abs(jets_mod.meromorphic_derivative(mob)
                            - jets_mod.md_transport(
                                lambda v: jets_mod.meromorphic_derivative(x),
                                cat.RationalFunc(Poly([3, 2]), Poly([5, 1]))
                            )(x.value)))
    rep.add(CheckRow("jet-product", "coefficientwise product identity",
                     "5 random generator pairs", worst_alg, 1e-12))
    rep.add(CheckRow("moebius-transport", "vanishing Schwarzian part of a Moebius map",
                     "5 random points", worst_mob, 1e-9))

    # negative control: swap the companion indices for k = 2
    tau = 1.2j
    state = jets_mod.GeneratorState.at(tau)
    moving = jets_mod.MovingState.at(0.0, 1.0 / 6.0, tau)
    t1sq = moving.t1 ** 2
    wrong = (0.5j * state.v2 ** 2 * moving.tp * moving.t2 * moving.t2 / t1sq)
    right = (0.5j * state.v2 ** 2 * moving.tp * moving.t3 * moving.t4 / t1sq)
    got = jets_mod.moving_ring_rhs(moving, state)[1]
    oracle = jets_mod.jacobi_theta_jet(2, 0.0, 1.0 / 6.0, tau, 1).d(1)
    rep.add(negative_control("ring-swapped-indices", "companion indices "
                             "deliberately swapped",
                             "tau=1.2i", abs((got - right + wrong) - oracle)
                             / max(1.0, abs(oracle))))
    return rep


# --------------------------------------------------------------------------
# 3. curve catalog
# --------------------------------------------------------------------------

def suite_picard_curves(cfg: SuiteConfig) -> Report:
    rep = Report("picard-curves")
    c = cfg.catalog()
    for eid in ("uy-sqrt", "uy-quartic", "tor-yu", "g5", "pq", "x8", "w2ab"):
        rep.add(cat.verify_entry(c[eid], cfg.grid))
    rep.add(cat.birational_check("tor", cfg.grid))
    rep.add(cat.birational_check("bir", cfg.grid))
    for ident in ("perfect-square", "duplication", "xuni"):
        rep.add(cat.tower_identity_check(ident, cfg.grid, cfg.rng(6)))
    for row in cat.reference_invariant_checks():
        rep.add(row)
    # negative control: perturb one quartic coefficient (6 -> 7)
    broken = BivarPoly({**c["uy-quartic"].F.terms, (1, 2): -7})
    tau = cfg.grid[1]
    xv = cat.recipe_x(tau, 0).value
    yv = cat.recipe_picard(0, 1, 3)(tau, 0).value
    rep.add(negative_control("quartic-broken-coeff", "perturbed curve coefficient",
                             f"tau={tau}", abs(broken(xv, yv))
                             / max(1.0, broken.max_term_magnitude(xv, yv))))
    return rep


# --------------------------------------------------------------------------
# 4. Painleve residuals
# --------------------------------------------------------------------------

def suite_painleve(cfg: SuiteConfig) -> Report:
    rep = Report("painleve")
    tol6 = 1e-6
    conv_notes = []
    for fam, (yfun, params) in {
        "picard": (lambda t: pnl.picard_y(pnl.PicardIndex(0, 1, 3), t, 5),
                   pnl.P6Params(0, 0, 0, 0)),
        "hitchin": (lambda t: pnl.hitchin_y(0.0, 1.0 / 6.0, t, 5),
                    pnl.P6Params(0.125, 0.125, 0.125, 0.125)),
    }.items():
        res = {"delta-shift": 0.0, "plain": 0.0}
        for tau in cfg.grid:
            x = pnl.hauptmodul_x(tau, 5)
            y = yfun(tau)
            for convention in res:
                res[convention] = max(res[convention], abs(
                    pnl.p6_residual(x, y, params, convention)))
        vanishing = [k for k, v in res.items() if v < tol6]
        note = (f"delta-shift={res['delta-shift']:.2e}, "
                f"plain={res['plain']:.2e}; vanishing: {vanishing}")
        conv_notes.append((fam, vanishing))
        rep.add(CheckRow(f"p6:{fam}", "sixth-equation residual, both "
                         "delta conventions", "8-point grid",
                         min(res.values()), tol6, note,
                         guard=len(vanishing) == 1))
    # the power-law probe: y = x^s solves the equation at gamma = s^2/2,
    # delta = (s-1)^2/2 in the delta-shift labeling (the commonly quoted
    # pair (s^2, (s-1)^2 - 1/2) is normalized for the doubled bracket)
    s = 0.37 + 0.11j
    worst = 0.0
    for tau in cfg.grid[:4]:
        x = pnl.hauptmodul_x(tau, 5)
        xv = x.value
        ders = []
        coef = 1.0 + 0j
        for k in range(6):
            ders.append(coef * xv ** (s - k))
            coef *= (s - k)
        y = x.compose_scalar(ders)
        worst = max(worst, abs(pnl.p6_residual(
            x, y, pnl.P6Params(0, 0, s * s / 2.0, (s - 1.0) ** 2 / 2.0),
            "delta-shift")))
    rep.add(CheckRow("p6:power-law", "y = x^s probe at its solving parameters",
                     "4-point grid", worst, 1e-8,
                     note="convention recorded: delta-shift"))

    worst_ok = worst_rt = worst_iso = 0.0
    worst_p6n = 0.0
    worst_dp = worst_dh = 0.0
    for n in (2, 3, 4, 5):
        idx = pnl.PicardIndex(0, 1, n)
        for tau in cfg.grid[:5]:
            x = pnl.hauptmodul_x(tau, 6)
            p = pnl.picard_y(idx, tau, 6)
            h = pnl.hitchin_y(idx.A, idx.B, tau, 6)
            h_ok = pnl.okamoto("PtoH", x, p)
            worst_ok = max(worst_ok, abs(h_ok.value - h.value))
            p_rt = pnl.okamoto("HtoP", x.truncate(5), h_ok)
            worst_rt = max(worst_rt, abs(p_rt.value - p.value))
            worst_p6n = max(worst_p6n, abs(pnl.p6_residual(
                x.truncate(5), p.truncate(5), pnl.P6Params(0, 0, 0, 0),
                "delta-shift")))
            worst_p6n = max(worst_p6n, abs(pnl.p6_residual(
                x.truncate(5), h.truncate(5),
                pnl.P6Params(0.125, 0.125, 0.125, 0.125), "delta-shift")))
            worst_dp = max(worst_dp, abs(pnl.picard_ydot(idx, tau) - p.d(1)))
            worst_dh = max(worst_dh, abs(pnl.hitchin_ydot(idx.A, idx.B, tau)
                                         - h.d(1)))
            if n == 3:
                worst_iso = max(worst_iso,
                                abs(p.value - (1.0 - (x.value - 1.0) ** 2
                                               / (h.value - 1.0) ** 2)),
                                abs(h.value - (1.5 * x.value / p.value
                                               - 0.5 * p.value)))
    rep.add(CheckRow("okamoto:cross", "transformation maps the families onto "
                     "each other", "N=2..5, 5-point grid", worst_ok, 1e-8))
    rep.add(CheckRow("okamoto:roundtrip", "mutually inverse pair",
                     "N=2..5, 5-point grid", worst_rt, 1e-8))
    rep.add(CheckRow("okamoto:isomorphism", "level-3 birational pair",
                     "5-point grid", worst_iso, 1e-9))
    rep.add(CheckRow("p6:family-sweep", "both families solve their equations at "
                     "every small level", "N=2..5, 5-point grid", worst_p6n, 1e-6))
    rep.add(CheckRow("differentials", "closed forms of ydot on both families",
                     "N=2..5, 5-point grid", max(worst_dp, worst_dh), 1e-9))

    worst_sq = 0.0
    for tau in cfg.grid[:5]:
        idx = pnl.PicardIndex(0, 1, 3)
        y = pnl.picard_y(idx, tau, 5)
        r = pnl.picard_sqrt_jet(idx, tau, 5)
        worst_sq = max(worst_sq, (y - r * r).max_abs())
    rep.add(CheckRow("perfect-square-jet", "single-valued square root of the "
                     "first family", "5-point grid", worst_sq, 1e-10))

    worst_m = max(abs(pnl.hitchin_y(0.0, 1.0 / 6.0, 1.2j, 0).value
                      - pnl.hitchin_y_original(0.0, 1.0 / 6.0, 1.2j)),
                  abs(pnl.hitchin_y(0.1, 0.0, 0.2 + 1.4j, 0).value
                      - pnl.hitchin_y_original(0.1, 0.0, 0.2 + 1.4j)))
    rep.add(CheckRow("derivative-form", "theta1-derivative route to the second "
                     "family", "2 points", worst_m, 1e-8))
    worst_wp = max(abs(pnl.hitchin_y(0.0, 1.0 / 6.0, 1.2j, 0).value
                       - pnl.y_from_wp(pnl.hitchin_wp_value(0.0, 1.0 / 6.0, 1.2j), 1.2j)),
                   abs(pnl.hitchin_y(0.1, 0.0, 0.2 + 1.4j, 0).value
                       - pnl.y_from_wp(pnl.hitchin_wp_value(0.1, 0.0, 0.2 + 1.4j),
                                       0.2 + 1.4j)))
    rep.add(CheckRow("elliptic-form", "parametric elliptic representation agrees",
                     "2 points", worst_wp, 1e-9))

    # elliptic-form second derivative: linear for the first family, Newton-
    # continued branch for the second
    r_pic = pnl.wpform_residual(0.0, 1.0 / 6.0, pnl.P6Params(0, 0, 0, 0), 1.3j,
                                family="picard")
    rep.add(CheckRow("wpform:flat-family", "linear argument makes both sides vanish",
                     "tau=1.3i", abs(r_pic), 1e-9))
    r_hit = pnl.wpform_residual(0.0, 1.0 / 6.0,
                                pnl.P6Params(0.125, 0.125, 0.125, 0.125), 1.3j)
    rep.add(CheckRow("wpform:curved-family", "second derivative of the continued "
                     "branch", "tau=1.3i", abs(r_hit), 1e-5))
    r_bad = pnl.wpform_residual(0.0, 1.0 / 6.0,
                                pnl.P6Params(0.125, 0.125, 0.125, 0.125), 1.3j,
                                flip_branch=True)
    rep.add(negative_control("wpform:flipped-branch", "deliberately corrupted branch",
                             "tau=1.3i", abs(r_bad), 1e-2))

    # the Fuchsian Q(x, y) from the curve
    quartic = cfg.catalog()["uy-quartic"].F
    worst_q = worst_jet = 0.0
    for tau in cfg.grid[:5]:
        x = pnl.hauptmodul_x(tau, 5)
        y = pnl.picard_y(pnl.PicardIndex(0, 1, 3), tau, 5)
        q = pnl.qxy_from_curve(quartic, x.value, y.value)
        yv = y.value
        num = (8.0 * x.value * (yv - 2.0) * (yv ** 2 - 9.0 * yv + 9.0) * yv
               + 16.0 * yv ** 6 + 27.0 * yv ** 5 + 95.0 * yv ** 4
               - 415.0 * yv ** 3 + 465.0 * yv ** 2 - 288.0 * yv + 108.0)
        den = yv ** 2 * (4.0 * yv - 3.0) * (yv + 3.0) ** 2 * (yv - 1.0) ** 3
        worst_q = max(worst_q, abs(q + num / den / 8.0))
        worst_jet = max(worst_jet, abs(q - jets_mod.meromorphic_derivative(y)))
    rep.add(CheckRow("curve-q:rational", "partial-derivative rule matches the "
                     "tabulated rational function", "5-point grid", worst_q, 1e-10))
    rep.add(CheckRow("curve-q:jet", "partial-derivative rule matches [y,tau]",
                     "5-point grid", worst_jet, 1e-8))
    identity = BivarPoly({(1, 0): 1, (0, 1): -1})
    q_id = pnl.qxy_from_curve(identity, 0.4 + 0.1j, 0.4 + 0.1j)
    xv = 0.4 + 0.1j
    rep.add(CheckRow("curve-q:identity", "identity curve reduces to the "
                     "3-puncture equation", "x=0.4+0.1i",
                     abs(q_id + 0.5 * (xv * xv - xv + 1.0)
                         / (xv * xv * (xv - 1.0) ** 2)), 1e-12))

    # negative control: a nearby non-solution
    x = pnl.hauptmodul_x(1.2j, 5)
    y_bad = x + 0.3
    rep.add(negative_control("p6:non-solution", "shifted Hauptmodul is not a solution",
                             "tau=1.2i", abs(pnl.p6_residual(
                                 x, y_bad, pnl.P6Params(0.3, 0.2, 0.1, 0.4),
                                 "delta-shift"))))
    return rep


# --------------------------------------------------------------------------
# 5. Fuchsian equations
# --------------------------------------------------------------------------

def suite_fuchsian(cfg: SuiteConfig) -> Report:
    rep = Report("fuchsian")
    c = cfg.catalog()
    for eid in ("k2", "lemn", "qz", "qr", "heun", "fj", "qx85",
                "icosa-T", "tetra-T", "tetra-Tsq"):
        rep.add(cat.fuchsian_check(c[eid], cfg.grid))
    rep.add(cat.dual_forms_agree(c["qz"], rng=cfg.rng(7)))
    rep.add(cat.dual_forms_agree(c["qx85"], rng=cfg.rng(8)))
    rep.add(cat.icosa_transport_checks(c["qz"].Q, c["icosa-T"].Q, cfg.grid,
                                       cfg.rng(9)))
    rep.add(cat.tetra_checks(c["tetra-T"].Q, c["tetra-Tsq"].Q,
                             c["tetra-xi"].F, cfg.grid, cfg.rng(10)))
    rep.add(cat.legendre_z_chain_check(c["k2"].Q, c["qz"].Q, cfg.rng(11)))
    rep.add(cat.exceptional_heun_equivalence_check(
        c["exc-heun-I"].Q, c["exc-heun-III"].Q, c["xx-curve"].F, cfg.rng(12)))
    rep.add(cat.tower_identity_check("s-equality", cfg.grid, cfg.rng(13)))
    # negative control: wrong coefficient in the 3-puncture equation
    x = pnl.hauptmodul_x(1.2j, 5)
    md = jets_mod.meromorphic_derivative(x)
    xv = x.value
    wrong = -(1.0 / 3.0) * (xv * xv - xv + 1.0) / (xv * xv * (xv - 1.0) ** 2)
    rep.add(negative_control("k2-wrong-coefficient", "1/2 replaced by 1/3",
                             "tau=1.2i", abs(md - wrong)))
    return rep


# --------------------------------------------------------------------------
# 6. modular transformations
# --------------------------------------------------------------------------

def _random_gamma1(rng, max_entry=20):
    """A normalized random matrix of SL2(Z) with entries in
    [-max_entry, max_entry] and c == 0 or d != 0, by rejection.

    Each entry is ``rng.randrange(-max_entry, max_entry + 1)`` drawn the way
    ``random.Random._randbelow_with_getrandbits`` draws it (k-bit words
    until one is below the width), so the random stream is the same;
    calling ``getrandbits`` directly skips randrange's per-call overhead.
    """
    width = 2 * max_entry + 1
    k = width.bit_length()
    getrandbits = rng.getrandbits
    while True:
        ents = []
        while len(ents) < 4:
            r = getrandbits(k)
            if r < width:
                ents.append(r - max_entry)
        a, b, c, d = ents
        if a * d - b * c == 1:
            m = mod.UnimodularMatrix(a, b, c, d).normalized()
            if m.c == 0 or m.d != 0:
                return m


def suite_modular(cfg: SuiteConfig) -> Report:
    rep = Report("modular")
    rng = cfg.rng(14)
    worst = 0.0
    aleph_ok = True
    for _ in range(100):
        m = _random_gamma1(rng)
        alpha = rng.randrange(-3, 4)
        beta = rng.randrange(-3, 4)
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.9, 1.6))
        worst = max(worst, mod.theta_law_check(m, alpha, beta, z, tau))
        if m.c > 0 and m.d != 0:
            r = mod.aleph(m)
            if not r.is_eighth_root() or (r ** 8).exponent != 0:
                aleph_ok = False
    rep.add(CheckRow("transformation-law", "general characteristic law over "
                     "random unimodular matrices", "100 seeded matrices",
                     worst, 1e-9))
    rep.add(CheckRow("aleph-eighth-root", "multiplier is an exact 8th root",
                     "same matrices", 0.0 if aleph_ok else 1.0, 0.5))
    rep.add(CheckRow("translation-line", "tau-translation with characteristic "
                     "shift", "n=2, (1,0)",
                     mod.theta_law_check(mod.UnimodularMatrix(1, 2, 0, 1),
                                        1, 0, 0.3 + 0.1j, 1.2j), 1e-12))

    worst = 0.0
    rng2 = cfg.rng(15)
    for _ in range(20):
        m = _random_gamma1(rng2, 10)
        if m.c == 0 or m.d == 0:
            continue
        z = complex(rng2.uniform(-0.4, 0.4), rng2.uniform(-0.2, 0.2))
        worst = max(worst, mod.thetaprime_law_check(m, z, 1.1j))
    rep.add(CheckRow("derivative-law", "transformation of the derivative "
                     "constant", "20 samples", worst, 1e-9))

    worst = 0.0
    for ents in ((1, 2, 0, 1), (1, 0, 4, 1), (3, 2, 4, 3), (5, 2, 2, 1),
                 (1, 0, 2, 1), (3, -4, 4, -5)):
        m = mod.UnimodularMatrix(*ents)
        worst = max(worst, max(mod.gamma2_check(m, 0.21 + 0.07j, 1.15j)))
    rep.add(CheckRow("level2-laws", "per-function laws with quarter powers",
                     "6 matrices", worst, 1e-10))

    # uniformizing-group congruences and invariance
    for n in (3, 5):
        idx = pnl.PicardIndex(0, 1, n)
        mats = mod.picard_group_sample(n, 20, cfg.rng(16 + n))
        worst = 0.0
        for m in mats:
            worst = max(worst, mod.invariance_residual(
                lambda t: pnl.picard_y(idx, t, 0).value, m, 0.23 + 1.07j))
        rep.add(CheckRow(f"group-invariance-N{n}", "membership congruence implies "
                         "invariance of the solution", f"20 members, N={n}",
                         worst, 1e-8))
    ident = mod.UnimodularMatrix(1, 0, 0, 1)
    probe = mod.UnimodularMatrix(13, 2, 84, 13)
    rep.add(CheckRow("membership-predicate", "identity in, off-shapes out",
                     "spot values",
                     0.0 if (mod.picard_group_member(ident, 3)
                             and mod.picard_group_member(probe, 6)
                             and not mod.picard_group_member(probe, 5)) else 1.0,
                     0.5))

    prod = mod.gs_cusp_product()
    rep.add(CheckRow("cusp-cycle-product", "exact product of the three "
                     "generators", "integer arithmetic",
                     0.0 if prod.entries() == (1, 0, -6, 1) else 1.0, 0.5))
    worst_u = max(mod.invariance_residual(mod.legendre_u, g, 0.23 + 1.07j)
                  for g in mod.GU_GENERATORS)
    worst_s = max(mod.invariance_residual(mod.heun_s, g, 0.23 + 1.07j)
                  for g in mod.GS_GENERATORS)
    rep.add(CheckRow("tabulated-groups", "invariance under the tabulated "
                     "generators", "both generator sets",
                     max(worst_u, worst_s), 1e-9))
    rep.add(CheckRow("s-translation", "s(tau-2) = s(tau)", "tau=1.4i",
                     abs(mod.heun_s(1.4j - 2.0) - mod.heun_s(1.4j)), 1e-11))
    rep.add(CheckRow("cusp-value-inf", "u -> 1 at the infinite cusp", "tau=6i",
                     abs(mod.legendre_u(6j) - 1.0), 1e-5))
    rep.add(CheckRow("cusp-value-half", "u -> -1 at the half cusp "
                     "(extrapolated)", "t -> 0",
                     abs(mod.u_cusp_limit_half() + 1.0), 1e-5))

    worst = 0.0
    for nu, mu, n, m in ((0, 1, 3, mod.UnimodularMatrix(1, 1, 0, 1)),
                         (1, 0, 4, mod.UnimodularMatrix(1, 0, 2, 1)),
                         (2, 3, 5, mod.UnimodularMatrix(1, 0, 0, 1)),
                         (1, 2, 5, mod.UnimodularMatrix(3, -4, 4, -5))):
        worst = max(worst, mod.gamma1_closure_check(nu, mu, n, m, 1.2j))
    rep.add(CheckRow("family-closure", "moving theta-constants close under the "
                     "full group", "4 cases", worst, 1e-9))

    rng3 = cfg.rng(19)
    worst = 0.0
    for _ in range(30):
        while True:
            m = _random_gamma1(rng3, 9)
            if m.a % 2 == 1 and m.d % 2 == 1 and m.b % 2 == 0 and m.c % 2 == 0:
                break
        worst = max(worst, mod.invariance_residual(
            lambda t: pnl.hauptmodul_x(t, 0).value, m, 0.23 + 1.07j))
    rep.add(CheckRow("level2-invariance", "x is a level-2 function",
                     "30 random members", worst, 1e-10))

    # negative control: perturbed characteristic multiplier
    m = mod.UnimodularMatrix(5, 2, 2, 1)
    z, tau = 0.17 + 0.05j, 1.25j
    ap, bp = mod.char_transport(m, 1, 0)
    cd = m.c * tau + m.d
    lhs = th.theta(th.ThetaSpec(ap - 1, bp - 1), z / cd, m.act(tau))
    mult = (mod.epsilon_factor(1, 0, m) * mod.aleph(m)).value() * 1j
    rhs = mult * cmath.sqrt(cd) * cmath.exp(_IPI * m.c * z * z / cd) \
        * th.theta(th.ThetaSpec(0, -1), z, tau)
    rep.add(negative_control("law-wrong-multiplier", "multiplier deliberately "
                             "rotated by i", "one matrix", abs(lhs - rhs)))
    return rep


# --------------------------------------------------------------------------
# 7. the zeta(3) recursion chain
# --------------------------------------------------------------------------

def suite_apery(cfg: SuiteConfig) -> Report:
    rep = Report("apery")
    cs = fuchs.apery_coeffs(50)
    first = [int(c) for c in cs[:5]]
    rep.add(CheckRow("first-coefficients", "C_0..C_4 of the integer chain",
                     "exact recursion", 0.0 if first == [1, 5, 73, 1445, 33001]
                     else 1.0, 0.5, note=f"got {first}"))
    rep.add(CheckRow("integrality", "integer chain through n = 50",
                     "exact recursion",
                     0.0 if all(c.denominator == 1 for c in cs) else 1.0, 0.5))
    sol3 = fuchs.frobenius_series(fuchs.APERY_ODE3, 20)
    rep.add(CheckRow("frobenius-match", "series solver reproduces the recursion",
                     "order 20", 0.0 if tuple(cs[:21]) == sol3.coefficients
                     else 1.0, 0.5))
    rep.add(CheckRow("exp-series", "constant-coefficient sanity of the solver",
                     "y' = y", 0.0 if all(
                         fuchs.frobenius_series(fuchs.LinearODE.build([-1], [1]), 8)
                         .coefficients[n] == Fraction(1, math.factorial(n))
                         for n in range(9)) else 1.0, 0.5))
    sq = fuchs.symmetric_square_check(30)
    rep.add(CheckRow("symmetric-square", "Cauchy square solves the third-order "
                     "recursion exactly", "order 30",
                     0.0 if sq["square_residuals_zero"]
                     and sq["matches_integer_chain"] else 1.0, 0.5,
                     note=f"phi_1 = {sq['phi1']}"))
    c = cfg.catalog()
    nf = fuchs.apery_normal_form_check(c["apery-klein"].Q, c["heun"].Q,
                                       rng=cfg.rng(20))
    rep.add(CheckRow("normal-form", "derived Klein form equals the named one",
                     "exact rational", 0.0 if nf["exact_normal_form"] else 1.0, 0.5))
    rep.add(CheckRow("substitution-1", "(s-9)/(s(s-1)) transport onto the Heun "
                     "form", "20 random points", nf["substitution_residuals"][0],
                     1e-12))
    rep.add(CheckRow("substitution-2", "(s+8)/(s(1-s)) transport (fourth "
                 "singularity at -8)", "20 random points",
                     nf["substitution_residuals"][1], 1e-12))
    # negative control: perturbed leading recursion coefficient
    csb = [Fraction(1)]
    for n in range(1, 6):
        val = (35 * n ** 3 - 51 * n ** 2 + 27 * n - 5) * csb[n - 1]
        if n >= 2:
            val -= (n - 1) ** 3 * csb[n - 2]
        csb.append(val / n ** 3)
    broke = any(c.denominator != 1 for c in csb[:4])
    rep.add(negative_control("integrality-broken", "34 n^3 -> 35 n^3 destroys "
                             "integrality by n = 3", "exact recursion",
                             1.0 if broke else 0.0,
                             note="negative control: denominators "
                                  f"{[c.denominator for c in csb[:4]]}"))
    return rep


# --------------------------------------------------------------------------
# 8. Heun basis and inversion
# --------------------------------------------------------------------------

def suite_inversion(cfg: SuiteConfig) -> Report:
    rep = Report("inversion")
    taus = [1j * t for t in (0.9, 1.0, 1.15, 1.3, 1.45, 1.6, 1.8, 2.0)]
    ratios = []
    for tau in taus:
        sj = fuchs.heun_s_jet(tau, 1)
        p1, _ = fuchs.heun_psi(tau)
        ratios.append(sj.d(1) / (p1 * p1))
    base = ratios[0]
    rep.add(CheckRow("basis-normalization", "sdot/Psi1^2 is tau-independent",
                     "8-point imaginary axis",
                     max(abs(r - base) / abs(base) for r in ratios),
                     1e-9, note=f"constant = {base:.6g}"))

    def closed_basis(tau):
        s = fuchs.heun_s_jet(tau, 0).value
        rs = cmath.sqrt(s)
        x = (3.0 / rs + 1.0) * (rs - 1.0) ** 3 / 16.0
        amp = (s * (s - 1.0) ** 2 * (s - 9.0) ** 2) ** 0.25
        return amp * th.elliptic_K("K", x), amp * th.elliptic_K("Kprime", x)

    rows = []
    for tau in taus[:2]:
        f1, f2 = closed_basis(tau)
        p1, p2 = fuchs.heun_psi(tau)
        rows.append((f1, f2, p1, p2))
    # Cramer's rule for [[a, b], [c, d]] (c1, c2) = (psi(tau_0), psi(tau_1))
    (a, b, p1a, p2a), (c, d, p1b, p2b) = rows
    det = a * d - b * c
    c1 = ((p1a * d - b * p1b) / det, (a * p1b - c * p1a) / det)
    c2 = ((p2a * d - b * p2b) / det, (a * p2b - c * p2a) / det)
    worst = 0.0
    for tau in taus[2:]:
        f1, f2 = closed_basis(tau)
        p1, p2 = fuchs.heun_psi(tau)
        worst = max(worst,
                    abs(c1[0] * f1 + c1[1] * f2 - p1) / abs(p1),
                    abs(c2[0] * f1 + c2[1] * f2 - p2) / abs(p2))
    rep.add(CheckRow("closed-form-basis", "hypergeometric closed form matches up "
                     "to a constant 2x2 change of basis", "fit 2, verify 6",
                     worst, 1e-7))

    q_heun = cfg.catalog()["heun"].Q
    worst = 0.0
    for tau in taus[:4]:
        from .jets import vartheta_jet

        order = 3
        v33 = vartheta_jet(3, tau, order, tau_scale=3.0)
        v3 = vartheta_jet(3, tau, order)
        v2h = vartheta_jet(2, tau, order, tau_scale=0.5, tau_shift=0.5)
        psi = (v33 ** 3 / v3) * v2h ** 4 / (9.0 * v33 ** 4 - v3 ** 4)
        sj = fuchs.heun_s_jet(tau, order)
        sd, sdd = sj.d(1), sj.d(2)
        pd, pdd = psi.d(1), psi.d(2)
        psi_ss = (pdd * sd - pd * sdd) / sd ** 3
        worst = max(worst, abs(psi_ss - 0.5 * q_heun(sj.value) * psi.value))
    rep.add(CheckRow("heun-ode", "basis satisfies its own linear equation along "
                     "the parametrization", "4 points", worst, 1e-7))

    rep.add(CheckRow("invert-x-fixed-point", "parameter 1/2 maps to the square "
                     "point", "x=1/2", abs(fuchs.invert_x_to_tau(0.5) - 1j), 1e-12))
    x0 = 0.3 + 0.2j
    tau_x = fuchs.invert_x_to_tau(x0)
    rep.add(CheckRow("invert-x-roundtrip", "AGM inversion round trip",
                     "x=0.3+0.2i", abs(pnl.hauptmodul_x(tau_x, 0).value - x0),
                     1e-11))
    s_target = fuchs.heun_s_jet(1.3j, 0).value
    tau_s = fuchs.invert_s_to_tau(s_target, 1.5j)
    rep.add(CheckRow("invert-s-roundtrip", "Newton inversion with exact slope",
                     "s(1.3i) from seed 1.5i",
                     abs(fuchs.heun_s_jet(tau_s, 0).value - s_target), 1e-11))
    tau_s2 = fuchs.invert_s_to_tau(s_target, 1.3j - 2.0)
    rep.add(CheckRow("invert-s-orbit", "second basin lands on a group translate",
                     "seed 1.3i-2", abs(tau_s2 - (tau_s - 2.0)), 1e-8))
    try:
        fuchs.invert_s_to_tau(8.995, 1.5j)
        cusp_ok = False
    except ThetaKitError:
        cusp_ok = True
    rep.add(CheckRow("invert-s-cusp-guard", "cusp-adjacent targets are rejected",
                     "s=8.995", 0.0 if cusp_ok else 1.0, 0.5))

    worst = 0.0
    for tau in (1.2j, 1.5j):
        rels = fuchs.ke_relations_check(tau)
        worst = max(worst, max(rels.values()))
    rep.add(CheckRow("legendre-chain", "derivative identities and modular "
                     "representations of K, K', E, E'", "2 points", worst, 1e-9))

    # the level-2 basis attached to u = v4^2/v3^2: udot has the closed
    # theta form (pi/2i) u v2^4 and udot/Psi1^2 is constant (= 2i/pi) for
    # Psi1 = sqrt(u(u^2-1)) K'(u)
    worst_cl = 0.0
    ratios_u = []
    for tau in taus:
        v3j = jets_mod.vartheta_jet(3, tau, 1)
        v4j = jets_mod.vartheta_jet(4, tau, 1)
        u = (v4j / v3j) ** 2
        v2 = th.vartheta(2, tau)
        closed = (cmath.pi / 2j) * u.value * v2 ** 4
        worst_cl = max(worst_cl, abs(u.d(1) - closed))
        psi1 = cmath.sqrt(u.value * (u.value ** 2 - 1.0))             * th.elliptic_K("K", 1.0 - u.value ** 2)
        ratios_u.append(u.d(1) / (psi1 * psi1))
    base_u = ratios_u[0]
    rep.add(CheckRow("level2-differential", "closed theta form of udot",
                     "8-point imaginary axis", worst_cl, 1e-12))
    rep.add(CheckRow("level2-basis-normalization", "udot/Psi1^2 is "
                     "tau-independent", "8-point imaginary axis",
                     max(abs(r - base_u) / abs(base_u) for r in ratios_u), 1e-9,
                     note=f"constant = {base_u:.6g} (2i/pi)"))
    rep.add(cat.tower_identity_check("prop4-J", cfg.grid, cfg.rng(21)))

    eta_v = th.eta1(1j)
    k = th.vartheta(2, 1j) ** 2 / th.vartheta(3, 1j) ** 2
    kk = th.elliptic_K("K", k ** 2)
    ee = th.elliptic_K("E", k ** 2)
    rep.add(negative_control("eta-identity-broken", "(k^2-2) -> (k^2-3) probe",
                             "tau=i", abs(eta_v - (kk * ee + (k * k - 3.0)
                                                   * kk * kk / 3.0))))
    return rep


# --------------------------------------------------------------------------
# 9. connections (Chazy-type equations)
# --------------------------------------------------------------------------

def suite_chazy(cfg: SuiteConfig) -> Report:
    rep = Report("chazy")
    worst = max(conn.chazy_residual(tau) for tau in cfg.grid)
    worst = max(worst, conn.chazy_residual(0.4 + 0.9j))
    rep.add(CheckRow("chazy-equation", "third-order equation of the quasi-period",
                     "grid + 0.4+0.9i", worst, 1e-8))
    rep.add(negative_control("chazy-rescaled", "12i -> 13i probe", "tau=1.1i",
                             conn.chazy_residual(1.1j, 13j), 1e-2))
    worst = {}
    for tau in cfg.grid:
        for k, v in conn.fullgroup_reference_residuals(tau).items():
            worst[k] = max(worst.get(k, 0.0), v)
    rep.add(CheckRow("full-group-reference", "the four reference relations plus "
                     "the holomorphic recalibration", "8-point grid",
                     max(worst.values()), 1e-9, note=str({k: f"{v:.1e}" for k, v
                                                          in worst.items()})))
    worst_big = max(conn.legendre_big_residual(tau) for tau in cfg.grid[:4])
    rep.add(CheckRow("legendre-big-polynomial", "degree-8 polynomial identity, "
                     "largest-term normalized", "4 points", worst_big, 1e-6))
    wc = [conn.legendre_compact_residual(tau) for tau in cfg.grid[:4]]
    rep.add(CheckRow("legendre-compact", "compact calibrated equation",
                     "4 points", max(w["equation"] for w in wc), 1e-8))
    rep.add(CheckRow("legendre-compact-closed-form", "closed theta form of the "
                     "calibrated connection", "4 points",
                     max(w["closed_form"] for w in wc), 1e-10))
    rng = cfg.rng(22)
    q_cubic = cfg.catalog()["exc-heun-II"].Q
    worst12 = 0.0
    for k in range(3):
        init = (complex(rng.uniform(3, 6), rng.uniform(0.2, 0.8)),
                complex(rng.uniform(0.6, 1.4), rng.uniform(-0.3, 0.3)),
                complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)))
        worst12 = max(worst12, conn.cubic_family_residual(
            q_cubic, init, [1j, 1j + 0.25]))
    rep.add(CheckRow("cubic-family-compact", "compact equation along three "
                     "integrated local solutions", "3 random initial triples",
                     worst12, 1e-5))
    worst_h = max(conn.heun_hidden_connection_residual(tau)
                  for tau in cfg.grid[:4])
    rep.add(CheckRow("heun-hidden-connection", "calibrated s-connection satisfies "
                     "the full-group equation", "4 points", worst_h, 1e-8))
    return rep


def suite_connections(cfg: SuiteConfig) -> Report:
    rep = Report("connections")
    c = cfg.catalog()
    pairs = [("k2", "x"), ("lemn", "u"), ("qz", "z6"), ("heun", "s"),
             ("fj", "J"), ("qr", "r6"), ("qx85", "bigx"),
             ("icosa-T", "icosaT"), ("tetra-T", "tetraT"),
             ("tetra-Tsq", "tetraTsq")]
    worst = 0.0
    for qid, recipe in pairs:
        q = c[qid].Q
        for tau in cfg.grid[:5]:
            x = cat.RECIPES[recipe](tau, 5)
            cj = conn.connection_from_jet(x)
            r1, r2 = conn.identity_residuals(cj, q, x.value)
            worst = max(worst, r1, r2)
    rep.add(CheckRow("elimination-identities", "both covariant identities for "
                     "every cataloged Hauptmodul", f"{len(pairs)} pairs x 5 points",
                     worst, 1e-8))

    rng = cfg.rng(23)
    worst_i = 0.0
    qz = c["qz"].Q
    for _ in range(2):
        init = (complex(rng.uniform(4, 6), rng.uniform(0.2, 1.0)),
                complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)),
                complex(rng.uniform(-0.5, 0.5), 0.0))
        traj = conn.schwarz_integrate(qz, init, [1.2j, 1.2j + 0.25])
        for st in traj.samples[1:]:
            cj = conn.schwarz_gamma_jet(st, qz)
            r1, r2 = conn.identity_residuals(cj, qz, st.x)
            worst_i = max(worst_i, r1, r2)
    rep.add(CheckRow("identities-off-uniformizing", "identities hold along "
                     "integrated non-uniformizing solutions",
                     "2 random initial triples", worst_i, 1e-6))

    x14 = pnl.hauptmodul_x(1.4j, 5)
    traj = conn.schwarz_integrate(c["k2"].Q,
                                  (x14.value, x14.d(1), x14.d(2)),
                                  [1.4j, 1.0j])
    err = abs(traj.samples[-1].x - pnl.hauptmodul_x(1.0j, 0).value)
    rep.add(CheckRow("integrator-closed-form", "integrated Hauptmodul matches the "
                     "theta evaluation after a unit path", "1.4i -> 1.0i",
                     err, 1e-8))
    traj0 = conn.schwarz_integrate(cat.RationalFunc(Poly([0])),
                                   (0.0, 1.0, 0.0), [1j, 1j + 0.5])
    rep.add(CheckRow("integrator-flat", "zero curvature integrates to the "
                     "identity map", "Q = 0", abs(traj0.samples[-1].x - 0.5),
                     1e-10))

    # translation invariance of the connection (exact for the shift law)
    x_a = pnl.hauptmodul_x(1.3j, 5)
    x_b = pnl.hauptmodul_x(1.3j + 2.0, 5)
    g_a = conn.connection_from_jet(x_a).gamma
    g_b = conn.connection_from_jet(x_b).gamma
    rep.add(CheckRow("translation-law", "connection transported by a unit "
                     "translation", "tau=1.3i, n=2", abs(g_a - g_b), 1e-10))

    growth = conn.conical_growth_check()
    rep.add(CheckRow("conical-correction", "corrected connection stays "
                     "bounded at a second-order conical point",
                     f"radii {growth['radii']}",
                     growth["corrected_growth"], 2.5,
                     note="growth check: uncorrected grew "
                          f"x{growth['uncorrected_growth']:.1f}",
                     guard=growth["uncorrected_growth"] > 4.0))

    qz = c["qz"].Q
    x = cat.recipe_z6(1.2j, 5)
    cj = conn.connection_from_jet(x)
    om, nab, nab2 = conn.nabla_quantities(cj)
    q1 = qz.derivative()(x.value)
    qv = qz(x.value)
    wrong = abs(nab * nab / om ** 3 - (1.01 * q1) ** 2 / qv ** 3) \
        / max(1.0, abs(nab * nab / om ** 3))
    rep.add(negative_control("identity-wrong-derivative", "Q' scaled by 1.01",
                             "tau=1.2i", wrong))
    return rep


# --------------------------------------------------------------------------
# 10. tori
# --------------------------------------------------------------------------

def suite_toroidal(cfg: SuiteConfig) -> Report:
    rep = Report("toroidal")
    j_val = th.elliptic_constants(tor.EPSILON).J
    rep.add(CheckRow("klein-invariant", "J at the exceptional ratio equals "
                     "389017/34992", "double precision",
                     abs(j_val - float(tor.J_EPSILON)) / float(tor.J_EPSILON),
                     1e-12))
    lat = tor.invariants_to_lattice(292.0 / 3.0, 4760.0 / 27.0)
    rep.add(CheckRow("period-constant", "28-digit half-period scale reproduced",
                     "invariant matching",
                     abs(complex(lat.omega) - tor.OMEGA) / tor.OMEGA, 1e-13))
    rep.add(CheckRow("ratio-constant", "period ratio from invariants matches the "
                     "defining root", "invariant matching",
                     abs(complex(lat.ratio) - tor.EPSILON), 1e-12,
                     note="tabulated 28-digit ratio agrees only to ~11 digits; "
                          "see decisions record"))
    g2, g3 = tor.lattice_invariants(tor.exceptional_lattice())
    rep.add(CheckRow("invariant-roundtrip", "direct constants reproduce the "
                     "invariants", "exceptional lattice",
                     max(abs(g2 - 292.0 / 3.0) / (292.0 / 3.0),
                         abs(g3 - 4760.0 / 27.0) / (4760.0 / 27.0)), 1e-12))
    lat_i = tor.invariants_to_lattice(4.0, 0.0)
    rep.add(CheckRow("lemniscatic-ratio", "invariants (4,0) sit at the square "
                     "point", "inversion", abs(complex(lat_i.ratio) - 1j), 1e-12))

    lat_t = tor.Lattice(0.7 + 0.2j, 1.3j)
    z0 = 0.31 + 0.22j
    P = tor.wp_lattice("P", z0, lat_t)
    Pp = tor.wp_lattice("Pprime", z0, lat_t)
    g2t, g3t = tor.lattice_invariants(lat_t)
    rep.add(CheckRow("homogeneity", "scaled lattice satisfies its scaled cubic",
                     "random lattice", abs(Pp ** 2 - (4 * P ** 3 - g2t * P - g3t)),
                     1e-9))
    rep.add(CheckRow("half-period-value", "P at the second half-period is -10/3",
                     "exceptional lattice",
                     abs(tor.wp_lattice("P", tor.OMEGA * tor.EPSILON,
                                        tor.exceptional_lattice(),
                                        pole_threshold=1e-9) + 10.0 / 3.0), 1e-10))

    worst = max(tor.verify_torus_equation(1.4j),
                tor.verify_torus_equation(0.3 + 1.2j))
    rep.add(CheckRow("punctured-torus", "third-order equation of the continued "
                     "inverse", "2 points", worst, 1e-9))
    worst = 0.0
    lat_u = tor.exceptional_lattice()
    for tau in (1.4j, 1.1j):
        z = tor.z_hauptmodul_jet(tau, 0).value
        u = tor.torus_u(tau, lat_u)
        worst = max(worst, abs(z * z - (tor.wp_lattice("P", u, lat_u)
                                        + 10.0 / 3.0)))
    rep.add(CheckRow("unit-genus-cover", "z^2 = P(u) + 10/3 along the pipeline",
                     "2 points", worst, 1e-9))
    worst = max(tor.verify_lemniscatic(1.2j), tor.verify_lemniscatic(1.05j))
    rep.add(CheckRow("lemniscatic-companion", "companion equation on the (4,0) "
                     "lattice", "2 points", worst, 1e-9))
    rep.add(negative_control("lemniscatic-wrong-lattice", "right side on a wrong "
                             "lattice", "tau=1.2i",
                             tor.verify_lemniscatic(1.2j, wrong_ratio=1.5j), 1e-2))
    for branch in (+1, -1):
        r = tor.verify_reduction_pzk(1.3j, branch)
        rep.add(CheckRow(f"hyperelliptic-reduction:{'+' if branch > 0 else '-'}",
                         "differential and third-order equation of the reduction",
                         "tau=1.3i", max(r["differential"], r["fuchsian"],
                                         r["wp_ode"]), 1e-9))
    winners = []
    worst = 0.0
    pipe = 0.0
    for tau in (1.5j, 1.2j, 0.2 + 1.3j):
        r = tor.verify_pu(tau)
        winners.append((r["w_sign"], r["u_sign"]))
        worst = max(worst, r["residual"])
        pipe = max(pipe, r["pipeline"])
    rep.add(CheckRow("transcendental-cover", "cover identity with corrected "
                     "prefactor 2 v2(eps/2)^2", "3 points", worst, 1e-5,
                     note=f"branch assignment {winners[0]}, path-continuous: "
                          f"{len(set(winners)) == 1}"))
    rep.add(CheckRow("cover-pipeline", "denominator equals the computed "
                     "2 P(p)^2 - 1", "3 points", pipe, 1e-10))
    rep.add(negative_control("cover-mismatched-pair", "u and p paired from different "
                             "tau", "tau=1.5i",
                             tor.verify_pu(1.5j, mismatched=True)["residual"], 1e-2))
    return rep


SUITES = {
    "theta": suite_theta,
    "rings": suite_rings,
    "picard-curves": suite_picard_curves,
    "painleve": suite_painleve,
    "fuchsian": suite_fuchsian,
    "modular": suite_modular,
    "apery": suite_apery,
    "inversion": suite_inversion,
    "chazy": suite_chazy,
    "connections": suite_connections,
    "toroidal": suite_toroidal,
}

SUITE_ORDER = tuple(SUITES)


def run_suite(name: str, cfg: SuiteConfig | None = None) -> list[Report]:
    """Run one named suite, or all of them, returning Reports in suite
    order.  ``suite_tolerances[<suite>]`` of the configuration replaces
    the tolerance of every row of that suite except controls and skips."""
    cfg = cfg or SuiteConfig()
    if name == "all":
        names = list(SUITE_ORDER)
    elif name in SUITES:
        names = [name]
    else:
        raise KeyError(f"unknown suite {name!r}; known: "
                       f"{', '.join(SUITE_ORDER)} or 'all'")
    reports = [SUITES[n](cfg) for n in names]
    for rep in reports:
        tol = cfg.suite_tolerances.get(rep.suite)
        if tol is not None:
            for row in rep.checks:
                if row.kind in ("bound", "exact"):
                    row.tolerance = tol
    return reports
