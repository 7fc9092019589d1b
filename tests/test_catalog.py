"""Catalog-driven verification: curves, Fuchsian checks, birational maps,
tower identities, and the dual-form cross-validations."""

import random
from fractions import Fraction

import pytest

from thetakit import catalog as cat
from thetakit.rational import Poly, RationalFunc


@pytest.fixture(scope="module")
def entries():
    return cat.load_catalog()


CURVES = ("uy-sqrt", "uy-quartic", "tor-yu", "g5", "pq", "x8", "w2ab")
FUCHSIAN = ("k2", "lemn", "qz", "qr", "heun", "fj", "qx85", "icosa-T", "tetra-T",
            "tetra-Tsq")


@pytest.mark.parametrize("eid", CURVES)
def test_curve_entries(entries, eid):
    rows = cat.verify_entry(entries[eid])
    assert all(r.passed for r in rows), [r for r in rows if not r.passed]


@pytest.mark.parametrize("eid", FUCHSIAN)
def test_fuchsian_entries(entries, eid):
    rows = cat.fuchsian_check(entries[eid])
    assert all(r.passed for r in rows), [r for r in rows if not r.passed]


def test_dual_forms(entries):
    assert cat.dual_forms_agree(entries["qz"]).passed
    assert cat.dual_forms_agree(entries["qx85"]).passed


def test_partial_fraction_reassembly(entries):
    """Re-derive both alternative forms from their structural pieces and
    compare exactly with the stored data."""
    # six-puncture equation: -(1/2) sum 1/(z-E)^2 + (2z^2-6)/prod(z-E), E != 0
    alt = RationalFunc([0])
    for e in (0, 1, -1, 3, -3):
        alt = alt + Fraction(-1, 2) * RationalFunc([1], Poly([-e, 1]) ** 2)
    alt = alt + RationalFunc(Poly([-6, 0, 2]),
                             Poly([-1, 1]) * Poly([1, 1])
                             * Poly([-3, 1]) * Poly([3, 1]))
    assert entries["qz"].Q_alt == alt
    assert entries["qz"].Q == alt  # the two printed forms are equal exactly
    # octahedral tower: root-sums as exact rationals
    B = Poly([1, 0, 0, 0, 14, 0, 0, 0, 1])
    A = Poly([0, -1, 0, 0, 0, 1])
    sum_be = RationalFunc(B.derivative() * B.derivative()
                          - B.derivative().derivative() * B, B * B)
    sum_al = RationalFunc(A.derivative() * A.derivative()
                          - A.derivative().derivative() * A, A * A)
    alt2 = Fraction(-3, 8) * sum_be + Fraction(-1, 2) * sum_al \
        + RationalFunc(Poly([0, 0, 0, 1]) * Poly([7, 0, 0, 0, 1])
                       * Poly([-1, 0, 0, 0, 5]), B * A)
    assert entries["qx85"].Q_alt == alt2
    assert entries["qx85"].Q == alt2


def test_square_root_equation_is_derived(entries):
    """Q for r = sqrt(z) must equal 4 r^2 Q_z(r^2) + (3/2)/r^2 exactly."""
    qz = entries["qz"].Q
    derived = 4 * RationalFunc(Poly([0, 0, 1])) \
        * qz.compose(RationalFunc(Poly([0, 0, 1]))) \
        + RationalFunc(Poly([3]), Poly([0, 0, 2]))
    assert entries["qr"].Q == derived


def test_squared_tetrahedral_equation_is_derived(entries):
    """The squared-parameter Q pins the T-equation through the same rule,
    which fixes the T-equation's denominator (no factor at T = 0)."""
    qb = entries["tetra-Tsq"].Q
    derived = 4 * RationalFunc(Poly([0, 0, 1])) \
        * qb.compose(RationalFunc(Poly([0, 0, 1]))) \
        + RationalFunc(Poly([3]), Poly([0, 0, 2]))
    assert entries["tetra-T"].Q == derived
    assert entries["tetra-T"].Q.den(Fraction(0)) != 0


def test_birational_pairs():
    for which in ("tor", "bir"):
        rows = cat.birational_check(which)
        assert all(r.passed for r in rows)


def test_tower_identities():
    for ident in ("perfect-square", "duplication", "s-equality", "xuni",
                  "prop4-J"):
        rows = cat.tower_identity_check(ident, rng=random.Random(0))
        assert all(r.passed for r in rows), (ident, rows)


def test_collapsed_printed_s_quotient_fails():
    """The classical index arrangement of the s-quotient collapses (its
    first factor equals the second's numerator partner identically), so it
    evaluates to a different function; kept as a pinned negative check."""
    from thetakit.jets import jacobi_theta_jet

    tau = 1.1j
    t1_13 = jacobi_theta_jet(1, 0.0, 1.0 / 3.0, tau, 0).value
    t2_16 = jacobi_theta_jet(2, 0.0, 1.0 / 6.0, tau, 0).value
    assert abs(t1_13 - t2_16) < 1e-15  # the collapse identity
    t3 = jacobi_theta_jet(3, 0.0, 1.0 / 6.0, tau, 0).value
    t4 = jacobi_theta_jet(4, 0.0, 1.0 / 6.0, tau, 0).value
    collapsed = (t1_13 ** 4 * t3 ** 4) / (t2_16 ** 4 * t4 ** 4)
    s = cat.recipe_s(tau, 0).value
    assert abs(collapsed - s) > 1e-3


def test_example7_and_8(entries):
    rows = cat.icosa_transport_checks(entries["qz"].Q, entries["icosa-T"].Q,
                                      rng=random.Random(0))
    rows += cat.tetra_checks(entries["tetra-T"].Q, entries["tetra-Tsq"].Q,
                             entries["tetra-xi"].F, rng=random.Random(0))
    assert all(r.passed for r in rows), [r for r in rows if not r.passed]


def test_quoted_moebius_fails_x_match():
    """The often-quoted (3T-1)/(T-1) relation does not equate the two
    x-parametrizations (pinned misprint guard)."""
    rng = random.Random(2)
    worst = 1e9
    for _ in range(10):
        t = complex(rng.uniform(-3, 3), rng.uniform(0.3, 2.0))
        worst = min(worst, abs(cat.ICOSA_X_OF_T(t)
                               - cat.PICARD_X_OF_TT(cat.TT_OF_T(t))))
    assert worst > 1e-3


def test_reference_invariants():
    rows = cat.reference_invariant_checks()
    assert all(r.passed for r in rows)


def test_chains(entries):
    assert cat.legendre_z_chain_check(entries["k2"].Q, entries["qz"].Q,
                                      random.Random(0)).passed
    assert cat.exceptional_heun_equivalence_check(
        entries["exc-heun-I"].Q, entries["exc-heun-III"].Q,
        entries["xx-curve"].F, random.Random(1)).passed


def test_reference_entries_present(entries):
    for eid in ("x8x5", "xx-curve", "tetra-xi", "bea4", "exc-heun-I", "exc-heun-II",
                "exc-heun-III", "exc-heun-IV", "apery-klein", "nine-branch-Q"):
        assert entries[eid].kind == "reference"


def test_nine_branch_reference_assembly(entries):
    """The nine-puncture Q stored in the file equals its partial-fraction
    assembly over the roots of T^9 - 6T^7 + 6T^3 - T (exact rationals)."""
    from thetakit.rational import Poly, RationalFunc

    A9 = Poly([0, -1, 0, 6, 0, 0, 0, -6, 0, 1])
    sum9 = RationalFunc(A9.derivative() * A9.derivative()
                        - A9.derivative().derivative() * A9, A9 * A9)
    q9 = Fraction(-1, 2) * sum9 + RationalFunc(Poly([2, 0, 0, 0, -14, 0, 4]),
                                               A9)
    assert entries["nine-branch-Q"].Q == q9


def test_unknown_recipe_and_kind_errors(entries):
    from thetakit.errors import CatalogError

    with pytest.raises(CatalogError):
        cat.verify_entry(entries["k2"])
    with pytest.raises(CatalogError):
        cat.fuchsian_check(entries["g5"])
    with pytest.raises(CatalogError):
        cat.birational_check("nonsense")
    with pytest.raises(CatalogError):
        cat.tower_identity_check("nonsense")


def test_unknown_catalog_field_is_rejected(tmp_path):
    from thetakit.errors import CatalogError

    path = _mutated_catalog(tmp_path, "k2", "tol: 1e-10", "tol: 1e-10\nqnun: 1")
    with pytest.raises(CatalogError, match="unknown field 'qnun' in entry k2"):
        cat.load_catalog(path)


NAN = float("nan")


@pytest.mark.parametrize("kind,residual,tol,guard,passed", [
    ("bound", 1e-9, 1e-8, True, True),
    ("bound", 1e-8, 1e-8, True, False),
    ("bound", 1e-9, 1e-8, False, False),
    ("bound", NAN, 1e-8, True, False),
    ("exact", 0.0, 0.0, True, True),
    ("exact", 1.0, 0.0, True, False),
    ("control", 0.5, 1e-3, True, True),
    ("control", 1e-4, 1e-3, True, False),
    ("skip", NAN, 1e-8, True, True),
    ("skip", NAN, 1e-8, False, False),
])
def test_check_row_verdict(kind, residual, tol, guard, passed):
    row = cat.CheckRow("id", "ref", "inputs", residual, tol, kind=kind,
                       guard=guard)
    assert row.passed is passed


def test_check_row_rejects_unknown_kind():
    with pytest.raises(ValueError):
        cat.CheckRow("id", "ref", "inputs", 0.0, 1.0, kind="loose")


def test_report_counts_skips_apart_from_failures():
    from thetakit.reports import Report

    def skipped():
        return cat.CheckRow("id", "ref", "inputs", NAN, 1e-8, kind="skip")

    rep = Report("x", [skipped() for _ in range(cat.MAX_SKIPS)])
    assert rep.passed and not rep.failed
    rep.add(skipped())
    assert not rep.passed and not rep.failed and len(rep.skipped) == 3


def test_catalog_generator_round_trips():
    """``tools/make_catalog.py`` renders the committed catalog byte for
    byte (rendered in memory; nothing is written)."""
    import importlib.util
    from pathlib import Path

    tool_path = Path(__file__).resolve().parents[1] / "tools" / "make_catalog.py"
    spec = importlib.util.spec_from_file_location("_make_catalog", tool_path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.render().encode() == cat.default_catalog_path().read_bytes()


# Entries no suite reads, each with the reason.
UNREAD = {
    "x8x5": "no z recipe parametrizes the tower curve",
    "bea4": "trivariate, recorded as text only",
    "exc-heun-IV": "no row checks the fourth exceptional operator yet",
    "nine-branch-Q": "no row yet; the monodromy of the Fuchsian equations "
                     "will read it",
}


def test_every_catalog_entry_has_a_reader(monkeypatch):
    """One run of every suite reads every entry except those in UNREAD."""
    from thetakit.suites import SuiteConfig, run_suite

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    read = set()
    recorder = Recording(cat.load_catalog())
    monkeypatch.setattr(cat, "default_catalog", lambda: recorder)
    run_suite("all", SuiteConfig(seed=0))
    assert set(recorder) - read == set(UNREAD)


def _mutated_catalog(tmp_path, eid, old, new):
    """A copy of the catalog with ``old`` replaced by ``new`` inside entry
    ``eid``, under a recomputed checksum."""
    import hashlib

    body = cat.default_catalog_path().read_text().split("[checksum]")[0]
    start = body.index(f"[entry {eid}]")
    end = body.find("[entry ", start + 1)
    end = len(body) if end < 0 else end
    block = body[start:end]
    assert block.count(old) == 1
    body = body[:start] + block.replace(old, new) + body[end:]
    path = tmp_path / "curves.txt"
    path.write_text(f"{body}[checksum]\nsha256: "
                    f"{hashlib.sha256(body.encode()).hexdigest()}\n")
    return path


@pytest.mark.parametrize("eid,old,new,suite", [
    ("tetra-xi", "F: 0 2 18", "F: 0 2 19", "fuchsian"),
    ("xx-curve", "F: 0 2 -256", "F: 0 2 -255", "fuchsian"),
    ("apery-klein", "qnum: -1/2 22 ", "qnum: -1/2 23 ", "apery"),
    ("exc-heun-I", "p2: 0 -1 0 1", "p2: 0 -1 0 2", "fuchsian"),
])
def test_reference_entry_mutant_fails_a_row(tmp_path, eid, old, new, suite):
    """A coefficient of a reference entry raised by 1 fails a row of the
    suite that reads the entry."""
    from thetakit.suites import SUITES, SuiteConfig

    path = _mutated_catalog(tmp_path, eid, old, new)
    rep = SUITES[suite](SuiteConfig(seed=0, catalog_path=str(path)))
    assert rep.failed, eid
