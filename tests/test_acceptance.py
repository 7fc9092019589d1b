"""Acceptance gate: the eleven headline criteria, each with its stated
tolerance and runtime budget, printing one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` (or rely on the same
checks through ``thetakit suite run all``)."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from thetakit.reports import Report, reports_to_json
from thetakit.suites import SUITE_ORDER, SUITES, SuiteConfig, run_suite

CFG = SuiteConfig(seed=0)

_results: dict[str, Report] = {}


def run(name: str) -> Report:
    if name not in _results:
        _results[name] = SUITES[name](CFG)
    return _results[name]


def criterion(number: int, label: str, started: float, budget: float,
              reports, residual_cap=None):
    elapsed = time.time() - started
    reports = reports if isinstance(reports, list) else [reports]
    failed = [c for r in reports for c in r.failed]
    worst = 0.0
    for r in reports:
        for c in r.checks:
            if c.kind != "control" and c.residual == c.residual:
                worst = max(worst, c.residual)
    ok = not failed and elapsed < budget
    if residual_cap is not None:
        ok = ok and worst <= residual_cap
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {label} "
          f"(worst residual {worst:.2e}, {elapsed:.2f}s of {budget:.0f}s)")
    assert not failed, failed
    if residual_cap is not None:
        assert worst <= residual_cap
    assert elapsed < budget
    return worst


def test_criterion_01_theta_foundations():
    t0 = time.time()
    rep = run("theta")
    # quartic identity, both eta relations, translation identities, and
    # quasi-periodicity all sit under 1e-11 on their grids
    criterion(1, "theta foundations on the 50-point grid", t0, 2.0, rep)
    for cid in ("jacobi-quartic", "eta-log-derivative", "eta-cubed",
                "quasi-period-1", "quasi-period-tau"):
        row = next(c for c in rep.checks if c.check_id == cid)
        assert row.residual < 1e-11


def test_criterion_02_ring_vs_oracle():
    t0 = time.time()
    rep = run("rings")
    criterion(2, "closed rings vs the termwise oracle (30 random "
              "configurations)", t0, 5.0, rep)
    for cid in ("ring-generators", "ring-moving"):
        row = next(c for c in rep.checks if c.check_id == cid)
        assert row.residual < 1e-8


def test_criterion_03_picard_hitchin_curves():
    t0 = time.time()
    rep = run("picard-curves")
    worst = criterion(3, "curve residuals on the standard grid", t0, 10.0,
                      rep, residual_cap=1e-8)
    assert worst < 1e-8


def test_criterion_04_painleve_residuals():
    t0 = time.time()
    rep = run("painleve")
    criterion(4, "equation residuals, probes, and transformation maps",
              t0, 10.0, rep)
    for fam in ("picard", "hitchin"):
        row = next(c for c in rep.checks if c.check_id == f"p6:{fam}")
        assert row.residual < 1e-6
        assert "vanishing: ['delta-shift']" in row.note  # exactly one
    assert next(c for c in rep.checks
                if c.check_id == "p6:power-law").residual < 1e-8
    assert next(c for c in rep.checks
                if c.check_id == "okamoto:cross").residual < 1e-8
    assert next(c for c in rep.checks
                if c.check_id == "okamoto:roundtrip").residual < 1e-8
    assert next(c for c in rep.checks
                if c.check_id == "okamoto:isomorphism").residual < 1e-9


def test_criterion_05_fuchsian_checks():
    t0 = time.time()
    rep = run("fuchsian")
    worst = criterion(5, "Fuchsian equations of every cataloged Hauptmodul",
                      t0, 10.0, rep, residual_cap=1e-8)
    assert worst < 1e-8
    forms = [c for c in rep.checks if c.check_id.endswith(":forms")]
    assert forms and all(f.residual == 0.0 for f in forms)


def test_criterion_06_modular_suite():
    t0 = time.time()
    rep = run("modular")
    criterion(6, "transformation laws, congruences, and tabulated groups",
              t0, 15.0, rep)
    assert next(c for c in rep.checks
                if c.check_id == "transformation-law").residual < 1e-9
    assert next(c for c in rep.checks
                if c.check_id == "aleph-eighth-root").residual == 0.0
    assert next(c for c in rep.checks
                if c.check_id == "level2-laws").residual < 1e-10
    for n in (3, 5):
        assert next(c for c in rep.checks
                    if c.check_id == f"group-invariance-N{n}").residual < 1e-8
    assert next(c for c in rep.checks
                if c.check_id == "cusp-cycle-product").residual == 0.0
    assert next(c for c in rep.checks
                if c.check_id == "tabulated-groups").residual < 1e-9
    assert next(c for c in rep.checks
                if c.check_id == "cusp-value-half").residual < 1e-5


def test_criterion_07_apery_chain():
    t0 = time.time()
    rep = run("apery")
    criterion(7, "integer chain, symmetric square, and normal form", t0,
              3.0, rep)
    assert next(c for c in rep.checks
                if c.check_id == "first-coefficients").residual == 0.0
    assert next(c for c in rep.checks
                if c.check_id == "symmetric-square").residual == 0.0
    for cid in ("substitution-1", "substitution-2"):
        assert next(c for c in rep.checks if c.check_id == cid).residual < 1e-12


def test_criterion_08_heun_inversion():
    t0 = time.time()
    rep = run("inversion")
    criterion(8, "basis constancy, closed form, round trips, and the "
              "Legendre chain", t0, 10.0, rep)
    assert next(c for c in rep.checks
                if c.check_id == "basis-normalization").residual < 1e-9
    assert next(c for c in rep.checks
                if c.check_id == "closed-form-basis").residual < 1e-7
    for cid in ("invert-x-roundtrip", "invert-s-roundtrip"):
        assert next(c for c in rep.checks if c.check_id == cid).residual < 1e-11
    assert next(c for c in rep.checks
                if c.check_id == "legendre-chain").residual < 1e-9
    prop4 = [c for c in rep.checks if c.check_id.startswith("prop4")]
    assert prop4 and max(c.residual for c in prop4) < 1e-9


def test_criterion_09_connections():
    t0 = time.time()
    rep_chazy = run("chazy")
    rep_conn = run("connections")
    criterion(9, "Chazy-type equations and the covariant identities", t0,
              30.0, [rep_chazy, rep_conn])
    assert next(c for c in rep_chazy.checks
                if c.check_id == "chazy-equation").residual < 1e-8
    assert next(c for c in rep_chazy.checks
                if c.check_id == "full-group-reference").residual < 1e-9
    assert next(c for c in rep_chazy.checks
                if c.check_id == "legendre-compact").residual < 1e-8
    assert next(c for c in rep_chazy.checks
                if c.check_id == "legendre-big-polynomial").residual < 1e-6
    assert next(c for c in rep_chazy.checks
                if c.check_id == "cubic-family-compact").residual < 1e-5
    assert next(c for c in rep_conn.checks
                if c.check_id == "elimination-identities").residual < 1e-8
    assert next(c for c in rep_conn.checks
                if c.check_id == "identities-off-uniformizing").residual < 1e-6


def test_criterion_10_tori():
    t0 = time.time()
    rep = run("toroidal")
    criterion(10, "exceptional-torus constants and the equations on tori",
              t0, 30.0, rep)
    assert next(c for c in rep.checks
                if c.check_id == "klein-invariant").residual < 1e-12
    assert next(c for c in rep.checks
                if c.check_id == "period-constant").residual < 1e-13
    assert next(c for c in rep.checks
                if c.check_id == "punctured-torus").residual < 1e-9
    assert next(c for c in rep.checks
                if c.check_id == "lemniscatic-companion").residual < 1e-9
    hyper = [c for c in rep.checks
             if c.check_id.startswith("hyperelliptic-reduction")]
    assert hyper and max(c.residual for c in hyper) < 1e-9
    cover = next(c for c in rep.checks
                 if c.check_id == "transcendental-cover")
    assert cover.residual < 1e-5
    assert "path-continuous: True" in cover.note


def test_criterion_11_negative_controls():
    t0 = time.time()
    missing = []
    weak = []
    for name in SUITES:
        rep = run(name)
        controls = [c for c in rep.checks if c.kind == "control"]
        if not controls:
            missing.append(name)
        for c in controls:
            if not (c.residual > 1e-3 and c.passed):
                weak.append((name, c.check_id, c.residual))
    status = "PASS" if not missing and not weak else "FAIL"
    print(f"[{status}] criterion 11: every suite carries a broken probe "
          f"with residual above 1e-3 ({time.time() - t0:.2f}s)")
    assert not missing, f"suites without negative controls: {missing}"
    assert not weak, f"controls that failed to exceed the floor: {weak}"


def test_suite_tolerance_reaches_every_row_but_controls():
    """``tol.<suite>`` replaces the tolerance of every row of its suite,
    so 1e-30 fails every suite; a control keeps its floor and passes."""
    cfg = SuiteConfig(seed=0,
                      suite_tolerances={name: 1e-30 for name in SUITE_ORDER})
    reports = run_suite("all", cfg)
    assert [r.suite for r in reports] == list(SUITE_ORDER)
    for rep in reports:
        assert not rep.passed, rep.suite
        for row, plain in zip(rep.checks, run(rep.suite).checks):
            assert row.check_id == plain.check_id
            if row.kind == "control":
                assert row.tolerance == plain.tolerance and row.passed
            elif row.kind != "skip":
                assert row.tolerance == 1e-30
                assert row.passed == (row.residual == 0.0), row.check_id


def test_golden_report_seed0():
    """The seed-0 report of ``suite run all`` matches the committed one.

    Every field is compared byte for byte except ``residual``, which may
    grow to 10x its golden value, or to anything below tolerance/100.
    The suites come from the ``run()`` cache, so nothing runs twice.
    Regenerate the golden file (only when a report change is intended) with

        PYTHONPATH=src python -m thetakit.cli suite run all --format json \\
            --seed 0 > tests/data/report_seed0.json
    """
    golden_text = (Path(__file__).parent / "data" /
                   "report_seed0.json").read_text()
    golden = json.loads(golden_text)
    got = json.loads(reports_to_json([run(name) for name in SUITE_ORDER]))
    assert len(got["suites"]) == len(golden["suites"])
    drifted, changed = [], []
    for rep_got, rep_gold in zip(got["suites"], golden["suites"]):
        assert len(rep_got["checks"]) == len(rep_gold["checks"]), \
            rep_gold["suite"]
        for row, gold in zip(rep_got["checks"], rep_gold["checks"]):
            r, g = row["residual"], gold["residual"]
            if g is None or r is None:
                ok = r is g
            else:
                ok = r <= 10 * g or r < gold["tolerance"] / 100
            if not ok:
                drifted.append((rep_gold["suite"], gold["check_id"], r, g))
            row["residual"] = g
            if row != gold:
                changed.append((rep_gold["suite"], gold["check_id"]))
    assert not drifted, f"residuals above 10x golden: {drifted}"
    assert not changed, f"rows that differ from the golden report: {changed}"
    assert json.dumps(got, indent=2, allow_nan=False) + "\n" == golden_text


def test_compiled_report_seed0(compiled_core, perfbench_child):
    """The compiled kernel writes the pure kernel's seed-0 report, byte for
    byte: perfbench's child runs ``suite run all --format json --seed 0``
    on the kernel built from ``_core.c``, and the pure report is the one
    serialized from the ``run()`` cache."""
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "THETAKIT_PURE"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env["PERFBENCH_CORE"] = str(compiled_core)
    proc = subprocess.run([sys.executable, perfbench_child.__file__,
                           "verify", "0"], capture_output=True, text=True,
                          env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    tag = perfbench_child.RESULT_TAG
    result = json.loads(proc.stderr.rsplit(tag, 1)[-1])
    assert result["backend"] == "compiled"
    assert proc.stdout == reports_to_json(
        [run(name) for name in SUITE_ORDER]) + "\n"
