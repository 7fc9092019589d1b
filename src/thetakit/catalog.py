"""Data-driven catalog of curves, Fuchsian Q-functions, rational maps, and
tower identities, with residual verification over a fixed tau grid.

The catalog lives in ``data/curves.txt`` as a human-auditable text file
with exact rational coefficients; a sha256 checksum section is mandatory
(the loader, and hence the verification suites, refuse a file without
one).  The file is the only copy of every curve and equation the suites
check: the checks take the entries they test as arguments, and the code
never types a curve, a Q or an operator of the file again.  Each entry
binds its polynomial payload to a named parametrization recipe -- a
composition of theta-kernel and Painleve operations -- so a
transcription error in either the data or an evaluator shows up as a
residual, not a silent pass.

Curve residuals are normalized by the largest monomial magnitude at the
evaluation point: several catalog polynomials have degree 12..24, where a
raw residual conflates transcription errors with benign double-precision
cancellation.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .errors import CatalogError, PoleProximityError, ThetaKitError
from .fuchs import LinearODE, pq_to_normal
from .jets import (Jet, dedekind_jet, jacobi_theta_jet, jet_newton_inverse,
                   md_transport_residual, meromorphic_derivative, vartheta_jet)
from .painleve import PicardIndex, hauptmodul_x, picard_y, sqrt_x_jet
from .rational import BivarPoly, Poly, RationalFunc, complex_roots

# Standard verification grid: away from the catalog functions' poles,
# Im tau in [0.9, 2.2], Re tau in {-0.35, 0, 0.4}.
STANDARD_GRID = (
    -0.35 + 0.95j, 0.0 + 1.05j, 0.4 + 1.2j, -0.35 + 1.4j,
    0.0 + 1.6j, 0.4 + 1.8j, 0.0 + 2.0j, -0.35 + 2.2j,
)

MAX_SKIPS = 2
CHECK_KINDS = ("bound", "exact", "control", "skip")


# --------------------------------------------------------------------------
# Parametrization recipes
# --------------------------------------------------------------------------

def _theta16(k: int, tau, order: int) -> Jet:
    return jacobi_theta_jet(k, 0.0, 1.0 / 6.0, tau, order)


def recipe_x(tau, order=5):
    return hauptmodul_x(tau, order)


def recipe_u(tau, order=5):
    return sqrt_x_jet(tau, order)


def recipe_v(tau, order=5):
    return vartheta_jet(4, tau, order) / vartheta_jet(3, tau, order)


def recipe_picard(nu: int, mu: int, n: int):
    idx = PicardIndex(nu, mu, n)

    def run(tau, order=5):
        return picard_y(idx, tau, order)

    return run


def recipe_z6(tau, order=5):
    """z = 2 + 3 (v4/v3)^2 (t1/t2)^2 - (v2/v3)^2 (t1/t4)^2, thetas at 1/6."""
    v2 = vartheta_jet(2, tau, order)
    v3 = vartheta_jet(3, tau, order)
    v4 = vartheta_jet(4, tau, order)
    t1 = _theta16(1, tau, order)
    t2 = _theta16(2, tau, order)
    t4 = _theta16(4, tau, order)
    return 2.0 + 3.0 * (v4 / v3) ** 2 * (t1 / t2) ** 2 \
        - (v2 / v3) ** 2 * (t1 / t4) ** 2


def recipe_r6(tau, order=5):
    """The single-valued square root of z: (z-1) v3 t2 / (2 v4 t1)."""
    z = recipe_z6(tau, order)
    v3 = vartheta_jet(3, tau, order)
    v4 = vartheta_jet(4, tau, order)
    t1 = _theta16(1, tau, order)
    t2 = _theta16(2, tau, order)
    return (z - 1.0) * v3 * t2 / (2.0 * v4 * t1)


def recipe_s(tau, order=5):
    from .fuchs import heun_s_jet

    return heun_s_jet(tau, order)


def recipe_z_low(tau, order=5):
    """z = 3 v3^2(3 tau)/v3^2(tau) (the degree-5 hyperelliptic Hauptmodul)."""
    v33 = vartheta_jet(3, tau, order, tau_scale=3.0)
    v3 = vartheta_jet(3, tau, order)
    return 3.0 * (v33 / v3) ** 2


def recipe_w2ab_v(tau, order=5):
    """v = 48 sqrt3 i v3^3(3 tau)/v3^3 * v2^2 v4^2 / (9 v3^4(3 tau) - v3^4)."""
    v33 = vartheta_jet(3, tau, order, tau_scale=3.0)
    v2 = vartheta_jet(2, tau, order)
    v3 = vartheta_jet(3, tau, order)
    v4 = vartheta_jet(4, tau, order)
    den = 9.0 * v33 ** 4 - v3 ** 4
    return (48.0 * math.sqrt(3.0) * 1j) * (v33 ** 3 / v3 ** 3) \
        * (v2 ** 2) * (v4 ** 2) / den


def recipe_j(tau, order=5):
    from .connections import j_jet

    return j_jet(tau, order)


def recipe_p(tau, order=5):
    return vartheta_jet(4, tau, order) / vartheta_jet(3, tau, order)


def recipe_q6(tau, order=5):
    return (_theta16(2, tau, order) / _theta16(1, tau, order)) ** 2


def recipe_bigx(tau, order=5):
    """x = ded^3 theta2(1/3) / (theta1(1/6)^2 theta3(1/6)^2)."""
    ded = dedekind_jet(tau, order)
    t2_13 = jacobi_theta_jet(2, 0.0, 1.0 / 3.0, tau, order)
    t1 = _theta16(1, tau, order)
    t3 = _theta16(3, tau, order)
    return ded ** 3 * t2_13 / (t1 ** 2 * t3 ** 2)


def recipe_ytilde(tau, order=5):
    return picard_y(PicardIndex(0, 1, 3), tau, order)


def recipe_bigy(tau, order=5):
    """The second octahedral coordinate, through the birational transport
    of (p, q) (sheet convention of ``bir_forward``)."""
    p = recipe_p(tau, order)
    q = recipe_q6(tau, order)
    return -(q * q + 3.0) / (q * q * (q * q - 1.0)) \
        * (4.0 * p * p * q + q * q + 3.0)


def recipe_icosa_t(tau, order=5):
    """Rational parameter of the transported icosahedral-family solution,
    through the level-3 pair: TT = (y^3 - 3xy + x(x+1))/(x(x-1)) and
    TT = 3(T+1)/(T-1), so T = (TT+3)/(TT-3).

    (Equating the x-parametrizations pins TT = 3(T+1)/(T-1); the often-
    quoted Moebius (3T-1)/(T-1) fails the x-match for every branch.)"""
    x = recipe_x(tau, order)
    yt = recipe_ytilde(tau, order)
    tt = (yt ** 3 - 3.0 * x * yt + x * (x + 1.0)) / (x * (x - 1.0))
    return (tt + 3.0) / (tt - 3.0)


def recipe_tetra_t(tau, order=5):
    return _tetra_t_jet(tau, order)


def recipe_tetra_sq(tau, order=5):
    t = _tetra_t_jet(tau, order)
    return t * t


RECIPES = {
    "x": recipe_x,
    "u": recipe_u,
    "v": recipe_v,
    "picard013": recipe_picard(0, 1, 3),
    "picard015": recipe_picard(0, 1, 5),
    "z6": recipe_z6,
    "r6": recipe_r6,
    "s": recipe_s,
    "zW": recipe_z_low,
    "vW": recipe_w2ab_v,
    "J": recipe_j,
    "p": recipe_p,
    "q6": recipe_q6,
    "bigx": recipe_bigx,
    "bigy": recipe_bigy,
    "icosaT": recipe_icosa_t,
    "tetraT": recipe_tetra_t,
    "tetraTsq": recipe_tetra_sq,
}


# --------------------------------------------------------------------------
# Catalog file parsing
# --------------------------------------------------------------------------

@dataclass
class CurveEntry:
    id: str
    kind: str                      # curve | fuchsian | reference
    note: str = ""
    tol: float = 1e-8
    F: BivarPoly | None = None     # kind == curve
    vars: tuple[str, str] | None = None
    Q: RationalFunc | None = None  # qnum/qden, or the normal form of p0/p1/p2
    Q_alt: RationalFunc | None = None
    hauptmodul: str | None = None


_COEFFICIENT_FIELDS = ("qnum", "qden", "qaltnum", "qaltden", "p0", "p1", "p2")


def _parse_fraction_list(text: str) -> list[Fraction]:
    return [Fraction(tok) for tok in text.split()]


def default_catalog_path() -> Path:
    return Path(str(resources.files("thetakit").joinpath("data/curves.txt")))


def load_catalog(path: str | Path | None = None) -> dict[str, CurveEntry]:
    """Parse and checksum-verify the catalog file.

    An entry with ``p0``/``p1``/``p2`` lines, the second-order operator
    p2 y'' + p1 y' + p0 y = 0, gets the operator's normal form as its Q."""
    path = Path(path) if path is not None else default_catalog_path()
    if not path.exists():
        raise CatalogError(f"catalog file not found: {path}")
    text = path.read_text()
    split_at = None
    all_lines = text.splitlines(keepends=True)
    for i, raw in enumerate(all_lines):
        if raw.strip() == "[checksum]":
            split_at = i
            break
    if split_at is None:
        raise CatalogError("catalog file has no checksum section; refusing to run")
    body = "".join(all_lines[:split_at])
    stated = None
    for raw in all_lines[split_at + 1:]:
        line = raw.strip()
        if line.startswith("sha256:"):
            stated = line.split(":", 1)[1].strip()
    if stated is None:
        raise CatalogError("checksum section carries no sha256 line")
    actual = hashlib.sha256(body.encode()).hexdigest()
    if actual != stated:
        raise CatalogError(f"catalog checksum mismatch: {actual} != {stated}")

    entries: dict[str, CurveEntry] = {}
    current: CurveEntry | None = None
    fields: dict[str, str] = {}
    bivar_rows: list[tuple[int, int, Fraction]] = []

    def finish():
        nonlocal current, fields, bivar_rows
        if current is None:
            return
        if bivar_rows:
            current.F = BivarPoly({(i, j): c for i, j, c in bivar_rows})
        if "qnum" in fields:
            current.Q = RationalFunc(Poly(_parse_fraction_list(fields["qnum"])),
                                     Poly(_parse_fraction_list(fields["qden"])))
        if "qaltnum" in fields:
            current.Q_alt = RationalFunc(
                Poly(_parse_fraction_list(fields["qaltnum"])),
                Poly(_parse_fraction_list(fields["qaltden"])))
        if "p2" in fields:
            current.Q = pq_to_normal(LinearODE.build(
                *(_parse_fraction_list(fields[f"p{j}"]) for j in range(3))))
        entries[current.id] = current
        current, fields, bivar_rows = None, {}, []

    for raw in body.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[entry "):
            finish()
            name = line[len("[entry "):].rstrip("]").strip()
            current = CurveEntry(id=name, kind="reference")
            continue
        if current is None:
            raise CatalogError(f"content outside any entry: {line!r}")
        if line.startswith("F:"):
            i, j, c = line[2:].split()
            bivar_rows.append((int(i), int(j), Fraction(c)))
            continue
        key, _, val = line.partition(":")
        key = key.strip()
        val = val.strip()
        if key == "kind":
            current.kind = val
        elif key == "note":
            current.note = val
        elif key == "tol":
            current.tol = float(val)
        elif key == "vars":
            current.vars = tuple(val.split())
        elif key == "hauptmodul":
            current.hauptmodul = val
        elif key in _COEFFICIENT_FIELDS:
            fields[key] = val
        else:
            raise CatalogError(f"unknown field {key!r} in entry {current.id}")
    finish()
    return entries


@functools.cache
def default_catalog() -> dict[str, CurveEntry]:
    """The packaged catalog, parsed and checksum-verified once per process."""
    return load_catalog()


# --------------------------------------------------------------------------
# Verification drivers
# --------------------------------------------------------------------------

@dataclass
class CheckRow:
    """One row of a verification report; its verdict is decided here only.

    ``kind`` selects the comparison of ``residual`` with ``tolerance``:

    - ``bound``: passes when residual < tolerance;
    - ``exact``: passes when residual <= tolerance (exact algebra, whose
      tolerance is 0);
    - ``control``: a negative control, a deliberately broken probe that
      passes when residual > tolerance (its floor);
    - ``skip``: a grid point that could not be evaluated (residual NaN);
      it counts as skipped, not failed.

    ``guard`` is a second condition that every verdict ANDs in: the one
    convention of a Painleve residual that must vanish, the growth the
    uncorrected connection must show, or a skip within ``MAX_SKIPS``.
    """

    check_id: str
    ref: str
    inputs: str
    residual: float
    tolerance: float
    note: str = ""
    kind: str = "bound"
    guard: bool = True

    def __post_init__(self):
        if self.kind not in CHECK_KINDS:
            raise ValueError(f"unknown check kind {self.kind!r}")
        self.residual = float(self.residual)

    @property
    def passed(self) -> bool:
        if self.kind == "bound":
            ok = self.residual < self.tolerance
        elif self.kind == "exact":
            ok = self.residual <= self.tolerance
        elif self.kind == "control":
            ok = self.residual > self.tolerance
        else:
            ok = True
        return ok and self.guard


def negative_control(check_id, ref, inputs, residual, floor=1e-3,
                     note=None) -> CheckRow:
    """A deliberately broken probe, whose residual must exceed ``floor``."""
    return CheckRow(check_id, ref, inputs, residual, floor,
                    note or f"negative control: must exceed {floor:g}",
                    kind="control")


def _skipped(entry: CurveEntry, tau, exc, skips: int) -> CheckRow:
    return CheckRow(f"{entry.id}@{tau}", entry.note, f"tau={tau}",
                    float("nan"), entry.tol, note=f"skipped: {exc}",
                    kind="skip", guard=skips <= MAX_SKIPS)


def _run_recipe(name: str, tau: complex, order: int = 5) -> Jet:
    try:
        fn = RECIPES[name]
    except KeyError:
        raise CatalogError(f"unknown recipe {name!r}") from None
    return fn(tau, order)


def verify_entry(entry: CurveEntry, grid=STANDARD_GRID) -> list[CheckRow]:
    """Residuals |F(x(tau), y(tau))| (normalized by the largest monomial)
    over the grid; recipe poles are skipped with a logged reason, and more
    than MAX_SKIPS skips fails the entry."""
    if entry.kind != "curve" or entry.F is None or entry.vars is None:
        raise CatalogError(f"entry {entry.id} is not a verifiable curve")
    rows = []
    skips = 0
    for tau in grid:
        try:
            xv = _run_recipe(entry.vars[0], tau, 0).value
            yv = _run_recipe(entry.vars[1], tau, 0).value
        except (PoleProximityError, ZeroDivisionError) as exc:
            skips += 1
            rows.append(_skipped(entry, tau, exc, skips))
            continue
        fval = entry.F(xv, yv)
        scale = max(1.0, entry.F.max_term_magnitude(xv, yv))
        resid = abs(fval) / scale
        rows.append(CheckRow(f"{entry.id}@{tau}", entry.note, f"tau={tau}",
                             resid, entry.tol))
    if skips > MAX_SKIPS:
        rows.append(CheckRow(f"{entry.id}:skips", entry.note, "grid",
                             skips, MAX_SKIPS,
                             note="too many skipped grid points"))
    return rows


def fuchsian_check(entry: CurveEntry, grid=STANDARD_GRID) -> list[CheckRow]:
    """|[x,tau] - Q(x(tau))| pointwise for the entry's Hauptmodul recipe."""
    if entry.kind != "fuchsian" or entry.Q is None or entry.hauptmodul is None:
        raise CatalogError(f"entry {entry.id} is not a Fuchsian check")
    rows = []
    skips = 0
    for tau in grid:
        try:
            jet = _run_recipe(entry.hauptmodul, tau, 5)
            md = meromorphic_derivative(jet)
        except (PoleProximityError, ZeroDivisionError, ThetaKitError) as exc:
            skips += 1
            rows.append(_skipped(entry, tau, exc, skips))
            continue
        qv = entry.Q(jet.value)
        resid = abs(md - qv) / max(1.0, abs(qv))
        rows.append(CheckRow(f"{entry.id}@{tau}", entry.note, f"tau={tau}",
                             resid, entry.tol))
    if skips > MAX_SKIPS:
        rows.append(CheckRow(f"{entry.id}:skips", entry.note, "grid",
                             skips, MAX_SKIPS,
                             note="too many skipped grid points"))
    return rows


def dual_forms_agree(entry: CurveEntry, n_points: int = 20, rng=None
                        ) -> CheckRow:
    """Exact-rational agreement of the two stored forms of Q,
    sampled at random rationals (denominator-free comparison)."""
    import random

    rng = rng or random.Random(0)
    if entry.Q is None or entry.Q_alt is None:
        raise CatalogError(f"entry {entry.id} has no alternative form")
    worst = Fraction(0)
    for _ in range(n_points):
        r = Fraction(rng.randrange(3, 400), rng.randrange(1, 50))
        try:
            d = entry.Q(r) - entry.Q_alt(r)
        except ZeroDivisionError:
            continue
        worst = max(worst, abs(d))
    return CheckRow(f"{entry.id}:forms", entry.note, f"{n_points} rationals",
                    worst, 0.0, note="exact rational comparison",
                    kind="exact")


# ---- birational transports -------------------------------------------------

def tor_forward(u: complex, y: complex) -> tuple[complex, complex]:
    """(u, y) on the quartic torus -> (z, w) on w^2 = z(z-1)(z+3)."""
    z = 2.0 - 3.0 * u * u / y - (u * u - 1.0) / (y - 1.0)
    w = ((5.0 * y - 3.0) * u * u - y ** 3 - y * y) / (u * (u * u - 1.0))
    return z, w


def tor_backward(z: complex, w: complex) -> tuple[complex, complex]:
    y = -0.25 * w * w / z
    u = 0.25 * (1.0 - 1.0 / z) * w
    return u, y


def bir_forward(p: complex, q: complex) -> tuple[complex, complex]:
    """(p, q) on the genus-3 curve -> (x, y) on y^2 = x^8 + 14 x^4 + 1.

    The y-component sign is pinned so that the pair with ``bir_backward``
    is mutually inverse; the two maps are often tabulated with opposite
    sheet conventions for the square root."""
    bx = p * (q * q - 1.0) / (2.0 * (p * p + q))
    by = -(q * q + 3.0) / (q * q * (q * q - 1.0)) * (4.0 * p * p * q + q * q + 3.0)
    return bx, by


def bir_backward(bx: complex, by: complex) -> tuple[complex, complex]:
    p = (bx ** 4 - by - 1.0) / (4.0 * bx)
    q = (bx ** 4 - by + 1.0) / (2.0 * bx * bx)
    return p, q


def birational_check(which: str, grid=STANDARD_GRID) -> list[CheckRow]:
    """Forward/backward round trips and on-target-curve residuals for the
    two tabulated birational isomorphisms."""
    rows = []
    for tau in grid:
        if which == "tor":
            u = recipe_u(tau, 0).value
            y = recipe_picard(0, 1, 3)(tau, 0).value
            z, w = tor_forward(u, y)
            curve = abs(w * w - z * (z - 1.0) * (z + 3.0)) / max(
                1.0, abs(w) ** 2, abs(z) ** 3)
            u2, y2 = tor_backward(z, w)
            round_trip = max(abs(u2 - u), abs(y2 - y))
            tol = 1e-9
        elif which == "bir":
            p = recipe_p(tau, 0).value
            q = recipe_q6(tau, 0).value
            bx, by = bir_forward(p, q)
            curve = abs(by * by - (bx ** 8 + 14.0 * bx ** 4 + 1.0)) / max(
                1.0, abs(by) ** 2)
            p2, q2 = bir_backward(bx, by)
            round_trip = max(abs(p2 - p), abs(q2 - q))
            tol = 1e-8
        else:
            raise CatalogError(f"unknown birational pair {which!r}")
        resid = max(curve, round_trip)
        rows.append(CheckRow(f"{which}@{tau}", f"birational pair {which}",
                             f"tau={tau}", resid, tol))
    return rows


# ---- tower identities ------------------------------------------------------

def tower_identity_check(ident: str, grid=STANDARD_GRID, rng=None
                         ) -> list[CheckRow]:
    import random

    rng = rng or random.Random(0)
    rows = []
    if ident == "perfect-square":
        for tau in grid:
            z = recipe_z6(tau, 0).value
            r = recipe_r6(tau, 0).value
            resid = abs(z - r * r)
            rows.append(CheckRow(f"psq@{tau}", "z is a perfect square",
                                 f"tau={tau}", resid, 1e-9))
    elif ident == "duplication":
        for _ in range(10):
            z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
            tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.9, 1.8))
            t1 = jacobi_theta_jet(1, 0.0, z, tau, 0).value
            t2 = jacobi_theta_jet(2, 0.0, z, tau, 0).value
            t2_2z = jacobi_theta_jet(2, 0.0, 2.0 * z, tau, 0).value
            v2 = vartheta_jet(2, tau, 0).value
            resid = abs(t2 ** 4 - t1 ** 4 - v2 ** 3 * t2_2z)
            rows.append(CheckRow(f"dup@{z:.2f},{tau:.2f}",
                                 "theta2^4 - theta1^4 = v2^3 theta2(2z)",
                                 f"z={z}, tau={tau}", resid, 1e-11))
    elif ident == "s-equality":
        # The theta-quotient form of s.  The index arrangement
        # t1^4(1/3) t3^4(1/6) / (t2^4(1/6) t4^4(1/6)) sometimes quoted for
        # it collapses to (t3/t4)^4(1/6) because t1(1/3) = t2(1/6)
        # identically, and that is not s; the placement verified here (to
        # 40 digits in exact arithmetic) is
        #     s = t2^4(1/6) t4^4(1/6) / (t1^4(1/6) t3^4(1/6)).
        for tau in grid:
            s1 = recipe_s(tau, 0).value
            t1 = _theta16(1, tau, 0).value
            t2 = _theta16(2, tau, 0).value
            t3 = _theta16(3, tau, 0).value
            t4 = _theta16(4, tau, 0).value
            s2 = (t2 ** 4 * t4 ** 4) / (t1 ** 4 * t3 ** 4)
            z = recipe_z6(tau, 0).value
            resid = max(abs(s1 - s2), abs(s1 - z * z))
            rows.append(CheckRow(f"s-eq@{tau}", "both s-forms and s = z^2",
                                 f"tau={tau}", resid, 1e-10))
    elif ident == "xuni":
        for tau in grid:
            p = recipe_p(tau, 0).value
            q = recipe_q6(tau, 0).value
            bx, _ = bir_forward(p, q)
            bx2 = recipe_bigx(tau, 0).value
            resid = abs(bx - bx2)
            rows.append(CheckRow(f"xuni@{tau}", "prime-form quotient for x",
                                 f"tau={tau}", resid, 1e-10))
    elif ident == "prop4-J":
        for tau in grid:
            s = recipe_s(tau, 0).value
            j1 = recipe_j(tau, 0).value
            j2 = ((s + 3.0) ** 3 * ((s - 5.0) ** 3 + 128.0) ** 3
                  / (1728.0 * s * (s - 1.0) ** 6 * (s - 9.0) ** 2))
            resid = abs(j1 - j2) / max(1.0, abs(j1))
            rows.append(CheckRow(f"prop4@{tau}", "level-3 representation of J",
                                 f"tau={tau}", resid, 1e-9))
    else:
        raise CatalogError(f"unknown tower identity {ident!r}")
    return rows


# ---- Example-7/8 rational checks -------------------------------------------

ICOSA_Y_OF_T = RationalFunc(Poly([7, 22, 7]),
                        8 * Poly([1, 1, 1]) * Poly([2, 1]) * Poly([0, 1]))
ICOSA_X_OF_T = RationalFunc(Poly([1, 2]), Poly([2, 1]) * Poly([0, 0, 0, 1]))
PICARD_X_OF_TT = RationalFunc(Poly([1, 1]) * Poly([-3, 1]) ** 3,
                              Poly([-1, 1]) * Poly([3, 1]) ** 3)
PICARD_Y_OF_TT = RationalFunc(-3 * Poly([-3, 1]) * Poly([1, 1]),
                              Poly([3, 1]) ** 2)
TT_OF_T = RationalFunc(Poly([-1, 3]), Poly([-1, 1]))
Z_OF_T = RationalFunc(3 * Poly([1, 1]), Poly([-1, 1]))

TETRA_X_OF_T = RationalFunc(Poly([-1, 1]) ** 2 * Poly([2, 1]),
                          Poly([1, 1]) ** 2 * Poly([-2, 1]))
TETRA_Y_OF_T = RationalFunc(Poly([-1, 1]) * Poly([2, 1]),
                          Poly([1, 1]) * Poly([0, 1]))


def tetra_branch_seeds(x: complex):
    """The three roots T of x(T) = x, num(T) - x den(T) = 0: one seed for
    each local branch of the tetrahedral parameter, in the order of
    ``complex_roots``."""
    return complex_roots([complex(n) - x * complex(d) for n, d in
                          zip(TETRA_X_OF_T.num.coeffs, TETRA_X_OF_T.den.coeffs,
                              strict=True)])


def icosa_y_from_level3(x: complex, yt: complex) -> complex:
    """y = (1/16)(15 yt^3 - (14 yt^2 + 3 yt - 18) x)/((yt^2 - 3 yt + 3) yt)."""
    return (15.0 * yt ** 3 - (14.0 * yt * yt + 3.0 * yt - 18.0) * x) \
        / (16.0 * (yt * yt - 3.0 * yt + 3.0) * yt)


def icosa_transport_checks(q_z: RationalFunc, q_t: RationalFunc,
                           grid=STANDARD_GRID, rng=None) -> list[CheckRow]:
    """The icosahedral-family T-equation ``q_t`` against the z-equation
    ``q_z`` and along tau."""
    import random

    rng = rng or random.Random(0)
    rows = []
    # rational identity: x-parts agree under TT = 3(T+1)/(T-1) (which is
    # also the T -> z Moebius map; the variant (3T-1)/(T-1) fails for
    # every branch)
    worst = 0.0
    for _ in range(10):
        t = complex(rng.uniform(-3, 3), rng.uniform(0.3, 2.0))
        worst = max(worst, abs(ICOSA_X_OF_T(t) - PICARD_X_OF_TT(Z_OF_T(t))))
    rows.append(CheckRow("icosa:x-match", "both rational x-parametrizations",
                         "10 random T", worst, 1e-12))
    # transport of the T-equation onto the z-equation (Moebius map,
    # so the Schwarzian part vanishes)
    worst = 0.0
    for _ in range(10):
        t = complex(rng.uniform(-3, 3), rng.uniform(0.3, 2.0))
        worst = max(worst, abs(md_transport_residual(q_z, q_t, Z_OF_T, t)))
    rows.append(CheckRow("icosa:transport", "T-equation maps onto the z-equation",
                         "10 random T", worst, 1e-11))
    # tau-side: T(tau) from the Picard pair satisfies the T-equation
    for tau in grid[:4]:
        x = recipe_x(tau, 5)
        yt = recipe_ytilde(tau, 5)
        tt = (yt ** 3 - 3.0 * x * yt + x * (x + 1.0)) / (x * (x - 1.0))
        t_jet = (tt + 3.0) / (tt - 3.0)
        resid = abs(meromorphic_derivative(t_jet) - q_t(t_jet.value))
        rows.append(CheckRow(f"icosa:fuchs@{tau}", "T-equation along tau",
                             f"tau={tau}", resid, 1e-8))
        # the non-Picard solution as a rational function on the Picard curve
        yb = icosa_y_from_level3(x.value, yt.value)
        resid2 = abs(yb - ICOSA_Y_OF_T(t_jet.value))
        rows.append(CheckRow(f"icosa:y@{tau}", "transported solution matches",
                             f"tau={tau}", resid2, 1e-9))
    return rows


def _tetra_t_jet(tau, order=5) -> Jet:
    """A local branch of the tetrahedral parameter: the root of
    x(T) = x(tau) that best solves the packaged ``tetra-T`` equation."""
    xj = recipe_x(tau, order)
    q_t = default_catalog()["tetra-T"].Q
    dx = TETRA_X_OF_T.derivative()
    best = None
    for seed in tetra_branch_seeds(xj.value):
        if min(abs(seed - p) for p in (1.0, -1.0, 2.0, -2.0, 0.0)) < 1e-6:
            continue
        try:
            tj = jet_newton_inverse(lambda w: TETRA_X_OF_T(w),
                                    lambda w: dx(w), xj, seed)
        except (ThetaKitError, ZeroDivisionError):
            continue
        r = abs(meromorphic_derivative(tj) - q_t(tj.value))
        if best is None or r < best[0]:
            best = (r, tj)
    if best is None:
        raise CatalogError("no usable tetrahedral branch at this point")
    return best[1]


def tetra_checks(q_t: RationalFunc, qb: RationalFunc, xi: BivarPoly,
                 grid=STANDARD_GRID, rng=None) -> list[CheckRow]:
    """The tetrahedral T-equation ``q_t``, its squared-parameter form
    ``qb``, and the quartic ``xi`` pairing T with the level-3 parameter.

    A sometimes-quoted T-equation divides by an extra T^2, but T = 0 is not
    among the five parabolic points {+-1, +-2, oo}: the squared-parameter
    equation forces the denominator ((T^2-1)(T^2-4))^2 exactly."""
    import random

    rng = rng or random.Random(0)
    rows = []
    # transport: T-equation -> squared-variable equation under b = T^2
    square = RationalFunc(Poly([0, 0, 1]))
    worst = 0.0
    for _ in range(10):
        t = complex(rng.uniform(-3, 3), rng.uniform(0.3, 2.0))
        worst = max(worst, abs(md_transport_residual(qb, q_t, square, t)))
    rows.append(CheckRow("tetra:transport", "squared-parameter reduction",
                         "10 random T", worst, 1e-11))
    # tau-side Fuchsian residuals for T and b = T^2
    for tau in grid[:3]:
        tj = _tetra_t_jet(tau)
        resid = abs(meromorphic_derivative(tj) - q_t(tj.value))
        rows.append(CheckRow(f"tetra:fuchsT@{tau}", "tetrahedral T-equation",
                             f"tau={tau}", resid, 1e-8))
        bj = tj * tj
        residb = abs(meromorphic_derivative(bj) - qb(bj.value))
        rows.append(CheckRow(f"tetra:fuchsB@{tau}", "squared-parameter equation",
                             f"tau={tau}", residb, 1e-8))
        # the quartic tying the tetrahedral and Picard rational parameters
        x = recipe_x(tau, 0).value
        yt = recipe_ytilde(tau, 0).value
        tt = (yt ** 3 - 3.0 * x * yt + x * (x + 1.0)) / (x * (x - 1.0))
        t = tj.value
        residx = abs(xi(t, tt)) / max(1.0, xi.max_term_magnitude(t, tt))
        rows.append(CheckRow(f"tetra:xi@{tau}", "parameter-pair quartic",
                             f"tau={tau}", residx, 1e-8))
    return rows


# ---- exact reference invariants ---------------------------------------------

def cubic_j_invariant(a1: Fraction, a0: Fraction, lead: Fraction = Fraction(4)
                      ) -> Fraction:
    """J of w^2 = lead z^3 + a1 z + a0 (exact), after normalizing to
    w^2 = 4 Z^3 - g2 Z - g3."""
    # scale z = c Z with c = (4/lead)^(1/3) is unnecessary: J is invariant
    # under (g2, g3) -> (m^4 g2, m^6 g3); bring to monic-quartic form
    # w^2 = 4 z^3 + (4 a1/lead) z + 4 a0/lead.
    g2 = -4 * a1 / lead
    g3 = -4 * a0 / lead
    disc = g2 ** 3 - 27 * g3 ** 2
    return g2 ** 3 / disc


def reference_invariant_checks() -> list[CheckRow]:
    rows = []
    # TOR: w^2 = z(z-1)(z+3) = z^3 + 2 z^2 - 3 z; depressed cubic via z -> Z - 2/3
    # gives w^2 = Z^3 - (13/3) Z + 70/27.
    j_tor = cubic_j_invariant(Fraction(-13, 3), Fraction(70, 27), Fraction(1))
    rows.append(CheckRow("J:tor", "quartic-torus invariant", "exact",
                         0.0 if j_tor == Fraction(2197, 972) else 1.0,
                         0.0, note=f"J = {j_tor}", kind="exact"))
    # tetrahedral-pair torus: v^2 = 4u^3 - 48u + 80
    j_ex8 = cubic_j_invariant(Fraction(-48), Fraction(80))
    rows.append(CheckRow("J:ex8", "tetrahedral-pair torus invariant", "exact",
                         0.0 if j_ex8 == Fraction(-16, 9) else 1.0,
                         0.0, note=f"J = {j_ex8}", kind="exact"))
    # genus-5 cover torus: w^2 = z^3 - 12 z - 11
    j_g5 = cubic_j_invariant(Fraction(-12), Fraction(-11), Fraction(1))
    rows.append(CheckRow("J:g5-cover", "genus-5 cover torus invariant", "exact",
                         0.0 if j_g5 == Fraction(256, 135) else 1.0,
                         0.0, note=f"J = {j_g5}", kind="exact"))
    return rows


# ---- Legendre-to-z transport (quadratic chain) ------------------------------

X_OF_Z = RationalFunc(Poly([-3, 8, -6, 0, 1]), Poly([0, 16]))
# x = 1/2 + (z^4 - 6 z^2 - 3)/(16 z) = (z^4 - 6 z^2 + 8 z - 3)/(16 z)


def legendre_z_chain_check(q_x: RationalFunc, q_z: RationalFunc, rng=None,
                           n_points: int = 10) -> CheckRow:
    """Transport of the z-equation ``q_z`` onto the 3-punctured-sphere
    equation ``q_x`` through the quadratic chain x(z) (rational identity)."""
    import random

    rng = rng or random.Random(0)
    worst = 0.0
    for _ in range(n_points):
        z0 = complex(rng.uniform(1.2, 2.6), rng.uniform(0.4, 1.6))
        worst = max(worst, abs(md_transport_residual(q_x, q_z, X_OF_Z, z0)))
    return CheckRow("x-of-z", "quadratic chain from z to the Legendre square",
                    f"{n_points} random z", worst, 1e-11)


def exceptional_heun_equivalence_check(q_lem: RationalFunc,
                                       q_nine: RationalFunc, curve: BivarPoly,
                                       rng=None, n_points: int = 10) -> CheckRow:
    """The two hypergeometric-reducible operators (the lemniscatic ``q_lem``
    and the 9-point ``q_nine``) are tied by the genus-1 change of variable
    ``curve``, G(x, X) = 0 for

        (2 X^2 - 1)^2 = (x^2 - 20 x - 8)^2 / (64 (1 - x)^3):

    on-curve residual of Q_lem(X) = [X,x] + Q_9(x)/X'(x)^2, with the
    implicit derivatives of X(x) from the curve.

    G(x0, X) has two +-pairs of roots in X. The branch X(x) starts from the
    root of smallest modulus, ties to the larger real part (then to the
    smaller imaginary part), so it does not depend on the order a root
    finder returns; the other pair sits next to the double poles of Q_lem
    at X = +-1."""
    import random

    rng = rng or random.Random(1)
    gy = curve.partial(0, 1)
    worst = 0.0
    for _ in range(n_points):
        x0 = complex(rng.uniform(-4, -1), rng.uniform(0.3, 1.5))
        coefs = []
        for j in range(5):
            c = 0j
            for (i, jj), val in curve.terms.items():
                if jj == j:
                    c += complex(val) * x0 ** i
            coefs.append(c)
        X0 = min(complex_roots(coefs), key=lambda r: (abs(r), -r.real, r.imag))
        # implicit jet of X(x) through jet Newton on the curve
        x_jet = Jet(0.0, [x0, 1.0, 0.0, 0.0, 0.0])

        def g_of(w):
            return curve(x_jet, w)

        def dg_of(w):
            return gy(x_jet, w)

        # the curve's monomials reach ~1e4 here, so the achievable absolute
        # residual floor is ~1e-12; 1e-10 is far below any meaningful signal
        X_jet = jet_newton_inverse(g_of, dg_of,
                                   Jet(0.0, [0.0] * 5), X0, tol=1e-10)
        md = meromorphic_derivative(X_jet)
        qv = q_lem(X_jet.value)
        # the on-curve X values sit near the poles of the lemniscatic Q,
        # so the residual is measured relative to its magnitude
        resid = abs(qv - md - q_nine(x0) / X_jet.d(1) ** 2) / max(1.0, abs(qv))
        worst = max(worst, resid)
    return CheckRow("hypergeometric-pair", "equivalence on the genus-1 curve",
                    f"{n_points} on-curve points", worst, 1e-10,
                    note="accompanying gauge: Y = (x-1)^(4/3) y")
