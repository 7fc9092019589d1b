#!/usr/bin/env python3
"""Regenerate src/thetakit/data/curves.txt (exact coefficients + checksum).

The checked-in file is the authoritative artifact; this tool exists so the
data can be rebuilt and diffed when an entry is added.  Run from the
repository root:  python tools/make_catalog.py
"""
import hashlib
import sys
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from thetakit.rational import Poly, RationalFunc  # noqa: E402

lines = []


def emit(s=""):
    lines.append(s)


def fr(x):
    return str(F(x))


def poly_line(name, p):
    emit(f"{name}: " + " ".join(fr(c) for c in p.coeffs))


def bivar_lines(rows):
    for i, j, c in rows:
        emit(f"F: {i} {j} {fr(c)}")


emit("# thetakit curve catalog")
emit("# Exact rational data for the verification suites.")
emit("#")
emit("# entry fields:")
emit("#   kind: curve | fuchsian | reference")
emit("#   F: i j c          -- bivariate monomial c * x^i * y^j (first var = x)")
emit("#   qnum/qden: c0 c1 ... -- ascending-degree rational coefficients")
emit("#   qaltnum/qaltden   -- second printed form of the same Q, when one exists")
emit("#   vars: two parametrization recipe names (curve entries)")
emit("#   hauptmodul: recipe name (fuchsian entries)")
emit("#   tol: residual tolerance on the standard grid")
emit("# The checksum section at the end is mandatory; the loader refuses a")
emit("# file without it.")
emit()

emit("[entry k2]")
emit("kind: fuchsian")
emit("note: Legendre modulus-square Hauptmodul; thrice-punctured sphere")
emit("hauptmodul: x")
emit("tol: 1e-10")
poly_line("qnum", F(-1, 2) * Poly([1, -1, 1]))
poly_line("qden", (Poly([0, 1]) * Poly([-1, 1])) ** 2)
emit()

emit("[entry lemn]")
emit("kind: fuchsian")
emit("note: square-root Hauptmodul of the Legendre modulus (lemniscatic operator)")
emit("hauptmodul: u")
emit("tol: 1e-9")
poly_line("qnum", F(-1, 2) * Poly([1, 0, 1]) ** 2)
poly_line("qden", (Poly([0, 1]) * Poly([-1, 0, 1])) ** 2)
emit()

emit("[entry qz]")
emit("kind: fuchsian")
emit("note: degree-5 hyperelliptic Hauptmodul z with six punctures")
emit("hauptmodul: z6")
emit("tol: 1e-9")
QZnum = F(-1, 2) * Poly([3, 0, 1]) ** 4
QZden = Poly([0, 9, 0, -10, 0, 1]) ** 2
poly_line("qnum", QZnum)
poly_line("qden", QZden)
alt = RationalFunc([0])
for e in (0, 1, -1, 3, -3):
    alt = alt + F(-1, 2) * RationalFunc([1], Poly([-e, 1]) ** 2)
alt = alt + RationalFunc(Poly([-6, 0, 2]),
                         Poly([-1, 1]) * Poly([1, 1]) * Poly([-3, 1]) * Poly([3, 1]))
poly_line("qaltnum", alt.num)
poly_line("qaltden", alt.den)
emit()

emit("[entry qr]")
emit("kind: fuchsian")
emit("note: square root of z (perfect-square Hauptmodul), 4 r^2 Q(r^2) + 3/(2 r^2)")
emit("hauptmodul: r6")
emit("tol: 1e-8")
QZ = RationalFunc(QZnum, QZden)
QR = 4 * RationalFunc(Poly([0, 0, 1])) * QZ.compose(RationalFunc(Poly([0, 0, 1]))) \
    + RationalFunc(Poly([3]), Poly([0, 0, 2]))
poly_line("qnum", QR.num)
poly_line("qden", QR.den)
emit()

emit("[entry heun]")
emit("kind: fuchsian")
emit("note: four-point Heun Hauptmodul s with singular values 0, 1, 9, infinity")
emit("hauptmodul: s")
emit("tol: 1e-8")
poly_line("qnum", Poly([F(-81, 2), 54, -51, 6, F(-1, 2)]))
poly_line("qden", (Poly([0, 1]) * Poly([-1, 1]) * Poly([-9, 1])) ** 2)
emit()

emit("[entry fj]")
emit("kind: fuchsian")
emit("note: full modular group equation for Klein invariant")
emit("hauptmodul: J")
emit("tol: 1e-9")
poly_line("qnum", F(-1, 72) * Poly([32, -41, 36]))
poly_line("qden", (Poly([0, 1]) * Poly([-1, 1])) ** 2)
emit()

emit("[entry qx85]")
emit("kind: fuchsian")
emit("note: octahedral-ground-form tower Hauptmodul (degree-8 curve times degree-5)")
emit("hauptmodul: bigx")
emit("tol: 1e-8")
B = Poly([1, 0, 0, 0, 14, 0, 0, 0, 1])
A = Poly([0, -1, 0, 0, 0, 1])
num = F(-1, 2) * Poly([1, 0, 0, 0, -102, 0, 0, 0, 1167, 0, 0, 0, 1964,
                       0, 0, 0, 1167, 0, 0, 0, -102, 0, 0, 0, 1])
poly_line("qnum", num)
poly_line("qden", (B * A) ** 2)
sum_be = RationalFunc(B.derivative() * B.derivative()
                      - B.derivative().derivative() * B, B * B)
sum_al = RationalFunc(A.derivative() * A.derivative()
                      - A.derivative().derivative() * A, A * A)
alt = F(-3, 8) * sum_be + F(-1, 2) * sum_al \
    + RationalFunc(Poly([0, 0, 0, 1]) * Poly([7, 0, 0, 0, 1])
                   * Poly([-1, 0, 0, 0, 5]), B * A)
poly_line("qaltnum", alt.num)
poly_line("qaltden", alt.den)
emit()

emit("[entry icosa-T]")
emit("kind: fuchsian")
emit("note: icosahedral-family rational parameter T (six parabolic points)")
emit("hauptmodul: icosaT")
emit("tol: 1e-8")
Q83 = RationalFunc(-2 * Poly([1, 1, 1]) ** 4,
                   (Poly([-1, 0, 1]) * Poly([1, 2]) * Poly([2, 1])
                    * Poly([0, 1])) ** 2)
poly_line("qnum", Q83.num)
poly_line("qden", Q83.den)
emit()

emit("[entry tetra-T]")
emit("kind: fuchsian")
emit("note: tetrahedral three-branch parameter T (five parabolic points)")
emit("hauptmodul: tetraT")
emit("tol: 1e-8")
# note: T = 0 is not a singular point (five parabolic points +-1, +-2, oo),
# and the squared-parameter equation pins the denominator without the
# extra T^2 some displays carry.
QT8 = RationalFunc(F(-1, 2) * Poly([44, 0, -15, 0, 6, 0, 1]),
                   (Poly([-1, 0, 1]) * Poly([-4, 0, 1])) ** 2)
poly_line("qnum", QT8.num)
poly_line("qden", QT8.den)
emit()

emit("[entry tetra-Tsq]")
emit("kind: fuchsian")
emit("note: squared tetrahedral parameter; conical point of order 2 at the origin")
emit("hauptmodul: tetraTsq")
emit("tol: 1e-8")
b = Poly([0, 1])
QB = (F(-3, 8) * RationalFunc([1], b * b)
      + F(-1, 2) * RationalFunc([1], Poly([-1, 1]) ** 2)
      + F(-1, 2) * RationalFunc([1], Poly([-4, 1]) ** 2)
      + F(1, 8) * RationalFunc(Poly([-11, 7]),
                               Poly([-1, 1]) * Poly([-4, 1]) * b))
poly_line("qnum", QB.num)
poly_line("qden", QB.den)
emit()

emit("[entry uy-sqrt]")
emit("kind: curve")
emit("note: level-2 solution, the square root of the Legendre square")
emit("vars: x u")
emit("tol: 1e-10")
bivar_lines([(1, 0, -1), (0, 2, 1)])
emit()

emit("[entry uy-quartic]")
emit("kind: curve")
emit("note: level-3 solution quartic")
emit("vars: x picard013")
emit("tol: 1e-9")
bivar_lines([(0, 4, 1), (1, 2, -6), (2, 1, 4), (1, 1, 4), (2, 0, -3)])
emit()

emit("[entry tor-yu]")
emit("kind: curve")
emit("note: elliptic curve carrying the two simplest solutions jointly")
emit("vars: u picard013")
emit("tol: 1e-9")
bivar_lines([(0, 4, 1), (2, 2, -6), (2, 1, 4), (4, 1, 4), (4, 0, -3)])
emit()

emit("[entry g5]")
emit("kind: curve")
emit("note: genus-5 relation between the level-2 and level-5 solutions")
emit("vars: u picard015")
emit("tol: 1e-8")
bivar_lines([
    (12, 2, 16), (12, 1, -20), (12, 0, 5),
    (10, 3, -80), (10, 2, 94), (10, 1, -20),
    (8, 7, 64), (8, 6, -240), (8, 5, 360), (8, 4, -105), (8, 3, -80), (8, 2, 16),
    (6, 8, -160), (6, 7, 560), (6, 6, -780), (6, 5, 360),
    (4, 9, 140), (4, 8, -445), (4, 7, 560), (4, 6, -240),
    (2, 10, -50), (2, 9, 140), (2, 8, -160), (2, 7, 64),
    (0, 12, 1)])
emit()

emit("[entry pq]")
emit("kind: curve")
emit("note: genus-3 substitution curve 4(p^2+1/p^2) q = q^4 - 6 q^2 - 3, cleared")
emit("vars: p q6")
emit("tol: 1e-9")
bivar_lines([(4, 1, 4), (2, 4, -1), (2, 2, 6), (2, 0, 3), (0, 1, 4)])
emit()

emit("[entry x8]")
emit("kind: curve")
emit("note: octahedral ground-form curve y^2 = x^8 + 14 x^4 + 1")
emit("vars: bigx bigy")
emit("tol: 1e-8")
bivar_lines([(0, 2, 1), (8, 0, -1), (4, 0, -14), (0, 0, -1)])
emit()

emit("[entry w2ab]")
emit("kind: curve")
emit("note: degree-5 hyperelliptic curve v^2 = z^5 - 10 z^3 + 9 z")
emit("vars: zW vW")
emit("tol: 1e-8")
bivar_lines([(0, 2, 1), (5, 0, -1), (3, 0, 10), (1, 0, -9)])
emit()

emit("[entry x8x5]")
emit("kind: reference")
emit("note: Burnside-octahedral tower curve z^2 = (x^8+14x^4+1)(x^5-x); no closed z recipe here")
bivar_lines([(0, 2, 1)] + [(i, 0, -c) for i, c in enumerate((B * A).coeffs)
                           if c != 0])
emit()

emit("[entry xx-curve]")
emit("kind: reference")
emit("note: genus-1 change of variable tying the lemniscatic and 9-point operators")
omx3 = Poly([1, -1]) ** 3
rows = {}
for i, ci in enumerate(omx3.coeffs):
    for jj, cj in ((0, F(1)), (2, F(-4)), (4, F(4))):
        rows[(i, jj)] = rows.get((i, jj), F(0)) + 64 * ci * cj
for i, c in enumerate((Poly([-8, -20, 1]) ** 2).coeffs):
    rows[(i, 0)] = rows.get((i, 0), F(0)) - c
bivar_lines(sorted((i, j, c) for (i, j), c in rows.items() if c != 0))
emit()

emit("[entry tetra-xi]")
emit("kind: reference")
emit("note: quartic pairing the tetrahedral parameter T (x-var) and the level-3 rational parameter (y-var)")
bivar_lines([(0, 4, 1), (3, 3, 4), (1, 3, -12), (0, 2, 18), (0, 0, -27)])
emit()

emit("[entry nine-branch-Q]")
emit("kind: reference")
emit("note: nine-puncture universal parameter equation; no closed Hauptmodul recorded")
A9 = Poly([0, -1, 0, 6, 0, 0, 0, -6, 0, 1])
sum9 = RationalFunc(A9.derivative() * A9.derivative()
                    - A9.derivative().derivative() * A9, A9 * A9)
Q9 = F(-1, 2) * sum9 + RationalFunc(Poly([2, 0, 0, 0, -14, 0, 4]), A9)
poly_line("qnum", Q9.num)
poly_line("qden", Q9.den)
emit()

emit("[entry bea4]")
emit("kind: reference")
emit("note: fourth stable-family cubic (X+Y)(Y+Z)(Z+X) + t XYZ = 0; trivariate, recorded as text only")
emit()

for name, p0, p1, p2, note in (
        ("exc-heun-I", [0, 1], [-1, 0, 3], [0, -1, 0, 1],
         "x(x^2-1) y'' + (3x^2-1) y' + x y = 0"),
        ("exc-heun-II", [1, 1], [3, 6, 3], [0, 3, 3, 1],
         "x(x^2+3x+3) y'' + (3x^2+6x+3) y' + (x+1) y = 0"),
        ("exc-heun-III", [2, 1], [-8, 14, 3], [0, -8, 7, 1],
         "x(x-1)(x+8) y'' + (3x^2+14x-8) y' + (x+2) y = 0"),
        ("exc-heun-IV", [3, 1], [-1, 22, 3], [0, -1, 11, 1],
         "x(x^2+11x-1) y'' + (3x^2+22x-1) y' + (x+3) y = 0")):
    emit(f"[entry {name}]")
    emit("kind: reference")
    emit(f"note: {note}")
    emit("p0: " + " ".join(fr(c) for c in p0))
    emit("p1: " + " ".join(fr(c) for c in p1))
    emit("p2: " + " ".join(fr(c) for c in p2))
    emit()

emit("[entry apery-klein]")
emit("kind: reference")
emit("note: Klein normal form of the zeta(3) recursion second-order operator")
P = Poly([1, -34, 1])
sum_sq = RationalFunc(P.derivative() * P.derivative() - 2 * P, P * P)
AK = F(-1, 2) * RationalFunc([1], [0, 0, 1]) - F(3, 8) * sum_sq \
    + F(3, 4) * RationalFunc(Poly([-16, 1]), P * Poly([0, 1]))
poly_line("qnum", AK.num)
poly_line("qden", AK.den)
emit()


def render() -> str:
    """The catalog file's text: the entries, then their sha256."""
    body = "\n".join(lines) + "\n"
    sha = hashlib.sha256(body.encode()).hexdigest()
    return body + "[checksum]\n" + f"sha256: {sha}\n"


def main():
    text = render()
    out_path = Path(__file__).resolve().parents[1] / "src/thetakit/data/curves.txt"
    out_path.write_text(text)
    print(f"wrote {out_path} ({len(text)} bytes)")


if __name__ == "__main__":
    main()
