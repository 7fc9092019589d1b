"""mpmath reference values for the eval-sweep op mix, and its input draws.

Each reference is the defining series of the quantity summed in mpmath at
30 significant digits: the working precision is raised by the number of
digits the series loses to cancellation, so near-axis points keep their
30 digits.  The closed formulas on top of the series (Weierstrass
functions through theta quotients, the Picard and Hitchin families) are
the classical identities the library documents, evaluated in the same
precision and with exact Taylor arithmetic for the jets.
"""

import cmath
import math
import random

import mpmath
from mpmath import mp

from ops import JET_ORDER, KINDS, MOVING_INDICES, from_complex, to_complex

DIGITS = 30
REL_TOL = 1e-9
# the closed formulas on top of the series can cancel near the cusps
FORMULA_DIGITS = DIGITS + 40

# Jacobi index -> (alpha, beta, sign), theta_k = sign * theta[alpha, beta]
_JACOBI = {1: (1, 1, -1), 2: (1, 0, 1), 3: (0, 0, 1), 4: (0, 1, 1)}


# --------------------------------------------------------------------------
# series at adaptive precision
# --------------------------------------------------------------------------

def _adaptive(terms_at):
    """Sum at DIGITS+10 digits, then again with the digits that cancellation
    cost added back.  ``terms_at(dps)`` returns (sums, largest term)."""
    dps = DIGITS + 10
    while True:
        with mp.workdps(dps):
            sums, big = terms_at(dps)
            smallest = min(abs(s) for s in sums)
            lost = 0 if smallest == 0 else int(mpmath.log10(big / smallest)) + 1
        if lost + DIGITS + 5 <= dps or dps > 4000:
            return sums
        dps = DIGITS + 10 + lost


def theta_series(alpha, beta, a_lin, b_lin, tau, nz=0, order=0):
    """S_j = sum_k w_k slope_k^j of theta[alpha,beta](A tau + B | tau),
    the same sums the library's kernel returns."""
    h = alpha / 2
    tau_im = tau.imag
    arg_im = (a_lin * tau + b_lin).imag
    centre = -arg_im / tau_im - h

    def terms_at(dps):
        t = mpmath.mpc(tau)
        arg = mpmath.mpf(a_lin) * t + mpmath.mpc(b_lin) + mpmath.mpf(beta) / 2
        ipi = mpmath.mpc(0, 1) * mp.pi
        half = math.sqrt((dps + 40) * math.log(10) / (math.pi * tau_im)) + 3
        sums = [mpmath.mpc(0)] * (order + 1)
        big = mpmath.mpf(0)
        for k in range(math.floor(centre - half), math.ceil(centre + half) + 1):
            kh = k + mpmath.mpf(h)
            term = mpmath.exp(ipi * kh * kh * t + 2 * ipi * kh * arg)
            if nz:
                term *= (2 * ipi * kh) ** nz
            slope = ipi * kh * kh + 2 * ipi * mpmath.mpf(a_lin) * kh
            for j in range(order + 1):
                sums[j] += term
                big = max(big, abs(term))
                term *= slope
        return sums, big

    return _adaptive(terms_at)


def pentagonal_series(tau, order=0):
    """S_j = sum_k (-1)^k e^{i pi tau (3k^2+k+1/12)} slope_k^j."""
    half = math.sqrt((DIGITS + 60) * math.log(10) / (3 * math.pi * tau.imag)) + 3

    def terms_at(dps):
        t = mpmath.mpc(tau)
        ipi = mpmath.mpc(0, 1) * mp.pi
        sums = [mpmath.mpc(0)] * (order + 1)
        big = mpmath.mpf(0)
        width = half * math.sqrt((dps + 40) / (DIGITS + 60))
        for k in range(-math.ceil(width), math.ceil(width) + 1):
            e = 3 * mpmath.mpf(k) ** 2 + k + mpmath.mpf(1) / 12
            term = mpmath.exp(ipi * e * t)
            if k & 1:
                term = -term
            slope = ipi * e
            for j in range(order + 1):
                sums[j] += term
                big = max(big, abs(term))
                term *= slope
        return sums, big

    return _adaptive(terms_at)


# --------------------------------------------------------------------------
# Taylor arithmetic on coefficient lists (jets)
# --------------------------------------------------------------------------

def _jet(sums):
    return [s / math.factorial(j) for j, s in enumerate(sums)]


def _mul(a, b):
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]


def _inv(a):
    out = [1 / a[0]]
    for n in range(1, len(a)):
        out.append(-sum(a[i] * out[n - i] for i in range(1, n + 1)) / a[0])
    return out


def _div(a, b):
    return _mul(a, _inv(b))


def _scale(c, a):
    return [c * x for x in a]


def _add(a, b):
    return [x + y for x, y in zip(a, b)]


def _jacobi(k, a_lin, b_lin, tau, order=0, nz=0):
    a, b, sign = _JACOBI[k]
    return [sign * s for s in theta_series(a, b, a_lin, b_lin, tau, nz, order)]


def _vartheta_jet(k, tau):
    return _jet(_jacobi(k, 0, 0, tau, JET_ORDER))


def _moving_jets(index, tau):
    nu, mu, n = index
    a_lin, b_lin = nu / (2 * n), mu / (2 * n)
    t = {k: _jet(_jacobi(k, a_lin, b_lin, tau, JET_ORDER)) for k in (1, 2, 3, 4)}
    tp = _scale(-1, _jet(theta_series(1, 1, a_lin, b_lin, tau, 1, JET_ORDER)))
    return a_lin, t, tp


def _sqrt_x_jet(tau):
    v3, v4 = _vartheta_jet(3, tau), _vartheta_jet(4, tau)
    return _div(_mul(v4, v4), _mul(v3, v3))


def hauptmodul_x_value(tau):
    v3 = _jacobi(3, 0, 0, tau)[0]
    v4 = _jacobi(4, 0, 0, tau)[0]
    return (v4 / v3) ** 4


def weierstrass_value(kind, w, tau):
    z = w / 2
    with mp.workdps(FORMULA_DIGITS):
        if kind == "P":
            v3 = _jacobi(3, 0, 0, tau)[0]
            v4 = _jacobi(4, 0, 0, tau)[0]
            r = _jacobi(2, 0, z, tau)[0] / _jacobi(1, 0, z, tau)[0]
            return mp.pi ** 2 / 12 * (v3 ** 4 + v4 ** 4 + 3 * v3 ** 2 * v4 ** 2 * r ** 2)
        if kind == "Zeta":
            s = pentagonal_series(tau, 1)
            eta = -mpmath.mpc(0, 1) * mp.pi * s[1] / s[0]
            dtheta = -theta_series(1, 1, 0, z, tau, 1)[0]
            return 2 * eta * z + dtheta / _jacobi(1, 0, z, tau)[0] / 2
        ded = pentagonal_series(tau)[0]
        return (-mp.pi ** 3 * ded ** 9 * _jacobi(1, 0, w, tau)[0]
                / _jacobi(1, 0, z, tau)[0] ** 4)


def expected(op):
    """Reference value of a non-inversion op, flattened like ops.encode_value."""
    kind = op["kind"]
    tau = to_complex(op["tau"])
    with mp.workdps(FORMULA_DIGITS):
        if kind == "vartheta":
            vals = [_jacobi(op["k"], 0, 0, tau)[0]]
        elif kind == "jacobi_theta":
            vals = [_jacobi(op["k"], 0, to_complex(op["z"]), tau)[0]]
        elif kind == "theta1_prime":
            vals = [-theta_series(1, 1, 0, to_complex(op["z"]), tau, 1)[0]]
        elif kind.startswith("weierstrass_"):
            vals = [weierstrass_value(kind[len("weierstrass_"):],
                                      to_complex(op["w"]), tau)]
        elif kind == "dedekind_eta":
            vals = [pentagonal_series(tau)[0]]
        elif kind == "eta1":
            s = pentagonal_series(tau, 1)
            vals = [-mpmath.mpc(0, 1) * mp.pi * s[1] / s[0]]
        elif kind == "elliptic_constants":
            v3 = _jacobi(3, 0, 0, tau)[0]
            v4 = _jacobi(4, 0, 0, tau)[0]
            x = (v4 / v3) ** 4
            scale = mp.pi ** 2 / 12 * v3 ** 4
            e1, e2, e3 = scale * (x + 1), scale * (1 - 2 * x), scale * (x - 2)
            s = pentagonal_series(tau, 1)
            eta = -mpmath.mpc(0, 1) * mp.pi * s[1] / s[0]
            j_inv = mpmath.mpf(4) / 27 * (x * x - x + 1) ** 3 / (x * x * (x - 1) ** 2)
            vals = [e1, e2, e3, -4 * (e1 * e2 + e2 * e3 + e3 * e1),
                    4 * e1 * e2 * e3, eta, j_inv]
        elif kind == "vartheta_jet":
            vals = _vartheta_jet(op["k"], tau)
        elif kind == "theta_jet":
            a, b, a_lin, b_lin = op["spec"]
            vals = _jet(theta_series(a, b, a_lin, b_lin, tau, 0, JET_ORDER))
        elif kind == "dedekind_jet":
            vals = _jet(pentagonal_series(tau, JET_ORDER))
        elif kind == "hauptmodul_x":
            sx = _sqrt_x_jet(tau)
            vals = _mul(sx, sx)
        elif kind == "picard_y":
            _, t, _ = _moving_jets(op["index"], tau)
            q = _div(t[2], t[1])
            vals = _scale(-1, _mul(_sqrt_x_jet(tau), _mul(q, q)))
        elif kind == "hitchin_y":
            a_lin, t, tp = _moving_jets(op["index"], tau)
            den = _add(tp, _scale(2j * mp.pi * a_lin, t[1]))
            v2 = _vartheta_jet(2, tau)
            brace = _add(_div(_scale(mp.pi, _mul(_mul(v2, v2), _mul(t[3], t[4]))),
                              den), _scale(-1, t[2]))
            vals = _mul(_mul(_sqrt_x_jet(tau), _div(t[2], _mul(t[1], t[1]))),
                        brace)
        else:
            raise ValueError(f"no direct reference for {kind!r}")
        return [complex(v) for v in vals]


def relative_error(op, encoded):
    """Distance of a call's value from the reference, relative to the
    reference's largest component; inversions are checked by mapping their
    result forward again."""
    got = [complex(encoded[i], encoded[i + 1]) for i in range(0, len(encoded), 2)]
    if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in got):
        return math.inf
    kind = op["kind"]
    with mp.workdps(FORMULA_DIGITS):
        if kind == "invert_x_to_tau":
            tau_out = got[0]
            if not tau_out.imag > 0:
                return math.inf
            want = [to_complex(op["x"])]
            got = [complex(hauptmodul_x_value(tau_out))]
        elif kind == "wp_inverse":
            want = [to_complex(op["target"])]
            got = [complex(weierstrass_value("P", got[0], to_complex(op["tau"])))]
        else:
            want = expected(op)
    if len(want) != len(got):
        return math.inf
    scale = max(abs(w) for w in want)
    diff = max(abs(g - w) for g, w in zip(got, want))
    if scale == 0:
        return diff
    return diff / scale


# --------------------------------------------------------------------------
# input draws
# --------------------------------------------------------------------------

IM_TAU_RANGE = (0.005, 3.0)


def _theta_float(alpha, beta, z, tau):
    """theta[alpha,beta](z|tau) in double precision, for drawing inputs
    only: an inversion target needs to be a plausible value, not an exact
    one, because inversions are checked by mapping their result forward."""
    h = alpha / 2
    arg = z + beta / 2
    centre = -arg.imag / tau.imag - h
    half = math.sqrt(40 * math.log(10) / (math.pi * tau.imag)) + 3
    ipi = 1j * math.pi
    return sum(cmath.exp(ipi * (k + h) ** 2 * tau + 2 * ipi * (k + h) * arg)
               for k in range(math.floor(centre - half), math.ceil(centre + half) + 1))


def _usable(z):
    return math.isfinite(z.real) and math.isfinite(z.imag) and z != 0


def _x_input(tau):
    x = (_theta_float(0, 1, 0j, tau) / _theta_float(0, 0, 0j, tau)) ** 4
    if not _usable(x):
        x = complex(hauptmodul_x_value(tau))
    return x


def _p_input(w, tau):
    z = w / 2
    try:
        v3, v4 = _theta_float(0, 0, 0j, tau), _theta_float(0, 1, 0j, tau)
        r = _theta_float(1, 0, z, tau) / -_theta_float(1, 1, z, tau)
        p = math.pi ** 2 / 12 * (v3 ** 4 + v4 ** 4 + 3 * v3 ** 2 * v4 ** 2 * r ** 2)
    except (OverflowError, ZeroDivisionError):
        p = 0j
    if not _usable(p):
        p = complex(weierstrass_value("P", w, tau))
    return p


def draw_tau(rng):
    lo, hi = IM_TAU_RANGE
    return complex(rng.uniform(-1.0, 1.0),
                   math.exp(rng.uniform(math.log(lo), math.log(hi))))


def draw_op(kind, rng):
    """Inputs of one call; every call gets a fresh tau."""
    tau = draw_tau(rng)
    op = {"kind": kind, "tau": from_complex(tau)}
    u, v = rng.uniform(0.1, 0.4), rng.uniform(0.1, 0.4)
    lattice_point = 2 * (u + v * tau)        # away from the lattice 2Z + 2tauZ
    if kind in ("vartheta", "vartheta_jet"):
        op["k"] = rng.choice((2, 3, 4))
    elif kind == "jacobi_theta":
        op["k"] = rng.choice((1, 2, 3, 4))
        op["z"] = from_complex(lattice_point / 2)
    elif kind == "theta1_prime":
        op["z"] = from_complex(lattice_point / 2)
    elif kind.startswith("weierstrass_"):
        op["w"] = from_complex(lattice_point)
    elif kind == "theta_jet":
        nu, mu, n = rng.choice(MOVING_INDICES)
        op["spec"] = [rng.choice((0, 1)), rng.choice((0, 1)), nu / (2 * n),
                      mu / (2 * n)]
    elif kind in ("picard_y", "hitchin_y"):
        op["index"] = list(rng.choice(MOVING_INDICES))
    elif kind == "invert_x_to_tau":
        op["x"] = from_complex(_x_input(tau))
    elif kind == "wp_inverse":
        op["target"] = from_complex(_p_input(lattice_point, tau))
        # a continuation seed: the solution moved by 1% of a period cell
        du, dv = rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01)
        op["seed"] = from_complex(lattice_point + 2 * (du + dv * tau))
    return op


def draw_chunk(seed, chunk, rounds):
    """``rounds`` rounds of the op mix, each kind once per round in a seeded
    order; chunk ``c`` of seed ``s`` always gets the same inputs."""
    rng = random.Random(seed * 1000003 + chunk)
    ops = []
    for _ in range(rounds):
        order = list(KINDS)
        rng.shuffle(order)
        ops.extend(draw_op(kind, rng) for kind in order)
    return ops
