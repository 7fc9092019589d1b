"""The eval-sweep op mix: the library calls a sweep chunk makes.

Shared by the harness (which draws the inputs and checks the values) and
the child process (which makes the calls).  Nothing here imports thetakit
or mpmath at module level.
"""

# Every kind appears once per round of the sweep, in a seeded order; the mix
# is therefore uniform over these kinds and recorded with every result.
KINDS = (
    "vartheta", "jacobi_theta", "theta1_prime",
    "weierstrass_P", "weierstrass_Zeta", "weierstrass_Pprime",
    "dedekind_eta", "eta1", "elliptic_constants",
    "vartheta_jet", "theta_jet", "dedekind_jet",
    "hauptmodul_x", "picard_y", "hitchin_y",
    "invert_x_to_tau", "wp_inverse",
)

JET_ORDER = 5

# (nu, mu, N) of the moving argument (nu*tau + mu)/(2N) used by the family
# jets and the moving theta jets; none is the exceptional (0, +-1, +-2) case
# and none puts the argument on a zero of theta1.
MOVING_INDICES = ((0, 1, 3), (1, 0, 3), (1, 1, 3), (1, 2, 5), (2, 1, 5),
                  (0, 1, 5), (1, 1, 4))


def to_complex(pair):
    return complex(pair[0], pair[1])


def from_complex(z):
    return [z.real, z.imag]


def call(kind, op, tk):
    """Make one library call; ``tk`` holds the imported thetakit modules.

    Returns the raw value: a complex, a ``Jet`` or ``EllipticConstants``.
    """
    th, jets, pnl, fuchs, tor = tk
    tau = to_complex(op["tau"])
    if kind == "vartheta":
        return th.vartheta(op["k"], tau)
    if kind == "jacobi_theta":
        return th.jacobi_theta(op["k"], to_complex(op["z"]), tau)
    if kind == "theta1_prime":
        return th.theta1_prime(to_complex(op["z"]), tau)
    if kind.startswith("weierstrass_"):
        return th.weierstrass(kind[len("weierstrass_"):], to_complex(op["w"]),
                              tau)
    if kind == "dedekind_eta":
        return th.dedekind_eta(tau)
    if kind == "eta1":
        return th.eta1(tau)
    if kind == "elliptic_constants":
        return th.elliptic_constants(tau)
    if kind == "vartheta_jet":
        return jets.vartheta_jet(op["k"], tau, JET_ORDER)
    if kind == "theta_jet":
        a, b, A, B = op["spec"]
        return jets.theta_jet(th.ThetaSpec(a, b, A, B), tau, JET_ORDER)
    if kind == "dedekind_jet":
        return jets.dedekind_jet(tau, JET_ORDER)
    if kind == "hauptmodul_x":
        return pnl.hauptmodul_x(tau, JET_ORDER)
    if kind == "picard_y":
        return pnl.picard_y(pnl.PicardIndex(*op["index"]), tau, JET_ORDER)
    if kind == "hitchin_y":
        idx = pnl.PicardIndex(*op["index"])
        return pnl.hitchin_y(idx.A, idx.B, tau, JET_ORDER)
    if kind == "invert_x_to_tau":
        return fuchs.invert_x_to_tau(to_complex(op["x"]))
    if kind == "wp_inverse":
        return tor.wp_inverse(to_complex(op["target"]), tor.Lattice(1.0, tau),
                              seed=to_complex(op["seed"]))
    raise ValueError(f"unknown op kind {kind!r}")


def encode_value(value):
    """A JSON-able flat list of floats for a call's value."""
    if isinstance(value, complex):
        parts = [value]
    elif hasattr(value, "coeffs"):
        parts = list(value.coeffs)
    else:
        parts = [value.e1, value.e2, value.e3, value.g2, value.g3,
                 value.eta1, value.J]
    out = []
    for z in parts:
        z = complex(z)
        out.extend((z.real, z.imag))
    return out
