"""Command-line surface: evaluation, inversion, and the verification suites.

Exit codes: 0 pass, 1 suite failure, 2 usage error, 3 numerical
non-convergence.  Output is deterministic byte-for-byte under a fixed seed
and configuration.
"""

from __future__ import annotations

import argparse
import os
import sys

from .control import as_tau
from .errors import ThetaKitError
from .reports import reports_to_csv, reports_to_json, summary_lines
from .suites import SUITE_ORDER, SuiteConfig, run_suite

EXIT_PASS = 0
EXIT_SUITE_FAILURE = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3


class UsageError(ThetaKitError):
    """Bad input from the command line or a config file (exit code 2)."""


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' / '1.3i' / '0.5' (no spaces) into a complex number."""
    s = text.strip().replace("I", "i")
    s = s.replace("i", "j")
    if s in ("j", "+j"):
        s = "1j"
    elif s == "-j":
        s = "-1j"
    else:
        s = s.replace("+j", "+1j").replace("-j", "-1j")
    try:
        return complex(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}")


CONFIG_KEYS = ("seed", "grid", "catalog")


def load_config_file(path: str) -> dict:
    """Simple key=value configuration; '#' starts a comment.  The keys are
    ``seed``, ``grid``, ``catalog`` and ``tol.<suite>``."""
    out = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    with fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {raw.rstrip()}")
            key, val = line.split("=", 1)
            key = key.strip()
            if key not in CONFIG_KEYS and not key.startswith("tol."):
                raise UsageError(f"unknown config key {key!r}; known: "
                                 f"{', '.join(CONFIG_KEYS)}, tol.<suite>")
            out[key] = val.strip()
    return out


def _convert(conv, key: str, text: str):
    try:
        return conv(text)
    except ValueError:
        raise UsageError(f"bad value for {key}: {text!r}") from None


def _parse_grid(spec: str) -> tuple:
    fields = spec.split(",")
    if len(fields) != 5:
        raise UsageError(f"bad value for grid: {spec!r} "
                         "(expected re_min,re_max,im_min,im_max,n)")
    re_min, re_max, im_min, im_max = (_convert(float, "grid", f)
                                      for f in fields[:4])
    n = _convert(int, "grid", fields[4])
    if n < 1:
        raise UsageError(f"bad value for grid: {spec!r} (n must be >= 1)")
    return re_min, re_max, im_min, im_max, n


def _tolerance(name: str, text: str, label: str) -> float:
    if name not in SUITE_ORDER:
        raise UsageError(f"unknown suite in {label}: {name!r}; known: "
                         f"{', '.join(SUITE_ORDER)}")
    return _convert(float, label, text)


def _check_tau(tau: complex) -> None:
    try:
        as_tau(tau)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def build_config(args) -> SuiteConfig:
    file_cfg = {}
    path = args.config or os.environ.get("THETAKIT_CONFIG")
    if path:
        file_cfg = load_config_file(path)
    seed = (args.seed if args.seed is not None
            else _convert(int, "seed", file_cfg.get("seed", "0")))
    cfg = SuiteConfig(seed=seed)
    if args.catalog or file_cfg.get("catalog"):
        cfg.catalog_path = args.catalog or file_cfg["catalog"]
    grid_spec = args.grid or file_cfg.get("grid")
    if grid_spec:
        re_min, re_max, im_min, im_max, n = _parse_grid(grid_spec)
        pts = []
        for k in range(n):
            frac = k / max(1, n - 1)
            pts.append(complex(re_min + (re_max - re_min)
                               * ((k * 7) % n) / max(1, n - 1),
                               im_min + (im_max - im_min) * frac))
        cfg.grid = tuple(pts)
    for key, val in file_cfg.items():
        if key.startswith("tol."):
            cfg.suite_tolerances[key[4:]] = _tolerance(key[4:], val, key)
    for pair in args.tol or ():
        name, _, val = pair.partition("=")
        cfg.suite_tolerances[name] = _tolerance(name, val, f"--tol {name}")
    return cfg


# --------------------------------------------------------------------------
# eval subcommand
# --------------------------------------------------------------------------

def _eval_function(name: str, args) -> object:
    from . import catalog as cat
    from . import painleve as pnl
    from . import thetafuncs as th

    tau = args.tau
    order = args.jet if args.jet is not None else 0
    name = name.lower()
    if name == "theta":
        spec = th.ThetaSpec(args.alpha, args.beta)
        return th.theta(spec, args.z if args.z is not None else 0j, tau)
    if name in ("theta1", "theta2", "theta3", "theta4"):
        return th.jacobi_theta(int(name[-1]), args.z or 0j, tau)
    if name == "thetaprime":
        return th.theta1_prime(args.z or 0j, tau)
    if name == "vartheta":
        return th.vartheta(args.k, tau)
    if name == "dedekind":
        return th.dedekind_eta(tau)
    if name == "eta":
        return th.eta1(tau)
    if name in ("wp", "wp-prime", "wp-zeta"):
        kind = {"wp": "P", "wp-prime": "Pprime", "wp-zeta": "Zeta"}[name]
        return th.weierstrass(kind, args.z or 0.3 + 0.1j, tau)
    if name in ("k", "kprime", "e", "eprime"):
        kind = {"k": "K", "kprime": "Kprime", "e": "E", "eprime": "Eprime"}[name]
        return th.elliptic_K(kind, args.m if args.m is not None else 0.5)
    if name == "picard-y":
        return pnl.picard_y(pnl.PicardIndex(args.nu, args.mu, args.N), tau,
                            max(order, 0))
    if name == "hitchin-y":
        idx = pnl.PicardIndex(args.nu, args.mu, args.N)
        return pnl.hitchin_y(idx.A, idx.B, tau, max(order, 0))
    if name in ("x", "u", "v", "z", "r", "s", "j", "bigx"):
        recipe = {"x": "x", "u": "u", "v": "v", "z": "z6", "r": "r6",
                  "s": "s", "j": "J", "bigx": "bigx"}[name]
        return cat.RECIPES[recipe](tau, max(order, 0))
    raise ThetaKitError(f"unknown function {name!r}")


def cmd_eval(args) -> int:
    from .jets import Jet

    _check_tau(args.tau)
    try:
        value = _eval_function(args.function, args)
    except ThetaKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if isinstance(value, Jet):
        if args.jet:
            print(f"jet at tau = {args.tau}:")
            for n, c in enumerate(value.coeffs):
                print(f"  c{n} = {c!r}")
        else:
            print(repr(value.value))
    else:
        print(repr(value))
    return EXIT_PASS


def cmd_invert(args) -> int:
    from . import fuchs
    from . import painleve as pnl

    if args.seed_tau is not None:
        _check_tau(args.seed_tau)
    try:
        if args.kind == "x":
            tau = fuchs.invert_x_to_tau(args.value)
            resid = abs(pnl.hauptmodul_x(tau, 0).value - args.value)
        elif args.kind == "s":
            seed = args.seed_tau if args.seed_tau is not None else 1.5j
            tau = fuchs.invert_s_to_tau(args.value, seed)
            resid = abs(fuchs.heun_s_jet(tau, 0).value - args.value)
        else:
            print(f"error: unknown inversion target {args.kind!r}",
                  file=sys.stderr)
            return EXIT_USAGE
    except ThetaKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    print(f"tau = {tau!r}")
    print(f"round-trip residual = {resid!r}")
    return EXIT_PASS


def cmd_suite(args) -> int:
    cfg = build_config(args)
    try:
        reports = run_suite(args.name, cfg)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        print(reports_to_json(reports))
    elif args.format == "csv":
        print(reports_to_csv(reports), end="")
    else:
        for line in summary_lines(reports):
            print(line)
    return EXIT_PASS if all(r.passed for r in reports) else EXIT_SUITE_FAILURE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="thetakit",
        description="Theta-constant calculus and verification suites for the "
                    "Painleve-6 solution families and their uniformized curves.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("suite", help="run verification suites")
    ssub = sp.add_subparsers(dest="suite_command", required=True)
    sr = ssub.add_parser("run", help="run a named suite (or 'all')")
    sr.add_argument("name", help=f"one of: {', '.join(SUITE_ORDER)}, all")
    sr.add_argument("--format", choices=("text", "json", "csv"),
                    default="text")
    sr.add_argument("--config", help="key=value config file "
                    "(or env THETAKIT_CONFIG)")
    sr.add_argument("--seed", type=int, default=None,
                    help="random seed for the sampled checks (default 0)")
    sr.add_argument("--catalog", help="path to an alternative curve "
                    "catalog file")
    sr.add_argument("--grid", help="re_min,re_max,im_min,im_max,n "
                    "override for the verification grid")
    sr.add_argument("--tol", action="append", metavar="SUITE=VALUE",
                    help="tolerance of every non-control row of SUITE "
                         "(repeatable)")
    sr.set_defaults(func=cmd_suite)
    sl = ssub.add_parser("list", help="list suite names")
    sl.set_defaults(func=lambda a: (print("\n".join(SUITE_ORDER)), EXIT_PASS)[1])

    ev = sub.add_parser("eval", help="evaluate a named function")
    ev.add_argument("function",
                    help="theta|theta1..theta4|thetaprime|vartheta|dedekind|"
                         "eta|wp|wp-prime|wp-zeta|K|Kprime|E|Eprime|"
                         "picard-y|hitchin-y|x|u|v|z|r|s|J|bigx")
    ev.add_argument("--tau", type=parse_complex, default=1.2j,
                    help="point of the upper half-plane, e.g. 1.3i or 0.2+1.1i")
    ev.add_argument("--z", type=parse_complex, default=None,
                    help="argument for theta/wp evaluations")
    ev.add_argument("--m", type=parse_complex, default=None,
                    help="parameter m = k^2 for the complete integrals")
    ev.add_argument("--k", type=int, default=3, help="theta-constant index")
    ev.add_argument("--alpha", type=int, default=0)
    ev.add_argument("--beta", type=int, default=0)
    ev.add_argument("--nu", type=int, default=0)
    ev.add_argument("--mu", type=int, default=1)
    ev.add_argument("--N", type=int, default=3)
    ev.add_argument("--jet", type=int, default=None, metavar="N",
                    help="print the order-N tau-jet instead of the value")
    ev.set_defaults(func=cmd_eval)

    # inversion needs no suite configuration; --seed here is the Newton
    # seed in tau (a complex number), unlike the RNG seed of the suites
    iv = sub.add_parser("invert", help="invert a Hauptmodul to tau")
    iv.add_argument("kind", choices=("x", "s"))
    iv.add_argument("value", type=parse_complex)
    iv.add_argument("--seed", "--seed-tau", dest="seed_tau",
                    type=parse_complex, default=None,
                    help="Newton seed for the s-inversion (default 1.5i)")
    iv.set_defaults(func=cmd_invert)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ThetaKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
