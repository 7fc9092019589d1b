"""One pass of a workload in a fresh interpreter.

    python3 perfbench/child.py verify SEED [--trace]   # thetakit suite run all
    python3 perfbench/child.py sweep [--trace] < ops.json
    python3 perfbench/child.py micro                    # kernel micro-timings

The harness sets PYTHONPATH to the checkout's ``src``; THETAKIT_PURE=1
selects the pure kernel, and PERFBENCH_CORE names a compiled ``_core``
that a meta-path finder maps to ``thetakit._core`` (nothing is built or
installed into ``src``).  A verify pass writes the CLI's report to stdout
and its timings to stderr, on a last line that starts with RESULT_TAG; the
other modes write their result as JSON on stdout.
"""

import importlib.machinery
import os
import sys
import time

RESULT_TAG = "PERFBENCH-RESULT "


class CoreFinder:
    """Maps ``thetakit._core`` to a compiled extension outside the tree."""

    def __init__(self, path):
        self.path = path

    def find_spec(self, name, path=None, target=None):
        if name != "thetakit._core":
            return None
        loader = importlib.machinery.ExtensionFileLoader(name, self.path)
        return importlib.machinery.ModuleSpec(name, loader, origin=self.path)


def install_core_finder():
    core = os.environ.get("PERFBENCH_CORE")
    if core:
        sys.meta_path.insert(0, CoreFinder(core))


def peak_rss_kb():
    """This process's own peak RSS.  Not ru_maxrss: after a spawn that
    keeps the peak of the harness process the child was forked from."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_verify(seed, traced):
    timings = {}
    t0 = time.perf_counter()
    if traced:
        import numpy  # noqa: F401  (timed on its own in the traced run)
        timings["import.numpy_s"] = time.perf_counter() - t0
    import thetakit.cli as cli
    t1 = time.perf_counter()
    timings["import_s"] = t1 - t0
    if traced:
        timings["import.thetakit_s"] = t1 - t0 - timings["import.numpy_s"]

    import thetakit
    from thetakit.catalog import CheckRow

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # one timestamp per check row: the rows are the ops of a verify pass
    stamps = []
    row_init = CheckRow.__init__

    def stamped_init(self, *args, **kwargs):
        row_init(self, *args, **kwargs)
        stamps.append(time.perf_counter_ns())

    CheckRow.__init__ = stamped_init
    start_ns = time.perf_counter_ns()
    t2 = time.perf_counter()
    rc = cli.main(["suite", "run", "all", "--format", "json", "--seed", str(seed)])
    sys.stdout.flush()
    timings["pass_s"] = time.perf_counter() - t2

    import json

    rows_ns = [b - a for a, b in zip([start_ns] + stamps[:-1], stamps)]
    result = {"backend": thetakit.KERNEL_BACKEND, "rc": rc, "row_ns": rows_ns,
              "rss_kb": peak_rss_kb(), **timings}
    if tracer:
        result["trace"] = tracer.totals()
        result["spans"] = tracer.spans
    sys.stderr.write(RESULT_TAG + json.dumps(result) + "\n")


def run_sweep(traced):
    t0 = time.perf_counter()
    import thetakit
    from thetakit import fuchs, jets, painleve, thetafuncs, toroidal
    import_s = time.perf_counter() - t0

    import json

    from ops import call, encode_value

    spec = json.load(sys.stdin)
    tk = (thetafuncs, jets, painleve, fuchs, toroidal)
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    error_type = thetakit.ThetaKitError
    clock = time.perf_counter_ns
    outcomes = []
    t1 = time.perf_counter()
    for op in spec["ops"]:
        if tracer:
            tracer.new_scope()
        value = error = None
        start = clock()
        try:
            value = call(op["kind"], op, tk)
        except error_type as exc:
            error = ("typed", type(exc).__name__)
        except Exception as exc:  # an untyped failure is a measured outcome
            error = ("untyped", type(exc).__name__)
        elapsed = clock() - start
        outcome = {"ns": elapsed}
        if error:
            outcome["status"], outcome["error"] = error
        else:
            outcome["status"] = "ok"
            if op.get("check"):
                outcome["value"] = encode_value(value)
        outcomes.append(outcome)
    pass_s = time.perf_counter() - t1
    result = {"backend": thetakit.KERNEL_BACKEND, "import_s": import_s,
              "pass_s": pass_s, "outcomes": outcomes, "rss_kb": peak_rss_kb()}
    if tracer:
        result["trace"] = tracer.totals()
    json.dump(result, sys.stdout)


def run_micro():
    """The theta-value, order-5 jet and pentagonal micro-timings: mean
    seconds per kernel call over fixed arguments, plus the sums themselves
    so that the two backends can be compared exactly."""
    import json

    import thetakit._series as series

    taus = [complex(0.05 * k - 0.4, 0.9 + 0.015 * k) for k in range(40)]
    cases = {
        "kernel.value_us": (series.theta_sums, [
            (0, 0, 0j, 0.3 + 0.1j, 1.0, 0.0, t, 0, 0, 1e-17, 3, 4096)
            for t in taus]),
        "kernel.jet5_us": (series.theta_sums, [
            (1, 1, 1.0 / 6.0, 0j, 1.0, 0.0, t, 1, 5, 1e-17, 3, 4096)
            for t in taus]),
        "kernel.pentagonal_jet5_us": (series.dedekind_sums, [
            (t, 5, 1e-17, 3, 4096) for t in taus]),
    }
    repeat = 50
    timings, sums = {}, {}
    for name, (fn, arg_list) in cases.items():
        sums[name] = [[[s.real, s.imag] for s in fn(*a)] for a in arg_list]
        t0 = time.perf_counter()
        for _ in range(repeat):
            for a in arg_list:
                fn(*a)
        timings[name] = (time.perf_counter() - t0) / (repeat * len(arg_list)) * 1e6
    json.dump({"backend": series.BACKEND, "timings": timings, "sums": sums},
              sys.stdout)


def main(argv):
    install_core_finder()
    mode, rest = argv[0], argv[1:]
    traced = "--trace" in rest
    if mode == "verify":
        run_verify(int(rest[0]), traced)
    elif mode == "sweep":
        run_sweep(traced)
    elif mode == "micro":
        run_micro()
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
