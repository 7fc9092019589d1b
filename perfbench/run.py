#!/usr/bin/env python3
"""Layered benchmark of thetakit, driven from outside the package.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke            # every workload, tiny size
    python3 perfbench/run.py --record FILE      # all workloads, both backends,
                                                # untraced and traced

Workloads (one caller, closed loop, one fresh interpreter per pass):

* ``verify``       ``thetakit suite run all --format json --seed S`` on the
                   compiled kernel, S = 1000*seed + pass;
* ``verify-pure``  the same passes on the pure-Python kernel;
* ``eval-sweep``   chunks of independent library calls at fresh random tau
                   (the mix in ``ops.KINDS``), on the compiled kernel, each
                   value of the first chunks checked against mpmath.

A run makes a fixed number of passes, the number that fills ``--seconds``
on the reference machine (``PASS_SECONDS``), so its inputs, and the
failures among them, depend only on the seed and ``--seconds``.

Run from the root of a checkout.  The compiled kernel is built from
``src/thetakit/_core.c`` into ``.bench_build/perfbench`` on first use.
The last line of stdout is the result; the line before it records the
environment, the sample counts and the correctness checks.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True   # leave no caches in the benchmark's directory
import build  # noqa: E402
from ops import KINDS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_build" / "perfbench"

# workload -> (job, kernel backend)
WORKLOADS = {
    "verify": ("verify", "compiled"),
    "verify-pure": ("verify", "python"),
    "eval-sweep": ("sweep", "compiled"),
}
SUITE_COUNT = 11
CHILD_TIMEOUT = 150
# seconds per pass (spawn to parsed result) of each job and backend on a
# 2-vCPU AMD EPYC; a run of --seconds s makes round(seconds / PASS_SECONDS)
# passes, so its inputs and failures do not depend on the machine's speed
PASS_SECONDS = {("verify", "compiled"): 0.75, ("verify", "python"): 1.4,
                ("sweep", "compiled"): 0.45, ("sweep", "python"): 1.2}
RUN_DEADLINE = 120         # no pass starts later than this in a run
SWEEP_ROUNDS = 300         # rounds of the op mix per sweep chunk
CHECKED_ROUNDS = 20        # first rounds of a run checked against mpmath
SEED_STRIDE = 1000         # verify seeds of run --seed n: 1000*n + pass
PROBE_ROUNDS = 20          # size of the traced sweep probe of a verify run
# per-layer metrics that only this job produces; a traced run of the other
# job takes them from a probe pass of this one
PROBED = {"verify": ("suite.", "catalog.", "reports.", "connections.",
                     "modular.", "rational.", "import.numpy_s"),
          "sweep": ("eval.",)}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# --------------------------------------------------------------------------
# child processes
# --------------------------------------------------------------------------

class Kernel:
    """Environment of the child processes for one kernel backend."""

    def __init__(self, backend, core_path):
        self.backend = backend
        env = {k: v for k, v in os.environ.items()
               if k not in ("THETAKIT_PURE", "THETAKIT_CONFIG", "PERFBENCH_CORE",
                            "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
        env["PYTHONPATH"] = str(SRC)
        # imports are timed with warm bytecode caches, as an installed
        # package has them; the caches go to the build directory, never
        # into src/
        env["PYTHONPYCACHEPREFIX"] = str(CACHE / "pycache")
        if backend == "python":
            env["THETAKIT_PURE"] = "1"
        else:
            env["PERFBENCH_CORE"] = str(core_path)
        self.env = env

    def spawn(self, args, stdin=None):
        """Run child.py; return (seconds from spawn to exit, process) or
        (seconds, None) on a timeout, after the child has been reaped."""
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py")] + args,
                                  input=stdin, capture_output=True,
                                  env=self.env, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, None
        return time.perf_counter() - t0, proc


def kernels(backend_needed):
    """Kernel environments by backend; 'compiled' only with a compiler."""
    cc = build.find_compiler()
    out = {"python": Kernel("python", None)}
    if cc:
        out["compiled"] = Kernel("compiled", build.build_core(ROOT, CACHE, cc))
    elif backend_needed == "compiled":
        raise BenchError("no C compiler found (set CC or install cc): the "
                         "compiled-kernel workloads cannot run")
    return out, cc


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------

def pass_count(job, backend, seconds):
    """Number of passes of a run: fixed by --seconds, never by the clock."""
    return max(1, round(seconds / PASS_SECONDS[job, backend]))


def run_passes(count, one_pass):
    """``one_pass(i)`` for i in range(count); stops early only when the run
    is past RUN_DEADLINE, on a machine far slower than the reference."""
    passes = []
    start = time.perf_counter()
    while len(passes) < count and (
            not passes or time.perf_counter() - start < RUN_DEADLINE):
        passes.append(one_pass(len(passes)))
    return passes, time.perf_counter() - start


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values):
    return statistics.median(values) if values else 0.0


def layer_summary(traces):
    """Per-pass medians of the traced times, per-pass means of the counts."""
    keys = set().union(*traces) if traces else set()
    out = {}
    for key in keys:
        vals = [t.get(key, 0) for t in traces]
        if key.endswith("_s"):
            out[key] = median(vals)
        else:
            out[key] = sum(vals) / len(vals)
    calls = sum(t.get("kernel.theta_calls", 0) + t.get("kernel.dedekind_calls", 0)
                for t in traces)
    repeats = sum(t.get("kernel.repeats", 0) for t in traces)
    out["kernel.repeat_share"] = repeats / calls if calls else 0.0
    out.pop("kernel.repeats", None)
    return out


def end_to_end(passes, op_ns, key):
    """The end-to-end metrics from the completed passes and the time of
    every op in them; ``p[key]`` lists the op times of pass ``p``."""
    if not passes:
        return {}
    pass_s = [p["pass_s"] for p in passes]
    return {
        "setup_s": median([p["import_s"] for p in passes]),
        "pass_s_p50": median(pass_s),
        "process_s_p50": median([p["process_s"] for p in passes]),
        "eval_us_p50": percentile(op_ns, 0.50) / 1e3,
        "eval_us_p99": percentile(op_ns, 0.99) / 1e3,
        "evals_per_s": median([len(p[key]) / p["pass_s"] for p in passes]),
        "peak_rss_mb": median([p["rss_kb"] for p in passes]) / 1024,
    }


# --------------------------------------------------------------------------
# verify and verify-pure
# --------------------------------------------------------------------------

def verify_pass(kernel, seed, traced):
    """One CLI pass; returns a dict of its measurements and its report."""
    args = ["verify", str(seed)] + (["--trace"] if traced else [])
    process_s, proc = kernel.spawn(args)
    out = {"seed": seed, "process_s": process_s, "ok": False}
    if proc is None:
        out["error"] = "timeout"
        return out
    tagged = [line for line in proc.stderr.decode(errors="replace").splitlines()
              if line.startswith("PERFBENCH-RESULT ")]
    if not tagged:
        out["error"] = f"exit {proc.returncode}: {proc.stderr.decode()[-400:]}"
        return out
    out.update(json.loads(tagged[-1][len("PERFBENCH-RESULT "):]))
    out["sha256"] = hashlib.sha256(proc.stdout).hexdigest()
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        out["error"] = "report is not JSON"
        return out
    rows = [c for s in report["suites"] for c in s["checks"]]
    out["rows"] = len(rows)
    out["failed_rows"] = sorted(
        f"{s['suite']}/{c['check_id']}" for s in report["suites"]
        for c in s["checks"]
        if not c["pass"] and not c["note"].startswith("skipped"))
    consistent = (out["rc"] == 0) == bool(report["passed"]) and out["rc"] in (0, 1)
    out["ok"] = (len(report["suites"]) == SUITE_COUNT and consistent
                 and out["backend"] == kernel.backend)
    if not out["ok"]:
        out["error"] = (f"backend {out['backend']}, exit {out['rc']}, "
                        f"{len(report['suites'])} suites")
    return out


def run_verify(backend, seed, seconds, traced, kern, rounds=None):
    kernel = kern[backend]
    passes, loop_s = run_passes(
        pass_count("verify", backend, seconds),
        lambda i: verify_pass(kernel, SEED_STRIDE * seed + i, traced))
    good = [p for p in passes if p["ok"]]
    crashed = [p for p in passes if not p["ok"]]

    # outside the measured loop: the first seed on the other backend must
    # give the same report, byte for byte
    other = "python" if backend == "compiled" else "compiled"
    identity = {"seed": passes[0]["seed"], "other_backend": other}
    if other in kern and good:
        twin = verify_pass(kern[other], good[0]["seed"], False)
        identity["identical"] = twin.get("sha256") == good[0]["sha256"]
    else:
        identity["identical"] = None
        identity["note"] = f"the {other} kernel is unavailable (no compiler)"

    rows = sum(p["rows"] for p in good)
    failed_rows = sum(len(p["failed_rows"]) for p in good)
    attempted = rows + len(crashed)
    failed = failed_rows + len(crashed)
    row_ns = [ns for p in good for ns in p["row_ns"]]
    metrics = end_to_end(good, row_ns, "row_ns")
    if good:
        # the row times of one pass are spread so flat around their median
        # that the median of all rows jumps between runs; the median of the
        # passes' mean row times is as steady as pass_s_p50
        metrics["eval_us_p50"] = median(
            [sum(p["row_ns"]) / len(p["row_ns"]) for p in good]) / 1e3
    failing = {}
    for p in good:
        for row in p["failed_rows"]:
            failing.setdefault(row, []).append(p["seed"])
    detail = {
        "samples": {"passes": len(passes),
                    "planned": pass_count("verify", backend, seconds),
                    "loop_s": loop_s,
                    "pass_s": [p["pass_s"] for p in good],
                    "rows": rows,
                    "seeds": [passes[0]["seed"], passes[-1]["seed"]],
                    "rows_beyond_p99": len(row_ns) - math.ceil(0.99 * len(row_ns))},
        "failures": {"failed_rows": failed_rows, "crashed_passes": len(crashed),
                     "failing_rows_by_seed": failing,
                     "crash_errors": [p.get("error") for p in crashed][:5],
                     "fail_share": failed / attempted if attempted else 0.0},
        "cross_backend_identity": identity,
    }
    correct = bool(good) and not crashed and identity["identical"] is not False
    layers = None
    if traced and good:
        layers = layer_summary([p["trace"] for p in good])
        layers["import.numpy_s"] = median([p["import.numpy_s"] for p in good])
        layers["import.thetakit_s"] = median([p["import.thetakit_s"] for p in good])
        layers["trace.pass_s_p50"] = metrics["pass_s_p50"]
        layers["trace.eval_us_p50"] = metrics["eval_us_p50"]
        layers["fail_share"] = detail["failures"]["fail_share"]
        layers["wrong_share"] = 0.0   # no mpmath-checked values in a verify pass
        write_spans(f"verify-{backend}", seed, [p["spans"] for p in good])
    return metrics, layers, detail, attempted, failed, correct


def write_spans(label, seed, spans_by_pass):
    CACHE.mkdir(parents=True, exist_ok=True)
    path = CACHE / f"spans-{label}-seed{seed}.json"
    path.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent"],
                                "passes": spans_by_pass}))


# --------------------------------------------------------------------------
# eval-sweep
# --------------------------------------------------------------------------

def sweep_chunk(kernel, ops, traced):
    """One chunk in a fresh interpreter; the ops are kept only where their
    values are to be checked."""
    payload = json.dumps({"ops": ops}).encode()
    process_s, proc = kernel.spawn(["sweep"] + (["--trace"] if traced else []),
                                   stdin=payload)
    if proc is None or proc.returncode != 0:
        return {"ok": False, "size": len(ops), "error": (
            "timeout" if proc is None else
            f"exit {proc.returncode}: {proc.stderr.decode()[-400:]}")}
    chunk = json.loads(proc.stdout)
    outcomes = chunk.pop("outcomes")
    chunk.update(process_s=process_s, size=len(ops),
                 ok=chunk["backend"] == kernel.backend and len(outcomes) == len(ops),
                 ns=[o["ns"] for o in outcomes],
                 kinds=[op["kind"] for op in ops],
                 errors=[(op["kind"], o["status"], o["error"])
                         for op, o in zip(ops, outcomes) if o["status"] != "ok"],
                 checked=[(op, o) for op, o in zip(ops, outcomes)
                          if op.get("check")])
    return chunk


def run_sweep(backend, seed, seconds, traced, kern, rounds=SWEEP_ROUNDS):
    import reference

    kernel = kern[backend]

    def chunk(i):
        ops = reference.draw_chunk(seed, i, rounds)
        if i == 0:
            for op in ops[:CHECKED_ROUNDS * len(KINDS)]:
                op["check"] = True
        return sweep_chunk(kernel, ops, traced)

    chunks, loop_s = run_passes(pass_count("sweep", backend, seconds), chunk)
    good = [c for c in chunks if c["ok"]]
    crashed = [c for c in chunks if not c["ok"]]

    typed, untyped = {}, {}
    for chunk in good:
        for kind, status, error in chunk["errors"]:
            if status == "typed":
                typed[kind] = typed.get(kind, 0) + 1
            else:
                untyped[f"{kind}:{error}"] = untyped.get(f"{kind}:{error}", 0) + 1
    # outside the measured loop: the values of the first rounds against the
    # mpmath reference
    wrong, checked, missing_values = {}, 0, 0
    for chunk in good:
        for op, outcome in chunk["checked"]:
            if outcome["status"] != "ok":
                continue
            if "value" not in outcome:
                missing_values += 1
                continue
            checked += 1
            if not reference.relative_error(op, outcome["value"]) <= reference.REL_TOL:
                wrong[op["kind"]] = wrong.get(op["kind"], 0) + 1
    n_typed, n_untyped, n_wrong = (sum(d.values()) for d in (typed, untyped, wrong))
    op_ns = [ns for c in good for ns in c["ns"]]
    lost = sum(c["size"] for c in crashed)
    attempted = len(op_ns) + lost
    failed = n_typed + n_untyped + n_wrong + lost
    metrics = end_to_end(good, op_ns, "ns")
    if good:
        # percentiles of all calls pooled follow the share of the run the
        # machine spent slowed by other load; the median over chunks of each
        # chunk's percentile, like pass_s_p50, does not (a chunk has 5100
        # calls, 51 beyond its p99)
        for name, q in (("eval_us_p50", 0.50), ("eval_us_p99", 0.99)):
            metrics[name] = median([percentile(c["ns"], q) for c in good]) / 1e3
    wrong_share = n_wrong / checked if checked else 0.0
    detail = {
        "samples": {"chunks": len(chunks),
                    "planned": pass_count("sweep", backend, seconds),
                    "loop_s": loop_s,
                    "pass_s": [c["pass_s"] for c in good],
                    "ops": len(op_ns),
                    "ops_per_chunk": rounds * len(KINDS),
                    "checked_ops": checked,
                    "ops_beyond_p99": len(op_ns) - math.ceil(0.99 * len(op_ns))},
        "failures": {"typed_errors": typed, "untyped_errors": untyped,
                     "wrong_values": wrong, "crashed_chunks": len(crashed),
                     "crash_errors": [c.get("error") for c in crashed][:5],
                     "fail_share": failed / attempted if attempted else 0.0,
                     "wrong_share": wrong_share},
    }
    correct = bool(good) and not crashed and missing_values == 0
    layers = None
    if traced and good:
        layers = layer_summary([c["trace"] for c in good])
        by_kind = {kind: [] for kind in KINDS}
        for chunk in good:
            for kind, ns in zip(chunk["kinds"], chunk["ns"]):
                by_kind[kind].append(ns)
        for kind, ns in by_kind.items():
            layers[f"eval.{kind}.us_p50"] = percentile(ns, 0.5) / 1e3
        layers["import.thetakit_s"] = metrics["setup_s"]
        layers["eval.typed_errors"] = n_typed
        layers["eval.untyped_errors"] = n_untyped
        layers["trace.pass_s_p50"] = metrics["pass_s_p50"]
        layers["trace.eval_us_p50"] = metrics["eval_us_p50"]
        layers["fail_share"] = detail["failures"]["fail_share"]
        layers["wrong_share"] = wrong_share
    return metrics, layers, detail, attempted, failed, correct


JOBS = {"verify": run_verify, "sweep": run_sweep}


# --------------------------------------------------------------------------
# kernel micro-timings (traced runs)
# --------------------------------------------------------------------------

def micro(kern, backend):
    """Kernel micro-timings on ``backend``, and whether its sums equal the
    other backend's exactly (None when only one backend exists)."""
    results = {}
    for name, kernel in kern.items():
        _, proc = kernel.spawn(["micro"])
        if proc is None or proc.returncode != 0:
            raise BenchError(f"kernel micro-timing failed on {name}")
        results[name] = json.loads(proc.stdout)
    identical = None
    if len(results) == 2:
        identical = results["python"]["sums"] == results["compiled"]["sums"]
    return results[backend]["timings"], identical


# --------------------------------------------------------------------------
# environment and the result line
# --------------------------------------------------------------------------

def environment(workload, seed, cc, rounds):
    def first_line(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                 timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 and out.stdout.strip() else None

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "thetakit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    job, backend = WORKLOADS[workload]
    if job == "verify":
        mix = {"op": "check row of `thetakit suite run all --format json "
                     "--seed S`", "seed_rule": f"S = {SEED_STRIDE}*seed + pass"}
    else:
        mix = {"op": "one library call at a fresh tau",
               "kinds": list(KINDS), "weights": "each kind once per round, "
               "seeded order", "rounds_per_chunk": rounds,
               "ops_per_chunk": rounds * len(KINDS),
               "checked_ops": CHECKED_ROUNDS * len(KINDS),
               "tau": "Re uniform in [-1, 1], Im log-uniform in [0.005, 3]"}
    return {
        "commit": first_line(["git", "rev-parse", "HEAD"]),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": build.compiler_version(cc) if cc else None,
        "kernel_backend": backend,
        "workload": workload,
        "seed": seed,
        "op_mix": mix,
    }


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(workload, seed, seconds, traced, rounds=SWEEP_ROUNDS):
    """Run one workload; returns (result line dict, detail dict)."""
    if not (SRC / "thetakit" / "__init__.py").is_file():
        raise BenchError(f"no thetakit sources under {SRC}")
    job, backend = WORKLOADS[workload]
    kern, cc = kernels(backend)
    metrics, layers, detail, attempted, failed, correct = JOBS[job](
        backend, seed, seconds, traced, kern, rounds)
    detail["environment"] = environment(workload, seed, cc, rounds)
    spec = load_spec()
    if traced:
        if layers is None:
            raise BenchError("no pass completed")
        timings, identical = micro(kern, backend)
        layers.update(timings)
        # the layers this job never enters (the suites for a sweep, the
        # sweep calls for a verify pass) are timed by one traced pass of
        # the other job on the same kernel; a counter that never fired is 0
        other = "sweep" if job == "verify" else "verify"
        _, probe, probe_detail, *_, probe_correct = JOBS[other](
            backend, seed, 0.0, True, kern, PROBE_ROUNDS)
        if probe is None:
            raise BenchError(f"the traced {other} probe pass failed: "
                             f"{json.dumps(probe_detail)[:2000]}")
        borrowed = {k: v for k, v in probe.items() if k.startswith(PROBED[other])}
        layers = {m["name"]: 0 for m in spec["per_layer"]} | borrowed | layers
        detail["probe"] = {"job": other, "correct": probe_correct}
        detail["kernel_backends_identical"] = identical
        correct = correct and probe_correct and identical is not False
        wanted = spec["per_layer"]
        source = layers
    else:
        wanted = spec["end_to_end"]
        source = metrics
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}: "
                         f"{json.dumps(detail)[:2000]}")
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    return result, detail


# --------------------------------------------------------------------------
# smoke and record modes
# --------------------------------------------------------------------------

def run_all(seed, seconds, rounds, out):
    """Every workload untraced and traced; returns (report, problems)."""
    spec = load_spec()
    report = {"seconds": seconds, "seed": seed, "workloads": {}}
    problems = []
    for workload in WORKLOADS:
        entry = {}
        for traced in (False, True):
            result, detail = run_workload(workload, seed, seconds, traced, rounds)
            wanted = spec["per_layer" if traced else "end_to_end"]
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(
                        got["value"], (int, float)):
                    problems.append(f"{workload}: {m['name']} missing or "
                                    "without its unit")
            if not result["correct"]:
                problems.append(f"{workload}: correctness check failed")
            entry["traced" if traced else "untraced"] = {"result": result,
                                                         "detail": detail}
            print(f"{workload:12s} trace={int(traced)} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=out)
        untraced = entry["untraced"]["result"]["metrics"]
        traced_m = entry["traced"]["result"]["metrics"]
        entry["trace_overhead"] = {
            "pass_s_p50": traced_m["trace.pass_s_p50"]["value"]
            - untraced["pass_s_p50"]["value"],
            "eval_us_p50": traced_m["trace.eval_us_p50"]["value"]
            - untraced["eval_us_p50"]["value"],
        }
        print(f"{workload:12s} trace overhead: "
              + ", ".join(f"{k} {v:+.6g}" for k, v in entry["trace_overhead"].items()),
              file=out)
        report["workloads"][workload] = entry
    return report, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at a tiny size and check that "
                         "every metric appears with its unit")
    ap.add_argument("--record", metavar="FILE",
                    help="run every workload untraced and traced and write "
                         "the metrics, environment and trace overhead to FILE")
    args = ap.parse_args(argv)
    if not (args.smoke or args.record or args.workload):
        ap.error("--workload is required")
    try:
        seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
        if args.smoke:
            _, problems = run_all(args.seed, 0.0, 1, sys.stdout)
            for p in problems:
                print(f"smoke: {p}", file=sys.stderr)
            return 1 if problems else 0
        if args.record:
            report, problems = run_all(args.seed, seconds, SWEEP_ROUNDS, sys.stderr)
            report["problems"] = problems
            Path(args.record).write_text(json.dumps(report, indent=1) + "\n")
            return 1 if problems else 0
        result, detail = run_workload(args.workload, args.seed, seconds,
                                      bool(args.trace))
    except (BenchError, OSError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"perfbench": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
