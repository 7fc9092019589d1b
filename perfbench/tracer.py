"""Per-layer tracing of thetakit from outside the package.

``install`` replaces the public functions of each layer module (and the
methods of the ``Jet`` and rational classes) with wrappers that time each
call.  A wrapper adds its duration to its parent's child time, so a layer's
self time is its span time minus its children's.  Fine-grained calls are
folded into per-layer totals as they end; suite, catalog-load and
serialization spans are also kept whole, as (name, start, end, parent).

The kernel entry points are bound by name inside ``thetafuncs`` and
``jets`` (``from ._series import theta_sums``), so every module attribute
that is the wrapped function is replaced, not just the defining one.
"""

import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

# layer -> classes whose methods belong to it, besides its functions
LAYERS = ("thetafuncs", "jets", "painleve", "rational", "connections",
          "modular", "fuchs", "catalog", "toroidal", "reports")
LAYER_CLASSES = {"jets": ("Jet",), "rational": ("Poly", "RationalFunc",
                                                 "BivarPoly")}
# counters: (layer, qualified name) -> metric name
COUNTED = {
    ("thetafuncs", "vartheta"): "thetafuncs.vartheta_calls",
    ("thetafuncs", "weierstrass"): "thetafuncs.weierstrass_calls",
    ("rational", "Poly.derivative"): "rational.derivative_calls",
    ("rational", "RationalFunc.derivative"): "rational.derivative_calls",
    ("toroidal", "wp_inverse"): "toroidal.wp_inverse_calls",
}
# whole spans kept, with the metric their inclusive time feeds
SPANNED = {("catalog", "load_catalog"): "catalog.load_s",
           ("reports", "reports_to_json"): "reports.serialize_s"}


class Tracer:
    def __init__(self):
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.span_ns = defaultdict(int)
        self.spans = []
        self._stack = []          # one [child_ns] cell per open call
        self._open_spans = []     # indices into self.spans
        self._seen = set()        # kernel argument tuples of the current scope

    def new_scope(self):
        """Kernel repeats are counted within one suite or one sweep op."""
        self._seen.clear()

    def _timed(self, layer, fn, counter=None):
        stack = self._stack
        self_ns = self.self_ns
        counts = self.counts

        def wrapper(*args, **kwargs):
            if counter:
                counts[counter] += 1
            cell = [0]
            stack.append(cell)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                self_ns[layer] += dt - cell[0]
                if stack:
                    stack[-1][0] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def _spanned(self, name, fn, metric=None, new_scope=False):
        inner = self._timed(name.split(".")[0], fn)
        spans = self.spans
        open_spans = self._open_spans
        span_ns = self.span_ns

        def wrapper(*args, **kwargs):
            if new_scope:
                self.new_scope()
            parent = open_spans[-1] if open_spans else -1
            spans.append([name, perf_counter_ns(), 0, parent])
            idx = len(spans) - 1
            open_spans.append(idx)
            try:
                return inner(*args, **kwargs)
            finally:
                open_spans.pop()
                spans[idx][2] = perf_counter_ns()
                if metric:
                    span_ns[metric] += spans[idx][2] - spans[idx][1]

        return wrapper

    def _kernel(self, fn, counter, nonconvergence):
        inner = self._timed("kernel", fn)
        counts = self.counts
        seen = self._seen

        def wrapper(*args):
            counts[counter] += 1
            if args in seen:
                counts["kernel.repeats"] += 1
            else:
                seen.add(args)
            try:
                return inner(*args)
            except nonconvergence:
                counts["kernel.nonconvergence"] += 1
                raise

        return wrapper

    def install(self):
        """Wrap the layers of every thetakit module imported so far."""
        mods = {name[len("thetakit."):]: mod for name, mod in sys.modules.items()
                if name.startswith("thetakit.") and mod is not None}
        replace = {}
        series = mods["_series"]
        nonconv = mods["errors"].NonConvergenceError
        replace[id(series.theta_sums)] = self._kernel(
            series.theta_sums, "kernel.theta_calls", nonconv)
        replace[id(series.dedekind_sums)] = self._kernel(
            series.dedekind_sums, "kernel.dedekind_calls", nonconv)
        for layer in LAYERS:
            mod = mods.get(layer)
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if (layer, name) in SPANNED:
                        wrapped = self._spanned(f"{layer}.{name}", obj,
                                                SPANNED[layer, name])
                    else:
                        wrapped = self._timed(layer, obj,
                                              COUNTED.get((layer, name)))
                    replace[id(obj)] = wrapped
            for cls_name in LAYER_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for name, obj in list(vars(cls).items()):
                    if inspect.isfunction(obj):
                        setattr(cls, name, self._timed(
                            layer, obj, COUNTED.get((layer, f"{cls_name}.{name}"))))
        suites = mods.get("suites")
        if suites is not None:
            for name, fn in list(suites.SUITES.items()):
                suites.SUITES[name] = self._spanned(f"suite.{name}", fn,
                                                    f"suite.{name}.s",
                                                    new_scope=True)
        # rebind every name (and dict entry, e.g. catalog.RECIPES) that
        # refers to a wrapped function, in every thetakit module
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replace and inspect.isroutine(obj):
                    setattr(mod, name, replace[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isroutine(val) and id(val) in replace:
                            obj[key] = replace[id(val)]

    def totals(self):
        """Per-layer self seconds, counters and spanned seconds."""
        out = {f"{layer}.self_s": ns / 1e9 for layer, ns in self.self_ns.items()}
        out.update({name: ns / 1e9 for name, ns in self.span_ns.items()})
        out.update(self.counts)
        return out
