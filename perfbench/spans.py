"""Span recorder and the wrappers that trace tauclass from outside.

The benchmark never edits ``src/``.  ``install`` replaces public
functions and methods of the tauclass modules with wrappers, at every
binding: a function that another module imports by name (``cli`` holds
its own ``run_suite``, ``transform`` its own ``pushforward``) is
rebound there too.  Each wrapper records a span (name, start, end,
parent) in flat arrays kept in memory; ``Tracer.dump`` writes
them when the pass ends.

Coefficient arithmetic (``YPoly`` and ``Fraction`` operators) runs
millions of times per pass.  A span each would swamp the run, so those
calls are counted and timed without spans: only the outermost
coefficient call is timed, and its time is charged to the enclosing span
as ``coeff`` so that self times still add up.

A span's self time is its duration minus the part of it that its child
spans cover, minus the coefficient time charged to it.  A layer's self
time is the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from math import factorial
from pathlib import Path
from time import perf_counter

# (layer, metric name, module, class or None, attribute names)
SPANNED = (
    ("series", "multiplicative_class", "tauclass.series", None, ("multiplicative_class",)),
    ("series", "graded_mul", "tauclass.series", "GradedPoly", ("__mul__", "__rmul__")),
    ("series", "graded_add", "tauclass.series", "GradedPoly", ("__add__",)),
    ("series", "graded_init", "tauclass.series", "GradedPoly", ("__init__",)),
    ("series", "log", "tauclass.series", "Series1", ("log",)),
    ("geom", "pushforward", "tauclass.geom", None, ("pushforward",)),
    ("geom", "pullback", "tauclass.geom", None, ("pullback",)),
    ("geom", "cross", "tauclass.geom", None, ("cross",)),
    ("geom", "hclass_mul", "tauclass.geom", "HClass", ("__mul__",)),
    ("geom", "tangent_chern", "tauclass.geom", None, ("tangent_chern",)),
    ("geom", "relative_tangent", "tauclass.geom", None, ("relative_tangent",)),
    ("relk", "k_class", "tauclass.relk", None, ("k_class",)),
    ("relk", "pushforward_k", "tauclass.relk", None, ("pushforward_k",)),
    ("relk", "pullback_k", "tauclass.relk", None, ("pullback_k",)),
    ("relk", "cross_k", "tauclass.relk", None, ("cross_k",)),
    ("relk", "distinguished", "tauclass.relk", None, ("distinguished",)),
    ("constr", "const_transform", "tauclass.constr", None, ("const_transform",)),
    ("constr", "push_constr", "tauclass.constr", None, ("push_constr",)),
    ("constr", "cross_constr", "tauclass.constr", None, ("cross_constr",)),
    ("transform", "tau", "tauclass.transform", None, ("tau",)),
    ("transform", "check", "tauclass.transform", None, (
        "check_naturality", "check_multiplicativity", "check_verdier_rr", "check_const_diagram",
    )),
    ("transform", "render_value", "tauclass.transform", None, ("render_value",)),
    ("transform", "run_suite", "tauclass.transform", None, ("run_suite",)),
    ("transform", "chi_y_genus", "tauclass.transform", None, ("chi_y_genus",)),
    ("abelian", "formal_sum_add", "tauclass.abelian", "FormalSum", ("__add__",)),
    ("abelian", "smith_normal_form", "tauclass.abelian", None, ("smith_normal_form",)),
    ("abelian", "group_completion", "tauclass.abelian", None, ("group_completion",)),
    ("cat", "parse_cospan_text", "tauclass.cat", None, ("parse_cospan_text",)),
    ("cat", "verify_category", "tauclass.cat", None, ("verify_category",)),
    ("cat", "verify_functor", "tauclass.cat", None, ("verify_functor",)),
    ("cat", "build_comma", "tauclass.cat", None, ("build_comma",)),
    ("cli", "main", "tauclass.cli", None, ("main",)),
)

# counted and timed without spans (see the module docstring)
COEFF_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)
COEFF_TARGETS = (
    ("tauclass.series", "YPoly", COEFF_OPS + ("__init__", "evaluate")),
    ("fractions", "Fraction", COEFF_OPS + ("__new__",)),
)

LAYERS = ("series", "geom", "relk", "constr", "transform", "abelian", "cat", "cli")

# (metric, unit, better) beyond the per-function calls and self times
EXTRA_METRICS = (
    ("series.coeff.calls", "count", "lower"),
    ("series.coeff.self_s", "s", "lower"),
    ("series.terms_out", "count", "lower"),
    ("geom.terms_in", "count", "lower"),
    ("relk.canonical_perms_per_class", "perms/class", "lower"),
    ("transform.eval_invariant.hit_ratio", "ratio", "higher"),
    ("abelian.snf_entry_bits", "bits", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for layer, name, *_ in SPANNED:
        out.append((f"{layer}.{name}.calls", "count", "lower"))
        out.append((f"{layer}.{name}.self_s", "s", "lower"))
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += list(EXTRA_METRICS)
    return out


class Tracer:
    """Spans in flat arrays, indexed by span id.

    ``stack`` holds the ids of the open spans; wrappers record only while
    it is non-empty, i.e. while the pass span is open."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.coeff = array("d")  # coefficient time charged to the span
        self.stack: list[int] = []
        self.coeff_depth = 0
        self.coeff_calls = 0
        self.counters: dict[str, float] = {
            "terms_out": 0, "terms_in": 0, "perms": 0, "classes": 0, "snf_bits": 0,
        }

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.coeff.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals
        (clipped to it) minus its charged coefficient time."""
        n = len(self.name)
        covered = [0.0] * n
        reach = [0.0] * n  # end of the covered prefix, per parent
        for c in range(n):
            p = self.parent[c]
            if p < 0:
                continue
            lo = max(self.start[c], self.start[p], reach[p])
            hi = min(self.end[c], self.end[p])
            if hi > lo:
                covered[p] += hi - lo
                reach[p] = hi
        return [
            self.end[i] - self.start[i] - covered[i] - self.coeff[i] for i in range(n)
        ]

    def summary(self) -> dict[str, float]:
        """Calls and self time per span name, plus layer totals."""
        out: dict[str, float] = {}
        for i, s in enumerate(self.self_times()):
            name = self.names[self.name[i]]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + s
        out["series.coeff.calls"] = self.coeff_calls
        out["series.coeff.self_s"] = sum(self.coeff)
        layers: dict[str, float] = {}
        for key, value in out.items():
            if key.endswith(".self_s"):
                layer = key.split(".", 1)[0]
                layers[layer] = layers.get(layer, 0.0) + value
        out.update({f"{layer}.self_s": v for layer, v in layers.items()})
        return out

    def dump(self, path: Path) -> None:
        """Write the spans: ``<path>.json`` names the columns and span
        names, ``<path>.bin`` holds the arrays back to back."""
        columns = ("name", "parent", "start", "end", "coeff")
        header = {
            "spans": len(self.name),
            "names": self.names,
            "columns": [[c, getattr(self, c).typecode] for c in columns],
        }
        path.with_suffix(".json").write_text(json.dumps(header), encoding="utf-8")
        with open(path.with_suffix(".bin"), "wb") as handle:
            for c in columns:
                getattr(self, c).tofile(handle)


def _span_wrapper(tracer: Tracer, metric: str, fn, before=None, after=None):
    nid = tracer.name_id(metric)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.stack:
            return fn(*args, **kwargs)
        if before is not None:
            before(tracer, args)
        i = tracer.begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(i)
        if after is not None:
            after(tracer, result)
        return result

    return wrapper


def _coeff_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.coeff_depth or not tracer.stack:
            return fn(*args, **kwargs)
        tracer.coeff_depth = 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            tracer.coeff_depth = 0
            tracer.coeff_calls += 1
            tracer.coeff[tracer.stack[-1]] += dt

    return wrapper


# --- counters measured at the layer boundaries --------------------------------


def _terms_out(tracer, result):
    tracer.counters["terms_out"] += len(result.terms)


def _terms_in(tracer, args):
    tracer.counters["terms_in"] += sum(
        len(p.terms) for a in args if hasattr(a, "polys") for p in a.polys
    )


def _canonical_perms(tracer, args):
    # _canonical_class tries every permutation of each source component's
    # factors: k! candidates for one class
    comps = args[0].space.components
    tracer.counters["perms"] += sum(factorial(len(c)) for c in comps)
    tracer.counters["classes"] += len(comps)


def _snf_bits(tracer, result):
    bits = max(
        (abs(x).bit_length() for m in (result.u, result.v) for row in m.entries for x in row),
        default=0,
    )
    tracer.counters["snf_bits"] = max(tracer.counters["snf_bits"], bits)


HOOKS = {
    "series.multiplicative_class": (None, _terms_out),
    "geom.pushforward": (_terms_in, None),
    "geom.pullback": (_terms_in, None),
    "geom.cross": (_terms_in, None),
    "geom.hclass_mul": (_terms_in, None),
    "relk.k_class": (_canonical_perms, None),
    "abelian.smith_normal_form": (None, _snf_bits),
}


def _rebind_everywhere(original, wrapper) -> None:
    """Point every tauclass module global bound to ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "tauclass" or name.startswith("tauclass.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every function in ``SPANNED`` and every coefficient operator.
    Import ``tauclass.cli`` first, so that all its modules are loaded."""
    for layer, name, module_name, class_name, attrs in SPANNED:
        module = importlib.import_module(module_name)
        metric = f"{layer}.{name}"
        before, after = HOOKS.get(metric, (None, None))
        if class_name is None:
            for attr in attrs:
                fn = getattr(module, attr)
                _rebind_everywhere(fn, _span_wrapper(tracer, metric, fn, before, after))
        else:
            cls = getattr(module, class_name)
            wrapped = {}
            for attr in attrs:
                fn = cls.__dict__[attr]
                if fn not in wrapped:  # aliases such as __rmul__ = __mul__
                    wrapped[fn] = _span_wrapper(tracer, metric, fn, before, after)
                setattr(cls, attr, wrapped[fn])
    for module_name, class_name, attrs in COEFF_TARGETS:
        cls = getattr(importlib.import_module(module_name), class_name)
        for attr in attrs:
            fn = cls.__dict__.get(attr)
            if fn is None:  # YPoly has no reflected division
                continue
            if isinstance(fn, staticmethod):  # __new__
                setattr(cls, attr, staticmethod(_coeff_wrapper(tracer, fn.__func__)))
            else:
                setattr(cls, attr, _coeff_wrapper(tracer, fn))


def layer_metrics(tracer: Tracer, eval_cache_info) -> dict[str, float]:
    """Every per-layer metric except the two ``trace.`` ones, which need
    the untraced pass."""
    found = tracer.summary()
    out = {}
    for metric, _, _ in per_layer_metrics():
        if metric in found:
            out[metric] = found[metric]
        elif metric.endswith((".calls", ".self_s")):
            out[metric] = 0
    c = tracer.counters
    out["series.terms_out"] = c["terms_out"]
    out["geom.terms_in"] = c["terms_in"]
    out["relk.canonical_perms_per_class"] = c["perms"] / c["classes"] if c["classes"] else 0.0
    lookups = eval_cache_info.hits + eval_cache_info.misses
    out["transform.eval_invariant.hit_ratio"] = eval_cache_info.hits / lookups if lookups else 0.0
    out["abelian.snf_entry_bits"] = c["snf_bits"]
    return out
