"""Spans around calls into harmsum's modules, recorded from outside the package.

`install` wraps every public module-level function of each harmsum module in
every module namespace that binds it, so a call through
`from .numerics import exact_rational_sum` inside `constructor` is recorded
as well as a call through `numerics.exact_rational_sum`. A short list of
methods is wrapped on its class. No file of the package changes; `uninstall`
puts the originals back.

A span is [name, start_ns, end_ns, parent index, job id]. A span's self time
is its duration minus the durations of its direct children; with one thread
the children of a span never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

import exact

MODULES = ("numerics", "support", "sieve", "density", "constructor", "multiplicative", "cli")

# (module, class, attribute, span name)
METHODS = (
    ("support", "SignSequence", "from_obj", "support.SignSequence.from_obj"),
    ("support", "SignSequence", "to_obj", "support.SignSequence.to_obj"),
    ("support", "SignSequence", "merge", "support.SignSequence.merge"),
    ("support", "SupportSet", "reciprocal_sum", "support.SupportSet.reciprocal_sum"),
    ("sieve", "SieveTable", "__init__", "sieve.SieveTable"),
    ("sieve", "SieveTable", "rough_smooth_split", "sieve.rough_smooth_split"),
    ("multiplicative", "MultiplicativeFn", "values_range", "multiplicative.values_range"),
)

# Per-layer metrics in the order they are printed: (name, unit, kind, span).
# kind "self": self seconds per pass; "s": inclusive seconds per pass;
# "calls": calls per pass; "counter": a count taken at the span boundary.
LAYER_METRICS = (
    ("constructor.mitm_optimize.self_s", "s", "self", "constructor.mitm_optimize"),
    ("constructor.mitm_optimize.calls", "count", "calls", "constructor.mitm_optimize"),
    ("constructor.mitm_half_entries", "count", "counter", None),
    ("constructor.shortlist_pairs", "count", "counter", None),
    ("constructor.mitm_useful_ratio", "ratio", "ratio", None),
    ("constructor.greedy_toward.s", "s", "s", "constructor.greedy_toward"),
    ("constructor.rough_basis_subset.s", "s", "s", "constructor.rough_basis_subset"),
    ("sieve.rough_smooth_split.calls", "count", "calls", "sieve.rough_smooth_split"),
    ("constructor.greedy_bounded.s", "s", "s", "constructor.greedy_bounded"),
    ("constructor.flip_to_target.s", "s", "s", "constructor.flip_to_target"),
    ("numerics.exact_rational_sum.s", "s", "s", "numerics.exact_rational_sum"),
    ("numerics.exact_rational_sum.calls", "count", "calls", "numerics.exact_rational_sum"),
    ("numerics.exact_terms", "count", "counter", None),
    ("numerics.lcm_bits_max", "bits", "lcm", None),
    ("numerics.verify_abs_below.s", "s", "s", "numerics.verify_abs_below"),
    ("numerics.compare_to_threshold.calls", "count", "calls", "numerics.compare_to_threshold"),
    ("numerics.compare_determinate_ratio", "ratio", "ratio", None),
    ("support.SignSequence.from_obj.s", "s", "s", "support.SignSequence.from_obj"),
    ("support.SignSequence.to_obj.s", "s", "s", "support.SignSequence.to_obj"),
    ("support.SignSequence.merge.s", "s", "s", "support.SignSequence.merge"),
    ("support.SupportSet.reciprocal_sum.s", "s", "s", "support.SupportSet.reciprocal_sum"),
    ("sieve.SieveTable.s", "s", "s", "sieve.SieveTable"),
    ("density.exhaustive_probability.s", "s", "s", "density.exhaustive_probability"),
    ("density.exhaustive_probability.calls", "count", "calls", "density.exhaustive_probability"),
    ("density.eta_budget.s", "s", "s", "density.eta_budget"),
    ("multiplicative.log_mean_pipeline.self_s", "s", "self", "multiplicative.log_mean_pipeline"),
    ("multiplicative.values_range.s", "s", "s", "multiplicative.values_range"),
    ("multiplicative.values_range.calls", "count", "calls", "multiplicative.values_range"),
    ("cli.run.self_s", "s", "self", "cli.run"),
    ("trace.wall_s", "s", "wall", None),
    ("trace.overhead_s", "s", "overhead", None),
)


def _on_mitm(tracer, args, kwargs, report):
    free = report.details["free_count"]
    tracer.counters["constructor.mitm_half_entries"] += (1 << (free - free // 2)) + (
        1 << (free // 2)
    )
    tracer.counters["constructor.shortlist_pairs"] += report.details.get("shortlist_pairs", 0)


def _on_exact_sum(tracer, args, kwargs, result):
    signs = args[0] if args else kwargs["signs"]
    tracer.counters["numerics.exact_terms"] += len(signs)
    tracer.supports.append(signs.support.values)


def _on_compare(tracer, args, kwargs, outcome):
    if outcome.value != "indeterminate":
        tracer.counters["compare_determinate"] += 1


HOOKS = {
    "constructor.mitm_optimize": _on_mitm,
    "numerics.exact_rational_sum": _on_exact_sum,
    "numerics.compare_to_threshold": _on_compare,
}


class Tracer:
    """Keeps spans and boundary counters in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.supports: list = []
        self.job = None
        self._stack: list[int] = []

    def wrap(self, name, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> list:
    """Wrap harmsum's public functions and the listed methods; return patches."""
    mods = {name: importlib.import_module(f"harmsum.{name}") for name in MODULES}
    wrappers = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                name = f"{short}.{attr}"
                wrappers[obj] = tracer.wrap(name, obj, HOOKS.get(name))
    patches = []
    for mod in (importlib.import_module("harmsum"), *mods.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patches.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
    for short, cls_name, attr, name in METHODS:
        cls = getattr(mods[short], cls_name)
        orig = cls.__dict__[attr]
        if isinstance(orig, classmethod):
            new = classmethod(tracer.wrap(name, orig.__func__))
        else:
            new = tracer.wrap(name, orig)
        patches.append((cls, attr, orig))
        setattr(cls, attr, new)
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, orig in reversed(patches):
        setattr(owner, attr, orig)


def span_stats(spans) -> dict:
    """name -> [calls, inclusive ns, self ns]."""
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats = defaultdict(lambda: [0, 0, 0])
    for i, (name, start, end, _, _) in enumerate(spans):
        st = stats[name]
        st[0] += 1
        st[1] += end - start
        st[2] += end - start - child_ns[i]
    return stats


def _useful_ratio(spans) -> float:
    """Final MITM calls over all MITM calls: in dense_set_signs only the last
    attempt of an escalation is kept."""
    mitm = [s for s in spans if s[0] == "constructor.mitm_optimize"]
    if not mitm:
        return 0.0
    dense = {i for i, s in enumerate(spans) if s[0] == "constructor.dense_set_signs"}
    under = {s[3] for s in mitm if s[3] in dense}
    final = sum(1 for s in mitm if s[3] not in dense) + len(under)
    return final / len(mitm)


def layer_metrics(tracer: Tracer, passes: int, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics per traced pass over the job list."""
    stats = span_stats(tracer.spans)
    out = {}
    for name, _, kind, span in LAYER_METRICS:
        calls, incl_ns, self_ns = stats.get(span, (0, 0, 0)) if span else (0, 0, 0)
        if kind == "self":
            value = self_ns / 1e9 / passes
        elif kind == "s":
            value = incl_ns / 1e9 / passes
        elif kind == "calls":
            value = calls / passes
        elif kind == "counter":
            value = tracer.counters[name] / passes
        elif kind == "lcm":
            seen = {}
            for values in tracer.supports:
                seen.setdefault((values.size, values.tobytes()), values)
            value = max((exact.lcm_bits(v) for v in seen.values()), default=0)
        elif kind == "wall":
            value = traced_wall
        elif kind == "overhead":
            value = traced_wall - untraced_wall
        elif name == "constructor.mitm_useful_ratio":
            value = _useful_ratio(tracer.spans)
        else:  # numerics.compare_determinate_ratio
            total = stats.get("numerics.compare_to_threshold", (0, 0, 0))[0]
            value = tracer.counters["compare_determinate"] / total if total else 0.0
        out[name] = value
    return out
