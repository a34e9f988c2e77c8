"""Traced runner: one `seifertsum` CLI call with a span at every module boundary.

    python3 perfbench/tracer.py TRACE_JSON CALL_ID CLI_ARGS...

Before calling `seifertsum.cli.main` the runner wraps the public
functions of every `seifertsum` module (and `RootSystem.weyl_group`) and
rebinds each module's reference to them, so calls across modules go
through the wrappers without any change to the package. Spans (name,
start, end, parent index) stay in memory and are written to TRACE_JSON
at exit together with the call id. The per-weight leaves in `LEAVES`
keep a call count and a summed duration instead of one span per call.
Work counts come from the public return values of the wrapped calls.

`summarize` turns one trace file into additive per-layer totals; the
harness sums them over a workload's calls and `per_layer` turns the sums
into the reported metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import pkgutil
import sys
import time
from pathlib import Path

# Per-weight functions: counted and timed in aggregate.
LEAVES = ("lie.shifted_norm", "lie.casimir", "lie.weyl_dimension", "lie.weyl_group")


class Trace:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, seconds in leaves]
        self.stack = []
        self.leaves = {name: [0, 0.0] for name in LEAVES}
        self.in_leaf = False
        self.counters = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def caller(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        if name in LEAVES:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                if self.in_leaf:  # a leaf inside a leaf is part of the outer one
                    return fn(*args, **kwargs)
                self.in_leaf = True
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    self.in_leaf = False
                    stat = self.leaves[name]
                    stat[0] += 1
                    stat[1] += elapsed
                    if self.stack:
                        self.spans[self.stack[-1]][4] += elapsed
                if hook:
                    hook(self, args, kwargs, result)
                return result
            return leaf

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if self.in_leaf:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if hook:
                hook(self, args, kwargs, result)
            return result
        return span


def _weyl_group(t, args, kwargs, group):
    t.counters["lie.weyl_order_max"] = max(t.counters.get("lie.weyl_order_max", 0),
                                           len(group))


def _integrable_weights(t, args, kwargs, weights):
    t.count("modular.weights", len(weights))


def _s_matrix(t, args, kwargs, md):
    t.count("modular.s_builds")
    t.count("modular.weyl_terms", math.factorial(md.rs.rank + 1) * len(md.weights) ** 2)
    if md.precision_bits > 53:
        t.count("modular.retries")
    if t.caller() == "modular.modular_data":
        t.count("modular.cache_misses")


def _modular_data(t, args, kwargs, md):
    t.count("modular.cache_lookups")
    if t.caller() == "verlinde.verlinde_sum":
        t.count("verlinde.lattice_terms", len(md.weights))


def _verlinde_sum(t, args, kwargs, value):
    md = kwargs.get("modular", args[1] if len(args) > 1 else None)
    if md is not None:  # otherwise counted through modular_data
        t.count("verlinde.lattice_terms", len(md.weights))


def _seifert_partition(t, args, kwargs, value):
    t.count("seifert.cells")
    t.count("seifert.lattice_terms", value.term_count)


def _ym2_partition(t, args, kwargs, result):
    t.count("ym2.terms", result.terms)


def _orbit_fourier(t, args, kwargs, value):
    t.count("orbits.points")


def _pairing_report(t, args, kwargs, report):
    t.count("quasipoly.samples", len(report.values))


HOOKS = {
    "lie.weyl_group": _weyl_group,
    "modular.integrable_weights": _integrable_weights,
    "modular.s_matrix": _s_matrix,
    "modular.modular_data": _modular_data,
    "verlinde.verlinde_sum": _verlinde_sum,
    "seifert.seifert_partition": _seifert_partition,
    "ym2.ym2_partition": _ym2_partition,
    "orbits.orbit_fourier": _orbit_fourier,
    "quasipoly.pairing_report": _pairing_report,
}


def install(trace: Trace) -> None:
    """Wrap every public function of every seifertsum module in place."""
    import seifertsum

    modules = [seifertsum] + [importlib.import_module("seifertsum." + info.name)
                              for info in pkgutil.iter_modules(seifertsum.__path__)]
    wrapped = {}
    for mod in modules:
        layer = mod.__name__.rpartition(".")[2]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
                wrapped[id(obj)] = trace.wrap(layer + "." + name, obj)
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, name, wrapped[id(obj)])
    from seifertsum.lie import RootSystem
    RootSystem.weyl_group = trace.wrap("lie.weyl_group", RootSystem.weyl_group)


def summarize(data: dict) -> dict:
    """Additive per-layer totals of one traced call.

    A span's self time is its duration minus its child spans and the
    leaves called directly from it.
    """
    spans = data["spans"]
    children = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent] += end - start
    out = dict(data["counters"])

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for i, (name, start, end, _, leaf_s) in enumerate(spans):
        self_s = end - start - children[i] - leaf_s
        add(name.partition(".")[0] + ".self_s", self_s)
        if name == "modular.s_matrix":
            add("modular.s_matrix_self_s", self_s)
        elif name == "modular.integrable_weights":
            add("modular.integrable_weights_s", end - start)
        elif name == "quasipoly.fit_quasi_polynomial":  # exactlinalg included
            add("quasipoly.fit_s", end - start)
    leaves = data["leaves"]
    add("lie.weyl_group_s", leaves["lie.weyl_group"][1])
    add("lie.norm_calls", leaves["lie.shifted_norm"][0] + leaves["lie.casimir"][0])
    add("lie.norm_s", leaves["lie.shifted_norm"][1] + leaves["lie.casimir"][1])
    add("lie.weyl_dimension_calls", leaves["lie.weyl_dimension"][0])
    add("lie.weyl_dimension_s", leaves["lie.weyl_dimension"][1])
    return out


def combine(totals: list[dict]) -> dict:
    """Sum per-call totals; keys ending in _max take the maximum."""
    out = {}
    for t in totals:
        for key, value in t.items():
            if key.endswith("_max"):
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


# (metric, unit, better)
PER_LAYER = (
    ("cli.self_s", "s", "lower"),
    ("cli.report_mb", "MB", "lower"),
    ("lie.weyl_group_s", "s", "lower"),
    ("lie.weyl_order_max", "count", "lower"),
    ("modular.s_matrix_self_s", "s", "lower"),
    ("modular.weyl_terms", "count", "lower"),
    ("modular.integrable_weights_s", "s", "lower"),
    ("modular.weights", "count", "lower"),
    ("modular.s_builds", "count", "lower"),
    ("modular.cache_hit_ratio", "ratio", "higher"),
    ("modular.retry_share", "ratio", "lower"),
    ("lie.norm_calls", "count", "lower"),
    ("lie.norm_s", "s", "lower"),
    ("seifert.self_s", "s", "lower"),
    ("seifert.cells", "count", "higher"),
    ("seifert.lattice_terms", "count", "lower"),
    ("verlinde.self_s", "s", "lower"),
    ("verlinde.lattice_terms", "count", "lower"),
    ("quasipoly.fit_s", "s", "lower"),
    ("quasipoly.samples", "count", "higher"),
    ("ym2.self_s", "s", "lower"),
    ("ym2.terms", "count", "lower"),
    ("lie.weyl_dimension_calls", "count", "lower"),
    ("lie.weyl_dimension_s", "s", "lower"),
    ("orbits.self_s", "s", "lower"),
    ("orbits.points", "count", "higher"),
    ("genera.self_s", "s", "lower"),
    ("crosscheck.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer(totals: dict) -> dict:
    """Reported per-layer values from combined totals (without the two
    entries the harness measures itself: cli.report_mb, trace.overhead_s)."""
    lookups = totals.get("modular.cache_lookups", 0)
    values = {name: float(totals.get(name, 0)) for name, _, _ in PER_LAYER}
    values["modular.cache_hit_ratio"] = (
        (lookups - totals.get("modular.cache_misses", 0)) / lookups if lookups else 0.0)
    builds = totals.get("modular.s_builds", 0)
    values["modular.retry_share"] = totals.get("modular.retries", 0) / builds if builds else 0.0
    return values


def main(argv: list[str]) -> int:
    out_path, call_id, cli_args = argv[0], argv[1], argv[2:]
    trace = Trace()
    install(trace)
    from seifertsum import cli

    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        Path(out_path).write_text(json.dumps({
            "call_id": call_id, "spans": trace.spans, "leaves": trace.leaves,
            "counters": trace.counters}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
