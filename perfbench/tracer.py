"""Span tracer for the traced run, and the per-layer metrics built from it.

``Tracer.install`` wraps every public function of the package's layer
modules (and the public methods of their classes) under every name a
caller looks it up by: the defining module, each module that bound a copy
with ``from .x import y``, and the package namespace. Each call appends one
span ``[name, start, end, parent, op, extra]`` to an in-memory list that is
only read when the run ends. ``uninstall`` restores the originals, so an
untraced operation runs the unmodified code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("distributions", "tte", "binary", "three_outcome", "oracle", "config", "tables", "cli")

# Span fields.
NAME, START, END, PARENT, OP, EXTRA = range(6)


def _extra_for(qualname: str):
    """Per-call quantity recorded beside the span: array elements inverted
    by the normal quantile, replicates drawn by the oracle."""
    if qualname == "distributions.std_normal_quantile":
        def values(args, kwargs):
            p = args[0] if args else kwargs["p"]
            return int(getattr(p, "size", 1))
        return values
    if qualname in ("oracle.simulate_tte_oc", "oracle.simulate_binary_oc"):
        def replicates(args, kwargs):
            cfg = args[2] if len(args) > 2 else kwargs["cfg"]
            return int(cfg.n_replicates)
        return replicates
    return None


class Tracer:
    def __init__(self, package):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        layers = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        modules = [package, *layers.values()]
        originals: dict[int, tuple[str, object]] = {}
        for layer, module in layers.items():
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    originals[id(obj)] = (f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, member in vars(obj).items():
                        if not attr.startswith("_") and inspect.isfunction(member):
                            self._patches.append(
                                (obj, attr, member, self._wrap(f"{layer}.{name}.{attr}", member))
                            )
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals and originals[id(obj)][1] is obj:
                    self._patches.append((module, attr, obj, wrappers[id(obj)]))

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        extra_of = _extra_for(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            if extra_of is not None:
                record[EXTRA] = extra_of(args, kwargs)
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    @contextmanager
    def root(self, op: int):
        """The benchmark's own span around one operation."""
        self.op = op
        record = ["bench.op", 0.0, 0.0, -1, op, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        try:
            yield
        finally:
            record[END] = perf_counter()
            self._stack.pop()


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[list]) -> dict[str, float]:
    """Calls, self time and the named counts per layer, from finished spans.

    A span's self time is its duration minus that of its direct children.
    A layer's ``calls`` counts entries into it: spans whose parent lies in
    another layer or in the benchmark. Times are in milliseconds.
    """
    n = len(spans)
    child = [0.0] * n
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    # Nearest enclosing span of each kind that the ratios below need.
    watch = ("binary.oc_binary", "binary.min_sample_size_grid", "three_outcome.find_three_outcome_design")
    inside = {w: [-1] * n for w in watch}
    per_func_calls: dict[str, int] = {}
    per_func_self: dict[str, float] = {}
    per_func_total: dict[str, float] = {}
    per_func_extra: dict[str, int] = {}
    layer_calls = {layer: 0 for layer in LAYERS}
    layer_self = {layer: 0.0 for layer in LAYERS}
    under = {w: {} for w in watch}
    for i, span in enumerate(spans):
        name, parent = span[NAME], span[PARENT]
        dur = span[END] - span[START]
        self_time = dur - child[i]
        per_func_calls[name] = per_func_calls.get(name, 0) + 1
        per_func_self[name] = per_func_self.get(name, 0.0) + self_time
        per_func_total[name] = per_func_total.get(name, 0.0) + dur
        if span[EXTRA] is not None:
            per_func_extra[name] = per_func_extra.get(name, 0) + span[EXTRA]
        layer = _layer(name)
        if layer in layer_self:
            layer_self[layer] += self_time
            if parent < 0 or _layer(spans[parent][NAME]) != layer:
                layer_calls[layer] += 1
        for w in watch:
            enclosing = i if name == w else (inside[w][parent] if parent >= 0 else -1)
            inside[w][i] = enclosing
            if enclosing >= 0 and enclosing != i:
                under[w][name] = under[w].get(name, 0) + 1

    def calls(*names):
        return sum(per_func_calls.get(f"distributions.{x}", 0) for x in names)

    def self_ms(*names):
        return 1e3 * sum(per_func_self.get(f"distributions.{x}", 0.0) for x in names)

    out: dict[str, float] = {
        "distributions.normal_quantile.calls": calls("std_normal_quantile"),
        "distributions.normal_quantile.values": per_func_extra.get("distributions.std_normal_quantile", 0),
        "distributions.normal_quantile.self_ms": self_ms("std_normal_quantile"),
        "distributions.normal_cdf.calls": calls("std_normal_cdf"),
        "distributions.normal_cdf.self_ms": self_ms("std_normal_cdf"),
        "distributions.beta_cdf.calls": calls("beta_cdf"),
        "distributions.beta_cdf.self_ms": self_ms("beta_cdf"),
        "distributions.beta_quantile.calls": calls("beta_quantile"),
        "distributions.beta_quantile.self_ms": self_ms("beta_quantile"),
        "distributions.binomial.calls": calls("binomial_pmf", "binomial_tail"),
        "distributions.binomial.self_ms": self_ms("binomial_pmf", "binomial_tail"),
    }
    for layer in LAYERS:
        out[f"{layer}.calls"] = layer_calls[layer]
        out[f"{layer}.self_ms"] = 1e3 * layer_self[layer]
    oc_calls = per_func_calls.get("binary.oc_binary", 0)
    oc_beta = under["binary.oc_binary"].get("distributions.beta_cdf", 0)
    out["binary.oc.beta_cdf_per_call"] = oc_beta / oc_calls if oc_calls else 0.0
    out["binary.size_search.ms"] = 1e3 * per_func_total.get("binary.min_sample_size_grid", 0.0)
    out["binary.size_search.beta_cdf_calls"] = under["binary.min_sample_size_grid"].get(
        "distributions.beta_cdf", 0
    )
    search = under["three_outcome.find_three_outcome_design"]
    out["three_outcome.search.ms"] = 1e3 * per_func_total.get(
        "three_outcome.find_three_outcome_design", 0.0
    )
    out["three_outcome.search.binomial_calls"] = search.get(
        "distributions.binomial_pmf", 0
    ) + search.get("distributions.binomial_tail", 0)
    replicates = sum(per_func_extra.get(f"oracle.{f}", 0) for f in ("simulate_tte_oc", "simulate_binary_oc"))
    out["oracle.replicates"] = replicates
    out["oracle.self_ns_per_replicate"] = 1e6 * out["oracle.self_ms"] / replicates if replicates else 0.0
    out["cli.main.self_ms"] = out["cli.self_ms"]
    # A command's time inside its interpreter, after the imports: the
    # duration of ``cli.main``, median over commands.
    main_durations = [span[END] - span[START] for span in spans if span[NAME] == "cli.main"]
    out["cli.command_minus_import_ms"] = 1e3 * statistics.median(main_durations) if main_durations else 0.0
    out["trace.spans"] = n
    out["trace.layer_self_ms"] = sum(out[f"{layer}.self_ms"] for layer in LAYERS)
    return out
