"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the package, every public function of
each harmonica layer module and patches the wrapper into every
harmonica module namespace that holds the function. That matters
because `join`, `meet` and the predicates are imported by name into
pencils, reduction, generate, dsl, bisectors and registry, so patching
only `harmonica.core` would miss most calls.

Besides the public functions it wraps three internal points that the
per-layer metrics need and no public function exposes:

- `CevaGon.__post_init__` / `MenelaosGon.__post_init__` (gon
  construction and validation, counted as `reduction.gons_built`);
- each registry theorem's check function (`registry.check`);
- `reduction._run_reduction`, which runs one reduction order
  (counted as `reduction.orders_run`, no span).

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out only when the run ends. A span's self time is its duration
minus the durations of its direct children, so nested calls within one
layer are not counted twice.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction

LAYERS = (
    "core",
    "generate",
    "pencils",
    "reduction",
    "registry",
    "bisectors",
    "dsl",
    "render",
    "cli",
)

PREDICATES = (
    "incident",
    "collinear",
    "concurrent",
    "all_collinear",
    "all_concurrent",
    "is_harmonic_points",
    "is_harmonic_pencil",
)
CROSS_RATIOS = ("cross_ratio_points", "cross_ratio_lines")
VERDICTS = ("is_pseudo_concurrent", "is_pseudo_collinear")

# Counts that must repeat exactly when the same ops run twice.
STABLE_COUNTS = (
    "core.join.calls",
    "core.meet.calls",
    "core.predicate.calls",
    "core.crossratio.calls",
    "core.max_coord_bits",
    "generate.calls",
    "generate.draws",
    "pencils.calls",
    "reduction.calls",
    "reduction.gons_built",
    "reduction.orders_run",
    "registry.trials",
    "bisectors.calls",
    "dsl.statements",
    "render.bytes",
)


def _bits(value) -> int:
    if type(value) is int:
        return value.bit_length()
    if type(value) is Fraction:
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return 0


class Tracer:
    """Installs span wrappers into loaded harmonica modules and turns the
    recorded spans into per-layer metrics."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def reset(self) -> None:
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self.stack[:] = [-1]
        self.counters.clear()

    def wrap(self, name: str, fn, after=None):
        """Wrap fn in a span; after(args, result) runs outside the span."""
        nid = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, label: str, call):
        """Run one benchmark op under a root span, so its spans share it."""
        return self.wrap(f"bench.op:{label}", call)()

    # -- hooks -------------------------------------------------------------

    def _coord_bits(self, args, result) -> None:
        bits = max(_bits(v) for v in result.triple)
        if bits > self.counters["core.max_coord_bits"]:
            self.counters["core.max_coord_bits"] = bits

    def _statements(self, args, result) -> None:
        self.counters["dsl.statements"] += len(args[0].statements)

    def _render_bytes(self, args, result) -> None:
        self.counters["render.bytes"] += len(result.encode())

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "harmonica" or name.startswith("harmonica.")
        }
        hooks = {
            "core.join": self._coord_bits,
            "core.meet": self._coord_bits,
            "dsl.evaluate": self._statements,
            "render.render_scene": self._render_bytes,
        }
        wrapped = {}
        for layer in LAYERS:
            mod = mods[f"harmonica.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self.wrap(name, obj, hooks.get(name))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])

        reduction = mods["harmonica.reduction"]
        for cls in (reduction.CevaGon, reduction.MenelaosGon):
            self._set(cls, "__post_init__", self.wrap("reduction.gon", cls.__post_init__))
        run_reduction = reduction._run_reduction
        counters = self.counters

        def counted_reduction(*args, **kwargs):
            counters["reduction.orders_run"] += 1
            return run_reduction(*args, **kwargs)

        self._set(reduction, "_run_reduction", counted_reduction)

        theorems = mods["harmonica.registry"].THEOREMS
        for tid, entry in list(theorems.items()):
            checked = dataclasses.replace(entry, check=self.wrap("registry.check", entry.check))
            self._undo.append((theorems, tid, entry))
            theorems[tid] = checked

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def totals(self):
        """Per span name: (calls, inclusive ns, self ns)."""
        n = len(self.span_name)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = Counter()
        incl = Counter()
        own = Counter()
        for i in range(n):
            nid = self.span_name[i]
            d = ends[i] - starts[i]
            calls[nid] += 1
            incl[nid] += d
            own[nid] += d - child[i]
        return {
            self.names[nid]: (calls[nid], incl[nid], own[nid]) for nid in calls
        }

    def layer_metrics(self, scale: float = 1.0) -> dict[str, float]:
        """The per-layer metrics of one traced pass, with times multiplied
        by scale."""
        by_name = self.totals()

        def pick(pred):
            c = i = s = 0
            for name, (nc, ni, ns) in by_name.items():
                if pred(name):
                    c, i, s = c + nc, i + ni, s + ns
            return c, i * scale / 1e9, s * scale / 1e9

        def layer(lay):
            return pick(lambda name: name.split(".")[0] == lay)

        def named(*names):
            wanted = set(names)
            return pick(lambda name: name in wanted)

        def ratio(a, b):
            return a / b if b else 0.0

        m: dict[str, float] = {}
        m["core.self_s"] = layer("core")[2]
        m["core.join.calls"] = named("core.join")[0]
        m["core.meet.calls"] = named("core.meet")[0]
        m["core.predicate.calls"] = named(*(f"core.{p}" for p in PREDICATES))[0]
        m["core.crossratio.calls"] = named(*(f"core.{c}" for c in CROSS_RATIOS))[0]
        m["core.max_coord_bits"] = self.counters["core.max_coord_bits"]

        m["generate.calls"], _, m["generate.self_s"] = layer("generate")
        m["generate.draws"] = named("generate.sample_rational")[0]
        instances, gen_incl, _ = named("generate.gen_hypothesis_forcing")
        trials, trial_incl, _ = named("registry.run_trial")
        m["generate.draws_per_instance"] = ratio(m["generate.draws"], instances)
        m["generate.share"] = ratio(gen_incl, trial_incl)

        m["pencils.calls"], _, m["pencils.self_s"] = layer("pencils")
        m["pencils.calls_per_trial"] = ratio(m["pencils.calls"], trials)

        gon_calls = named("reduction.gon")[0]
        red_calls, _, m["reduction.self_s"] = layer("reduction")
        m["reduction.calls"] = red_calls - gon_calls
        m["reduction.gons_built"] = gon_calls
        verdicts = named(*(f"reduction.{v}" for v in VERDICTS))[0]
        m["reduction.gons_per_verdict"] = ratio(gon_calls, verdicts)
        m["reduction.orders_run"] = self.counters["reduction.orders_run"]

        m["registry.trials"] = trials
        m["registry.check.self_s"] = named("registry.check")[2]

        m["bisectors.calls"], _, m["bisectors.self_s"] = layer("bisectors")

        m["dsl.parse.self_s"] = named("dsl.parse")[2]
        _, eval_incl, m["dsl.evaluate.self_s"] = named("dsl.evaluate")
        m["dsl.statements"] = self.counters["dsl.statements"]
        m["dsl.statements_per_s"] = ratio(m["dsl.statements"], eval_incl)

        m["render.self_s"] = layer("render")[2]
        m["render.bytes"] = self.counters["render.bytes"]

        m["cli.self_s"] = layer("cli")[2]
        return m

    def write_spans(self, path) -> None:
        """One line per span: id, parent, name, start ns, end ns."""
        with open(path, "w") as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.span_name)):
                out.write(
                    f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}"
                    f"\t{self.span_start[i]}\t{self.span_end[i]}\n"
                )
