"""Span recorder for the traced run.

The traced run wraps the public functions of each eppa module at every place
they are bound (the modules import one another's names with ``from .x import
...``, so each importing module holds its own binding), records one span per
call and restores the original functions afterwards.  Spans stay in memory
until the run ends; then self times and counts are computed from them.

A span is ``(layer, start, end, parent, case, note)``: ``parent`` is the index
of the enclosing span or None, ``case`` the benchmark operation that caused
it, and ``note`` an optional tag taken from the call's return value.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Layer:
    """One traced boundary: the functions it wraps and what it counts.

    ``counts(args, result)`` returns increments for named counters;
    ``distinct(args)`` gives a key whose distinct values are counted;
    ``note(args, result)`` tags the span; ``spans`` False records calls and
    counters only (for functions too small and frequent to time).
    """

    name: str
    targets: tuple[tuple[str, str], ...]
    counters: tuple[str, ...] = ()
    counts: Callable | None = None
    distinct: Callable | None = None
    note: Callable | None = None
    spans: bool = True

    def metrics(self) -> list[str]:
        own = ["calls"] + list(self.counters)
        if self.distinct is not None:
            own.append("distinct")
        if self.spans:
            own.append("self_s")
        return [f"{self.name}.{m}" for m in own]


def _tuples(structure) -> int:
    return sum(len(t) for t in structure.relations)


S, C, B, F = "eppa.structures", "eppa.coherence", "eppa.base_extension", "eppa.faithful"
A, Q, H, T, CLI = ("eppa.amalgamation", "eppa.quotient", "eppa.chains",
                   "eppa.textio", "eppa.cli")

LAYERS = (
    Layer("structures.part", ((S, "enumerate_partial_automorphisms"),), ("maps",),
          counts=lambda a, r: {"maps": len(r)}, distinct=lambda a: a[0]),
    Layer("structures.aut", ((S, "automorphism_group"),), ("elements",),
          counts=lambda a, r: {"elements": len(r.elements)}),
    Layer("structures.embed_check", ((S, "is_embedding"), (S, "is_homomorphism"))),
    Layer("structures.tuple_set", ((S, "Structure.tuple_set"),), spans=False),
    Layer("coherence.triples", ((C, "coherent_triples"),), ("found",),
          counts=lambda a, r: {"found": len(r)}),
    Layer("coherence.verify_coherence", ((C, "verify_coherence"),)),
    Layer("coherence.verify_extension", ((C, "verify_extension"),)),
    Layer("coherence.forced", ((C, "check_forced_values"),)),
    Layer("coherence.lift", ((C, "coherent_lift"),)),
    Layer("coherence.group_closure", ((C, "PermutationGroup.from_generators"),),
          ("elements",), counts=lambda a, r: {"elements": len(r.elements)}),
    Layer("base_extension.base_eppa", ((B, "base_eppa"),),
          note=lambda a, r: "self" if r.extension.size == r.base.size else "search"),
    Layer("base_extension.assignment", ((B, "coherent_assignment"),), ("hits",),
          counts=lambda a, r: {"hits": r is not None}),
    Layer("base_extension.scaffold", ((B, "scaffold_certificate"),), ("points", "tuples"),
          counts=lambda a, r: {"points": r.extension.size, "tuples": _tuples(r.extension)}),
    Layer("base_extension.verify", ((B, "verify_base_certificate"),)),
    Layer("faithful.large_sets", ((F, "large_sets"),), ("sets",),
          counts=lambda a, r: {"sets": len(r.sets)}),
    Layer("faithful.valued", ((F, "build_valued_extension"),), ("points",),
          counts=lambda a, r: {"points": len(r.points)}),
    Layer("faithful.hat_extend", ((F, "hat_extend"),)),
    Layer("faithful.cliques", ((F, "enumerate_cliques"),), ("found",),
          counts=lambda a, r: {"found": len(r)}),
    Layer("faithful.verify", ((F, "verify_faithful_view"),)),
    Layer("amalgamation.embedding_search", ((A, "exists_embedding"),), ("hits",),
          counts=lambda a, r: {"hits": r is not None}),
    Layer("amalgamation.enumerate", ((A, "enumerate_structures"),), ("structures",),
          counts=lambda a, r: {"structures": len(r)}),
    Layer("amalgamation.canonical_form", ((A, "canonical_form"),)),
    Layer("amalgamation.free_amalgam", ((A, "free_amalgam"),)),
    Layer("quotient.special", ((Q, "special_extension"),), ("points",),
          counts=lambda a, r: {"points": r.extension.size}),
    Layer("quotient.verify_structural", ((Q, "verify_structural"),)),
    Layer("quotient.verify_special", ((Q, "verify_special"),)),
    Layer("chains.build", ((H, "build_dlf_chain"),)),
    Layer("chains.verify", ((H, "verify_chain"),)),
    Layer("textio.emit", ((T, "emit_certificate"),), ("bytes",),
          counts=lambda a, r: {"bytes": len(r.encode("utf-8"))}),
    Layer("textio.parse", ((T, "parse_certificate"),), ("bytes",),
          counts=lambda a, r: {"bytes": len(a[0].encode("utf-8"))}),
    Layer("textio.verify", ((T, "verify_certificate"),)),
    Layer("cli.verify", ((CLI, "_cmd_verify"),)),
    Layer("cli.minforb", ((CLI, "_cmd_minforb"),)),
    Layer("cli.cliques", ((CLI, "_cmd_cliques"),)),
    Layer("cli.amalgam", ((CLI, "_cmd_amalgam"),)),
)

# exit codes of the in-process CLI, counted at its entry point
EXIT_CODES = (0, 1, 2, 3)
CLI_MAIN = (CLI, "main")

REALIZATIONS = ("self", "search", "scaffold")
TRACE_METRICS = ("trace.pass_s", "trace.untraced_pass_s", "trace.overhead_s",
                 "trace.spans")


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in report order."""
    names = [m for layer in LAYERS for m in layer.metrics()]
    names += [f"base_extension.realized.{r}" for r in REALIZATIONS]
    names += [f"cli.exit.{c}" for c in EXIT_CODES]
    return names + list(TRACE_METRICS)


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


class Recorder:
    """Collects spans and counters while installed; see module docstring."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.case: str | None = None
        self.calls: Counter = Counter()
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.keys: dict[str, set] = defaultdict(set)
        self._saved: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: Layer, original: Callable) -> Callable:
        spans, stack, perf = self.spans, self.stack, time.perf_counter
        calls, counts, keys = self.calls, self.counts[layer.name], self.keys[layer.name]
        name = layer.name

        def count(args, result):
            calls[name] += 1
            if layer.counts is not None:
                counts.update(layer.counts(args, result))
            if layer.distinct is not None:
                keys.add(layer.distinct(args))

        if not layer.spans:
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                count(args, result)
                return result
            return wrapper

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                spans[sid] = (name, start, perf(), parent, self.case, "error")
                calls[name] += 1
                raise
            else:
                end = perf()
            finally:
                stack.pop()
            note = layer.note(args, result) if layer.note is not None else None
            spans[sid] = (name, start, end, parent, self.case, note)
            count(args, result)
            return result
        return wrapper

    def _count_exit(self, original: Callable) -> Callable:
        exits = self.counts["cli"]

        def wrapper(*args, **kwargs):
            code = original(*args, **kwargs)
            exits[f"exit.{code}"] += 1
            return code
        return wrapper

    def _replace(self, module_name: str, attr: str, make: Callable) -> None:
        """Rebind `module.attr` (or `module.Class.attr`) to make(original) in
        every eppa module that holds the original object."""
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            func = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = make(func)
            setattr(cls, meth, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            self._saved.append((cls, meth, raw))
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "eppa" or name.startswith("eppa.")):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, binding, wrapped)
                    self._saved.append((mod, binding, original))

    def install(self) -> None:
        for layer in LAYERS:
            for module_name, attr in layer.targets:
                self._replace(module_name, attr, lambda f, layer=layer: self._wrap(layer, f))
        self._replace(*CLI_MAIN, self._count_exit)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        selfs = self_times(self.spans)
        for layer in LAYERS:
            out[f"{layer.name}.calls"] = self.calls[layer.name]
            for c in layer.counters:
                out[f"{layer.name}.{c}"] = self.counts[layer.name][c]
            if layer.distinct is not None:
                out[f"{layer.name}.distinct"] = len(self.keys[layer.name])
            if layer.spans:
                out[f"{layer.name}.self_s"] = selfs.get(layer.name, 0.0)
        realized = realizations(self.spans)
        for r in REALIZATIONS:
            out[f"base_extension.realized.{r}"] = realized[r]
        for c in EXIT_CODES:
            out[f"cli.exit.{c}"] = self.counts["cli"][f"exit.{c}"]
        out["trace.spans"] = len(self.spans)
        return out


def self_times(spans) -> dict[str, float]:
    """Per layer: total span time minus the time its direct child spans
    cover.  Calls nest on one thread, so children of a span are disjoint
    sub-intervals of it."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (layer, start, end, _, _, _) in enumerate(spans):
        out[layer] += end - start - child_time[i]
    return dict(out)


def realizations(spans) -> Counter:
    """Which realization produced each base_eppa result: the scaffold when a
    scaffold span ran inside the call, else A itself or a search result, as
    noted from |B| versus |A|."""
    scaffold_parents = set()
    for layer, _, _, parent, _, _ in spans:
        if layer != "base_extension.scaffold":
            continue
        while parent is not None and spans[parent][0] != "base_extension.base_eppa":
            parent = spans[parent][3]
        if parent is not None:
            scaffold_parents.add(parent)
    out: Counter = Counter({r: 0 for r in REALIZATIONS})
    for i, (layer, _, _, _, _, note) in enumerate(spans):
        if layer == "base_extension.base_eppa" and note != "error":
            out["scaffold" if i in scaffold_parents else note] += 1
    return out
