"""Spans around the public functions of alcsim, taken from outside the program.

:class:`Tracer` wraps every public function of the layer modules wherever a
caller looks it up: each module-level binding in the layer modules and in
the ``alcsim`` package namespace, so ``alcsim.msc.normalize`` and
``alcsim.retrieval.eval_concept`` are wrapped where ``msc_approx`` and
``ExtensionEngine`` find them.  Methods are looked up on their class, so the
public methods of the two session classes, ``TableauReasoner`` and
``ExtensionEngine``, are wrapped there.  Data accessors such as ``TBox.get``
are not layer boundaries and stay unwrapped.

Spans are kept in memory, each with its parent.  A span's *self time* is its
duration minus the time covered by its child spans, whatever their module,
so no second is counted twice: ``abox_depth`` under ``msc_approx`` is
``msc.abox_depth.self_s`` and not part of ``msc.approx.self_s``.  A module's
self time is the sum of the self times of its spans.  Re-entering a function
that is already on the span stack records no span, so a recursive helper
such as ``concept_depth`` counts once per outer call.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
import types
from collections import Counter

LAYERS = ("cli", "parser", "canonical", "retrieval", "msc", "model",
          "tableau", "similarity", "cluster")
SESSION_CLASSES = (("tableau", "TableauReasoner"),
                   ("retrieval", "ExtensionEngine"))
TABLEAU_COUNTERS = ("satisfiability_calls", "branches_explored",
                    "instance_checks")
SIMILARITY_REPORTERS = ("sim_concepts", "sim_individual_concept",
                        "sim_individuals")


@dataclasses.dataclass
class Span:
    key: str          # "<layer>.<function>" or "<layer>.<Class>.<method>"
    layer: str
    parent: int       # index into Tracer.spans, -1 for a root span
    start: float
    end: float = 0.0


class Tracer:
    """Install wrappers, record spans and counters, then restore the originals.

    Use as a context manager; the wrappers are removed on exit even when the
    traced code raises.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.active: Counter[str] = Counter()
        self.in_reasoner = 0                # TableauReasoner calls on the stack
        self.tableau = Counter()           # ReasonerStats deltas
        self.msc_keys: list[tuple] = []    # (kb id, individual, depth)
        self.msc_nodes: list[int] = []
        self.extension_keys: list[tuple] = []  # (kb id, backend, concept)
        self.reports = Counter()           # similarity report counters
        self._kbs: list[object] = []       # keeps ids in the keys unique
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        import alcsim
        modules = {name: importlib.import_module(f"alcsim.{name}")
                   for name in LAYERS}
        wrapped: dict[object, object] = {}
        for namespace in [alcsim, *modules.values()]:
            for name, obj in list(vars(namespace).items()):
                if not _public_layer_function(name, obj):
                    continue
                if obj not in wrapped:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrapped[obj] = self._wrap(obj, layer, f"{layer}.{name}")
                self._patch(namespace, name, wrapped[obj])
        for layer, class_name in SESSION_CLASSES:
            cls = getattr(modules[layer], class_name)
            for name, obj in list(vars(cls).items()):
                if not name.startswith("_") and isinstance(obj, types.FunctionType):
                    self._patch(cls, name, self._wrap(
                        obj, layer, f"{layer}.{class_name}.{name}",
                        reasoner=class_name == "TableauReasoner"))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, func, layer: str, key: str, reasoner: bool = False):
        """Wrap ``func``; a ``reasoner`` method also yields ReasonerStats deltas."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active[key]:
                return func(*args, **kwargs)
            # the outermost reasoner call on the stack takes the stats deltas
            before = (_tableau_counters(args[0])
                      if reasoner and not tracer.in_reasoner else None)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = Span(key, layer, parent, time.perf_counter())
            tracer.spans.append(span)
            tracer.stack.append(len(tracer.spans) - 1)
            tracer.active[key] += 1
            tracer.in_reasoner += reasoner
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.active[key] -= 1
                tracer.in_reasoner -= reasoner
                tracer.stack.pop()
                if before is not None:
                    after = _tableau_counters(args[0])
                    for name in TABLEAU_COUNTERS:
                        tracer.tableau[name] += after[name] - before[name]
            tracer._observe(key, args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    # -- counters taken from arguments and results -------------------------

    def _kb_id(self, kb) -> int:
        self._kbs.append(kb)
        return id(kb)

    def _observe(self, key: str, args, kwargs, result) -> None:
        if key == "msc.msc_approx":
            self.msc_keys.append((self._kb_id(args[0]), result.individual,
                                  result.depth))
            self.msc_nodes.append(concept_nodes(result.concept))
        elif key == "retrieval.ExtensionEngine.extension":
            engine, concept = args[0], (args[1:] or tuple(kwargs.values()))[0]
            self.extension_keys.append(
                (self._kb_id(engine.kb), engine.backend, concept))
        elif key.startswith("similarity.") and key.split(".")[1] in SIMILARITY_REPORTERS:
            self.reports["pairs"] += 1
            self.reports["extension_computations"] += result.extension_computations
            self.reports["msc_computations"] += result.msc_computations

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the time of its child spans."""
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, children)]

    def metrics(self) -> dict[str, float]:
        own = self.self_times()
        calls: Counter[str] = Counter()
        func_self: Counter[str] = Counter()
        layer_self: Counter[str] = Counter()
        for span, t in zip(self.spans, own):
            calls[span.key] += 1
            func_self[span.key] += t
            layer_self[span.layer] += t
        tab = self.tableau
        return {
            "msc.approx.calls": calls["msc.msc_approx"],
            "msc.approx.self_s": func_self["msc.msc_approx"],
            "msc.approx.distinct_ratio": _ratio(len(set(self.msc_keys)),
                                                len(self.msc_keys)),
            "msc.concept_nodes": _ratio(sum(self.msc_nodes), len(self.msc_nodes)),
            "msc.abox_depth.calls": calls["msc.abox_depth"],
            "msc.abox_depth.self_s": func_self["msc.abox_depth"],
            "model.normalize.calls": calls["model.normalize"],
            "model.normalize.self_s": func_self["model.normalize"],
            "canonical.eval.calls": calls["canonical.eval_concept"],
            "canonical.eval.self_s": func_self["canonical.eval_concept"],
            "canonical.build.calls": calls["canonical.build_canonical"],
            "canonical.build.self_s": func_self["canonical.build_canonical"],
            "retrieval.extension.calls": len(self.extension_keys),
            "retrieval.extension.distinct_ratio": _ratio(
                len(set(self.extension_keys)), len(self.extension_keys)),
            "tableau.sat.calls": tab["satisfiability_calls"],
            "tableau.branches": tab["branches_explored"],
            "tableau.branches_per_sat": _ratio(tab["branches_explored"],
                                               tab["satisfiability_calls"]),
            "tableau.self_s": layer_self["tableau"],
            "tableau.instance_checks": tab["instance_checks"],
            "parser.parse_kb.calls": calls["parser.parse_kb"],
            "parser.parse_kb.self_s": func_self["parser.parse_kb"],
            "parser.parse_concept.self_s": func_self["parser.parse_concept"],
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": layer_self["cli"],
            "similarity.pairs": self.reports["pairs"],
            "similarity.self_s": layer_self["similarity"],
            "similarity.extension_computations":
                self.reports["extension_computations"],
            "similarity.msc_computations": self.reports["msc_computations"],
            "cluster.self_s": layer_self["cluster"],
        }


def _public_layer_function(name: str, obj) -> bool:
    return (not name.startswith("_")
            and isinstance(obj, types.FunctionType)
            and obj.__module__.startswith("alcsim.")
            and obj.__module__.rsplit(".", 1)[1] in LAYERS)


def _tableau_counters(reasoner) -> dict[str, int]:
    return {name: getattr(reasoner.stats, name) for name in TABLEAU_COUNTERS}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def concept_nodes(concept) -> int:
    """Node count of a concept tree, read through its dataclass fields."""
    count, pending = 0, [concept]
    while pending:
        node = pending.pop()
        count += 1
        for f in dataclasses.fields(node):
            value = getattr(node, f.name)
            if isinstance(value, tuple):
                pending.extend(v for v in value if dataclasses.is_dataclass(v))
            elif dataclasses.is_dataclass(value):
                pending.append(value)
    return count
