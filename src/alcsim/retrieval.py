"""Backend selection for extension computation.

Concept extensions can be computed two ways: closed-world evaluation
over the canonical interpretation (the default) or open-world
entailment checking via the tableau.  :class:`ExtensionEngine` hides the
choice behind one call and counts how many extensions were actually
computed, which makes the cost accounting of the similarity measure
observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .canonical import CanonicalModel, build_canonical, eval_concept
from .model import ConceptExpr, KnowledgeBase
from .tableau import TableauReasoner


class Backend(Enum):
    ENTAIL = "entail"
    CANONICAL = "canonical"


@dataclass
class ExtensionEngine:
    """Computes concept extensions for one KB under one backend.

    ``computations`` counts actual extension computations; with the
    optional cache enabled, repeated queries for a syntactically equal
    concept are served from memory and not counted.
    """

    kb: KnowledgeBase
    backend: Backend = Backend.CANONICAL
    cache_enabled: bool = False
    computations: int = 0
    _cache: dict[ConceptExpr, frozenset[str]] = field(default_factory=dict,
                                                      repr=False)
    _model: CanonicalModel | None = field(default=None, repr=False)
    _reasoner: TableauReasoner | None = field(default=None, repr=False)

    def extension(self, c: ConceptExpr) -> frozenset[str]:
        if self.cache_enabled and c in self._cache:
            return self._cache[c]
        self.computations += 1
        if self.backend is Backend.CANONICAL:
            ext = eval_concept(self.canonical_model(), self.kb.tbox, c)
        else:
            if self._reasoner is None:
                self._reasoner = TableauReasoner(self.kb)
            ext = self._reasoner.retrieve(c)
        if self.cache_enabled:
            self._cache[c] = ext
        return ext

    def canonical_model(self) -> CanonicalModel:
        """The KB's canonical model, built on first use (canonical backend only)."""
        if self.backend is not Backend.CANONICAL:
            raise ValueError("only a canonical engine has a canonical model")
        if self._model is None:
            self._model = build_canonical(self.kb)
        return self._model
