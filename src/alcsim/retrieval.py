"""Backend selection for extension computation.

Concept extensions can be computed two ways: closed-world evaluation
over the canonical interpretation (the default) or open-world
entailment checking via the tableau.  :class:`ExtensionEngine` hides the
choice behind one call and counts every extension it computes, which
makes the cost accounting of the similarity measure observable.  The
concept-name extensions that every MSC roll-up reads are computed once
per engine; besides them the engine holds the entail backend's answered
instance checks and the bit-mask memos that ``msc.msc_extension`` fills
and reads.

An entail extension is taken conjunct by conjunct, and a tableau
instance check is made only where no cheaper rule decides membership:

* every individual is an instance of ``Top``;
* KB |= (C and D)(a) exactly when KB |= C(a) and KB |= D(a), so a
  conjunction filters the candidates through its conjuncts, names
  first, and later conjuncts are checked only on the survivors;
* KB |= F(b) and an asserted r(a, b) imply KB |= (exists r.F)(a), so a
  candidate with an asserted ``r``-successor in the extension of ``F``
  needs no check (that extension is taken over those successors only);
* an individual outside the extension of C in the reasoner's witness
  model (:attr:`TableauReasoner.witness`), a model of the KB, is not an
  instance of C, so it needs no check either.

Every other membership is one instance check, remembered per
(concept, individual) for the engine's lifetime.
:meth:`TableauReasoner.retrieve`, one check per individual, is the
reference this path is tested against.  A conjunct checked on its own
can need a negated at-least that refuting the whole concept never
reaches, so when this path raises, ``retrieve`` decides the extension:
the engine raises only where ``retrieve`` does.  It can answer where
``retrieve`` raises, as it makes no check the witness rules out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .canonical import CanonicalModel, build_canonical, eval_concept
from .errors import AlcsimError
from .model import And, Atom, ConceptExpr, Exists, KnowledgeBase, Top
from .tableau import TableauReasoner


class Backend(Enum):
    ENTAIL = "entail"
    CANONICAL = "canonical"


@dataclass
class ExtensionEngine:
    """Computes concept extensions for one KB under one backend.

    ``computations`` counts every call of :meth:`extension`: no
    extension is served from memory.  :attr:`name_extensions` makes
    one call per concept name, once per engine.
    """

    kb: KnowledgeBase
    backend: Backend = Backend.CANONICAL
    computations: int = field(default=0, init=False)
    _model: CanonicalModel | None = field(default=None, init=False, repr=False)
    _reasoner: TableauReasoner | None = field(
        default=None, init=False, repr=False)
    # entail backend: concept -> individual -> entailed?
    _checks: dict[ConceptExpr, dict[str, bool]] = field(
        default_factory=dict, init=False, repr=False)
    # canonical roll-ups, filled by msc.msc_extension: individual -> mask
    # of the meet of its names, and (role, filler mask) -> mask of
    # exists role.filler
    name_meets: dict[str, int] = field(
        default_factory=dict, init=False, repr=False)
    exists_masks: dict[tuple[str, int], int] = field(
        default_factory=dict, init=False, repr=False)

    def extension(self, c: ConceptExpr) -> frozenset[str]:
        self.computations += 1
        if self.backend is Backend.CANONICAL:
            return eval_concept(self.canonical_model(), self.kb.tbox, c)
        try:
            return self._entailed(c, self.kb.abox.individuals)
        except AlcsimError:   # raised by a check, so there is a reasoner
            return self._reasoner.retrieve(c)

    @cached_property
    def name_extensions(self) -> dict[str, frozenset[str]]:
        """The extension of each concept name, names in sorted order."""
        return {name: self.extension(Atom(name))
                for name in sorted(self.kb.signature.concept_names)}

    def canonical_model(self) -> CanonicalModel:
        """The KB's canonical model, built on first use (canonical backend only)."""
        if self.backend is not Backend.CANONICAL:
            raise ValueError("only a canonical engine has a canonical model")
        if self._model is None:
            self._model = build_canonical(self.kb)
        return self._model

    def _entailed(self, c: ConceptExpr,
                  candidates: frozenset[str]) -> frozenset[str]:
        """The individuals among ``candidates`` that the KB entails in ``c``."""
        if not candidates or isinstance(c, Top):
            return candidates
        if isinstance(c, And):
            # names first: their checks are shared across concepts
            for conjunct in sorted(c.args, key=lambda a: not isinstance(a, Atom)):
                candidates = self._entailed(conjunct, candidates)
            return candidates
        if isinstance(c, Exists):
            out = self.kb.abox.successors
            succ = {a: out.get(a, {}).get(c.role, ()) for a in candidates}
            filler = self._entailed(
                c.filler, frozenset(b for bs in succ.values() for b in bs))
            told = frozenset(a for a, bs in succ.items()
                             if not filler.isdisjoint(bs))
            return told | self._checked(c, candidates - told)
        return self._checked(c, candidates)

    def _checked(self, c: ConceptExpr,
                 candidates: frozenset[str]) -> frozenset[str]:
        """Members of ``candidates`` in ``c`` by instance check, memoised."""
        if self._reasoner is None:
            self._reasoner = TableauReasoner(self.kb)
        known = self._checks.get(c)
        if known is None:       # no individual outside c in the witness is in c
            witness = self._reasoner.witness
            outside = () if witness is None else (
                self.kb.abox.individuals - eval_concept(witness, self.kb.tbox, c))
            known = self._checks[c] = dict.fromkeys(outside, False)
        for a in sorted(candidates):
            if a not in known:
                known[a] = self._reasoner.instance_check(a, c)
        return frozenset(a for a in candidates if known[a])
