"""Backend selection for extension computation.

Concept extensions can be computed two ways: closed-world evaluation
over the canonical interpretation (the default) or open-world
entailment checking via the tableau.  :class:`ExtensionEngine` hides the
choice behind one call and counts every extension it computes, which
makes the cost accounting of the similarity measure observable.  An
extension is a bit mask over ``ABox.bits`` (:meth:`ExtensionEngine.mask`)
until :meth:`ExtensionEngine.extension` lists its members.  The
concept-name masks that every MSC roll-up reads are computed once per
engine; so are the entail backend's instance checks, the canonical
model and the names' meets for ``msc.msc_mask``, each a cached property
that keeps nothing if its build raises.  A canonical extension is
``CanonicalModel.mask`` on that model, which evaluates each name once.

An entail extension is one call of :meth:`ExtensionEngine.instances`
on the whole concept, interned once as an id in the reasoner's
:class:`~alcsim.tableau.ConceptTable` (:attr:`ExtensionEngine.table`),
with every individual as a candidate (``Top`` needs no reasoner).
:meth:`TableauReasoner.bounds` puts C's instances between two masks:
the individuals the precompleted ABox's structure puts in C are
instances, and those outside C in the witness, a model, are not.  Every
individual between them is one instance check,
:meth:`TableauReasoner.entails` on its bit, remembered per (concept,
bit) for the engine's lifetime, as is a check that raises.
``msc.msc_mask`` decides an MSC roll-up's told ``exists`` edges on bit
masks, with the names' meets keyed by bit, and calls
:meth:`ExtensionEngine.instances` for the rest, on the id of the
``exists`` that the roll-up interned into the same table.
:meth:`TableauReasoner.retrieve`, one check per individual, is the
reference.  The engine makes the same whole-concept check as
``retrieve`` on a subset of the individuals, so it raises only where
``retrieve`` does, and can answer where it raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, reduce

from .canonical import CanonicalModel, build_canonical
from .errors import UnsupportedNegation
from .model import Atom, ConceptExpr, KnowledgeBase, Top
from .tableau import ConceptTable, TableauReasoner


class Backend(Enum):
    ENTAIL = "entail"
    CANONICAL = "canonical"


@dataclass
class ExtensionEngine:
    """Computes concept extensions for one KB under one backend.

    ``computations`` counts every call of :meth:`mask`, even one the
    canonical model's name memo answers, and so every call of
    :meth:`extension`.
    :attr:`name_masks` makes one call per concept name, once per engine.
    """

    kb: KnowledgeBase
    backend: Backend = Backend.CANONICAL
    computations: int = field(default=0, init=False)
    _reasoner: TableauReasoner | None = field(
        default=None, init=False, repr=False)
    # entail: concept id -> [entailed mask, refuted mask, bit -> error]
    _checks: dict[int, list] = field(
        default_factory=dict, init=False, repr=False)

    def extension(self, c: ConceptExpr) -> frozenset[str]:
        return self.kb.abox.members(self.mask(c))

    def mask(self, c: ConceptExpr) -> int:
        """The extension of ``c``, a mask over ``ABox.bits``."""
        self.computations += 1
        if self.backend is Backend.CANONICAL:
            return self.canonical_model.mask(c)
        everyone = self.kb.abox.everyone
        return (everyone if isinstance(c, Top)
                else self.instances(self.table.id(c), everyone))

    @cached_property
    def table(self) -> ConceptTable:
        """Where the engine interns concepts: on the entail backend its
        reasoner's table, on the canonical one a table of its own, which
        only ``msc.msc_approx`` reads; either is built on first use."""
        if self.backend is Backend.CANONICAL:
            return ConceptTable(self.kb.tbox)
        self._reasoner = self._reasoner or TableauReasoner(self.kb)
        return self._reasoner.table

    @cached_property
    def name_masks(self) -> dict[str, int]:
        """The extension mask of each concept name, names in sorted order."""
        return {name: self.mask(Atom(name))
                for name in sorted(self.kb.signature.concept_names)}

    @cached_property
    def rollup_masks(self) -> dict[int, int]:
        """Individual's bit -> the meet of the name masks that hold for it."""
        masks, abox = self.name_masks.values(), self.kb.abox
        return {bit: reduce(int.__and__, [m for m in masks if m & bit],
                            abox.everyone) for bit in abox.bits.values()}

    @cached_property
    def canonical_model(self) -> CanonicalModel:
        """The KB's canonical model, built on first use (canonical backend only)."""
        if self.backend is not Backend.CANONICAL:
            raise ValueError("only a canonical engine has a canonical model")
        return build_canonical(self.kb)

    def instances(self, cid: int, candidates: int) -> int:
        """The members of the mask ``candidates`` that the KB entails in the
        concept with id ``cid`` in :attr:`table`, a mask (entail backend
        only): the reasoner's bounds decide all but those between them,
        each one instance check in name (bit) order, memoised per engine;
        one that raised raises again with no search."""
        reasoner = self._reasoner     # made with the table that gave cid
        known = self._checks.get(cid)
        if known is None:
            lower, upper = reasoner.bounds(cid)
            known = self._checks[cid] = [lower, ~upper, {}]
        undecided = candidates & ~(known[0] | known[1])
        while undecided:
            undecided ^= (bit := undecided & -undecided)
            if bit not in known[2]:
                try:
                    known[0 if reasoner.entails(cid, bit) else 1] |= bit
                    continue
                except UnsupportedNegation as error:  # all a search raises
                    known[2][bit] = str(error)
            raise UnsupportedNegation(known[2][bit])
        return candidates & known[0]
