"""Backend selection for extension computation.

Concept extensions can be computed two ways: closed-world evaluation
over the canonical interpretation (the default) or open-world
entailment checking via the tableau.  :class:`ExtensionEngine` hides the
choice behind one call and counts every extension it computes, which
makes the cost accounting of the similarity measure observable.  The
concept-name extensions that every MSC roll-up reads, and every name an
evaluation meets on the canonical model, are computed once per engine;
so are the entail backend's instance checks, the canonical model and
``msc.msc_extension``'s bit masks, each a cached property that keeps
nothing if its build raises.

An entail extension is one call of :meth:`ExtensionEngine.instances`
on the whole concept, with every individual as a candidate (``Top``
needs no reasoner).  :meth:`TableauReasoner.bounds` puts C's instances
between two masks: the individuals the precompleted ABox's structure
puts in C are instances, and those outside C in the witness, a model,
are not.  Every individual between them is one instance check,
remembered per (concept, individual) for the engine's lifetime, as is a
check that raises.  ``msc.msc_extension`` decides an MSC roll-up's
told ``exists`` edges on bit masks and calls
:meth:`ExtensionEngine.instances` for the rest.
:meth:`TableauReasoner.retrieve`, one check per individual, is the
reference.  The engine makes the same whole-concept check as
``retrieve`` on a subset of the individuals, so it raises only where
``retrieve`` does, and can answer where it raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Collection

from .canonical import CanonicalModel, build_canonical, eval_concept
from .errors import UnsupportedNegation
from .model import Atom, ConceptExpr, KnowledgeBase, Top
from .tableau import TableauReasoner


class Backend(Enum):
    ENTAIL = "entail"
    CANONICAL = "canonical"


class _Images(dict):
    """Mask -> its image under one role or its inverse, filled per bit."""

    def __missing__(self, mask: int) -> int:
        out, rest = 0, mask
        while rest:
            low = rest & -rest
            out |= self.get(low, 0)
            rest ^= low
        self[mask] = out
        return out


@dataclass
class ExtensionEngine:
    """Computes concept extensions for one KB under one backend.

    ``computations`` counts every call of :meth:`extension`, even one
    the canonical name memo answers.  :attr:`name_extensions` makes
    one call per concept name, once per engine.
    """

    kb: KnowledgeBase
    backend: Backend = Backend.CANONICAL
    computations: int = field(default=0, init=False)
    _reasoner: TableauReasoner | None = field(
        default=None, init=False, repr=False)
    # name -> extension, the eval_concept memo of the canonical model
    _names: dict = field(default_factory=dict, init=False, repr=False)
    # entail backend: concept id -> individual -> entailed, or its check's error
    _checks: dict[int, dict[str, bool | str]] = field(
        default_factory=dict, init=False, repr=False)

    def extension(self, c: ConceptExpr) -> frozenset[str]:
        self.computations += 1
        if self.backend is Backend.CANONICAL:
            return eval_concept(self.canonical_model, self.kb.tbox, c,
                                self._names)
        if isinstance(c, Top):
            return self.kb.abox.individuals
        return self.instances(c, self.kb.abox.individuals)

    @cached_property
    def name_extensions(self) -> dict[str, frozenset[str]]:
        """The extension of each concept name, names in sorted order."""
        return {name: self.extension(Atom(name))
                for name in sorted(self.kb.signature.concept_names)}

    @cached_property
    def rollup_masks(self) -> tuple[dict, dict]:
        """Individual -> the meet of its names' extensions, and role -> (mask
        -> its asserted successors, mask -> its asserted predecessors)."""
        bits = self.kb.abox.bits
        meets = dict.fromkeys(bits, (1 << len(bits)) - 1)
        for ext in self.name_extensions.values():
            mask = sum(bits[a] for a in ext)
            for a in ext:
                meets[a] &= mask
        images: dict = {}
        for source, out in self.kb.abox.successors.items():
            for role, targets in out.items():
                succ, pred = images.setdefault(role, (_Images(), _Images()))
                succ[bits[source]] = sum(bits[t] for t in targets)
                for t in targets:
                    pred[bits[t]] = pred.get(bits[t], 0) | bits[source]
        return meets, images

    @cached_property
    def canonical_model(self) -> CanonicalModel:
        """The KB's canonical model, built on first use (canonical backend only)."""
        if self.backend is not Backend.CANONICAL:
            raise ValueError("only a canonical engine has a canonical model")
        return build_canonical(self.kb)

    def instances(self, c: ConceptExpr,
                  candidates: Collection[str]) -> frozenset[str]:
        """The members of ``candidates`` that the KB entails in ``c`` (entail
        backend only): the reasoner's bounds decide all but those between
        them, each one instance check, memoised per engine; one that raised
        raises again with no search."""
        reasoner = self._reasoner = self._reasoner or TableauReasoner(self.kb)
        cid = reasoner.table.id(c)
        known = self._checks.get(cid)
        if known is None:
            lower, upper = reasoner.bounds(cid)
            known = self._checks[cid] = {
                a: bool(bit & lower) for a, bit in self.kb.abox.bits.items()
                if bit & lower or not bit & upper}
        for a in sorted(a for a in candidates if type(known.get(a)) is not bool):
            if a not in known:
                try:
                    reasoner.check_instances(cid, [a], known)
                    continue
                except UnsupportedNegation as error:  # all a search raises
                    known[a] = str(error)
            raise UnsupportedNegation(known[a])
        return frozenset(a for a in candidates if known[a])
