"""Closed-world canonical interpretation of an ABox.

The domain is exactly the set of named individuals (unique names
assumption: each constant denotes itself), roles hold exactly for the
asserted pairs, and concept-name extensions are the told closure of the
assertions: an individual carries every name reachable from its asserted
names through top-level conjuncts of definitions.  ``build_canonical``
computes each name's told mask over ``ABox.bits`` as a least fixpoint.
:meth:`CanonicalModel.mask` then evaluates arbitrary concept expressions
over this finite structure, each extension a bit mask: ``exists r.F`` is
the ``r``-predecessors of F (``ABox.images``), ``forall r.F`` the domain
less the ``r``-predecessors of ``not F``.  A model holds its TBox and
evaluates each name once, so its name memo is never another model's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .model import (
    ABox,
    And,
    AtLeast,
    Atom,
    Bottom,
    ConceptExpr,
    DefKind,
    Exists,
    Forall,
    KnowledgeBase,
    Not,
    Or,
    TBox,
    Top,
)


@dataclass(frozen=True)
class CanonicalModel:
    """The canonical model of one KB: its ABox (the domain, its bits and its
    role images), its TBox, and each concept name's told mask."""

    abox: ABox
    tbox: TBox
    told: Mapping[str, int]
    # name -> its extension mask, each name evaluated once per model
    _names: dict[str, int] = field(default_factory=dict, init=False,
                                   repr=False, compare=False)

    def mask(self, c: ConceptExpr) -> int:
        """Extension of ``c``, a mask over ``ABox.bits``.

        A defined name denotes the union of its told extension and the
        evaluation of its definition body (for full definitions), so
        asserted memberships survive even when the closed-world definition
        check fails.  Value restrictions are vacuously satisfied by
        individuals without successors.
        """
        abox = self.abox
        if isinstance(c, Top):
            return abox.everyone
        if isinstance(c, Bottom):
            return 0
        if isinstance(c, Atom):
            ext = self._names.get(c.name)
            if ext is None:
                ext = self.told.get(c.name, 0)
                defn = self.tbox.definitions.get(c.name)
                if defn is not None and defn.kind is DefKind.EQUIV:
                    ext |= self.mask(defn.body)
                self._names[c.name] = ext
            return ext
        if isinstance(c, Not):
            return abox.everyone & ~self.mask(c.arg)
        if isinstance(c, (And, Or)):
            out = self.mask(c.args[0])
            for a in c.args[1:]:
                ext = self.mask(a)
                out = out & ext if isinstance(c, And) else out | ext
            return out
        if isinstance(c, (Exists, Forall)):     # forall r.F is not exists r.not F
            flip = 0 if isinstance(c, Exists) else abox.everyone
            filler = flip ^ self.mask(c.filler)
            images = abox.images.get(c.role)
            return flip ^ (0 if images is None else images[1][filler])
        if isinstance(c, AtLeast):
            succ = abox.images.get(c.role, ({},))[0]
            return sum(bit for bit in abox.bits.values()
                       if succ.get(bit, 0).bit_count() >= c.n)
        raise TypeError(f"unexpected concept node: {c!r}")


def _top_conjunct_names(c: ConceptExpr) -> frozenset[str]:
    """Concept names reachable through top-level conjunctions only."""
    if isinstance(c, Atom):
        return frozenset((c.name,))
    if isinstance(c, And):
        return frozenset().union(*map(_top_conjunct_names, c.args))
    return frozenset()


def build_canonical(kb: KnowledgeBase) -> CanonicalModel:
    """The canonical model of ``kb``, its told masks a least fixpoint: a name
    starts with its asserted members, and a defined name passes its mask
    to the names that its body has as top-level conjuncts, until nothing
    changes.  Disjunctions and role restrictions pass nothing on."""
    bits, told = kb.abox.bits, dict.fromkeys(kb.signature.concept_names, 0)
    for concept, individual in kb.abox.concept_assertions:
        told[concept] |= bits[individual]
    passes = {name: _top_conjunct_names(defn.body)
              for name, defn in kb.tbox.definitions.items()}
    pending = list(passes)          # the names whose mask has grown
    while pending:
        name = pending.pop()
        for extra in passes[name]:
            if told[name] & ~told[extra]:
                told[extra] |= told[name]
                if extra in passes:
                    pending.append(extra)
    return CanonicalModel(kb.abox, kb.tbox, told)
