"""Closed-world canonical interpretation of an ABox.

The domain is exactly the set of named individuals (unique names
assumption: each constant denotes itself), roles hold exactly for the
asserted pairs, and concept-name extensions are the told closure of the
assertions: an individual carries every name reachable from its asserted
names through top-level conjuncts of definitions.  Arbitrary concept
expressions are then evaluated over this finite structure, each
extension a bit mask over ``ABox.bits``: ``exists r.F`` is the
``r``-predecessors of F (``ABox.images``), ``forall r.F`` the domain
less the ``r``-predecessors of ``not F``.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    abox: ABox      # the domain, its bits and its role images
    told: Mapping[str, int]     # concept name -> its told mask


def _top_conjunct_names(c: ConceptExpr) -> frozenset[str]:
    """Concept names reachable through top-level conjunctions only."""
    if isinstance(c, Atom):
        return frozenset((c.name,))
    if isinstance(c, And):
        return frozenset().union(*map(_top_conjunct_names, c.args))
    return frozenset()


def told_closure(kb: KnowledgeBase) -> dict[str, frozenset[str]]:
    """Concept names each individual is told to belong to.

    Least fixpoint of: start from the asserted names; whenever N is in
    the set and N is defined (fully or partially) with body D, add every
    name occurring as a top-level conjunct of D.  Disjunctions and role
    restrictions contribute nothing.
    """
    told: dict[str, set[str]] = {a: set() for a in kb.abox.individuals}
    for concept, individual in kb.abox.concept_assertions:
        told[individual].add(concept)

    # conjunct names contributed by each defined name
    contributes = {
        name: _top_conjunct_names(defn.body)
        for name, defn in kb.tbox.definitions.items()
    }

    for names in told.values():
        pending = list(names)
        while pending:
            name = pending.pop()
            for extra in contributes.get(name, frozenset()):
                if extra not in names:
                    names.add(extra)
                    pending.append(extra)
    return {a: frozenset(names) for a, names in told.items()}


def build_canonical(kb: KnowledgeBase) -> CanonicalModel:
    bits = kb.abox.bits
    told = dict.fromkeys(kb.signature.concept_names, 0)
    for a, names in told_closure(kb).items():
        for name in names:
            told[name] |= bits[a]
    return CanonicalModel(kb.abox, told)


def eval_mask(model: CanonicalModel, tbox: TBox, names: dict[str, int],
              c: ConceptExpr) -> int:
    """Extension of ``c`` in the canonical model, a mask over ``ABox.bits``.

    A defined name denotes the union of its told extension and the
    evaluation of its definition body (for full definitions), so asserted
    memberships survive even when the closed-world definition check
    fails.  Value restrictions are vacuously satisfied by individuals
    without successors.  Each name is evaluated once per ``names``, a
    memo of masks valid for one model and TBox.
    """
    if isinstance(c, Top):
        return model.abox.everyone
    if isinstance(c, Bottom):
        return 0
    if isinstance(c, Atom):
        ext = names.get(c.name)
        if ext is None:
            ext = model.told.get(c.name, 0)
            defn = tbox.get(c.name)
            if defn is not None and defn.kind is DefKind.EQUIV:
                ext |= eval_mask(model, tbox, names, defn.body)
            names[c.name] = ext
        return ext
    if isinstance(c, Not):
        return model.abox.everyone & ~eval_mask(model, tbox, names, c.arg)
    if isinstance(c, (And, Or)):
        out = eval_mask(model, tbox, names, c.args[0])
        for a in c.args[1:]:
            ext = eval_mask(model, tbox, names, a)
            out = out & ext if isinstance(c, And) else out | ext
        return out
    if isinstance(c, (Exists, Forall)):     # forall r.F is not exists r.not F
        flip = 0 if isinstance(c, Exists) else model.abox.everyone
        filler = flip ^ eval_mask(model, tbox, names, c.filler)
        images = model.abox.images.get(c.role)
        return flip ^ (0 if images is None else images[1][filler])
    if isinstance(c, AtLeast):
        succ = model.abox.images.get(c.role, ({},))[0]
        return sum(bit for bit in model.abox.bits.values()
                   if succ.get(bit, 0).bit_count() >= c.n)
    raise TypeError(f"unexpected concept node: {c!r}")
