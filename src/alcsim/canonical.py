"""Closed-world canonical interpretation of an ABox.

The domain is exactly the set of named individuals (unique names
assumption: each constant denotes itself), roles hold exactly for the
asserted pairs, and concept-name extensions are the told closure of the
assertions: an individual carries every name reachable from its asserted
names through top-level conjuncts of definitions.  Arbitrary concept
expressions are then evaluated over this finite structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .model import (
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
    domain: frozenset[str]
    primitive_ext: Mapping[str, frozenset[str]]
    # role -> source -> targets: the asserted role pairs, indexed by source
    role_succ: Mapping[str, Mapping[str, frozenset[str]]]

    def exists_ext(self, role: str, filler: frozenset[str]) -> frozenset[str]:
        """Individuals with a ``role`` successor in ``filler``."""
        return frozenset(x for x, ys in self.role_succ.get(role, {}).items()
                         if not ys.isdisjoint(filler))


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
    ext = {name: set() for name in kb.signature.concept_names}
    for a, names in told_closure(kb).items():
        for name in names:
            ext[name].add(a)
    role_succ: dict[str, dict[str, set[str]]] = {}
    for role, source, target in kb.abox.role_assertions:
        role_succ.setdefault(role, {}).setdefault(source, set()).add(target)
    return CanonicalModel(
        domain=kb.abox.individuals,
        primitive_ext={name: frozenset(s) for name, s in ext.items()},
        role_succ={r: {s: frozenset(ts) for s, ts in table.items()}
                   for r, table in role_succ.items()},
    )


def eval_concept(model: CanonicalModel, tbox: TBox, c: ConceptExpr,
                 names: dict[str, frozenset[str]] | None = None
                 ) -> frozenset[str]:
    """Extension of ``c`` in the canonical model.

    A defined name denotes the union of its told extension and the
    evaluation of its definition body (for full definitions), so asserted
    memberships survive even when the closed-world definition check
    fails.  Value restrictions are vacuously satisfied by individuals
    without successors.  Each name is evaluated once per ``names``, a
    memo valid for one model and TBox (``None``: a fresh one).
    """
    return _eval(model, tbox, {} if names is None else names, c)


def _eval(model: CanonicalModel, tbox: TBox, names: dict[str, frozenset[str]],
          c: ConceptExpr) -> frozenset[str]:
    if isinstance(c, Top):
        return model.domain
    if isinstance(c, Bottom):
        return frozenset()
    if isinstance(c, Atom):
        ext = names.get(c.name)
        if ext is None:
            ext = model.primitive_ext.get(c.name, frozenset())
            defn = tbox.get(c.name)
            if defn is not None and defn.kind is DefKind.EQUIV:
                ext = ext | _eval(model, tbox, names, defn.body)
            names[c.name] = ext
        return ext
    if isinstance(c, Not):
        return model.domain - _eval(model, tbox, names, c.arg)
    if isinstance(c, And):
        out = _eval(model, tbox, names, c.args[0])
        for a in c.args[1:]:
            out = out & _eval(model, tbox, names, a)
        return out
    if isinstance(c, Or):
        out = _eval(model, tbox, names, c.args[0])
        for a in c.args[1:]:
            out = out | _eval(model, tbox, names, a)
        return out
    if isinstance(c, Exists):
        return model.exists_ext(c.role, _eval(model, tbox, names, c.filler))
    if isinstance(c, Forall):
        filler = _eval(model, tbox, names, c.filler)
        succ = model.role_succ.get(c.role, {})
        return model.domain - {x for x, ys in succ.items()
                               if not ys <= filler}
    if isinstance(c, AtLeast):
        succ = model.role_succ.get(c.role, {})
        return frozenset(x for x in model.domain if len(succ.get(x, ())) >= c.n)
    raise TypeError(f"unexpected concept node: {c!r}")


def retrieve_canonical(kb: KnowledgeBase, c: ConceptExpr) -> frozenset[str]:
    """Individuals in the canonical extension of ``c``."""
    return eval_concept(build_canonical(kb), kb.tbox, c)
