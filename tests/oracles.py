"""Plain reference implementations that the tests check alcsim against.

alcsim reasons on concept ids and bit masks and rewrites no whole concept
tree.  These functions do it the plain, recursive way, on trees and sets,
so that a test can compare the two:

* ``nnf``, ``negate_once`` and ``normalize``: negation normal form,
  negation pushed one constructor in, and a canonical form;
* ``concept_depth`` and ``concept_names_in``: the nesting of role
  restrictions and the concept names of a tree;
* ``told_closure``: the told names of each individual, which
  ``build_canonical`` computes per name, as masks;
* ``eval_concept``, ``retrieve_canonical`` and ``msc_extension``: the
  individuals in the masks of ``CanonicalModel.mask`` and ``msc.msc_mask``.
"""

from __future__ import annotations

from alcsim.canonical import CanonicalModel, build_canonical
from alcsim.errors import UnsupportedNegation
from alcsim.model import (
    BOTTOM,
    TOP,
    And,
    AtLeast,
    Atom,
    Bottom,
    ConceptExpr,
    Exists,
    Forall,
    KnowledgeBase,
    Not,
    Or,
    Top,
    make_and,
    make_or,
)
from alcsim.msc import msc_mask


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
        name: top_conjunct_names(defn.body)
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


def top_conjunct_names(c: ConceptExpr) -> frozenset[str]:
    """Concept names reachable through top-level conjunctions only."""
    if isinstance(c, Atom):
        return frozenset((c.name,))
    if isinstance(c, And):
        return frozenset().union(*map(top_conjunct_names, c.args))
    return frozenset()


def eval_concept(model: CanonicalModel, c: ConceptExpr) -> frozenset[str]:
    """The individuals in ``model.mask(c)``."""
    return model.abox.members(model.mask(c))


def retrieve_canonical(kb: KnowledgeBase, c: ConceptExpr) -> frozenset[str]:
    """The individuals in ``c``'s extension in a fresh canonical model."""
    return eval_concept(build_canonical(kb), c)


def msc_extension(kb: KnowledgeBase, individual: str, depth=None,
                  engine=None) -> frozenset[str]:
    """The individuals in ``msc_mask``."""
    return kb.abox.members(msc_mask(kb, individual, depth, engine))


def concept_names_in(c: ConceptExpr) -> frozenset[str]:
    """All concept names occurring anywhere in the expression."""
    if isinstance(c, Atom):
        return frozenset((c.name,))
    if isinstance(c, Not):
        return concept_names_in(c.arg)
    if isinstance(c, (And, Or)):
        out: frozenset[str] = frozenset()
        for a in c.args:
            out |= concept_names_in(a)
        return out
    if isinstance(c, (Exists, Forall)):
        return concept_names_in(c.filler)
    return frozenset()


def concept_depth(c: ConceptExpr) -> int:
    """Maximal nesting of role restrictions."""
    if isinstance(c, Not):
        return concept_depth(c.arg)
    if isinstance(c, (And, Or)):
        return max(concept_depth(a) for a in c.args)
    if isinstance(c, (Exists, Forall)):
        return 1 + concept_depth(c.filler)
    if isinstance(c, AtLeast):
        return 1
    return 0


def nnf(c: ConceptExpr) -> ConceptExpr:
    """Push negation down to concept names.

    The result is equivalent to ``c`` and contains ``Not`` only directly
    above ``Atom``.  ``not atleast 1 R`` rewrites to ``forall R.Bottom``;
    for n >= 2 there is no expressible rewriting and
    :class:`UnsupportedNegation` is raised.
    """
    if isinstance(c, Not):
        if isinstance(c.arg, Atom):
            return c
        return make_and(nnf(a) for a in negate_once(c.arg))
    if isinstance(c, And):
        return And(tuple(nnf(a) for a in c.args))
    if isinstance(c, Or):
        return Or(tuple(nnf(a) for a in c.args))
    if isinstance(c, Exists):
        return Exists(c.role, nnf(c.filler))
    if isinstance(c, Forall):
        return Forall(c.role, nnf(c.filler))
    return c


def negate_once(c: ConceptExpr) -> tuple[ConceptExpr, ...]:
    """Conjuncts equivalent to ``not c``, negation pushed one constructor in.

    ``c`` must not be an ``Atom``: a negated name is a literal for
    :func:`nnf` and a definition lookup for the tableau.
    """
    if isinstance(c, Top):
        return (BOTTOM,)
    if isinstance(c, Bottom):
        return (TOP,)
    if isinstance(c, Not):
        return (c.arg,)
    if isinstance(c, And):
        return (Or(tuple(Not(a) for a in c.args)),)
    if isinstance(c, Or):
        return tuple(Not(a) for a in c.args)
    if isinstance(c, Exists):
        return (Forall(c.role, Not(c.filler)),)
    if isinstance(c, Forall):
        return (Exists(c.role, Not(c.filler)),)
    if isinstance(c, AtLeast):
        if c.n == 1:
            # no R-successor at all: forall R.Bottom
            return (Forall(c.role, BOTTOM),)
        raise UnsupportedNegation.of_atleast(c.n, c.role)
    raise TypeError(f"unexpected concept node: {c!r}")


def normalize(c: ConceptExpr) -> ConceptExpr:
    """Rewrite ``c`` into an equivalent canonical form.

    Applies, bottom-up: NNF, flattening of nested conjunctions and
    disjunctions, merging of same-role value restrictions
    (``forall R.C1 and forall R.C2`` -> ``forall R.(C1 and C2)``),
    unit/absorbing element removal for Top and Bottom, deduplication of
    equal siblings, and a deterministic lexicographic ordering of
    conjuncts and disjuncts.
    """
    return _norm(nnf(c))


def _norm(c: ConceptExpr) -> ConceptExpr:
    if isinstance(c, And):
        flat: list[ConceptExpr] = []
        for a in c.args:
            na = _norm(a)
            if isinstance(na, And):
                flat.extend(na.args)
            else:
                flat.append(na)
        # merge all value restrictions on the same role
        foralls: dict[str, list[ConceptExpr]] = {}
        rest: list[ConceptExpr] = []
        for a in flat:
            if isinstance(a, Forall):
                foralls.setdefault(a.role, []).append(a.filler)
            else:
                rest.append(a)
        for role, fillers in foralls.items():
            if len(fillers) == 1:
                rest.append(Forall(role, fillers[0]))
            else:
                rest.append(Forall(role, _norm(And(tuple(fillers)))))
        if any(isinstance(a, Bottom) for a in rest):
            return BOTTOM
        rest = [a for a in rest if not isinstance(a, Top)]
        rest = list(dict.fromkeys(rest))
        rest.sort(key=str)
        return make_and(rest)
    if isinstance(c, Or):
        flat = []
        for a in c.args:
            na = _norm(a)
            if isinstance(na, Or):
                flat.extend(na.args)
            else:
                flat.append(na)
        if any(isinstance(a, Top) for a in flat):
            return TOP
        flat = [a for a in flat if not isinstance(a, Bottom)]
        flat = list(dict.fromkeys(flat))
        flat.sort(key=str)
        return make_or(flat)
    if isinstance(c, Exists):
        return Exists(c.role, _norm(c.filler))
    if isinstance(c, Forall):
        return Forall(c.role, _norm(c.filler))
    return c
