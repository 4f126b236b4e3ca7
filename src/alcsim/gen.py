"""Seeded random knowledge bases and concepts for testing.

Everything here is driven by an explicit seed so failures reproduce.
Definitions reference only earlier names, which keeps generated TBoxes
acyclic by construction.  At-least restrictions are excluded: negating
them is a hard error through most reasoning paths, so randomized runs
would trip over it rather than exercise anything useful; the bundled
family fixture covers the constructor instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InvalidShape
from .model import (
    ABox,
    And,
    Atom,
    ConceptExpr,
    DefKind,
    Definition,
    Exists,
    Forall,
    KnowledgeBase,
    Not,
    Or,
    TBox,
    TOP,
)

_PRIMITIVES = ("A", "B", "C", "D", "E", "F", "G", "H")
_DEFINED = ("P", "Q", "U", "V", "W", "X")
_ROLES = ("r", "s", "t")
_INDIVIDUALS = ("a", "b", "c", "d", "e", "f", "g", "h")
_SUBSUMED_FRACTION = 0.25  # share of definitions drawn as ``<=``, not ``:=``


@dataclass(frozen=True)
class KbShape:
    individuals: int = 6
    primitives: int = 3
    defined: int = 3
    roles: int = 2
    body_depth: int = 2
    concept_assertions: int = 6
    role_assertions: int = 8
    el_only: bool = False            # restrict bodies to Atom/And/Exists/Top
    assert_primitive_only: bool = False

    def __post_init__(self):
        pools = {"individuals": _INDIVIDUALS, "primitives": _PRIMITIVES,
                 "defined": _DEFINED, "roles": _ROLES}
        for attr, pool in pools.items():
            count = getattr(self, attr)
            if not 0 <= count <= len(pool):
                raise InvalidShape(f"{attr} must be between 0 and "
                                   f"{len(pool)}, got {count}")
        for attr in ("body_depth", "concept_assertions", "role_assertions"):
            if getattr(self, attr) < 0:
                raise InvalidShape(f"{attr.replace('_', ' ')} must not be "
                                   f"negative, got {getattr(self, attr)}")
        concepts = self.primitives + (
            0 if self.assert_primitive_only else self.defined)
        if self.concept_assertions and not (self.individuals and concepts):
            raise InvalidShape("concept assertions need an individual and a "
                               "concept name to draw from")
        if self.role_assertions and not (self.individuals and self.roles):
            raise InvalidShape("role assertions need an individual and a "
                               "role to draw from")


def random_concept(rng: random.Random, concept_names, role_names,
                   depth: int, el_only: bool = False,
                   max_nodes: int = 16) -> ConceptExpr:
    """A random concept with role depth and node count both bounded."""
    concept_names = tuple(concept_names)
    role_names = tuple(role_names)
    budget = [max_nodes]

    def leaf() -> ConceptExpr:
        if concept_names and rng.random() < 0.85:
            return Atom(rng.choice(concept_names))
        return TOP

    def go(depth: int) -> ConceptExpr:
        budget[0] -= 1
        if budget[0] <= 0 or not concept_names:
            return leaf()
        choices = ["atom", "atom", "and", "top"]
        if depth > 0 and role_names:
            choices += ["exists", "exists"]
            if not el_only:
                choices.append("forall")
        if not el_only:
            choices += ["or", "not"]
        kind = rng.choice(choices)
        if kind == "atom":
            return Atom(rng.choice(concept_names))
        if kind == "top":
            return TOP
        if kind in ("and", "or"):
            args = tuple(go(depth) for _ in range(rng.randint(2, 3)))
            return And(args) if kind == "and" else Or(args)
        if kind == "exists":
            return Exists(rng.choice(role_names), go(depth - 1))
        if kind == "forall":
            return Forall(rng.choice(role_names), go(depth - 1))
        return Not(go(depth))

    return go(depth)


def random_kb(seed: int, shape: KbShape = KbShape()) -> KnowledgeBase:
    rng = random.Random(seed)
    primitives = _PRIMITIVES[: shape.primitives]
    defined = _DEFINED[: shape.defined]
    roles = _ROLES[: shape.roles]
    individuals = _INDIVIDUALS[: shape.individuals]

    definitions: dict[str, Definition] = {}
    known = list(primitives)
    for name in defined:
        body = random_concept(rng, known, roles, shape.body_depth,
                              shape.el_only, max_nodes=10)
        kind = (DefKind.SUBSUMED
                if rng.random() < _SUBSUMED_FRACTION else DefKind.EQUIV)
        definitions[name] = Definition(kind, body)
        known.append(name)

    assertable = primitives if shape.assert_primitive_only else tuple(known)
    concept_assertions = {
        (rng.choice(assertable), rng.choice(individuals))
        for _ in range(shape.concept_assertions)
    }
    role_assertions = {
        (rng.choice(roles), rng.choice(individuals), rng.choice(individuals))
        for _ in range(shape.role_assertions)
    }
    abox = ABox.from_assertions(concept_assertions, role_assertions)
    return KnowledgeBase.assemble(TBox(definitions), abox)
