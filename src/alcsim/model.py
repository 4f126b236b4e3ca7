"""Concept ASTs and knowledge-base containers.

Concept expressions are immutable trees built from the usual ALC
constructors plus an unqualified at-least restriction.  The textual form
produced by ``str()`` is the same concrete syntax the parser accepts, so
``parse_concept(str(c)) == c`` holds for every tree.  A TBox unfolds a
defined name one step at a time (:meth:`TBox.unfolding`), as the
reasoners read it.

Below the public API an individual is its bit in ``ABox.bits``, and
``ABox.images`` is the one index of the role assertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .errors import CyclicTBox, DefinitionTooDeep

# Deepest nesting a defined name may reach when fully unfolded: one level
# per constructor and one per definition step.  ``CanonicalModel.mask``
# and ``tableau._Masks.mask`` recurse once per level, through definition
# bodies too, so at this depth they stay inside Python's default recursion
# limit.
MAX_UNFOLDED_DEPTH = 400


# ---------------------------------------------------------------------------
# Concept expressions
# ---------------------------------------------------------------------------

class ConceptExpr:
    """Base class for concept expression nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        # a stack, so no depth recurses.  As arguments And/Or, looser than
        # not/quantifiers (and Or than And), take parentheses; all else
        # re-parses unambiguously.
        out, stack = [], [self]
        while stack:
            c = stack.pop()
            kind = type(c)
            if kind is str or kind is Atom:
                out.append(c if kind is str else c.name)
            elif kind is And or kind is Or:
                sep, loose = ((" and ", (And, Or)) if kind is And
                              else (" or ", (Or,)))
                parts = []
                for a in c.args:
                    parts += (sep, "(", a, ")") if type(a) in loose else (sep, a)
                stack += reversed(parts[1:])
            elif kind is Not or kind is Exists or kind is Forall:
                out.append("not " if kind is Not else
                           f"{'exists' if kind is Exists else 'forall'} {c.role}.")
                a = c.arg if kind is Not else c.filler
                stack += (")", a, "(") if type(a) in (And, Or) else (a,)
            else:
                out.append(f"atleast {c.n} {c.role}" if kind is AtLeast
                           else kind.__name__)      # Top, Bottom
        return "".join(out)

    def __eq__(self, other) -> bool:
        # the dataclasses' own ==, field by field, but with a stack, so no
        # depth recurses; a shared subtree is equal without a walk
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is not b:
                if type(a) is not type(b):
                    return False
                for x, y in zip(vars(a).values(), vars(b).values()):
                    if type(x) is tuple and len(x) == len(y):
                        stack += zip(x, y)          # And and Or args
                    elif isinstance(x, ConceptExpr):
                        stack.append((x, y))
                    elif x != y:
                        return False
        return True


# frozen nodes with ConceptExpr's ==, hashed by their fields as before
_node = dataclass(frozen=True, eq=False, unsafe_hash=True)


@_node
class Top(ConceptExpr):
    pass


@_node
class Bottom(ConceptExpr):
    pass


@_node
class Atom(ConceptExpr):
    name: str


@_node
class Not(ConceptExpr):
    arg: ConceptExpr


@_node
class And(ConceptExpr):
    args: tuple[ConceptExpr, ...]

    def __post_init__(self):
        if len(self.args) < 2:
            raise ValueError("And requires at least two arguments")


@_node
class Or(ConceptExpr):
    args: tuple[ConceptExpr, ...]

    def __post_init__(self):
        if len(self.args) < 2:
            raise ValueError("Or requires at least two arguments")


@_node
class Exists(ConceptExpr):
    role: str
    filler: ConceptExpr


@_node
class Forall(ConceptExpr):
    role: str
    filler: ConceptExpr


@_node
class AtLeast(ConceptExpr):
    """Unqualified at-least restriction: at least ``n`` distinct role successors."""

    n: int
    role: str

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("AtLeast requires n >= 1")


TOP = Top()
BOTTOM = Bottom()


def make_and(args) -> ConceptExpr:
    """Conjunction builder that collapses the 0- and 1-argument cases."""
    args = tuple(args)
    if not args:
        return TOP
    if len(args) == 1:
        return args[0]
    return And(args)


def make_or(args) -> ConceptExpr:
    args = tuple(args)
    if not args:
        return BOTTOM
    if len(args) == 1:
        return args[0]
    return Or(args)


# ---------------------------------------------------------------------------
# TBox / ABox / KnowledgeBase
# ---------------------------------------------------------------------------

class DefKind(Enum):
    EQUIV = "equiv"        # Name := body     (full definition)
    SUBSUMED = "subsumed"  # Name <= body     (partial definition)


@dataclass(frozen=True)
class Definition:
    kind: DefKind
    body: ConceptExpr


def marker_name(name: str) -> str:
    """Fresh primitive marker for a partially defined name.

    ``*`` is not a legal name character, so markers can never collide
    with user-written names (and never round-trip through the parser).
    """
    return name + "*"


@dataclass(frozen=True)
class TBox:
    """Named concept definitions.  Each name is defined at most once."""

    definitions: dict[str, Definition] = field(default_factory=dict)

    def unfolding(self, name: str) -> ConceptExpr | None:
        """What a defined name unfolds to one step deep; ``None`` if primitive.

        A full definition unfolds to its body; a partial definition
        ``N <= D`` to ``N* and D``, where ``N*`` is the primitive marker
        for ``N``.
        """
        defn = self.definitions.get(name)
        if defn is None:
            return None
        if defn.kind is DefKind.EQUIV:
            return defn.body
        return And((Atom(marker_name(name)), defn.body))

    def check_acyclic(self) -> tuple[set[str], set[str]]:
        """Check that every defined name unfolds to a finite, shallow concept.

        Raises :class:`CyclicTBox` if a definition reaches itself, and
        :class:`DefinitionTooDeep` if a name's unfolded depth (see
        :data:`MAX_UNFOLDED_DEPTH`) passes the limit.  One depth-first walk
        over the names does both, with its own stack, so it does not
        recurse however long a chain of definitions is.  It walks each body
        once and returns the concept names and the role names the bodies
        mention.
        """
        concepts: set[str] = set()
        roles: set[str] = set()

        def frame(name: str):
            height, levels = _name_levels(self.definitions[name].body, roles)
            concepts.update(levels)
            return name, height, levels, iter(sorted(levels))

        depth: dict[str, int] = {}     # unfolded depth of each finished name
        for root in self.definitions:
            if root in depth:
                continue
            path = [root]              # the names being expanded
            on_path = {root: 0}        # name -> its index in path
            frames = [frame(root)]
            while frames:
                name, height, levels, refs = frames[-1]
                for ref in refs:
                    if ref in depth or ref not in self.definitions:
                        continue
                    if ref in on_path:
                        raise CyclicTBox(tuple(path[on_path[ref]:]) + (ref,))
                    on_path[ref] = len(path)
                    path.append(ref)
                    frames.append(frame(ref))
                    break
                else:
                    frames.pop()
                    del on_path[path.pop()]
                    # a name at level L of the body stands for its own
                    # unfolding, whose top takes that level
                    d = height
                    for ref, level in levels.items():
                        if ref in depth and level - 1 + depth[ref] > d:
                            d = level - 1 + depth[ref]
                    d += 1
                    if d > MAX_UNFOLDED_DEPTH:
                        raise DefinitionTooDeep(name, d, MAX_UNFOLDED_DEPTH)
                    depth[name] = d
        return concepts, roles


def _name_levels(c: ConceptExpr, roles: set[str]) -> tuple[int, dict[str, int]]:
    """The nesting height of ``c`` (a leaf is 1), and for each concept name
    in it the deepest level at which it occurs; walked with a stack that
    also adds the role names in ``c`` to ``roles``."""
    height = 0
    levels: dict[str, int] = {}
    stack = [(c, 1)]
    while stack:
        c, level = stack.pop()
        if level > height:
            height = level
        if isinstance(c, Atom):
            if levels.get(c.name, 0) < level:
                levels[c.name] = level
        elif isinstance(c, (And, Or)):
            level += 1
            for a in c.args:
                stack.append((a, level))
        elif isinstance(c, (Exists, Forall)):
            roles.add(c.role)
            stack.append((c.filler, level + 1))
        elif isinstance(c, Not):
            stack.append((c.arg, level + 1))
        elif isinstance(c, AtLeast):
            roles.add(c.role)
    return height, levels


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


@dataclass(frozen=True)
class ABox:
    concept_assertions: frozenset[tuple[str, str]]       # (concept, individual)
    role_assertions: frozenset[tuple[str, str, str]]     # (role, source, target)
    individuals: frozenset[str]

    @classmethod
    def from_assertions(cls, concept_assertions, role_assertions) -> "ABox":
        cas = frozenset(concept_assertions)
        ras = frozenset(role_assertions)
        inds = frozenset(a for _, a in cas) | frozenset(
            x for _, s, t in ras for x in (s, t)
        )
        return cls(cas, ras, inds)

    @cached_property
    def bits(self) -> dict[str, int]:
        """Each individual's bit, ``1 << i`` for the i-th in sorted order;
        a set of individuals is a mask, the sum of their bits."""
        return {a: 1 << i for i, a in enumerate(sorted(self.individuals))}

    @property
    def everyone(self) -> int:
        """The mask of every individual."""
        return (1 << len(self.individuals)) - 1

    def members(self, mask: int) -> frozenset[str]:
        """The individuals whose bits are in ``mask``."""
        return frozenset([a for a, bit in self.bits.items() if mask & bit])

    @cached_property
    def images(self) -> dict[str, tuple[_Images, _Images]]:
        """Role -> the asserted successors and predecessors of a mask, roles
        in sorted order: the one role index, which every walk reads."""
        bits, images = self.bits, {}
        for role, source, target in self.role_assertions:
            if role not in images:
                images[role] = (_Images(), _Images())
            succ, pred = images[role]
            s, t = bits[source], bits[target]
            succ[s] = succ.get(s, 0) | t
            pred[t] = pred.get(t, 0) | s
        return {role: images[role] for role in sorted(images)}

    @cached_property
    def depth(self) -> int:
        """Edge count of the longest simple directed path between individuals.

        Parallel role assertions between the same pair collapse to a single
        edge.  The depth-first search keeps its own stack and path mask,
        tries successors lowest bit first, and stops once a path reaches
        the simple-path bound: each individual with a role edge, once.
        """
        adjacency, covered = {}, 0
        for bit in self.bits.values():
            out = 0
            for succ, _ in self.images.values():
                out |= succ.get(bit, 0)
            if out & ~bit:
                adjacency[bit] = out & ~bit
                covered |= out | bit
        best, bound = 0, covered.bit_count() - 1
        for start in adjacency:
            # the path's nodes, and the successors each has yet to try
            path, nodes, todo = start, [start], [adjacency[start]]
            while todo and best < bound:
                rest = todo[-1] & ~path
                if rest:
                    nxt = rest & -rest
                    todo[-1] ^= nxt
                    nodes.append(nxt)
                    todo.append(adjacency.get(nxt, 0))
                    path |= nxt
                    if len(nodes) > best + 1:
                        best = len(nodes) - 1
                else:
                    todo.pop()
                    path ^= nodes.pop()
        return best


EMPTY_ABOX = ABox.from_assertions((), ())


@dataclass(frozen=True)
class Signature:
    concept_names: frozenset[str]
    role_names: frozenset[str]


@dataclass(frozen=True)
class KnowledgeBase:
    tbox: TBox
    abox: ABox
    signature: Signature

    @classmethod
    def assemble(cls, tbox: TBox, abox: ABox) -> "KnowledgeBase":
        """Build a KB, derive its signature, and verify TBox acyclicity."""
        concepts, roles = tbox.check_acyclic()
        concepts.update(tbox.definitions)
        concepts.update(c for c, _ in abox.concept_assertions)
        roles.update(r for r, _, _ in abox.role_assertions)
        sig = Signature(frozenset(concepts), frozenset(roles))
        return cls(tbox, abox, sig)

    @property
    def individuals(self) -> frozenset[str]:
        return self.abox.individuals
