"""Concept ASTs, knowledge-base containers, and syntactic transformations.

Concept expressions are immutable trees built from the usual ALC
constructors plus an unqualified at-least restriction.  The textual form
produced by ``str()`` is the same concrete syntax the parser accepts, so
``parse_concept(str(c)) == c`` holds for every tree.

The transformations in this module (negation normal form, unfolding
against an acyclic TBox, normalization, depth) are pure functions and
never mutate their inputs.

Below the public API an individual is its bit in ``ABox.bits``, and
``ABox.images`` is the one index of the role assertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .errors import CyclicTBox, DefinitionTooDeep, UnsupportedNegation

# Deepest nesting a defined name may reach when fully unfolded: one level
# per constructor and one per definition step.  ``eval_concept`` and
# ``unfold`` recurse once or twice per level, so at this depth they stay
# inside Python's default recursion limit.
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


@dataclass(frozen=True)
class TBox:
    """Named concept definitions.  Each name is defined at most once."""

    definitions: dict[str, Definition] = field(default_factory=dict)

    def get(self, name: str) -> Definition | None:
        return self.definitions.get(name)

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


# ---------------------------------------------------------------------------
# Negation normal form
# ---------------------------------------------------------------------------

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
        return make_and(nnf(a) for a in _negate_once(c.arg))
    if isinstance(c, And):
        return And(tuple(nnf(a) for a in c.args))
    if isinstance(c, Or):
        return Or(tuple(nnf(a) for a in c.args))
    if isinstance(c, Exists):
        return Exists(c.role, nnf(c.filler))
    if isinstance(c, Forall):
        return Forall(c.role, nnf(c.filler))
    return c


def _negate_once(c: ConceptExpr) -> tuple[ConceptExpr, ...]:
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


# ---------------------------------------------------------------------------
# Unfolding
# ---------------------------------------------------------------------------

def marker_name(name: str) -> str:
    """Fresh primitive marker for a partially defined name.

    ``*`` is not a legal name character, so markers can never collide
    with user-written names (and never round-trip through the parser).
    """
    return name + "*"


def unfold(c: ConceptExpr, tbox: TBox) -> ConceptExpr:
    """Expand every defined name occurring in ``c``.

    Full definitions are replaced by their bodies; a partial definition
    ``N <= D`` becomes ``N* and D`` where ``N*`` is the primitive marker
    for ``N``.  The result mentions only primitive atoms and markers.
    """
    return _unfold(c, tbox, ())


def _unfold(c: ConceptExpr, tbox: TBox, path: tuple[str, ...]) -> ConceptExpr:
    if isinstance(c, Atom):
        body = tbox.unfolding(c.name)
        if body is None:
            return c
        if c.name in path:
            start = path.index(c.name)
            raise CyclicTBox(path[start:] + (c.name,))
        return _unfold(body, tbox, path + (c.name,))
    if isinstance(c, Not):
        return Not(_unfold(c.arg, tbox, path))
    if isinstance(c, And):
        return And(tuple(_unfold(a, tbox, path) for a in c.args))
    if isinstance(c, Or):
        return Or(tuple(_unfold(a, tbox, path) for a in c.args))
    if isinstance(c, Exists):
        return Exists(c.role, _unfold(c.filler, tbox, path))
    if isinstance(c, Forall):
        return Forall(c.role, _unfold(c.filler, tbox, path))
    return c


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Depth
# ---------------------------------------------------------------------------

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
