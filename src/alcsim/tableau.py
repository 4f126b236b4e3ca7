"""Open-world tableau reasoning over acyclic TBoxes.

Implements satisfiability, subsumption, equivalence, ABox consistency,
instance checking and entailment-based retrieval for ALC plus
unqualified at-least.

Deterministic rules (conjunction, successors, value propagation,
at-least, lazy unfolding) saturate before disjunctions are branched
depth-first with chronological backtracking.  Defined names stay in
labels and unfold on demand, and negation moves inward one constructor
per rule, so a branch that closes on a name never expands its body.
Acyclic definitions bound the depth, so nothing is blocked.

``not atleast n r`` (n >= 2) needs an at-most restriction, which the
constructor set lacks: its rule adds nothing and marks the branch.  A
closed branch is closed, marked or not; an open, marked one is unknown,
and the search goes on.  A search is satisfiable if a branch ends open
and unmarked, unsatisfiable if every branch closes, and otherwise raises
the mark's ``UnsupportedNegation``, whatever order rules fire in.

Each reasoner interns every concept it meets once, in its
:class:`ConceptTable`, as a dense integer id held by labels, queue and
open disjunctions, so the clash test builds and hashes no concept.  A
check takes its concept by id and derives the negated goal from it.
The search reasons on ids alone: a rule pushes a negation inward from
its argument's kind and parts, and the roll-up of ``msc`` interns its
names, ``exists`` and conjunctions straight into the table.  A concept
is built only when one is read (:meth:`ConceptTable.concept`).

Each id is made by the table's constructor of its kind, which
simplifies by the laws of ``Top`` and ``Bottom``, as Horrocks &
Patel-Schneider (1999, *Optimizing description logic subsumption*) do
before the search: ``Bottom`` absorbs an ``And``, ``Top`` an ``Or``;
``Top`` leaves an ``And``, ``Bottom`` an ``Or``, and one part left
stands alone; ``forall r.Top``, ``exists r.Bottom``, ``not Top`` and
``not Bottom`` become ``Top`` or ``Bottom``.  Parts keep their order,
and nothing is flattened or deduplicated.

ABox individuals are distinct nodes, never merged (unique names); an
at-least makes fresh successors.  Branches share nodes copy-on-write: a
branch copies a node on its first write to it, so it costs the nodes it
touches, not the graph.

ABox checks start from the precompleted ABox (node i is the individual
with bit ``1 << i``, its edges ``ABox.images``), its deterministic rules
saturated once per reasoner; if that clashes, the KB is inconsistent
and entails every instance.  One search from it decides consistency,
and its open, complete and unmarked state, the witness, is a model of
the KB.  On both states a concept bounds its retrieval
(:meth:`TableauReasoner.bounds`), and each individual between the
bounds is one search (:meth:`TableauReasoner.entails`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .errors import UnknownIndividual, UnsupportedNegation
from .model import (
    And,
    AtLeast,
    Atom,
    BOTTOM,
    Bottom,
    ConceptExpr,
    EMPTY_ABOX,
    Exists,
    Forall,
    KnowledgeBase,
    Not,
    Or,
    TBox,
    TOP,
    Top,
)


@dataclass
class ReasonerStats:
    """Monotone counters for one reasoner session.

    ``node_copies`` counts tableau nodes copied on a state's first write
    to a node it shares with another state.
    """

    instance_checks: int = 0
    satisfiability_calls: int = 0
    branches_explored: int = 0
    node_copies: int = 0


# Concept kinds in a ConceptTable.
_TOP, _BOTTOM, _ATOM, _NOT, _AND, _OR, _EXISTS, _FORALL, _ATLEAST = range(9)
_KIND = {Top: _TOP, Bottom: _BOTTOM, Atom: _ATOM, Not: _NOT, And: _AND,
         Or: _OR, Exists: _EXISTS, Forall: _FORALL, AtLeast: _ATLEAST}
# Every table interns Top and Bottom first.
_TOP_ID, _BOTTOM_ID = 0, 1


class ConceptTable:
    """The concepts one reasoner has met, each interned once as an id.

    ``kind[i]`` and ``parts[i]`` describe id ``i``.  Its parts are the
    arg ids of ``And``/``Or``, ``(role, filler id)`` of
    ``Exists``/``Forall``, the arg id of ``Not``, ``(n, role)`` of
    ``AtLeast``, the name of an ``Atom``, and ``()`` for ``Top`` and
    ``Bottom``.  Concepts equal once simplified get one id, and
    :meth:`concept` makes an id's simplified form on first read.

    Every id is made by the constructor of its kind: :meth:`meet` for
    ``And`` and ``Or``, :meth:`exists` for ``Exists`` and ``Forall``,
    :meth:`negation`, :meth:`name` and :meth:`atleast`.  Each applies the
    laws of ``Top`` and ``Bottom`` (see the module docstring), so no
    ``And`` or ``Or`` has fewer than two parts or a ``Top`` or ``Bottom``
    part, no ``Exists`` has a ``Bottom`` filler and no ``Forall`` a
    ``Top`` filler, however the id was made.
    """

    def __init__(self, tbox: TBox):
        self.tbox = tbox
        self.kind: list[int] = []
        self.parts: list = []
        self._concepts: list[ConceptExpr | None] = []
        self._clash: list[tuple[int, ...] | None] = []
        self._adds: list[tuple[int, ...] | None] = []
        self._ids: dict[tuple, int] = {}
        self._intern(_TOP, ())
        self._intern(_BOTTOM, ())
        self._concepts[:] = TOP, BOTTOM

    def id(self, c: ConceptExpr) -> int:
        """The id of ``c``, interning it and its subconcepts if new: a
        post-order walk that makes each subconcept's id by the constructor
        of its kind, so its id may be that of a smaller concept, or of
        ``Top`` or ``Bottom``."""
        done: list[int] = []                 # ids of finished subconcepts
        stack = [(c, False)]    # with whether its parts were pushed
        while stack:
            c, entered = stack.pop()
            kind = _KIND[type(c)]
            if kind == _AND or kind == _OR:
                if not entered:
                    stack.append((c, True))
                    stack.extend((a, False) for a in reversed(c.args))
                    continue
                cid = self.meet(tuple(done[-len(c.args):]), kind)
                del done[-len(c.args):]
            elif kind == _NOT or kind == _EXISTS or kind == _FORALL:
                if not entered:
                    stack.append((c, True))
                    stack.append((c.arg if kind == _NOT else c.filler, False))
                    continue
                cid = (self.negation(done.pop()) if kind == _NOT
                       else self.exists(c.role, done.pop(), kind))
            elif kind == _ATOM:
                cid = self.name(c.name)
            elif kind == _ATLEAST:
                cid = self.atleast(c.n, c.role)
            else:
                cid = _TOP_ID if kind == _TOP else _BOTTOM_ID
            done.append(cid)
        return done[0]

    def _intern(self, kind: int, parts) -> int:
        """The id of the concept of ``kind`` with ``parts``, as they are."""
        key = (kind, parts)
        cid = self._ids.get(key)
        if cid is None:
            cid = self._ids[key] = len(self.kind)
            self.kind.append(kind)
            self.parts.append(parts)
            self._concepts.append(None)
            self._clash.append(None)
            self._adds.append(None)
        return cid

    def name(self, name: str) -> int:
        """The id of the concept name ``name``."""
        return self._intern(_ATOM, name)

    def atleast(self, n: int, role: str) -> int:
        """The id of ``atleast n role``."""
        return self._intern(_ATLEAST, (n, role))

    def exists(self, role: str, filler: int, kind: int = _EXISTS) -> int:
        """The id of ``exists role.F``, or of ``forall role.F`` if ``kind``
        is ``_FORALL``, for the concept F with id ``filler``: ``Bottom``
        for ``exists role.Bottom``, ``Top`` for ``forall role.Top``."""
        if filler == (_BOTTOM_ID if kind == _EXISTS else _TOP_ID):
            return filler
        return self._intern(kind, (role, filler))

    def meet(self, parts: tuple[int, ...], kind: int = _AND) -> int:
        """The id of the conjunction of the concepts with ids ``parts``, or
        of their disjunction if ``kind`` is ``_OR``; of no parts, the unit."""
        unit, absorbing = ((_TOP_ID, _BOTTOM_ID) if kind == _AND
                           else (_BOTTOM_ID, _TOP_ID))
        if parts and min(parts) <= _BOTTOM_ID:      # holds Top or Bottom
            if absorbing in parts:
                return absorbing
            parts = tuple(p for p in parts if p != unit)
        if len(parts) > 1:
            return self._intern(kind, parts)
        return parts[0] if parts else unit

    def negation(self, cid: int) -> int:
        """The id of ``not c`` for the concept ``c`` with id ``cid``:
        ``Bottom`` for ``not Top``, ``Top`` for ``not Bottom``."""
        if cid <= _BOTTOM_ID:
            return _BOTTOM_ID if cid == _TOP_ID else _TOP_ID
        return self._intern(_NOT, cid)

    def concept(self, cid: int) -> ConceptExpr:
        """The concept of id ``cid``, simplified.  One made from its parts'
        own concepts, with a stack of its own, is kept for later reads."""
        made, kind, parts = self._concepts, self.kind, self.parts
        stack = [cid]
        while stack:
            i = stack[-1]
            if made[i] is not None:
                stack.pop()
                continue
            k, p = kind[i], parts[i]
            inner = (p if k == _AND or k == _OR else (p,) if k == _NOT
                     else (p[1],) if k == _EXISTS or k == _FORALL else ())
            missing = [q for q in inner if made[q] is None]
            if missing:
                stack += missing
                continue
            stack.pop()
            if k == _AND or k == _OR:
                made[i] = (And if k == _AND else Or)(tuple(made[q] for q in p))
            elif k == _NOT:
                made[i] = Not(made[p])
            elif k == _EXISTS or k == _FORALL:
                made[i] = (Exists if k == _EXISTS else Forall)(p[0], made[p[1]])
            else:
                made[i] = Atom(p) if k == _ATOM else AtLeast(*p)
        return made[cid]

    def clash_keys(self, cid: int) -> tuple[int, ...]:
        """The ids whose presence in a label clashes with ``cid``."""
        keys = self._clash[cid]
        if keys is None:
            keys = (self.negation(cid),)
            if self.kind[cid] == _NOT:
                keys += (self.parts[cid],)
            self._clash[cid] = keys
        return keys

    def adds(self, cid: int) -> tuple[int, ...]:
        """What the rule for an ``Atom`` or ``Not`` adds to its label.

        A name adds its unfolding, a negated name the negation of its
        unfolding, and any other negation its conjuncts pushed one
        constructor in (see :meth:`_pushed`).  A negated at-least that
        cannot be pushed raises on every call; the rule that meets it
        marks its branch.
        """
        adds = self._adds[cid]
        if adds is None:
            parts = self.parts[cid]
            if self.kind[cid] == _ATOM:
                body = self.tbox.unfolding(parts)
                adds = () if body is None else (self.id(body),)
            elif self.kind[parts] == _ATOM:
                body = self.tbox.unfolding(self.parts[parts])
                adds = () if body is None else (self.negation(self.id(body)),)
            else:
                adds = self._pushed(parts)
            self._adds[cid] = adds
        return adds

    def _pushed(self, cid: int) -> tuple[int, ...]:
        """The ids of the conjuncts equivalent to ``not c``, for the concept
        ``c`` with id ``cid``, not a name, negation pushed one constructor
        in: ``not not C`` is C; ``not (C1 and C2)`` is ``not C1 or not
        C2``, and ``not (C1 or C2)`` the conjuncts ``not C1``, ``not C2``;
        ``exists`` and ``forall`` swap, negating the filler; ``not atleast
        1 r`` is ``forall r.Bottom``.  ``c``'s kind and parts decide, as
        the oracle ``negate_once`` in ``tests/oracles.py`` decides on the
        concept, and the ids are those, made in the same order, that
        interning its answer gives."""
        kind, parts = self.kind[cid], self.parts[cid]
        if kind == _NOT:
            return (parts,)
        if kind == _AND:
            return (self.meet(tuple(map(self.negation, parts)), _OR),)
        if kind == _OR:
            return tuple(map(self.negation, parts))
        if kind == _EXISTS or kind == _FORALL:
            return (self.exists(parts[0], self.negation(parts[1]),
                                _FORALL if kind == _EXISTS else _EXISTS),)
        n, role = parts             # atleast n r
        if n == 1:
            return (self.exists(role, _BOTTOM_ID, _FORALL),)
        raise UnsupportedNegation.of_atleast(n, role)


@dataclass
class TableauNode:
    label: dict[int, None]                # insertion-ordered set of concept ids
    edges: dict[str, list[int]]

    def copy(self) -> "TableauNode":
        return TableauNode(
            dict(self.label),
            {role: list(ids) for role, ids in self.edges.items()},
        )


class _Clash(Exception):
    """Internal signal: the current branch is closed."""


@dataclass
class _State:
    """A completion graph under construction.

    Nodes are shared copy-on-write: ``owned`` holds the ids of the nodes
    only this state can see, and every other node is copied before this
    state writes to it.  ``copy`` shares all nodes, so afterwards neither
    state owns any.
    """

    nodes: dict[int, TableauNode]
    pending_or: list[tuple[int, int]] = field(default_factory=list)
    owned: set[int] = field(default_factory=set)
    # the message of the UnsupportedNegation that a negated at-least rule
    # would have raised on this branch; an open, marked branch is unknown
    mark: str | None = None

    def copy(self) -> "_State":
        self.owned = set()
        return _State(dict(self.nodes), list(self.pending_or), mark=self.mark)


_Queue = deque  # of (node id, concept id) pairs awaiting rule application


class _Masks:
    """The nodes of one state in each concept id, as bit masks (node ``i``
    is bit ``1 << i``), each id evaluated once, recursing once per level
    as ``CanonicalModel.mask`` does.  A node is in a concept if its label
    holds it or the structure puts it there: ``Top``; ``And``, every part;
    ``Or``, some part; ``exists r.F``, an ``r``-edge into F; a name, its
    unfolding (for ``N <= D``, ``N* and D``, whose marker only N's
    unfolding adds).  ``not``, ``forall``, ``atleast`` and ``Bottom`` are
    read from labels only unless ``exact``: on a model, each mask is the
    concept's extension; on the precompleted ABox, the nodes every model
    puts in it (Haarslev & Möller 2008, *On the scalability of
    description logic instance retrieval*)."""

    def __init__(self, table: ConceptTable, state: _State, exact: bool):
        self.table, self.exact, self.memo = table, exact, {}
        self.everyone = (1 << len(state.nodes)) - 1
        self.labelled: dict[int, int] = {}
        # role -> (bit, mask of its role-successors) per node with some
        self.edges: dict[str, list[tuple[int, int]]] = {}
        for nid, node in state.nodes.items():
            for c in node.label:
                self.labelled[c] = self.labelled.get(c, 0) | 1 << nid
            for role, succs in node.edges.items():
                self.edges.setdefault(role, []).append(
                    (1 << nid, sum(1 << s for s in succs)))

    def mask(self, cid: int) -> int:
        out = self.memo.get(cid)
        if out is not None:
            return out
        kind, parts = self.table.kind[cid], self.table.parts[cid]
        if kind == _AND or kind == _TOP:
            out = self.everyone
            for p in parts:
                out &= self.mask(p)
        elif kind == _OR or kind == _ATOM:
            out = 0
            for p in parts if kind == _OR else self.table.adds(cid):
                out |= self.mask(p)
        elif kind == _EXISTS or kind == _FORALL and self.exact:
            # forall r.F is not exists r.not F
            inside = self.mask(parts[1])
            inside = inside if kind == _EXISTS else ~inside
            out = sum(bit for bit, succ in self.edges.get(parts[0], ())
                      if succ & inside)
            out = out if kind == _EXISTS else self.everyone & ~out
        elif kind == _BOTTOM or not self.exact:
            out = 0
        elif kind == _NOT:
            out = self.everyone & ~self.mask(parts)
        else:           # atleast n r
            out = sum(bit for bit, succ in self.edges.get(parts[1], ())
                      if succ.bit_count() >= parts[0])
        out = self.memo[cid] = self.labelled.get(cid, 0) | out
        return out


class TableauReasoner:
    """A reasoning session over one immutable knowledge base.

    Sessions own their mutable search state, concept table and
    statistics; run separate sessions for concurrent use.
    """

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb
        self.stats = ReasonerStats()
        self.table = ConceptTable(kb.tbox)

    @classmethod
    def for_tbox(cls, tbox: TBox) -> "TableauReasoner":
        return cls(KnowledgeBase.assemble(tbox, EMPTY_ABOX))

    # -- public operations --------------------------------------------------

    def is_satisfiable(self, c: ConceptExpr) -> bool:
        self.stats.satisfiability_calls += 1
        state = _State(nodes={})
        queue: _Queue = deque()
        nid = self._fresh_node(state)
        try:
            self._add(state, nid, self.table.id(c), queue)
        except _Clash:
            return False
        return self._open(self._run(state, queue))

    def subsumes(self, d: ConceptExpr, c: ConceptExpr) -> bool:
        """True iff ``d`` subsumes ``c`` (every instance of c is one of d):
        ``c and not d``, interned by the table's constructors, is
        unsatisfiable."""
        return not self.is_satisfiable(And((c, Not(d))))

    def equivalent(self, c: ConceptExpr, d: ConceptExpr) -> bool:
        return self.subsumes(c, d) and self.subsumes(d, c)

    def abox_consistent(self) -> bool:
        return self._open(self._witness)

    def instance_check(self, individual: str, c: ConceptExpr) -> bool:
        """Decide whether the KB entails membership of the individual in ``c``."""
        bit = self.kb.abox.bits.get(individual)
        if bit is None:
            raise UnknownIndividual(individual)
        return self.entails(self.table.id(c), bit)

    def retrieve(self, c: ConceptExpr) -> frozenset[str]:
        """All individuals whose membership in ``c`` is entailed."""
        cid = self.table.id(c)
        return frozenset([a for a, bit in self.kb.abox.bits.items()
                          if self.entails(cid, bit)])

    def entails(self, cid: int, bit: int) -> bool:
        """One instance check: whether every branch closes once the negation
        of the concept with id ``cid`` in :attr:`table` joins the label of
        the individual with ``bit`` in ``ABox.bits``."""
        goal = self.table.negation(cid)
        self.stats.instance_checks += 1
        self.stats.satisfiability_calls += 1
        if self._precompleted is None:
            return True                 # an inconsistent KB entails anything
        state, queue = self._precompleted.copy(), deque()
        try:
            self._add(state, bit.bit_length() - 1, goal, queue)
        except _Clash:
            return True
        return not self._open(self._run(state, queue))

    def bounds(self, cid: int) -> tuple[int, int]:
        """Masks over ``ABox.bits``: the individuals the precompleted ABox's
        structure puts in the concept with id ``cid``, which the KB entails
        in it, and those the witness puts in it (all, with no witness),
        outside which the KB entails none."""
        everyone = self.kb.abox.everyone
        if self._precompleted is None:
            return everyone, everyone   # an inconsistent KB entails anything
        lower, upper = self._masks
        return (lower.mask(cid) & everyone,
                everyone if upper is None else upper.mask(cid) & everyone)

    @cached_property
    def _masks(self) -> tuple[_Masks, _Masks | None]:
        """The masks of the precompleted ABox of a consistent KB, and of the
        witness if it is unmarked (else ``None``)."""
        found = self._witness
        return _Masks(self.table, self._precompleted, exact=False), (
            None if found is None or found.mark is not None
            else _Masks(self.table, found, exact=True))

    # -- state construction -------------------------------------------------

    @cached_property
    def _witness(self) -> _State | None:
        """What the search from the precompleted ABox finds, once per
        reasoner as one satisfiability call: the witness, else a marked
        state (consistency unknown), else ``None`` (the KB is inconsistent)."""
        self.stats.satisfiability_calls += 1
        if self._precompleted is None:
            return None
        return self._run(self._precompleted.copy(), deque())

    @cached_property
    def _precompleted(self) -> _State | None:
        """The ABox with its deterministic rules saturated, built once;
        ``None`` when that clashes, as the KB is inconsistent.  Node i is
        the individual with bit ``1 << i`` in ``ABox.bits``, with its edges
        from ``ABox.images``."""
        abox, state, queue = self.kb.abox, _State(nodes={}), deque()
        for bit in abox.bits.values():
            edges = state.nodes[self._fresh_node(state)].edges
            for role, (succ, _) in abox.images.items():
                out = succ.get(bit, 0)
                while out:      # each target, lowest bit (name) first
                    out ^= (t := out & -out)
                    edges.setdefault(role, []).append(t.bit_length() - 1)
        for concept, individual in sorted(abox.concept_assertions):
            self._add(state, abox.bits[individual].bit_length() - 1,
                      self.table.name(concept), queue)
        try:
            self._saturate(state, queue)
        except _Clash:
            return None
        return state

    def _fresh_node(self, state: _State) -> int:
        nid = len(state.nodes)      # nodes are never removed
        state.nodes[nid] = TableauNode({}, {})
        state.owned.add(nid)
        return nid

    def _writable(self, state: _State, nid: int) -> TableauNode:
        """The node ``nid`` of ``state``, copied first if other states share it."""
        if nid in state.owned:
            return state.nodes[nid]
        self.stats.node_copies += 1
        state.owned.add(nid)
        node = state.nodes[nid] = state.nodes[nid].copy()
        return node

    # -- search -------------------------------------------------------------

    def _open(self, found: _State | None) -> bool:
        """Whether ``found``, what :meth:`_run` returned, is open and
        unmarked: False for ``None``, as every branch closed; a marked state
        answers nothing and raises its mark's ``UnsupportedNegation``."""
        if found is not None and found.mark is not None:
            raise UnsupportedNegation(found.mark)
        return found is not None

    def _run(self, state: _State, queue: _Queue) -> _State | None:
        """The first open, complete and unmarked state reached from
        ``state``; else the first open, marked one; else ``None``."""
        try:
            self._saturate(state, queue)
            while True:
                choice = self._select_disjunction(state)
                if choice is None:
                    return state
                nid, viable = choice
                if len(viable) > 1:
                    break
                # unit propagation: a single open alternative is forced
                unit_queue: _Queue = deque()
                self._add(state, nid, viable[0], unit_queue)
                self._saturate(state, unit_queue)
        except _Clash:
            return None
        unknown = None
        for alternative in viable:
            self.stats.branches_explored += 1
            branch = state.copy()
            branch_queue: _Queue = deque()
            try:
                self._add(branch, nid, alternative, branch_queue)
            except _Clash:
                continue
            found = self._run(branch, branch_queue)
            if found is None:
                continue
            # below a marked state every open branch is marked
            if found.mark is None or state.mark is not None:
                return found
            if unknown is None:
                unknown = found
        return unknown

    def _select_disjunction(self, state: _State) -> tuple[int, list[int]] | None:
        """Most-constrained open disjunction, with its viable alternatives.

        Alternatives whose complement is already in the label are pruned;
        a disjunction left with no viable alternative closes the branch.
        Picking the fewest-alternative disjunction first keeps refutations
        of large conjunctions from branching on irrelevant copies.
        """
        parts = self.table.parts
        pending = state.pending_or
        keep: list[tuple[int, int]] = []
        best = None
        best_pos = None
        scanned = 0
        for nid, disj in pending:
            scanned += 1
            label = state.nodes[nid].label
            if not label.keys().isdisjoint(parts[disj]):
                continue
            viable = [a for a in parts[disj] if not self._dead(label, a)]
            if not viable:
                raise _Clash
            keep.append((nid, disj))
            if best is None or len(viable) < len(best[1]):
                best = (nid, viable)
                best_pos = len(keep) - 1
                if len(viable) == 1:
                    break
        if best is None:
            state.pending_or = []
            return None
        keep.pop(best_pos)
        state.pending_or = keep + pending[scanned:]
        return best

    def _dead(self, label: dict[int, None], a: int) -> bool:
        """The clash test: would adding ``a`` to ``label`` close the branch?"""
        return (a == _BOTTOM_ID
                or not label.keys().isdisjoint(self.table.clash_keys(a)))

    def _add(self, state: _State, nid: int, c: int, queue: _Queue) -> None:
        """Insert a concept id into a node label, checking for a clash."""
        label = state.nodes[nid].label
        if c in label:
            return
        if self._dead(label, c):
            raise _Clash
        self._writable(state, nid).label[c] = None
        queue.append((nid, c))

    def _saturate(self, state: _State, queue: _Queue) -> None:
        while queue:
            nid, c = queue.popleft()
            self._apply(state, nid, c, queue)

    def _apply(self, state: _State, nid: int, c: int, queue: _Queue) -> None:
        kind, parts = self.table.kind[c], self.table.parts[c]
        if kind == _AND:
            for a in parts:
                self._add(state, nid, a, queue)
        elif kind == _OR:
            if state.nodes[nid].label.keys().isdisjoint(parts):
                state.pending_or.append((nid, c))
        elif kind == _EXISTS:
            self._successor(state, nid, *parts, queue)
        elif kind == _FORALL:
            role, filler = parts
            for succ in list(state.nodes[nid].edges.get(role, ())):
                self._add(state, succ, filler, queue)
        elif kind == _ATLEAST:
            n, role = parts
            for _ in range(n):
                self._successor(state, nid, role, _TOP_ID, queue)
        elif kind == _ATOM or kind == _NOT:
            try:
                adds = self.table.adds(c)
            except UnsupportedNegation as error:
                # not atleast n r, n >= 2: add nothing and mark the branch
                state.mark = state.mark or str(error)
                return
            for d in adds:
                self._add(state, nid, d, queue)

    def _successor(self, state: _State, nid: int, role: str, filler: int,
                   queue: _Queue) -> None:
        """Give node ``nid`` a fresh ``role``-successor labelled ``filler``."""
        succ = self._fresh_node(state)
        self._writable(state, nid).edges.setdefault(role, []).append(succ)
        self._add(state, succ, filler, queue)
        # value restrictions already present must reach the new successor
        kind, parts = self.table.kind, self.table.parts
        for d in list(state.nodes[nid].label):
            if kind[d] == _FORALL and parts[d][0] == role:
                self._add(state, succ, parts[d][1], queue)


def subsumes(d: ConceptExpr, c: ConceptExpr, tbox: TBox) -> bool:
    """True iff ``d`` subsumes ``c`` w.r.t. the TBox."""
    return TableauReasoner.for_tbox(tbox).subsumes(d, c)
