"""Open-world tableau reasoning over acyclic TBoxes.

Implements satisfiability, subsumption, equivalence, ABox consistency,
instance checking and entailment-based retrieval for the supported
constructor set (ALC plus unqualified at-least).

Strategy: deterministic rules (conjunction, successor creation, value
propagation, at-least expansion, lazy definition unfolding) run to
saturation before disjunctions are branched depth-first with
chronological backtracking.  Defined names stay in node labels as
literals and are unfolded on demand, and negation is pushed inward one
constructor at a time, so a branch that closes on a name-level clash
never touches the negated body at all.  In particular, the unsupported
negation of an at-least restriction is only an error on branches that
actually have to process it.  No blocking is required: acyclic
definitions bound the expansion depth.

Each reasoner interns every concept it meets once, in its
:class:`ConceptTable`, as a dense integer id; labels, the rule queue and
the open disjunctions hold ids.  The table keeps each id's kind and its
parts as ids, and fills in on first use its clash keys (the ids of its
negation and, for a negation, of its argument) and what its ``Atom`` or
``Not`` rule adds, taken from ``TBox.unfolding`` and
``model._negate_once``.  The clash test so builds and hashes no
concept, and interning walks a concept with its own stack, so no step
of the search recurses on concept depth.

Named nodes (ABox individuals) are pairwise distinct and never merged
(unique names assumption).  An at-least restriction simply creates the
required number of fresh successors; with no at-most constructor there
is nothing to merge.

Branches share nodes copy-on-write: a branch starts with its parent's
nodes and copies one the first time it writes to it (a label insert or
a new edge); the nodes it creates are its own.  A branch so costs the
nodes it touches, not the whole graph, and the search is unchanged.

ABox checks start from the precompleted ABox: its deterministic rules
saturated once per reasoner.  An instance check whose negated goal
already clashes with the individual's precompleted label returns without
copying anything.  If the ABox's own saturation clashes or raises, every
check rebuilds the ABox from scratch instead, exactly as without
precompletion.  A check that raises from the precompleted ABox is redone
from scratch too: rules fire in another order there, and a negated
at-least raises only on the branches that reach it.

``_run`` returns the open, complete state it finds, or ``None``.  From
the precompleted ABox that state is a model of the KB, which
:attr:`TableauReasoner.witness` exports as a ``CanonicalModel``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .canonical import CanonicalModel
from .errors import AlcsimError, UnknownIndividual
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
    _negate_once,
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

    ``kind[i]``, ``parts[i]`` and ``expr[i]`` describe id ``i``.  Its
    parts are the arg ids of ``And``/``Or``, ``(role, filler id)`` of
    ``Exists``/``Forall``, the arg id of ``Not``, ``(n, role)`` of
    ``AtLeast``, the name of an ``Atom``, and ``()`` for ``Top`` and
    ``Bottom``.  Equal concepts get one id, so ids compare as concepts do.
    """

    def __init__(self, tbox: TBox):
        self.tbox = tbox
        self.kind: list[int] = []
        self.parts: list = []
        self.expr: list[ConceptExpr] = []
        self._clash: list[tuple[int, ...] | None] = []
        self._adds: list[tuple[int, ...] | None] = []
        self._ids: dict[tuple, int] = {}
        self.id(TOP)
        self.id(BOTTOM)

    def id(self, c: ConceptExpr) -> int:
        """The id of ``c``, interning it and its subconcepts if new."""
        done: list[int] = []                 # ids of finished subconcepts
        stack = [(c, False)]
        while stack:
            c, ready = stack.pop()
            kind = _KIND[type(c)]
            if kind == _AND or kind == _OR:
                if not ready:
                    stack.append((c, True))
                    stack.extend((a, False) for a in reversed(c.args))
                    continue
                parts = tuple(done[-len(c.args):])
                del done[-len(c.args):]
            elif kind == _NOT or kind == _EXISTS or kind == _FORALL:
                if not ready:
                    stack.append((c, True))
                    stack.append((c.arg if kind == _NOT else c.filler, False))
                    continue
                parts = done.pop() if kind == _NOT else (c.role, done.pop())
            elif kind == _ATOM:
                parts = c.name
            elif kind == _ATLEAST:
                parts = (c.n, c.role)
            else:
                parts = ()
            done.append(self._intern(kind, parts, c))
        return done[0]

    def _intern(self, kind: int, parts, c: ConceptExpr) -> int:
        key = (kind, parts)
        cid = self._ids.get(key)
        if cid is None:
            cid = self._ids[key] = len(self.expr)
            self.kind.append(kind)
            self.parts.append(parts)
            self.expr.append(c)
            self._clash.append(None)
            self._adds.append(None)
        return cid

    def negation(self, cid: int) -> int:
        """The id of ``not c`` for the concept ``c`` with id ``cid``."""
        return self._intern(_NOT, cid, Not(self.expr[cid]))

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
        constructor in.  A negation that cannot be pushed raises on every
        call, so only the branches that reach it fail.
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
                adds = tuple(self.id(d) for d in _negate_once(self.expr[parts]))
            self._adds[cid] = adds
        return adds


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

    def copy(self) -> "_State":
        self.owned = set()
        return _State(dict(self.nodes), list(self.pending_or))


_Queue = deque  # of (node id, concept id) pairs awaiting rule application


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
        return self._run(state, queue) is not None

    def subsumes(self, d: ConceptExpr, c: ConceptExpr) -> bool:
        """True iff ``d`` subsumes ``c`` (every instance of c is one of d)."""
        return not self.is_satisfiable(And((c, Not(d))))

    def equivalent(self, c: ConceptExpr, d: ConceptExpr) -> bool:
        return self.subsumes(c, d) and self.subsumes(d, c)

    def abox_consistent(self) -> bool:
        self.stats.satisfiability_calls += 1
        if self._precompleted is None:
            state, _, queue = self._abox_state()
            return self._run(state, queue) is not None
        return self._run(self._precompleted[0].copy(), deque()) is not None

    def instance_check(self, individual: str, c: ConceptExpr) -> bool:
        """Decide whether the KB entails membership of the individual in ``c``."""
        if individual not in self.kb.abox.individuals:
            raise UnknownIndividual(individual)
        self.stats.instance_checks += 1
        self.stats.satisfiability_calls += 1
        goal = self.table.id(Not(c))
        if self._precompleted is not None:
            completed, node_of = self._precompleted
            nid = node_of[individual]
            if self._dead(completed.nodes[nid].label, goal):
                return True
            try:
                return self._refuted(completed.copy(), deque(), nid, goal)
            except AlcsimError:
                pass    # the rebuilt ABox decides (see the module docstring)
        state, node_of, queue = self._abox_state()
        return self._refuted(state, queue, node_of[individual], goal)

    def retrieve(self, c: ConceptExpr) -> frozenset[str]:
        """All individuals whose membership in ``c`` is entailed."""
        return frozenset(
            a for a in sorted(self.kb.abox.individuals)
            if self.instance_check(a, c)
        )

    def _refuted(self, state: _State, queue: _Queue, nid: int, goal: int) -> bool:
        """True iff adding the concept id ``goal`` (``not c`` for a check
        of ``c``) to node ``nid`` leaves no open branch."""
        try:
            self._add(state, nid, goal, queue)
        except _Clash:
            return True
        return self._run(state, queue) is None

    @cached_property
    def witness(self) -> CanonicalModel | None:
        """A model of the KB: the open completion of the precompleted ABox.

        Its domain is the node ids, named nodes as their individuals and
        anonymous ones as ``#<id>``, which no name spells; names come from
        the labels' atoms, roles from the edges.  ``eval_concept``'s "told
        or body" rule is exact on it, as a label holding a fully defined
        name holds its body too.  ``None`` if there is no precompleted
        ABox, or the search raises or closes.
        """
        if self._precompleted is None:
            return None
        completed, node_of = self._precompleted
        self.stats.satisfiability_calls += 1
        try:
            state = self._run(completed.copy(), deque())
        except AlcsimError:
            return None
        if state is None:
            return None
        element = {nid: f"#{nid}" for nid in state.nodes}
        element.update((nid, a) for a, nid in node_of.items())
        names: dict[str, set[str]] = {}
        role_succ: dict[str, dict[str, frozenset[str]]] = {}
        for nid, node in state.nodes.items():
            for c in node.label:
                if self.table.kind[c] == _ATOM:
                    names.setdefault(self.table.parts[c], set()).add(element[nid])
            for role, succs in node.edges.items():
                role_succ.setdefault(role, {})[element[nid]] = frozenset(
                    element[s] for s in succs)
        return CanonicalModel(
            frozenset(element.values()),
            {name: frozenset(xs) for name, xs in names.items()}, role_succ)

    # -- state construction -------------------------------------------------

    @cached_property
    def _precompleted(self) -> tuple[_State, dict[str, int]] | None:
        """The ABox with its deterministic rules saturated, built once.

        Every ABox check starts from a copy of this state.  ``None`` when
        the saturation clashes or raises: checks then rebuild the ABox
        from scratch, so they fail exactly where they would without it.
        """
        state, node_of, queue = self._abox_state()
        try:
            self._saturate(state, queue)
        except (_Clash, AlcsimError):
            return None
        return state, node_of

    def _abox_state(self) -> tuple[_State, dict[str, int], _Queue]:
        state = _State(nodes={})
        queue: _Queue = deque()
        node_of: dict[str, int] = {}
        for name in sorted(self.kb.abox.individuals):
            node_of[name] = self._fresh_node(state)
        for source, out in self.kb.abox.successors.items():
            state.nodes[node_of[source]].edges.update(
                (role, [node_of[t] for t in targets])
                for role, targets in out.items())
        for concept, individual in sorted(self.kb.abox.concept_assertions):
            self._add(state, node_of[individual], self.table.id(Atom(concept)),
                      queue)
        return state, node_of, queue

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

    def _run(self, state: _State, queue: _Queue) -> _State | None:
        """The first open, complete state reached from ``state``, or ``None``."""
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
        for alternative in viable:
            self.stats.branches_explored += 1
            branch = state.copy()
            branch_queue: _Queue = deque()
            try:
                self._add(branch, nid, alternative, branch_queue)
            except _Clash:
                continue
            if (found := self._run(branch, branch_queue)) is not None:
                return found
        return None

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
            # Negation goes inward one constructor per rule application, so
            # a negated at-least raises only on a branch that reaches it.
            for d in self.table.adds(c):
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


# ---------------------------------------------------------------------------
# One-shot conveniences
# ---------------------------------------------------------------------------

def is_satisfiable(c: ConceptExpr, tbox: TBox) -> bool:
    return TableauReasoner.for_tbox(tbox).is_satisfiable(c)


def subsumes(d: ConceptExpr, c: ConceptExpr, tbox: TBox) -> bool:
    """True iff ``d`` subsumes ``c`` w.r.t. the TBox."""
    return TableauReasoner.for_tbox(tbox).subsumes(d, c)


def equivalent(c: ConceptExpr, d: ConceptExpr, tbox: TBox) -> bool:
    return TableauReasoner.for_tbox(tbox).equivalent(c, d)


def abox_consistent(kb: KnowledgeBase) -> bool:
    return TableauReasoner(kb).abox_consistent()


def instance_check(kb: KnowledgeBase, individual: str, c: ConceptExpr) -> bool:
    return TableauReasoner(kb).instance_check(individual, c)


def retrieve_entail(kb: KnowledgeBase, c: ConceptExpr) -> frozenset[str]:
    return TableauReasoner(kb).retrieve(c)
