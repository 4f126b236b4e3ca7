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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .errors import AlcsimError, UnknownIndividual
from .model import (
    And,
    AtLeast,
    Atom,
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


@dataclass
class TableauNode:
    id: int
    label: dict[ConceptExpr, None]        # insertion-ordered set
    edges: dict[str, list[int]]
    is_named: bool = False

    def copy(self) -> "TableauNode":
        return TableauNode(
            self.id,
            dict(self.label),
            {role: list(ids) for role, ids in self.edges.items()},
            self.is_named,
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
    next_id: int
    pending_or: list[tuple[int, Or]] = field(default_factory=list)
    owned: set[int] = field(default_factory=set)

    def copy(self) -> "_State":
        self.owned = set()
        return _State(dict(self.nodes), self.next_id, list(self.pending_or))


_Queue = deque  # of (node id, concept) pairs awaiting rule application


class TableauReasoner:
    """A reasoning session over one immutable knowledge base.

    Sessions own their mutable search state and statistics; run separate
    sessions for concurrent use.
    """

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb
        self.stats = ReasonerStats()

    @classmethod
    def for_tbox(cls, tbox: TBox) -> "TableauReasoner":
        return cls(KnowledgeBase.assemble(tbox, EMPTY_ABOX))

    # -- public operations --------------------------------------------------

    def is_satisfiable(self, c: ConceptExpr) -> bool:
        self.stats.satisfiability_calls += 1
        state = _State(nodes={}, next_id=0)
        queue: _Queue = deque()
        nid = self._fresh_node(state)
        try:
            self._add(state, nid, c, queue)
        except _Clash:
            return False
        return self._run(state, queue)

    def subsumes(self, d: ConceptExpr, c: ConceptExpr) -> bool:
        """True iff ``d`` subsumes ``c`` (every instance of c is one of d)."""
        return not self.is_satisfiable(And((c, Not(d))))

    def equivalent(self, c: ConceptExpr, d: ConceptExpr) -> bool:
        return self.subsumes(c, d) and self.subsumes(d, c)

    def abox_consistent(self) -> bool:
        self.stats.satisfiability_calls += 1
        if self._precompleted is None:
            state, _, queue = self._abox_state()
            return self._run(state, queue)
        return self._run(self._precompleted[0].copy(), deque())

    def instance_check(self, individual: str, c: ConceptExpr) -> bool:
        """Decide whether the KB entails membership of the individual in ``c``."""
        if individual not in self.kb.abox.individuals:
            raise UnknownIndividual(individual)
        self.stats.instance_checks += 1
        self.stats.satisfiability_calls += 1
        if self._precompleted is not None:
            completed, node_of = self._precompleted
            nid = node_of[individual]
            if self._dead(completed.nodes[nid].label, Not(c)):
                return True
            try:
                return self._refuted(completed.copy(), deque(), nid, c)
            except AlcsimError:
                pass    # the rebuilt ABox decides (see the module docstring)
        state, node_of, queue = self._abox_state()
        return self._refuted(state, queue, node_of[individual], c)

    def retrieve(self, c: ConceptExpr) -> frozenset[str]:
        """All individuals whose membership in ``c`` is entailed."""
        return frozenset(
            a for a in sorted(self.kb.abox.individuals)
            if self.instance_check(a, c)
        )

    def _refuted(self, state: _State, queue: _Queue, nid: int,
                 c: ConceptExpr) -> bool:
        """True iff adding ``not c`` to node ``nid`` leaves no open branch."""
        try:
            self._add(state, nid, Not(c), queue)
        except _Clash:
            return True
        return not self._run(state, queue)

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
        state = _State(nodes={}, next_id=0)
        queue: _Queue = deque()
        node_of: dict[str, int] = {}
        for name in sorted(self.kb.abox.individuals):
            nid = self._fresh_node(state)
            state.nodes[nid].is_named = True
            node_of[name] = nid
        for role, source, target in sorted(self.kb.abox.role_assertions):
            edges = state.nodes[node_of[source]].edges
            edges.setdefault(role, []).append(node_of[target])
        for concept, individual in sorted(self.kb.abox.concept_assertions):
            self._add(state, node_of[individual], Atom(concept), queue)
        return state, node_of, queue

    def _fresh_node(self, state: _State) -> int:
        nid = state.next_id
        state.next_id += 1
        state.nodes[nid] = TableauNode(nid, {}, {})
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

    def _run(self, state: _State, queue: _Queue) -> bool:
        try:
            self._saturate(state, queue)
            while True:
                choice = self._select_disjunction(state)
                if choice is None:
                    return True
                nid, viable = choice
                if len(viable) > 1:
                    break
                # unit propagation: a single open alternative is forced
                unit_queue: _Queue = deque()
                self._add(state, nid, viable[0], unit_queue)
                self._saturate(state, unit_queue)
        except _Clash:
            return False
        for alternative in viable:
            self.stats.branches_explored += 1
            branch = state.copy()
            branch_queue: _Queue = deque()
            try:
                self._add(branch, nid, alternative, branch_queue)
            except _Clash:
                continue
            if self._run(branch, branch_queue):
                return True
        return False

    def _select_disjunction(self, state: _State) -> tuple[int, list[ConceptExpr]] | None:
        """Most-constrained open disjunction, with its viable alternatives.

        Alternatives whose complement is already in the label are pruned;
        a disjunction left with no viable alternative closes the branch.
        Picking the fewest-alternative disjunction first keeps refutations
        of large conjunctions from branching on irrelevant copies.
        """
        pending = state.pending_or
        keep: list[tuple[int, Or]] = []
        best = None
        best_pos = None
        scanned = 0
        for nid, disj in pending:
            scanned += 1
            label = state.nodes[nid].label
            if any(a in label for a in disj.args):
                continue
            viable = [a for a in disj.args if not self._dead(label, a)]
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

    @staticmethod
    def _dead(label: dict, a: ConceptExpr) -> bool:
        """The clash test: would adding ``a`` to ``label`` close the branch?"""
        if isinstance(a, Bottom):
            return True
        if isinstance(a, Not) and a.arg in label:
            return True
        return Not(a) in label

    def _add(self, state: _State, nid: int, c: ConceptExpr, queue: _Queue) -> None:
        """Insert a concept into a node label, checking for a clash."""
        node = state.nodes[nid]
        if c in node.label:
            return
        if self._dead(node.label, c):
            raise _Clash
        self._writable(state, nid).label[c] = None
        queue.append((nid, c))

    def _saturate(self, state: _State, queue: _Queue) -> None:
        while queue:
            nid, c = queue.popleft()
            self._apply(state, nid, c, queue)

    def _apply(self, state: _State, nid: int, c: ConceptExpr, queue: _Queue) -> None:
        node = state.nodes[nid]
        if isinstance(c, And):
            for a in c.args:
                self._add(state, nid, a, queue)
        elif isinstance(c, Or):
            if not any(a in node.label for a in c.args):
                state.pending_or.append((nid, c))
        elif isinstance(c, Exists):
            succ = self._fresh_node(state)
            self._writable(state, nid).edges.setdefault(c.role, []).append(succ)
            self._add(state, succ, c.filler, queue)
            self._propagate_into(state, nid, c.role, succ, queue)
        elif isinstance(c, Forall):
            for succ in list(node.edges.get(c.role, ())):
                self._add(state, succ, c.filler, queue)
        elif isinstance(c, AtLeast):
            for _ in range(c.n):
                succ = self._fresh_node(state)
                self._writable(state, nid).edges.setdefault(c.role, []).append(succ)
                self._add(state, succ, TOP, queue)
                self._propagate_into(state, nid, c.role, succ, queue)
        elif isinstance(c, Atom):
            body = self.kb.tbox.unfolding(c.name)
            if body is not None:
                self._add(state, nid, body, queue)
        elif isinstance(c, Not):
            # Negation goes inward one constructor per rule application, so
            # a negated at-least raises only on a branch that reaches it.
            if isinstance(c.arg, Atom):
                body = self.kb.tbox.unfolding(c.arg.name)
                if body is not None:
                    self._add(state, nid, Not(body), queue)
            else:
                for d in _negate_once(c.arg):
                    self._add(state, nid, d, queue)

    def _propagate_into(self, state: _State, nid: int, role: str,
                        succ: int, queue: _Queue) -> None:
        # value restrictions already present must reach the new successor
        for d in list(state.nodes[nid].label):
            if isinstance(d, Forall) and d.role == role:
                self._add(state, succ, d.filler, queue)


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
