import copy
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcsim.canonical import build_canonical
from alcsim.errors import (
    DefinitionTooDeep,
    UnknownIndividual,
    UnsupportedNegation,
)
from alcsim.gen import KbShape, random_concept, random_kb, with_atleast
from alcsim.model import (
    MAX_UNFOLDED_DEPTH,
    ABox,
    And,
    AtLeast,
    Atom,
    Bottom,
    Definition,
    DefKind,
    Exists,
    Forall,
    KnowledgeBase,
    Not,
    Or,
    TBox,
    Top,
)
from alcsim.msc import _rollup, msc_approx
from alcsim.parser import parse_concept, parse_kb
from alcsim.retrieval import Backend, ExtensionEngine
from alcsim.tableau import ConceptTable, TableauReasoner, subsumes
from oracles import (
    eval_concept,
    msc_extension,
    negate_once,
    nnf,
    retrieve_canonical,
)

A, B = Atom("A"), Atom("B")
EMPTY = TBox({})


class CountingDict(dict):
    """A dict that counts its ``get`` calls."""

    gets = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)


class TestSatisfiability:
    def test_direct_clash(self):
        assert not TableauReasoner.for_tbox(EMPTY).is_satisfiable(And((A, Not(A))))

    def test_propagation_clash(self):
        c = And((Exists("R", A), Forall("R", Not(A))))
        assert not TableauReasoner.for_tbox(EMPTY).is_satisfiable(c)

    def test_father_is_satisfiable(self, fathers_kb):
        # witnessed by a two-element model: {x: Male, Person; y: Person}
        assert TableauReasoner.for_tbox(fathers_kb.tbox).is_satisfiable(Atom("Father"))

    def test_bottom_unsatisfiable(self):
        assert not TableauReasoner.for_tbox(EMPTY).is_satisfiable(Bottom())
        assert TableauReasoner.for_tbox(EMPTY).is_satisfiable(Top())

    def test_disjunction_explores_both_branches(self):
        assert TableauReasoner.for_tbox(EMPTY).is_satisfiable(And((Or((A, B)), Not(A))))
        assert not TableauReasoner.for_tbox(EMPTY).is_satisfiable(And((Or((A, A)), Not(A))))

    def test_atleast_creates_distinct_successors(self):
        assert TableauReasoner.for_tbox(EMPTY).is_satisfiable(AtLeast(3, "R"))
        for c in (And((AtLeast(2, "R"), Forall("R", Bottom()))),
                  And((AtLeast(1, "R"), Not(AtLeast(1, "R"))))):
            assert not TableauReasoner.for_tbox(EMPTY).is_satisfiable(c)

    def test_unsupported_negation_propagates(self):
        with pytest.raises(UnsupportedNegation):
            TableauReasoner.for_tbox(EMPTY).is_satisfiable(Not(AtLeast(2, "R")))

    def test_unsupported_negation_message_matches_nnf(self):
        c = Not(AtLeast(2, "R"))
        with pytest.raises(UnsupportedNegation) as lazy:
            TableauReasoner.for_tbox(EMPTY).is_satisfiable(c)
        with pytest.raises(UnsupportedNegation) as eager:
            nnf(c)
        assert str(lazy.value) == str(eager.value)

    def test_refutation_duality(self):
        for seed in range(40):
            import random
            rng = random.Random(seed)
            c = random_concept(rng, ("A", "B", "C"), ("R", "S"), 2)
            assert TableauReasoner.for_tbox(EMPTY).is_satisfiable(c) == (
                not subsumes(Bottom(), c, EMPTY))


class TestSubsumption:
    def test_father_below_parent(self, fathers_kb):
        assert subsumes(Atom("Parent"), Atom("Father"), fathers_kb.tbox)

    def test_father_without_sons_below_father(self, fathers_kb):
        assert subsumes(Atom("Father"), Atom("FatherWithoutSons"), fathers_kb.tbox)

    def test_parent_not_below_father(self, fathers_kb):
        # countermodel: a female parent
        assert not subsumes(Atom("Father"), Atom("Parent"), fathers_kb.tbox)

    def test_top_subsumes_everything(self, fathers_kb):
        for name in ("Father", "Parent", "Male", "Person"):
            assert subsumes(Top(), Atom(name), fathers_kb.tbox)

    def test_bottom_subsumed_by_everything(self):
        assert subsumes(A, Bottom(), EMPTY)

    def test_partial_definition_direction(self, fathers_kb):
        t = fathers_kb.tbox
        assert subsumes(Atom("Person"), Atom("Male"), t)
        assert not subsumes(Atom("Male"), Atom("Person"), t)


class TestEquivalence:
    def test_value_restriction_merge_rule(self):
        lhs = And((Forall("R", Atom("C1")), Forall("R", Atom("C2"))))
        rhs = Forall("R", And((Atom("C1"), Atom("C2"))))
        assert TableauReasoner.for_tbox(EMPTY).equivalent(lhs, rhs)

    def test_reflexive(self):
        assert TableauReasoner.for_tbox(EMPTY).equivalent(A, A)

    def test_distinct_primitives_differ(self):
        assert not TableauReasoner.for_tbox(EMPTY).equivalent(A, B)


class TestAboxReasoning:
    def test_direct_clash_inconsistent(self):
        from alcsim.parser import parse_kb
        kb = parse_kb("D := not C\nC(a)\nD(a)\n")
        assert not TableauReasoner(kb).abox_consistent()

    def test_empty_abox_consistent(self):
        from alcsim.model import EMPTY_ABOX, KnowledgeBase
        kb = KnowledgeBase.assemble(EMPTY, EMPTY_ABOX)
        assert TableauReasoner(kb).abox_consistent()

    def test_family_consistent(self, family_kb):
        assert TableauReasoner(family_kb).abox_consistent()

    def test_instance_check_leonardo_is_father(self, fathers_kb):
        # needs Male <= Person to close
        assert TableauReasoner(fathers_kb).instance_check("Leonardo", Atom("Father"))

    def test_instance_check_negative(self, fathers_kb):
        assert not TableauReasoner(fathers_kb).instance_check("Vito", Atom("Father"))

    def test_top_and_bottom_instances(self, fathers_kb):
        assert TableauReasoner(fathers_kb).instance_check("Vito", Top())
        assert not TableauReasoner(fathers_kb).instance_check("Vito", Bottom())

    def test_unknown_individual(self, fathers_kb):
        with pytest.raises(UnknownIndividual):
            TableauReasoner(fathers_kb).instance_check("Nobody", Top())

    def test_retrieval(self, family_kb):
        fathers = TableauReasoner(family_kb).retrieve(Atom("Father"))
        assert fathers == {"Leonardo", "Antonio", "AntonioB"}
        assert TableauReasoner(family_kb).retrieve(Bottom()) == frozenset()
        assert TableauReasoner(family_kb).retrieve(Top()) == family_kb.individuals

    def test_retrieval_monotone_under_conjunction(self, family_kb):
        narrow = TableauReasoner(family_kb).retrieve(
            And((Atom("Father"), Atom("Grandparent"))))
        assert narrow <= TableauReasoner(family_kb).retrieve(Atom("Father"))

    def test_atleast_membership_needs_canonical_backend(self, family_kb):
        # refuting an at-least goal would need its negation, which is a
        # hard error; counting memberships are a closed-world question
        with pytest.raises(UnsupportedNegation):
            TableauReasoner(family_kb).instance_check("Giovanna", AtLeast(2, "HasChild"))
        counted = retrieve_canonical(family_kb, AtLeast(2, "HasChild"))
        assert "Giovanna" in counted
        assert "Maria" not in counted

    def test_check_that_meets_a_negated_at_least_is_answered(self):
        # the search branches on C's disjunction first; its first branch
        # takes the negated at-least and is marked, and the goal's negation,
        # a disjunction of two refutable tautologies, closes both branches
        kb = parse_kb("C := not atleast 2 r or B\nA := C\nA(x)\n")
        reasoner = TableauReasoner(kb)
        tautology = Or((Atom("D"), Not(Atom("D"))))
        assert reasoner.instance_check("x", And((tautology, tautology)))
        assert reasoner.stats.branches_explored == 2 + 2 * 2

    def test_negating_defined_name_with_atleast_body_raises(self, family_kb):
        # Sibling unfolds to a body containing 'atleast 2 HasChild'; the
        # refutation needs its negation, which is unsupported by design
        with pytest.raises(UnsupportedNegation):
            TableauReasoner(family_kb).instance_check("Claudia", Atom("Sibling"))

    def test_consistency_and_bounds_share_one_search(self, family_kb):
        reasoner = TableauReasoner(family_kb)
        assert reasoner.abox_consistent()
        reasoner.bounds(reasoner.table.id(Atom("Female")))
        assert reasoner.stats.satisfiability_calls == 1
        fresh = TableauReasoner(family_kb)
        fresh.bounds(fresh.table.id(Atom("Female")))
        assert fresh.stats == reasoner.stats
        assert fresh.abox_consistent() and fresh.stats == reasoner.stats

    def test_clashing_precompletion_counts_one_call(self):
        reasoner = TableauReasoner(parse_kb("D := not C\nC(a)\nD(a)\n"))
        assert not reasoner.abox_consistent()
        assert reasoner._precompleted is None
        assert reasoner.stats.satisfiability_calls == 1

    def test_marked_search_raises_and_gives_no_witness(self):
        reasoner = TableauReasoner(parse_kb("A := not atleast 2 r\nA(a)\n"))
        with pytest.raises(UnsupportedNegation):
            reasoner.abox_consistent()
        assert reasoner._masks[1] is None
        assert reasoner.stats.satisfiability_calls == 1


class TestPrecompleted:
    @pytest.mark.parametrize("seed", range(20))
    def test_individual_edges_are_the_role_assertions(self, seed):
        # node i is the individual with bit 1 << i; its edges to individuals
        # are its role assertions, targets in name order and before any
        # anonymous successor; images that other reads filled first (of
        # masks, and empty ones) change nothing
        kb = random_kb(seed)
        abox = kb.abox
        for succ, pred in abox.images.values():
            for bit in (*abox.bits.values(), abox.everyone):
                succ[bit], pred[bit]
        completed = TableauReasoner(kb)._precompleted
        if completed is None:
            return
        names, flat = list(abox.bits), []
        for nid, a in enumerate(names):
            for role, targets in completed.nodes[nid].edges.items():
                named = [t for t in targets if t < len(names)]
                assert targets and named == sorted(named) == targets[:len(named)]
                flat += [(role, a, names[t]) for t in named]
        assert len(flat) == len(abox.role_assertions)
        assert set(flat) == abox.role_assertions


def reversed_args(c):
    """``c`` with the arguments of every ``And`` and ``Or`` reversed."""
    if isinstance(c, (And, Or)):
        return type(c)(tuple(reversed_args(a) for a in reversed(c.args)))
    if isinstance(c, Not):
        return Not(reversed_args(c.arg))
    if isinstance(c, (Exists, Forall)):
        return type(c)(c.role, reversed_args(c.filler))
    return c


def answer(compute):
    """A computation's value, or UnsupportedNegation if it raised that."""
    try:
        return compute()
    except UnsupportedNegation:
        return UnsupportedNegation


class TestOrderIndependence:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000))
    def test_reversed_and_or_arguments(self, seed):
        # reversing the arguments reorders rules and branches; whether a
        # check meets a negated at-least on an open branch does not change
        kb, concepts = with_atleast(seed)
        mirror = KnowledgeBase.assemble(TBox({
            name: Definition(defn.kind, reversed_args(defn.body))
            for name, defn in kb.tbox.definitions.items()}), kb.abox)
        reasoner, mirrored = TableauReasoner(kb), TableauReasoner(mirror)
        for c in concepts:
            r = reversed_args(c)
            assert (answer(lambda: reasoner.is_satisfiable(c))
                    == answer(lambda: mirrored.is_satisfiable(r))), str(c)
            assert (answer(lambda: reasoner.retrieve(c))
                    == answer(lambda: mirrored.retrieve(r))), str(c)
            for a in sorted(kb.individuals):
                assert (answer(lambda: reasoner.instance_check(a, c))
                        == answer(lambda: mirrored.instance_check(a, r))), (
                    a, str(c))


class TestDeterminismAndStats:
    def test_equal_runs_equal_stats(self, family_kb):
        first, second = TableauReasoner(family_kb), TableauReasoner(family_kb)
        assert first.retrieve(Atom("Grandparent")) == second.retrieve(Atom("Grandparent"))
        assert first.stats == second.stats
        assert first.stats.instance_checks == len(family_kb.individuals)

    def test_counters_monotone(self, fathers_kb):
        reasoner = TableauReasoner(fathers_kb)
        snapshots = []
        for name in ("Father", "Parent", "Male"):
            reasoner.retrieve(Atom(name))
            snapshots.append((reasoner.stats.instance_checks,
                              reasoner.stats.satisfiability_calls,
                              reasoner.stats.branches_explored))
        assert snapshots == sorted(snapshots)

    @pytest.mark.parametrize("irrelevant, branches", [(4, 62), (8, 1022)])
    def test_thrashing_case_search(self, irrelevant, branches):
        # binary disjunctions that play no part in the clash, then
        # exists r.((X and Z) or (Y and Z)) and forall r.not Z; these counts
        # pin today's chronological backtracking, which retries every
        # combination of the irrelevant choices
        X, Y, Z = Atom("X"), Atom("Y"), Atom("Z")
        noise = [Or((Atom(f"A{i}"), Atom(f"B{i}"))) for i in range(irrelevant)]
        core = [Exists("r", Or((And((X, Z)), And((Y, Z))))),
                Forall("r", Not(Z))]
        reasoner = TableauReasoner.for_tbox(EMPTY)
        assert not reasoner.is_satisfiable(And(tuple(noise + core)))
        assert reasoner.stats.satisfiability_calls == 1
        assert reasoner.stats.branches_explored == branches

    @staticmethod
    def entail_matrix_pass():
        """ROADMAP W3: the extension of the entail MSC at depth 1 of every
        individual of random_kb seeds 0-5, through one engine per KB as
        sim_matrix takes it; the summed instance checks, satisfiability
        calls, branches and node copies."""
        shape = KbShape(individuals=6, role_assertions=8, concept_assertions=8)
        totals = [0, 0, 0, 0]
        for seed in range(6):
            kb = random_kb(seed, shape)
            engine = ExtensionEngine(kb, Backend.ENTAIL)
            for individual in sorted(kb.individuals):
                msc_extension(kb, individual, 1, engine)
            stats = engine._reasoner.stats
            for i, count in enumerate((stats.instance_checks,
                                       stats.satisfiability_calls,
                                       stats.branches_explored,
                                       stats.node_copies)):
                totals[i] += count
        return totals

    def test_entail_matrix_search(self):
        # the witness rules out the "no" checks and the precompleted
        # ABox's structure decides most "yes" ones; the witness's own
        # search is one satisfiability call per KB; interning simplifies
        # seed 3's Q := (P or exists r.Top) and ... with P := Top to Top
        assert self.entail_matrix_pass() == [10, 16, 2, 13]

    def test_entail_matrix_interns_each_goal_once(self, monkeypatch):
        # the walks left are each name mask's Atom (36) and each
        # definition body a rule unfolds (23): a table interns its Top and
        # Bottom, a check its goal, the roll-up its names, fillers and gap
        # concepts, and a rule a pushed negation, all on ids.  146 walks
        # when the roll-up built each gap concept, a push walked
        # negate_once's answer and each table walked Top and Bottom, 188
        # when each check also interned its own goal
        walks = []
        original = ConceptTable.id

        def counted(table, c):
            walks.append(c)
            return original(table, c)

        monkeypatch.setattr(ConceptTable, "id", counted)
        assert self.entail_matrix_pass() == [10, 16, 2, 13]
        assert len(walks) == 59

    def test_bodies_evaluated_once_per_reasoner(self):
        # the bounds of every concept meet D; its body, the one role lookup
        # here, is evaluated once on each of the reasoner's two states
        kb = parse_kb("D := exists r.A\nA(b)\nr(a, b)\nB(c)\n")
        engine = ExtensionEngine(kb, Backend.ENTAIL)
        engine._reasoner = reasoner = TableauReasoner(kb)
        states = reasoner._masks
        for masks in states:
            masks.edges = CountingDict(masks.edges)
        for text in ("D or B", "D or A", "not D", "D and B"):
            engine.extension(parse_concept(text))
        assert [masks.edges.gets for masks in states] == [1, 1]
        assert engine.extension(Atom("D")) == {"a"}


def label_and_edges(state):
    return {nid: (list(node.label), {r: list(ids) for r, ids in node.edges.items()})
            for nid, node in state.nodes.items()}


class TestCopyOnWrite:
    def test_branches_copy_only_the_nodes_they_write(self):
        # the W5 case at k = 8 plus 20 successors no branch touches: every
        # state holds 22 nodes, a full copy per branch would copy 22,484,
        # and each branch writes only to the one node it decides on
        X, Y, Z = Atom("X"), Atom("Y"), Atom("Z")
        noise = [Or((Atom(f"A{i}"), Atom(f"B{i}"))) for i in range(8)]
        idle = [Exists("s", Atom(f"E{i}")) for i in range(20)]
        core = [Exists("r", Or((And((X, Z)), And((Y, Z))))),
                Forall("r", Not(Z))]
        reasoner = TableauReasoner.for_tbox(EMPTY)
        assert not reasoner.is_satisfiable(And(tuple(noise + idle + core)))
        assert reasoner.stats.branches_explored == 1022
        assert reasoner.stats.node_copies == 1022

    def test_writes_leave_shared_states_unchanged(self, fathers_kb):
        reasoner = TableauReasoner(fathers_kb)
        concept = reasoner.table.id     # labels hold interned concept ids
        completed = reasoner._precompleted
        precompleted = label_and_edges(completed)
        bits = fathers_kb.abox.bits     # node i is bit 1 << i
        vito, leonardo = (bits[a].bit_length() - 1 for a in ("Vito", "Leonardo"))
        parent = completed.copy()
        queue = deque()
        reasoner._add(parent, vito, concept(Exists("hasChild", Atom("Male"))),
                      queue)
        reasoner._saturate(parent, queue)
        before = label_and_edges(parent)
        branch = parent.copy()
        queue = deque()
        # a label insert on a shared node and a new edge on a shared node
        reasoner._add(branch, leonardo, concept(Atom("Parent")), queue)
        reasoner._add(branch, vito, concept(Exists("hasChild", Atom("Person"))),
                      queue)
        reasoner._saturate(branch, queue)
        assert label_and_edges(branch) != before
        assert label_and_edges(parent) == before
        assert label_and_edges(completed) == precompleted
        # instance checks copy the precompleted state and leave it as it was
        for name in ("Father", "Parent", "FatherWithoutSons"):
            reasoner.retrieve(Atom(name))
        assert label_and_edges(completed) == precompleted


def chain_at_the_limit(levels):
    """``levels`` nested ``B and exists r.(...)`` around ``B``."""
    body = Atom("B")
    for _ in range(levels):
        body = And((Atom("B"), Exists("r", body)))
    return body


def table_inputs(seed, atleast):
    """A ``random_kb`` or ``with_atleast`` KB, and concepts over it: 20
    drawn ones, and the cases that the laws of ``Top`` and ``Bottom``
    simplify."""
    kb, concepts = with_atleast(seed) if atleast else (random_kb(seed), [])
    names = sorted(kb.signature.concept_names)
    roles = sorted(kb.signature.role_names) or ["r"]
    role = roles[0]
    rng = random.Random(seed)
    concepts += [random_concept(rng, names, roles, 2) for _ in range(20)]
    concepts += [Not(Top()), Not(Bottom()), Exists(role, Bottom()),
                 Forall(role, Top()), And((A, Bottom())), Or((Top(), A)),
                 And((Top(), A, Top())), Or((Bottom(), A, B)),
                 Not(AtLeast(1, role)), And((Top(), AtLeast(2, role)))]
    return kb, concepts


def twin(table):
    """A copy of ``table`` that interns apart from it."""
    out = copy.copy(table)
    vars(out).update((key, copy.copy(value))
                     for key, value in vars(table).items()
                     if isinstance(value, (list, dict)))
    return out


def outcome_text(compute):
    """A computation's value, or the message of the UnsupportedNegation it
    raised."""
    try:
        return compute()
    except UnsupportedNegation as error:
        return str(error)


class TestConceptTable:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), atleast=st.booleans())
    def test_interning_is_sound(self, seed, atleast):
        # interning simplifies, so an id's concept is equivalent to the
        # concepts that get the id, not equal to them
        kb, concepts = table_inputs(seed, atleast)
        reasoner = TableauReasoner(kb)
        table = reasoner.table
        model = build_canonical(kb)
        for c in concepts:
            cid = table.id(c)
            simplified = table.concept(cid)
            assert reasoner.equivalent(simplified, c), str(c)
            assert (eval_concept(model, simplified)
                    == eval_concept(model, c)), str(c)
            # an equal concept built apart gets the same id
            assert table.id(parse_concept(str(c))) == cid
        for cid in range(len(table.kind)):   # every subconcept too
            c = table.concept(cid)
            assert table.id(c) == cid
            assert table.id(Not(c)) in table.clash_keys(cid), str(c)
            # made of its parts' own concepts, with no law left to apply
            parts = table.parts[cid]
            if isinstance(c, (And, Or)):
                assert c.args == tuple(table.concept(p) for p in parts)
                assert not {Top(), Bottom()} & set(c.args), str(c)
            elif isinstance(c, Not):
                assert c.arg == table.concept(parts)
                assert c.arg not in (Top(), Bottom()), str(c)
            elif isinstance(c, (Exists, Forall)):
                assert c.filler == table.concept(parts[1])
                trivial = Bottom() if isinstance(c, Exists) else Top()
                assert c.filler != trivial, str(c)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), atleast=st.booleans())
    def test_id_paths_match_the_concept_paths(self, seed, atleast):
        # ids interned by a walk, by the roll-up and by pushing negation;
        # each id's concept, made on read, interns back to it, and a
        # negation pushed on ids makes the ids, in the order, that
        # interning negate_once of the argument's concept makes
        kb, concepts = table_inputs(seed, atleast)
        engine = ExtensionEngine(kb)        # canonical: a table of its own
        table = engine.table
        for c in concepts:
            table.id(c)
        for individual in sorted(kb.individuals):
            for depth in (0, 1, 2):
                msc_approx(kb, individual, depth, engine=engine)
        for cid in range(len(table.kind)):
            c = table.concept(cid)
            assert table.id(c) == cid, str(c)
            negation = table.negation(cid)
            if isinstance(c, Atom) or not isinstance(table.concept(negation),
                                                      Not):
                continue        # a name's rule unfolds; not Top is Bottom
            plain = twin(table)
            expected = outcome_text(lambda: tuple(
                plain.id(d) for d in negate_once(plain.concept(cid))))
            assert outcome_text(lambda: table.adds(negation)) == expected
            assert (table.kind, table.parts) == (plain.kind, plain.parts)
        for cid in range(len(table.kind)):      # the pushed ids too
            assert table.id(table.concept(cid)) == cid

    def test_constructors_apply_the_laws(self):
        # exists and meet, which the roll-up calls, keep the laws too
        table = ConceptTable(EMPTY)
        top, bottom = table.id(Top()), table.id(Bottom())
        a, b = table.name("A"), table.name("B")
        assert table.exists("r", bottom) == bottom
        assert table.meet((top, a)) == a
        assert table.meet((a, top, b)) == table.id(And((A, B)))
        assert table.meet((a, bottom)) == bottom
        assert table.meet((top, top)) == top
        assert table.negation(top) == bottom
        assert len(table.kind) == 5     # Top, Bottom, A, B and A and B

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), atleast=st.booleans())
    def test_every_id_is_in_normal_form(self, seed, atleast):
        # walked concepts, both backends' roll-ups and every pushed
        # negation in one table: no law of Top or Bottom applies to any id,
        # however it was made, and each id's concept interns back to it
        kb, concepts = table_inputs(seed, atleast)
        table = ConceptTable(kb.tbox)
        for c in concepts:
            table.id(c)
        for backend in Backend:
            try:
                names = ExtensionEngine(kb, backend).name_masks
            except UnsupportedNegation:
                continue
            for bit in kb.abox.bits.values():
                for depth in (0, 1, 2):
                    _rollup(table, kb.abox, names, bit, depth, bit)
        cid = 0
        while cid < len(table.kind):    # with the ids that pushes intern
            if isinstance(table.concept(cid), (Atom, Not)):
                outcome_text(lambda: table.adds(cid))
            cid += 1
        for cid in range(len(table.kind)):
            c = table.concept(cid)
            if isinstance(c, (And, Or)):
                assert len(c.args) >= 2, str(c)
                assert not {Top(), Bottom()} & set(c.args), str(c)
            elif isinstance(c, (Exists, Forall)):
                trivial = Bottom() if isinstance(c, Exists) else Top()
                assert c.filler != trivial, str(c)
            assert table.id(c) == cid, str(c)

    def test_rule_additions_come_from_the_model(self):
        # the Atom and Not rules add what TBox.unfolding and negate_once say
        kb = parse_kb("Male <= Person\nP := A and exists r.Male\nQ := A or not B\n"
                      "R := forall r.(Q and Top)\nS := not P\nT := Bottom\n"
                      "U := atleast 1 r\nV := atleast 2 r\nW <= atleast 3 r\n")
        table = TableauReasoner(kb).table
        tbox = kb.tbox
        for name in sorted(kb.signature.concept_names):
            body = tbox.unfolding(name)
            unfolded = () if body is None else (table.id(body),)
            assert table.adds(table.id(Atom(name))) == unfolded
            negated = () if body is None else (table.id(Not(body)),)
            assert table.adds(table.id(Not(Atom(name)))) == negated
            if body is None or not isinstance(
                    table.concept(table.id(Not(body))), Not):
                continue        # T's not Bottom is Top, and has no rule
            try:
                pushed = tuple(table.id(d) for d in negate_once(body))
            except UnsupportedNegation:
                # raised on every call; the tableau marks the branch instead
                for _ in range(2):
                    with pytest.raises(UnsupportedNegation):
                        table.adds(table.id(Not(body)))
                continue
            assert table.adds(table.id(Not(body))) == pushed

    def test_definition_at_the_unfolding_limit(self):
        # D unfolds MAX_UNFOLDED_DEPTH levels deep; equal copies of its
        # body, compared structurally, used to raise RecursionError
        levels = (MAX_UNFOLDED_DEPTH - 2) // 2
        abox = ABox.from_assertions([("D", "a")], [("r", "a", "b")])

        def kb_of(body):
            tbox = TBox({"D": Definition(DefKind.EQUIV, body)})
            return KnowledgeBase.assemble(tbox, abox)

        with pytest.raises(DefinitionTooDeep):
            kb_of(Exists("r", chain_at_the_limit(levels)))
        reasoner = TableauReasoner(kb_of(chain_at_the_limit(levels)))
        D = Atom("D")
        assert reasoner.is_satisfiable(D)
        assert reasoner.is_satisfiable(Not(D))
        assert reasoner.instance_check("a", D)
        assert not reasoner.instance_check("b", D)
        copy = chain_at_the_limit(levels)
        assert reasoner.instance_check("a", copy)
        assert reasoner.subsumes(copy, D) and reasoner.subsumes(D, copy)
        assert not reasoner.is_satisfiable(And((D, Not(copy))))


class TestCanonicalCoherence:
    def test_subsumption_implies_canonical_containment(self):
        # shaped generator: primitive-only assertions keep the canonical
        # interpretation a model of the KB
        shape = KbShape(el_only=True, assert_primitive_only=True)
        import random
        rng = random.Random(99)
        checked = 0
        for seed in range(60):
            kb = random_kb(seed, shape)
            names = sorted(kb.signature.concept_names)
            for _ in range(3):
                c = random_concept(rng, names, ("r", "s"), 2, el_only=True)
                d = random_concept(rng, names, ("r", "s"), 2, el_only=True)
                if subsumes(d, c, kb.tbox):
                    checked += 1
                    assert retrieve_canonical(kb, c) <= retrieve_canonical(kb, d)
        assert checked > 10
