import random
from collections import deque

import pytest

from alcsim.canonical import retrieve_canonical
from alcsim.errors import (
    DefinitionTooDeep,
    UnknownIndividual,
    UnsupportedNegation,
)
from alcsim.gen import KbShape, random_concept, random_kb
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
    _negate_once,
    nnf,
)
from alcsim.msc import msc_approx
from alcsim.parser import parse_concept, parse_kb
from alcsim.retrieval import Backend, ExtensionEngine
from alcsim.tableau import (
    TableauReasoner,
    abox_consistent,
    equivalent,
    instance_check,
    is_satisfiable,
    retrieve_entail,
    subsumes,
)

A, B = Atom("A"), Atom("B")
EMPTY = TBox({})


class TestSatisfiability:
    def test_direct_clash(self):
        assert not is_satisfiable(And((A, Not(A))), EMPTY)

    def test_propagation_clash(self):
        assert not is_satisfiable(And((Exists("R", A), Forall("R", Not(A)))), EMPTY)

    def test_father_is_satisfiable(self, fathers_kb):
        # witnessed by a two-element model: {x: Male, Person; y: Person}
        assert is_satisfiable(Atom("Father"), fathers_kb.tbox)

    def test_bottom_unsatisfiable(self):
        assert not is_satisfiable(Bottom(), EMPTY)
        assert is_satisfiable(Top(), EMPTY)

    def test_disjunction_explores_both_branches(self):
        assert is_satisfiable(And((Or((A, B)), Not(A))), EMPTY)
        assert not is_satisfiable(And((Or((A, A)), Not(A))), EMPTY)

    def test_atleast_creates_distinct_successors(self):
        assert is_satisfiable(AtLeast(3, "R"), EMPTY)
        assert not is_satisfiable(And((AtLeast(2, "R"), Forall("R", Bottom()))), EMPTY)
        assert not is_satisfiable(And((AtLeast(1, "R"), Not(AtLeast(1, "R")))), EMPTY)

    def test_unsupported_negation_propagates(self):
        with pytest.raises(UnsupportedNegation):
            is_satisfiable(Not(AtLeast(2, "R")), EMPTY)

    def test_unsupported_negation_message_matches_nnf(self):
        c = Not(AtLeast(2, "R"))
        with pytest.raises(UnsupportedNegation) as lazy:
            is_satisfiable(c, EMPTY)
        with pytest.raises(UnsupportedNegation) as eager:
            nnf(c)
        assert str(lazy.value) == str(eager.value)

    def test_refutation_duality(self):
        for seed in range(40):
            import random
            rng = random.Random(seed)
            c = random_concept(rng, ("A", "B", "C"), ("R", "S"), 2)
            assert is_satisfiable(c, EMPTY) == (not subsumes(Bottom(), c, EMPTY))


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
        assert equivalent(lhs, rhs, EMPTY)

    def test_reflexive(self):
        assert equivalent(A, A, EMPTY)

    def test_distinct_primitives_differ(self):
        assert not equivalent(A, B, EMPTY)


class TestAboxReasoning:
    def test_direct_clash_inconsistent(self):
        from alcsim.parser import parse_kb
        kb = parse_kb("D := not C\nC(a)\nD(a)\n")
        assert not abox_consistent(kb)

    def test_empty_abox_consistent(self):
        from alcsim.model import EMPTY_ABOX, KnowledgeBase
        kb = KnowledgeBase.assemble(EMPTY, EMPTY_ABOX)
        assert abox_consistent(kb)

    def test_family_consistent(self, family_kb):
        assert abox_consistent(family_kb)

    def test_instance_check_leonardo_is_father(self, fathers_kb):
        # needs Male <= Person to close
        assert instance_check(fathers_kb, "Leonardo", Atom("Father"))

    def test_instance_check_negative(self, fathers_kb):
        assert not instance_check(fathers_kb, "Vito", Atom("Father"))

    def test_top_and_bottom_instances(self, fathers_kb):
        assert instance_check(fathers_kb, "Vito", Top())
        assert not instance_check(fathers_kb, "Vito", Bottom())

    def test_unknown_individual(self, fathers_kb):
        with pytest.raises(UnknownIndividual):
            instance_check(fathers_kb, "Nobody", Top())

    def test_retrieval(self, family_kb):
        fathers = retrieve_entail(family_kb, Atom("Father"))
        assert fathers == {"Leonardo", "Antonio", "AntonioB"}
        assert retrieve_entail(family_kb, Bottom()) == frozenset()
        assert retrieve_entail(family_kb, Top()) == family_kb.individuals

    def test_retrieval_monotone_under_conjunction(self, family_kb):
        narrow = retrieve_entail(family_kb, And((Atom("Father"), Atom("Grandparent"))))
        assert narrow <= retrieve_entail(family_kb, Atom("Father"))

    def test_atleast_membership_needs_canonical_backend(self, family_kb):
        # refuting an at-least goal would need its negation, which is a
        # hard error; counting memberships are a closed-world question
        with pytest.raises(UnsupportedNegation):
            instance_check(family_kb, "Giovanna", AtLeast(2, "HasChild"))
        counted = retrieve_canonical(family_kb, AtLeast(2, "HasChild"))
        assert "Giovanna" in counted
        assert "Maria" not in counted

    def test_check_that_raises_from_the_precompleted_abox_is_redone(self):
        # from the precompleted ABox the search branches on C's disjunction
        # first and reaches the negated at-least; rebuilt, the ABox derives
        # that disjunction after the check's own, whose both sides clash
        from alcsim.parser import parse_kb
        kb = parse_kb("C := not atleast 2 r or B\nA := C\nA(x)\n")
        reasoner = TableauReasoner(kb)
        assert reasoner.instance_check("x", And((Top(), Top())))
        assert reasoner.stats.branches_explored == 1 + 2

    def test_negating_defined_name_with_atleast_body_raises(self, family_kb):
        # Sibling unfolds to a body containing 'atleast 2 HasChild'; the
        # refutation needs its negation, which is unsupported by design
        with pytest.raises(UnsupportedNegation):
            instance_check(family_kb, "Claudia", Atom("Sibling"))


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

    def test_entail_matrix_search(self):
        # ROADMAP W3: the entail MSC at depth 1 of every individual of
        # random_kb seeds 0-5, through one engine per KB as
        # sim_matrix uses it; the witness rules out most "no" checks, and
        # its own search is one satisfiability call per KB
        shape = KbShape(individuals=6, role_assertions=8, concept_assertions=8)
        totals = [0, 0, 0, 0]
        for seed in range(6):
            kb = random_kb(seed, shape)
            engine = ExtensionEngine(kb, Backend.ENTAIL)
            for individual in sorted(kb.individuals):
                engine.extension(
                    msc_approx(kb, individual, 1, Backend.ENTAIL, engine).concept)
            stats = engine._reasoner.stats
            for i, count in enumerate((stats.instance_checks,
                                       stats.satisfiability_calls,
                                       stats.branches_explored,
                                       stats.node_copies)):
                totals[i] += count
        assert totals == [88, 94, 249, 292]


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
        completed, node_of = reasoner._precompleted
        precompleted = label_and_edges(completed)
        vito, leonardo = node_of["Vito"], node_of["Leonardo"]
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


class TestConceptTable:
    def test_interning_invariants(self):
        kb = random_kb(3, KbShape())
        table = TableauReasoner(kb).table
        rng = random.Random(5)
        names = sorted(kb.signature.concept_names)
        roles = sorted(kb.signature.role_names)
        concepts = [random_concept(rng, names, roles, 2) for _ in range(200)]
        concepts += [Bottom(), AtLeast(2, roles[0]), Not(AtLeast(1, roles[0]))]
        ids = [table.id(c) for c in concepts]
        for c, cid in zip(concepts, ids):
            assert table.expr[cid] == c
            # an equal concept built apart gets the same id
            assert table.id(parse_concept(str(c))) == cid
            keys = {table.id(Not(c))}
            if isinstance(c, Not):
                keys.add(table.id(c.arg))
            assert set(table.clash_keys(cid)) == keys
        for c, cid in zip(concepts, ids):
            for d, did in zip(concepts, ids):
                assert (cid == did) == (c == d)

    def test_rule_additions_come_from_the_model(self):
        # the Atom and Not rules add what TBox.unfolding and _negate_once say
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
            if body is None:
                continue
            try:
                pushed = tuple(table.id(d) for d in _negate_once(body))
            except UnsupportedNegation:
                # raised on every call, so each branch that reaches it fails
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
