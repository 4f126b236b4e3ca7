import dataclasses
import random

from alcsim.canonical import (
    build_canonical,
    eval_concept,
    retrieve_canonical,
    told_closure,
)
from alcsim.gen import KbShape, random_concept, random_kb
from alcsim.model import (
    And,
    AtLeast,
    Atom,
    Bottom,
    Forall,
    Not,
    Top,
    make_and,
    normalize,
)
from alcsim.parser import parse_kb
from alcsim.tableau import retrieve_entail


class TestToldClosure:
    def test_giovanna_inherits_through_definitions(self, family_kb):
        told = told_closure(family_kb)
        assert told["Giovanna"] == {"Mother", "Woman", "Parent", "Human", "Female"}

    def test_individual_without_assertions_is_empty(self, family_kb):
        assert told_closure(family_kb)["Nicola"] == frozenset()

    def test_partial_definitions_propagate(self, fathers_kb):
        told = told_closure(fathers_kb)
        assert told["Leonardo"] == {"Male", "Person"}
        assert told["Vito"] == {"Male", "Person"}

    def test_disjunctions_propagate_nothing(self):
        kb = parse_kb("N := A or B\nN(x)\n")
        assert told_closure(kb)["x"] == {"N"}


class TestBuildCanonical:
    def test_domain_is_exactly_the_individuals(self, family_kb):
        model = build_canonical(family_kb)
        assert model.domain == family_kb.individuals

    def test_role_extension_as_asserted(self, family_kb):
        model = build_canonical(family_kb)
        has_child = model.role_succ["HasChild"]
        assert sum(len(targets) for targets in has_child.values()) == 8
        assert "Claudia" in has_child["Giovanna"]

    def test_successor_index_matches_role_extension(self):
        for seed in range(20):
            kb = random_kb(seed)
            model = build_canonical(kb)
            assert {(r, s, t) for r, table in model.role_succ.items()
                    for s, ts in table.items()
                    for t in ts} == kb.abox.role_assertions

    def test_female_extension(self, family_kb):
        model = build_canonical(family_kb)
        assert model.primitive_ext["Female"] == {
            "Claudia", "Tiziana", "Maria", "Giovanna"
        }

    def test_empty_abox(self):
        kb = parse_kb("A := B and C\n")
        model = build_canonical(kb)
        assert model.domain == frozenset()
        assert not model.role_succ


class TestEvalConcept:
    def test_grandparent(self, family_kb):
        assert retrieve_canonical(family_kb, Atom("Grandparent")) == {
            "Antonio", "AntonioB"
        }

    def test_top_is_domain(self, family_kb):
        assert retrieve_canonical(family_kb, Top()) == family_kb.individuals

    def test_grandparent_and_father(self, family_kb):
        c = And((Atom("Grandparent"), Atom("Father")))
        assert retrieve_canonical(family_kb, c) == {"Antonio", "AntonioB"}

    def test_father(self, family_kb):
        assert retrieve_canonical(family_kb, Atom("Father")) == {
            "Leonardo", "Antonio", "AntonioB"
        }

    def test_bottom_is_empty(self, family_kb):
        assert retrieve_canonical(family_kb, Bottom()) == frozenset()

    def test_woman_told_plus_definition(self, family_kb):
        assert retrieve_canonical(family_kb, Atom("Woman")) == {
            "Claudia", "Tiziana", "Maria", "Giovanna"
        }

    def test_value_restriction_vacuously_true_without_successors(self, family_kb):
        # Nicola has no outgoing edges at all
        ext = retrieve_canonical(family_kb, Forall("HasChild", Bottom()))
        assert "Nicola" in ext
        assert "Giovanna" not in ext

    def test_atleast_counts_distinct_successors(self, family_kb):
        ext = retrieve_canonical(family_kb, AtLeast(2, "HasChild"))
        assert ext == {"Antonio", "AntonioB", "Giovanna"}

    def test_asserted_membership_survives_failed_definition(self):
        # q is told to be N but the closed-world definition check fails
        kb = parse_kb("N := A and exists R.A\nN(q)\n")
        assert retrieve_canonical(kb, Atom("N")) == {"q"}


class CountingDict(dict):
    """A dict that counts its ``get`` calls."""

    gets = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)


class TestDefinedNameMemo:
    def test_body_evaluated_once_per_call(self):
        kb = parse_kb("D := exists r.A\nA(b)\nr(a, b)\n")
        model = build_canonical(kb)
        counting = CountingDict(model.role_succ)
        counted = dataclasses.replace(model, role_succ=counting)
        for k in (1, 2, 5):
            counting.gets = 0
            concept = make_and((Atom("D"),) * k)
            assert eval_concept(counted, kb.tbox, concept) == {"a"}
            assert counting.gets == 1


class TestProperties:
    def shapes(self):
        yield KbShape()
        yield KbShape(individuals=4, role_assertions=5)
        yield KbShape(individuals=8, primitives=4, concept_assertions=10)

    def random_cases(self, seeds, per_kb=4, el_only=False):
        rng = random.Random(1234)
        for seed in seeds:
            for shape in self.shapes():
                kb = random_kb(seed * 7 + shape.individuals, shape)
                names = sorted(kb.signature.concept_names)
                for _ in range(per_kb):
                    yield kb, random_concept(rng, names, ("r", "s"), 3,
                                             el_only=el_only)

    def test_negation_is_complement(self):
        for kb, c in self.random_cases(range(12)):
            model = build_canonical(kb)
            pos = eval_concept(model, kb.tbox, c)
            neg = eval_concept(model, kb.tbox, Not(c))
            assert neg == model.domain - pos

    def test_eval_respects_normalization(self):
        for kb, c in self.random_cases(range(12)):
            assert retrieve_canonical(kb, c) == retrieve_canonical(kb, normalize(c))

    def test_assertion_soundness(self):
        for seed in range(25):
            kb = random_kb(seed)
            for concept, individual in kb.abox.concept_assertions:
                assert individual in retrieve_canonical(kb, Atom(concept))

    def test_entailment_contained_in_canonical(self):
        # existential/conjunctive queries over KBs whose assertions
        # mention only primitive names
        shape = KbShape(el_only=True, assert_primitive_only=True)
        rng = random.Random(77)
        for seed in range(30):
            kb = random_kb(seed, shape)
            names = sorted(kb.signature.concept_names)
            for _ in range(3):
                c = random_concept(rng, names, ("r", "s"), 2, el_only=True)
                assert retrieve_entail(kb, c) <= retrieve_canonical(kb, c)
