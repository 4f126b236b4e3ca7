import dataclasses
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from alcsim.canonical import (
    build_canonical,
    eval_concept,
    retrieve_canonical,
    told_closure,
)
from alcsim.gen import KbShape, random_concept, random_kb, with_atleast
from alcsim.model import (
    And,
    AtLeast,
    Atom,
    Bottom,
    DefKind,
    Exists,
    Forall,
    Not,
    Or,
    Top,
    make_and,
    normalize,
)
from alcsim.parser import parse_kb
from alcsim.tableau import retrieve_entail


class PlainModel:
    """The canonical model over ``frozenset``s: the domain, each name's told
    extension and each role's successors by source, with the set evaluator
    that ``eval_concept`` follows on masks, as the oracle of the masks."""

    def __init__(self, kb):
        self.tbox, self.domain, self.names = kb.tbox, kb.individuals, {}
        self.primitive_ext: dict[str, set[str]] = {}
        for a, names in told_closure(kb).items():
            for name in names:
                self.primitive_ext.setdefault(name, set()).add(a)
        self.role_succ: dict[str, dict[str, set[str]]] = {}
        for role, source, target in kb.abox.role_assertions:
            self.role_succ.setdefault(role, {}).setdefault(
                source, set()).add(target)

    def eval(self, c) -> frozenset[str]:
        if isinstance(c, Top):
            return self.domain
        if isinstance(c, Bottom):
            return frozenset()
        if isinstance(c, Atom):
            ext = self.names.get(c.name)
            if ext is None:
                ext = frozenset(self.primitive_ext.get(c.name, ()))
                defn = self.tbox.get(c.name)
                if defn is not None and defn.kind is DefKind.EQUIV:
                    ext = ext | self.eval(defn.body)
                self.names[c.name] = ext
            return ext
        if isinstance(c, Not):
            return self.domain - self.eval(c.arg)
        if isinstance(c, And):
            out = self.eval(c.args[0])
            for a in c.args[1:]:
                out = out & self.eval(a)
            return out
        if isinstance(c, Or):
            out = self.eval(c.args[0])
            for a in c.args[1:]:
                out = out | self.eval(a)
            return out
        succ = self.role_succ.get(c.role, {})
        if isinstance(c, Exists):
            filler = self.eval(c.filler)
            return frozenset(x for x, ys in succ.items()
                             if not ys.isdisjoint(filler))
        if isinstance(c, Forall):
            filler = self.eval(c.filler)
            return self.domain - {x for x, ys in succ.items()
                                  if not ys <= filler}
        if isinstance(c, AtLeast):
            return frozenset(x for x in self.domain
                             if len(succ.get(x, ())) >= c.n)
        raise TypeError(f"unexpected concept node: {c!r}")


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
        assert model.abox is family_kb.abox
        assert model.abox.members(model.abox.everyone) == family_kb.individuals

    def test_role_extension_as_asserted(self, family_kb):
        model = build_canonical(family_kb)
        bits = model.abox.bits
        has_child = model.abox.images["HasChild"][0]
        assert sum(has_child[bit].bit_count() for bit in bits.values()) == 8
        assert "Claudia" in model.abox.members(has_child[bits["Giovanna"]])

    def test_successor_index_matches_role_extension(self):
        for seed in range(20):
            kb = random_kb(seed)
            abox = build_canonical(kb).abox
            assert {(r, s, t) for r, (succ, _) in abox.images.items()
                    for s, bit in abox.bits.items()
                    for t in abox.members(succ[bit])} == abox.role_assertions

    def test_female_extension(self, family_kb):
        model = build_canonical(family_kb)
        assert model.abox.members(model.told["Female"]) == {
            "Claudia", "Tiziana", "Maria", "Giovanna"
        }

    def test_empty_abox(self):
        kb = parse_kb("A := B and C\n")
        model = build_canonical(kb)
        assert model.abox.everyone == 0
        assert not model.abox.images


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
        # each name's told mask is read once: D's, then A's in D's body
        kb = parse_kb("D := exists r.A\nA(b)\nr(a, b)\n")
        model = build_canonical(kb)
        counting = CountingDict(model.told)
        counted = dataclasses.replace(model, told=counting)
        for k in (1, 2, 5):
            counting.gets = 0
            concept = make_and((Atom("D"),) * k)
            assert eval_concept(counted, kb.tbox, concept) == {"a"}
            assert counting.gets == 2


def oracle_concepts(kb, rng, extra=()):
    """Concepts up to depth 3 over ``kb`` and a role it never asserts, and
    the edge cases of the mask evaluator: a role with no assertion, an
    ``atleast`` above every successor count and a vacuous ``forall``."""
    names = sorted(kb.signature.concept_names)
    asserted = sorted(kb.signature.role_names)
    roles = [*asserted, "unasserted"]
    above = 1 + max(Counter((role, source) for role, source, _ in
                            kb.abox.role_assertions).values(), default=0)
    concepts = [random_concept(rng, names, roles, 3) for _ in range(6)]
    for role in roles:
        concepts += [AtLeast(above, role), AtLeast(1, role),
                     Exists(role, Top()), Forall(role, Bottom()),
                     Not(Forall(role, Atom(names[0]))),
                     Forall(role, Or((concepts[0], AtLeast(2, role))))]
    return concepts + list(extra)


class TestMaskEvaluator:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), atleast=st.booleans())
    def test_equals_the_set_evaluator(self, seed, atleast):
        kb, extra = with_atleast(seed) if atleast else (random_kb(seed), [])
        model, plain, names = build_canonical(kb), PlainModel(kb), {}
        for c in oracle_concepts(kb, random.Random(seed), extra):
            expected = plain.eval(c)
            assert eval_concept(model, kb.tbox, c, names) == expected, str(c)
            assert eval_concept(model, kb.tbox, c) == expected, str(c)

    def test_edge_cases_on_a_small_kb(self):
        kb = parse_kb("A(a)\nr(a, b)\nr(a, c)\nr(b, b)\n")
        assert retrieve_canonical(kb, AtLeast(3, "r")) == frozenset()
        assert retrieve_canonical(kb, AtLeast(2, "r")) == {"a"}
        assert retrieve_canonical(kb, Forall("s", Bottom())) == {"a", "b", "c"}
        assert retrieve_canonical(kb, Forall("r", Bottom())) == {"c"}
        assert retrieve_canonical(kb, Exists("s", Top())) == frozenset()
        assert retrieve_canonical(kb, AtLeast(1, "s")) == frozenset()
        for c in oracle_concepts(kb, random.Random(0)):
            assert retrieve_canonical(kb, c) == PlainModel(kb).eval(c), str(c)


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
            assert neg == kb.individuals - pos

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
