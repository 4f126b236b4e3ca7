import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcsim.canonical import build_canonical
from alcsim.errors import CyclicTBox, DefinitionTooDeep, UnsupportedNegation
from alcsim.gen import random_concept, random_kb, with_atleast
from alcsim.model import (
    ABox,
    And,
    AtLeast,
    Atom,
    Bottom,
    ConceptExpr,
    DefKind,
    Definition,
    EMPTY_ABOX,
    Exists,
    Forall,
    KnowledgeBase,
    MAX_UNFOLDED_DEPTH,
    Not,
    Or,
    TBox,
    Top,
)
from alcsim.parser import parse_concept
from alcsim.tableau import TableauReasoner
from oracles import (
    concept_depth,
    concept_names_in,
    nnf,
    normalize,
    retrieve_canonical,
)

A, B, C = Atom("A"), Atom("B"), Atom("C")
R, S = "R", "S"


def rand_concepts(count, *, depth=3, seed=0, el_only=False):
    rng = random.Random(seed)
    return [
        random_concept(rng, ("A", "B", "C", "D"), ("R", "S"), depth, el_only)
        for _ in range(count)
    ]


def assert_images_oracle(abox):
    """``ABox.images`` flattened bit by bit is ``role_assertions``, the
    successors one way and the predecessors the other, and the image of
    every individual's mask is the union of their images."""
    bits = abox.bits
    succs = {(role, a, b) for role, (succ, _) in abox.images.items()
             for a, bit in bits.items() for b in abox.members(succ[bit])}
    preds = {(role, a, b) for role, (_, pred) in abox.images.items()
             for b, bit in bits.items() for a in abox.members(pred[bit])}
    assert succs == preds == abox.role_assertions
    for images in abox.images.values():
        for image in images:
            union = 0
            for bit in bits.values():
                union |= image[bit]
            assert image[abox.everyone] == union


def assert_not_only_above_atoms(c):
    if isinstance(c, Not):
        assert isinstance(c.arg, Atom)
        return
    for child in getattr(c, "args", ()):
        assert_not_only_above_atoms(child)
    if isinstance(c, (Exists, Forall)):
        assert_not_only_above_atoms(c.filler)


class TestNnf:
    def test_de_morgan(self):
        assert nnf(Not(And((A, B)))) == Or((Not(A), Not(B)))
        assert nnf(Not(Or((A, B)))) == And((Not(A), Not(B)))

    def test_quantifier_duality(self):
        assert nnf(Not(Exists(R, C))) == Forall(R, Not(C))
        assert nnf(Not(Forall(R, C))) == Exists(R, Not(C))

    def test_double_negation(self):
        assert nnf(Not(Not(C))) == C
        assert nnf(Not(Not(Not(A)))) == Not(A)

    def test_constants(self):
        assert nnf(Not(Top())) == Bottom()
        assert nnf(Not(Bottom())) == Top()

    def test_negated_atleast_one_becomes_value_restriction(self):
        assert nnf(Not(AtLeast(1, R))) == Forall(R, Bottom())

    def test_negated_atleast_two_is_an_error(self):
        with pytest.raises(UnsupportedNegation):
            nnf(Not(AtLeast(2, R)))
        with pytest.raises(UnsupportedNegation):
            nnf(Not(Exists(R, AtLeast(3, S))))

    def test_not_only_above_atoms(self):
        for c in rand_concepts(200, seed=11):
            assert_not_only_above_atoms(nnf(c))

    def test_idempotent(self):
        for c in rand_concepts(200, seed=12):
            once = nnf(c)
            assert nnf(once) == once

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), depth=st.integers(0, 3))
    def test_keeps_canonical_extension(self, seed, depth):
        kb = random_kb(seed)
        c = random_concept(random.Random(seed),
                           sorted(kb.signature.concept_names),
                           sorted(kb.signature.role_names), depth)
        normal = nnf(c)
        assert_not_only_above_atoms(normal)
        assert retrieve_canonical(kb, normal) == retrieve_canonical(kb, c)


class TestUnfolding:
    def test_equiv_definition_expands(self):
        tbox = TBox({"Woman": Definition(DefKind.EQUIV,
                                         And((Atom("Human"), Atom("Female"))))})
        assert tbox.unfolding("Woman") == And((Atom("Human"), Atom("Female")))

    def test_primitives_do_not_unfold(self):
        assert TBox({}).unfolding("P") is None

    def test_partial_definition_gets_marker(self):
        tbox = TBox({"Male": Definition(DefKind.SUBSUMED, Atom("Person"))})
        assert tbox.unfolding("Male") == And((Atom("Male*"), Atom("Person")))

    def test_one_step_deep(self):
        tbox = TBox({
            "Woman": Definition(DefKind.EQUIV, And((Atom("Human"), Atom("Female")))),
            "Mother": Definition(DefKind.EQUIV,
                                 And((Atom("Woman"), Exists("HasChild", Top())))),
        })
        assert concept_names_in(tbox.unfolding("Mother")) == {"Woman"}


class TestAcyclicity:
    def test_rejects_mutual_recursion(self):
        tbox = TBox({
            "A": Definition(DefKind.EQUIV, Exists(R, Atom("B"))),
            "B": Definition(DefKind.EQUIV, And((Atom("A"), Atom("C")))),
        })
        with pytest.raises(CyclicTBox):
            KnowledgeBase.assemble(tbox, EMPTY_ABOX)

    def test_rejects_self_reference(self):
        tbox = TBox({"A": Definition(DefKind.EQUIV, And((Atom("A"), B)))})
        with pytest.raises(CyclicTBox):
            tbox.check_acyclic()

    def test_accepts_family_tbox(self, family_kb):
        family_kb.tbox.check_acyclic()


class TestUnfoldedDepth:
    @staticmethod
    def nested_and(levels):
        # one And per level, each over the level below and a leaf
        body = B
        for _ in range(levels):
            body = And((body, C))
        return body

    def test_deepest_allowed_definition_evaluates(self):
        # D is one level, its body's Ands and their leaves the rest;
        # CanonicalModel.mask recurses once per level, through D's body
        body = self.nested_and(MAX_UNFOLDED_DEPTH - 2)
        tbox = TBox({"D": Definition(DefKind.EQUIV, body)})
        abox = ABox.from_assertions({("B", "x"), ("C", "x")}, ())
        kb = KnowledgeBase.assemble(tbox, abox)
        model = build_canonical(kb)
        assert model.mask(Atom("D")) == abox.bits["x"]
        assert build_canonical(kb).mask(body) == abox.bits["x"]

    def test_deepest_allowed_definition_prints(self):
        body = self.nested_and(MAX_UNFOLDED_DEPTH - 2)
        opened = MAX_UNFOLDED_DEPTH - 3
        assert str(body) == "(" * opened + "B and C" + ") and C" * opened

    def test_deepest_allowed_bodies_compare(self):
        # two trees built apart, so == walks every level
        bodies = [self.nested_and(MAX_UNFOLDED_DEPTH - 2) for _ in range(2)]
        assert bodies[0] is not bodies[1]
        assert bodies[0] == bodies[1]
        assert hash(bodies[0]) == hash(bodies[1])

    def test_one_level_more_is_a_typed_error(self):
        body = self.nested_and(MAX_UNFOLDED_DEPTH - 1)
        tbox = TBox({"D": Definition(DefKind.EQUIV, body)})
        with pytest.raises(DefinitionTooDeep) as exc:
            KnowledgeBase.assemble(tbox, EMPTY_ABOX)
        assert (exc.value.name, exc.value.depth) == ("D", MAX_UNFOLDED_DEPTH + 1)

    def test_depth_adds_up_along_definitions(self):
        # each Ai := exists R.A(i+1) adds two levels; primitive A(n) one
        n = 5000
        tbox = TBox({f"A{i}": Definition(DefKind.EQUIV, Exists(R, Atom(f"A{i + 1}")))
                     for i in range(n)})
        with pytest.raises(DefinitionTooDeep) as exc:
            tbox.check_acyclic()
        # A(n-k) unfolds 2k + 1 levels deep
        k = MAX_UNFOLDED_DEPTH // 2
        assert (exc.value.name, exc.value.depth) == (f"A{n - k}", 2 * k + 1)


class TestNormalize:
    def test_merges_value_restrictions_on_same_role(self):
        c = And((Forall(R, Atom("C1")), Forall(R, Atom("C2"))))
        assert normalize(c) == Forall(R, And((Atom("C1"), Atom("C2"))))

    def test_top_is_conjunction_identity(self):
        assert normalize(And((C, Top()))) == C

    def test_top_absorbs_disjunction(self):
        assert normalize(Or((C, Top()))) == Top()

    def test_bottom_absorbs_conjunction(self):
        assert normalize(And((C, Bottom()))) == Bottom()

    def test_bottom_is_disjunction_identity(self):
        assert normalize(Or((C, Bottom()))) == C

    def test_flattens_and_sorts_and_deduplicates(self):
        c = And((B, And((A, B)), A))
        assert normalize(c) == And((A, B))

    def test_idempotent(self):
        for c in rand_concepts(300, seed=21):
            once = normalize(c)
            assert normalize(once) == once

    def test_preserves_semantics(self):
        # random concepts up to depth 3 over a 4-name signature
        empty = TBox({})
        for c in rand_concepts(60, seed=22):
            assert TableauReasoner.for_tbox(empty).equivalent(c, normalize(c))

    def test_atleast_kept(self):
        c = Exists(R, AtLeast(2, "HasChild"))
        assert normalize(c) == c


class TestConceptNamesIn:
    def test_names_under_every_constructor(self):
        c = And((Not(A), Exists(R, B), Forall(S, Or((C, Top()))),
                 AtLeast(2, R), Bottom()))
        assert concept_names_in(c) == {"A", "B", "C"}

    def test_no_names(self):
        assert concept_names_in(Or((Top(), AtLeast(1, R)))) == frozenset()


class TestConceptDepth:
    def test_atom_is_zero(self):
        assert concept_depth(A) == 0

    def test_nested_restrictions(self):
        assert concept_depth(Exists(R, Exists(S, A))) == 2

    def test_conjunction_takes_max(self):
        assert concept_depth(And((A, Forall(R, B)))) == 1

    def test_atleast_counts_one(self):
        assert concept_depth(AtLeast(3, R)) == 1
        assert concept_depth(Exists(R, AtLeast(2, S))) == 2

    def test_negation_transparent(self):
        assert concept_depth(Not(A)) == 0


def plain_str(c):
    """The concrete syntax of ``c``, rendered recursively: And and Or take
    parentheses as the argument of not, a quantifier or And, and Or also as
    an argument of Or."""
    def arg(a, loose=(And, Or)):
        return f"({plain_str(a)})" if isinstance(a, loose) else plain_str(a)

    if isinstance(c, Atom):
        return c.name
    if isinstance(c, (Top, Bottom)):
        return type(c).__name__
    if isinstance(c, Not):
        return "not " + arg(c.arg)
    if isinstance(c, And):
        return " and ".join(arg(a) for a in c.args)
    if isinstance(c, Or):
        return " or ".join(arg(a, Or) for a in c.args)
    if isinstance(c, (Exists, Forall)):
        return f"{type(c).__name__.lower()} {c.role}.{arg(c.filler)}"
    return f"atleast {c.n} {c.role}"


class TestStr:
    def test_matches_recursive_renderer(self):
        concepts = [*rand_concepts(1500, depth=4, seed=31),
                    *rand_concepts(500, depth=3, seed=32, el_only=True)]
        for seed in range(20):
            kb, drawn = with_atleast(seed)
            concepts += drawn
            concepts += (d.body for d in kb.tbox.definitions.values())
        for c in concepts:
            assert str(c) == plain_str(c)

    @pytest.mark.parametrize("concept, text", [
        (Top(), "Top"),
        (Bottom(), "Bottom"),
        (Not(And((A, B))), "not (A and B)"),
        (Not(Not(Top())), "not not Top"),
        (And((Or((A, B)), And((A, B)), Not(C))), "(A or B) and (A and B) and not C"),
        (Or((And((A, B)), Or((A, Bottom())), C)), "A and B or (A or Bottom) or C"),
        (Exists(R, Forall(S, Or((A, AtLeast(2, R))))),
         "exists R.forall S.(A or atleast 2 R)"),
    ])
    def test_edge_cases(self, concept, text):
        assert str(concept) == plain_str(concept) == text

    def test_deep_conjunction_prints(self):
        c = A
        for _ in range(5000):
            c = And((c, B))
        assert str(c) == "(" * 4999 + "A and B" + ") and B" * 4999


def plain_eq(c, d):
    """Structural equality of two concepts, compared field by field with
    recursion, as the dataclasses' own ``==`` does."""
    if type(c) is not type(d):
        return False
    for f in dataclasses.fields(c):
        x, y = getattr(c, f.name), getattr(d, f.name)
        if isinstance(x, tuple):
            if len(x) != len(y) or not all(map(plain_eq, x, y)):
                return False
        elif isinstance(x, ConceptExpr):
            if not plain_eq(x, y):
                return False
        elif x != y:
            return False
    return True


ROLES = st.sampled_from([R, S])
CONCEPTS = st.recursive(
    st.one_of(st.sampled_from([A, B, Top(), Bottom()]),
              st.builds(AtLeast, st.integers(1, 2), ROLES)),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(And, st.lists(sub, min_size=2, max_size=3).map(tuple)),
        st.builds(Or, st.lists(sub, min_size=2, max_size=3).map(tuple)),
        st.builds(Exists, ROLES, sub), st.builds(Forall, ROLES, sub)),
    max_leaves=8)


class TestEq:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(c=CONCEPTS, d=CONCEPTS)
    def test_matches_recursive_comparison(self, c, d):
        assert (c == d) is plain_eq(c, d)
        assert (c != d) is not plain_eq(c, d)
        copy = parse_concept(str(c))        # built apart: no shared node
        assert c == copy and not c != copy and hash(c) == hash(copy)

    def test_other_types_are_unequal(self):
        assert A != "A" and A != ("A",) and Top() != Bottom()
        assert Exists(R, A) != Forall(R, A) and AtLeast(2, R) != AtLeast(2, S)

    def test_deep_conjunctions_compare(self):
        chains = []
        for leaf in (A, A, B):
            c = leaf
            for _ in range(5000):
                c = And((c, C))
            chains.append(c)
        assert chains[0] == chains[1]
        assert chains[0] != chains[2]


class TestContainers:
    def test_and_requires_two_arguments(self):
        with pytest.raises(ValueError):
            And((A,))

    def test_atleast_requires_positive_count(self):
        with pytest.raises(ValueError):
            AtLeast(0, R)

    def test_abox_collects_individuals(self):
        abox = ABox.from_assertions([("C", "a")], [("R", "a", "b")])
        assert abox.individuals == {"a", "b"}

    @pytest.mark.parametrize("seed", range(20))
    def test_images_index_random_kbs(self, seed):
        assert_images_oracle(random_kb(seed).abox)

    def test_images_index_edge_cases(self):
        assert EMPTY_ABOX.images == {}
        assert EMPTY_ABOX.everyone == 0
        assert EMPTY_ABOX.members(0) == frozenset()
        loop = ABox.from_assertions([("C", "c")], [("R", "a", "a")])
        assert loop.bits == {"a": 1, "c": 2}
        assert loop.images == {"R": ({1: 1}, {1: 1})}
        assert loop.images["R"][0][3] == loop.images["R"][1][3] == 1
        assert loop.images["R"][1][2] == 0
        assert loop.members(loop.everyone) == {"a", "c"}
        assert_images_oracle(loop)
        abox = ABox.from_assertions((), [("S", "a", "b"), ("R", "a", "c"),
                                         ("R", "a", "b"), ("R", "b", "a")])
        assert_images_oracle(abox)

    @pytest.mark.parametrize("seed", range(20))
    def test_images_roles_in_sorted_order(self, seed):
        # the walks' order, whatever order the assertions come in
        rng = random.Random(seed)
        assertions = [(f"r{rng.randrange(30)}", f"a{rng.randrange(8)}",
                       f"a{rng.randrange(8)}") for _ in range(40)]
        roles = sorted({role for role, _, _ in assertions})
        for _ in range(5):
            rng.shuffle(assertions)
            abox = ABox.from_assertions((), assertions)
            assert list(abox.images) == roles
            assert_images_oracle(abox)

    def test_signature_covers_tbox_and_abox(self, family_kb):
        sig = family_kb.signature
        assert "Uncle" in sig.concept_names          # occurs only in a body
        assert "HasGrandParent" in sig.role_names
        assert "Nicola" in family_kb.individuals
        assert len(family_kb.individuals) == 11

    def test_signature_names_under_every_constructor(self):
        tbox = TBox({
            "D": Definition(DefKind.EQUIV, And((
                Not(A), Exists(R, B), Forall(S, Or((C, Top())))))),
            "E": Definition(DefKind.SUBSUMED, AtLeast(2, "T")),
        })
        abox = ABox.from_assertions([("F", "a")], [("U", "a", "b")])
        sig = KnowledgeBase.assemble(tbox, abox).signature
        assert sig.concept_names == {"A", "B", "C", "D", "E", "F"}
        assert sig.role_names == {"R", "S", "T", "U"}
