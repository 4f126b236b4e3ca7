"""The entail engine's bounded, memoised extensions against per-individual
retrieval."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcsim.canonical import CanonicalModel
from alcsim.errors import AlcsimError, UnsupportedNegation
from alcsim.gen import random_concept, random_kb, with_atleast
from alcsim.model import ABox, Atom
from alcsim.msc import msc_approx
from alcsim.parser import parse_concept, parse_kb
from alcsim.retrieval import Backend, ExtensionEngine
from alcsim.tableau import TableauReasoner
from oracles import eval_concept, retrieve_canonical
from test_msc import UNKNOWN_GAP_KB


def outcome(compute):
    """A computation's value, or the type of the error it raised."""
    try:
        return compute()
    except AlcsimError as exc:
        return type(exc)


def assert_engine_matches_retrieve(kb, concepts):
    # one engine for all concepts, as sim_matrix uses it
    engine = ExtensionEngine(kb, Backend.ENTAIL)
    for c in concepts:
        expected = outcome(lambda: TableauReasoner(kb).retrieve(c))
        assert outcome(lambda: engine.extension(c)) == expected, str(c)


class TestEngineOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_kbs(self, seed):
        kb = random_kb(seed)
        names = sorted(kb.signature.concept_names)
        roles = sorted(kb.signature.role_names)
        rng = random.Random(seed)
        concepts = [random_concept(rng, names, roles, 2) for _ in range(8)]
        concepts += [msc_approx(kb, a, depth,
                                ExtensionEngine(kb, Backend.ENTAIL)).concept
                     for a in sorted(kb.individuals) for depth in (1, 2)]
        assert_engine_matches_retrieve(kb, concepts)

    @pytest.mark.parametrize("fixture", ["family_kb", "fathers_kb"])
    def test_fixtures(self, fixture, request):
        # entail MSCs of the family KB raise (Sibling's body needs a negated
        # at-least), so these are the canonical ones
        kb = request.getfixturevalue(fixture)
        concepts = [Atom(name) for name in sorted(kb.signature.concept_names)]
        concepts += [msc_approx(kb, a, depth).concept
                     for a in sorted(kb.individuals) for depth in (0, 1, 2)]
        assert_engine_matches_retrieve(kb, concepts)

    def test_checks_only_what_is_not_implied(self, fathers_kb):
        engine = ExtensionEngine(fathers_kb, Backend.ENTAIL)
        assert engine.extension(parse_concept("Top")) == {"Leonardo", "Vito"}
        assert engine._reasoner is None
        # no check: Vito's precompleted label holds Person (Male <= Person),
        # which puts Leonardo in through his asserted hasChild edge; Vito
        # has no hasChild successor in the witness
        assert engine.extension(parse_concept("exists hasChild.Person")) == {
            "Leonardo"}
        stats = engine._reasoner.stats
        assert stats.instance_checks == 0
        # none either: both labels hold Male
        assert engine.extension(parse_concept(
            "Male and exists hasChild.Person")) == {"Leonardo"}
        assert stats.instance_checks == 0
        # one: Vito's case split lies between the bounds
        assert engine.extension(parse_concept(
            "exists hasChild.Top or forall hasChild.Bottom")) == {
            "Leonardo", "Vito"}
        assert stats.instance_checks == 1

    def test_conjunct_that_raises_alone_defers_to_retrieve(self):
        # checked alone, P needs the negated at-least; the engine checks
        # the whole concept, as retrieve does, and refuting it takes
        # not exists s.Top first and finds a model
        kb = parse_kb("P := atleast 2 r\nQ(x)\n")
        c = parse_concept("exists s.Top and P")
        with pytest.raises(UnsupportedNegation):
            TableauReasoner(kb).instance_check("x", Atom("P"))
        assert TableauReasoner(kb).retrieve(c) == frozenset()
        assert ExtensionEngine(kb, Backend.ENTAIL).extension(c) == frozenset()

    def test_a_raising_extension_is_not_searched_again(self):
        # g lies between the bounds of y's depth-1 roll-up, and its check
        # raises; the engine remembers that, so it raises again unsearched
        kb = parse_kb(UNKNOWN_GAP_KB)
        c = msc_approx(kb, "y", 1, ExtensionEngine(kb, Backend.ENTAIL)).concept
        assert str(c) == "L and exists s.H"
        engine = ExtensionEngine(kb, Backend.ENTAIL)
        engine.name_masks
        stats = engine._reasoner.stats
        counts = []
        for _ in range(3):
            before = stats.instance_checks
            with pytest.raises(UnsupportedNegation):
                engine.extension(c)
            counts.append(stats.instance_checks - before)
        assert counts == [1, 0, 0]


def plain_name_extensions(kb, backend):
    """Each concept name's extension as a mask, or error type, from a fresh
    engine's ``extension``."""
    bits = kb.abox.bits
    return {name: outcome(lambda: sum(bits[a] for a in ExtensionEngine(
                kb, backend).extension(Atom(name))))
            for name in sorted(kb.signature.concept_names)}


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("source", ["family_kb", "fathers_kb", *range(20)])
def test_name_extensions_match_plain_path(source, backend, request):
    kb = (request.getfixturevalue(source) if isinstance(source, str)
          else random_kb(source))
    expected = plain_name_extensions(kb, backend)
    errors = [answer for answer in expected.values()
              if isinstance(answer, type)]
    engine = ExtensionEngine(kb, backend)
    got = outcome(lambda: engine.name_masks)
    if errors:
        assert got == errors[0]
    else:
        assert got == expected
        assert list(got) == list(expected)      # names in sorted order
        assert engine.computations == len(expected)
        assert engine.name_masks is got         # computed once


# Three ABoxes whose checks meet a negated at-least or a clash in three
# ways.  A pair holds retrieve's answer, then the engine's, where they
# differ.
FALLBACK = {
    # the ABox's own saturation meets the negated at-least, so its
    # precompletion is marked, and every check that does not close raises
    "A := not atleast 2 r\nA(x)\n": {
        "A": {"x"}, "B": UnsupportedNegation, "not A": UnsupportedNegation,
        "exists r.B": UnsupportedNegation, "Top": {"x"},
        "A and B": UnsupportedNegation, "consistent": UnsupportedNegation,
    },
    # the ABox is inconsistent, so it is not precompleted: every check
    # holds
    "A := B and not B\nA(x)\n": {
        "A": {"x"}, "B": {"x"}, "not A": {"x"}, "exists r.B": {"x"},
        "Top": {"x"}, "A and B": {"x"}, "consistent": False,
    },
    # the check of A on y meets only the negated at-least and raises; the
    # engine checks no individual the witness rules out, here A on y, so
    # it answers; the check of A and B on y has an unmarked open branch
    "A := atleast 2 r\nA(x)\nr(x, y)\n": {
        "A": (UnsupportedNegation, {"x"}), "B": set(), "not A": set(),
        "exists r.B": set(), "Top": {"x", "y"}, "A and B": set(),
        "consistent": True,
    },
}


@pytest.mark.parametrize("text", FALLBACK)
def test_precompletion_fallback(text):
    kb = parse_kb(text)
    expected = FALLBACK[text]
    inconsistent = TableauReasoner(kb)._precompleted is None
    assert inconsistent == (expected["consistent"] is False)
    for concept, answer in expected.items():
        if concept == "consistent":
            assert outcome(TableauReasoner(kb).abox_consistent) == answer
            continue
        by_retrieve, by_engine = (
            answer if isinstance(answer, tuple) else (answer, answer))
        c = parse_concept(concept)
        engine = ExtensionEngine(kb, Backend.ENTAIL)
        assert outcome(lambda: TableauReasoner(kb).retrieve(c)) == by_retrieve
        assert outcome(lambda: engine.extension(c)) == by_engine


def witness_state(reasoner):
    """The state the reasoner's witness masks come from, and each node's
    element: node i, for i below the number of individuals, as the
    individual with bit ``1 << i``, and anonymous ones as ``#<id>``, which
    no name spells."""
    state = reasoner._witness
    element = {nid: f"#{nid}" for nid in state.nodes}
    element.update(enumerate(reasoner.kb.abox.bits))
    return state, element


def witness_model(reasoner, state, element):
    """The witness state as a ``CanonicalModel``: an ABox of its elements
    with the edges as role assertions, and told masks from the labels'
    atoms.  ``eval_concept``'s "told or body" rule is exact on it, as a
    label holding a fully defined name holds its body."""
    abox = ABox(frozenset(), frozenset(
        (role, element[nid], element[s]) for nid, node in state.nodes.items()
        for role, succs in node.edges.items() for s in succs),
        frozenset(element.values()))
    told: dict[str, int] = {}
    for nid, node in state.nodes.items():
        for cid in node.label:
            if isinstance(reasoner.table.concept(cid), Atom):
                name = reasoner.table.parts[cid]
                told[name] = told.get(name, 0) | abox.bits[element[nid]]
    return CanonicalModel(abox, reasoner.kb.tbox, told)


def assert_label_lemma(kb):
    """Every concept in a witness node's label holds at that node in the
    witness's mask, which equals ``eval_concept`` on the exported model."""
    reasoner = TableauReasoner(kb)
    consistent = outcome(TableauReasoner(kb).abox_consistent)
    if reasoner._precompleted is None or consistent is not True:
        assert reasoner._precompleted is None or reasoner._masks[1] is None
        return
    masks = reasoner._masks[1]
    state, element = witness_state(reasoner)
    model = witness_model(reasoner, state, element)
    table = reasoner.table
    for nid, node in state.nodes.items():
        for cid in node.label:
            assert masks.mask(cid) >> nid & 1, str(table.concept(cid))
    cid = 0
    while cid < len(table.kind):    # with the ids the masks intern
        expr = table.concept(cid)
        expected = eval_concept(model, expr)
        assert {element[nid] for nid in state.nodes
                if masks.mask(cid) >> nid & 1} == expected, str(expr)
        cid += 1


def kb_and_concepts(seed, atleast):
    """``with_atleast(seed)``, or ``random_kb(seed)`` with concepts drawn
    over it."""
    if atleast:
        return with_atleast(seed)
    kb = random_kb(seed)
    names = sorted(kb.signature.concept_names)
    roles = sorted(kb.signature.role_names) or ["r"]
    rng = random.Random(seed)
    return kb, [random_concept(rng, names, roles, 2) for _ in range(8)]


class TestWitness:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), atleast=st.booleans())
    def test_label_lemma_on_random_kbs(self, seed, atleast):
        assert_label_lemma(with_atleast(seed)[0] if atleast
                           else random_kb(seed))

    @pytest.mark.parametrize("fixture", ["family_kb", "fathers_kb"])
    def test_label_lemma_on_fixtures(self, fixture, request):
        kb = request.getfixturevalue(fixture)
        assert TableauReasoner(kb)._masks[1] is not None
        assert_label_lemma(kb)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000))
    def test_rules_out_no_instance(self, seed):
        kb, concepts = with_atleast(seed)
        reasoner = TableauReasoner(kb)
        for c in concepts:
            _, upper = reasoner.bounds(reasoner.table.id(c))
            for a, bit in kb.abox.bits.items():
                if not bit & upper:
                    answer = outcome(lambda: reasoner.instance_check(a, c))
                    assert answer is not True, (a, str(c))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000))
    def test_engine_matches_retrieve_where_it_answers(self, seed):
        kb, concepts = with_atleast(seed)
        engine = ExtensionEngine(kb, Backend.ENTAIL)
        for c in concepts:
            expected = outcome(lambda: TableauReasoner(kb).retrieve(c))
            got = outcome(lambda: engine.extension(c))
            if isinstance(expected, type):
                # the engine may answer where a check it skips would raise
                assert got == expected or isinstance(got, frozenset), str(c)
            else:
                assert got == expected, str(c)


class TestBounds:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), atleast=st.booleans())
    def test_bounds_hold_retrieve(self, seed, atleast):
        # lower <= retrieve(c) <= upper, for names, drawn concepts and
        # roll-ups; every individual in the lower bound is an instance by
        # a search that closes, so its check cannot raise
        kb, concepts = kb_and_concepts(seed, atleast)
        concepts += [Atom(name) for name in sorted(kb.signature.concept_names)]
        concepts += [msc_approx(kb, a, 1).concept for a in sorted(kb.individuals)]
        reasoner = TableauReasoner(kb)
        bits = kb.abox.bits
        for c in concepts:
            lower, upper = reasoner.bounds(reasoner.table.id(c))
            assert lower & ~upper == 0, str(c)
            for a, bit in bits.items():
                if bit & lower:
                    assert TableauReasoner(kb).instance_check(a, c), (a, str(c))
            expected = outcome(lambda: TableauReasoner(kb).retrieve(c))
            if isinstance(expected, type):
                continue
            assert {a for a, bit in bits.items() if bit & lower} <= expected
            assert expected <= {a for a, bit in bits.items() if bit & upper}

    def test_inconsistent_kb_bounds_everyone(self):
        kb = parse_kb("A := B and not B\nA(x)\nC(y)\n")
        reasoner = TableauReasoner(kb)
        assert reasoner.bounds(reasoner.table.id(Atom("D"))) == (0b11, 0b11)


class TestCanonicalNameMemo:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), atleast=st.booleans(),
           order=st.randoms(use_true_random=False))
    def test_one_engine_equals_fresh_evaluation(self, seed, atleast, order):
        # the engine's name memo fills in the order of its calls; with
        # atleast, name bodies hold forall, or and atleast
        kb, concepts = with_atleast(seed) if atleast else (random_kb(seed), [])
        names = sorted(kb.signature.concept_names)
        roles = sorted(kb.signature.role_names) or ["r"]
        rng = random.Random(seed)
        concepts += [random_concept(rng, names, roles, 2) for _ in range(6)]
        concepts += [Atom(name) for name in names]
        order.shuffle(concepts)
        engine = ExtensionEngine(kb)
        for c in concepts:
            assert engine.extension(c) == retrieve_canonical(kb, c), str(c)
        assert engine.computations == len(concepts)
