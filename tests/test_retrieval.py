"""The entail engine's conjunct-wise extensions against per-individual retrieval."""

import random

import pytest

from alcsim.errors import AlcsimError, UnsupportedNegation
from alcsim.gen import random_concept, random_kb
from alcsim.model import Atom
from alcsim.msc import msc_approx
from alcsim.parser import parse_concept, parse_kb
from alcsim.retrieval import Backend, ExtensionEngine
from alcsim.tableau import TableauReasoner


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
        concepts += [msc_approx(kb, a, depth, Backend.ENTAIL).concept
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
        # two checks: Person on Vito, the only asserted hasChild successor,
        # which puts Leonardo in without a check, then the concept on Vito
        assert engine.extension(parse_concept("exists hasChild.Person")) == {
            "Leonardo"}
        stats = engine._reasoner.stats
        assert stats.instance_checks == 2
        # two more: Male on each individual; every other answer is memoised
        assert engine.extension(parse_concept(
            "Male and exists hasChild.Person")) == {"Leonardo"}
        assert stats.instance_checks == 4

    def test_conjunct_that_raises_alone_defers_to_retrieve(self):
        # checked alone, P needs the negated at-least; refuting the whole
        # concept takes not exists s.Top first and finds a model
        kb = parse_kb("P := atleast 2 r\nQ(x)\n")
        c = parse_concept("exists s.Top and P")
        with pytest.raises(UnsupportedNegation):
            TableauReasoner(kb).instance_check("x", Atom("P"))
        assert TableauReasoner(kb).retrieve(c) == frozenset()
        assert ExtensionEngine(kb, Backend.ENTAIL).extension(c) == frozenset()


def plain_name_extensions(kb, backend):
    """Each concept name's extension, or error type, from a fresh engine."""
    return {name: outcome(lambda: ExtensionEngine(kb, backend).extension(
                Atom(name)))
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
    got = outcome(lambda: engine.name_extensions)
    if errors:
        assert got == errors[0]
    else:
        assert got == expected
        assert list(got) == list(expected)      # names in sorted order
        assert engine.computations == len(expected)
        assert engine.name_extensions is got    # computed once


# Three ABoxes whose checks fail in three ways; the values are those of
# retrieval that rebuilds the ABox for every check.
FALLBACK = {
    # the ABox's own saturation raises, so it is not precompleted
    "A := not atleast 2 r\nA(x)\n": {
        "A": {"x"}, "B": UnsupportedNegation, "not A": UnsupportedNegation,
        "exists r.B": UnsupportedNegation, "Top": {"x"},
        "A and B": UnsupportedNegation, "consistent": UnsupportedNegation,
    },
    # the ABox is inconsistent, so it is not precompleted
    "A := B and not B\nA(x)\n": {
        "A": {"x"}, "B": {"x"}, "not A": {"x"}, "exists r.B": {"x"},
        "Top": {"x"}, "A and B": {"x"}, "consistent": False,
    },
    # the ABox is precompleted, and some checks raise
    "A := atleast 2 r\nA(x)\nr(x, y)\n": {
        "A": UnsupportedNegation, "B": set(), "not A": set(),
        "exists r.B": set(), "Top": {"x", "y"},
        "A and B": UnsupportedNegation, "consistent": True,
    },
}


@pytest.mark.parametrize("text", FALLBACK)
def test_precompletion_fallback(text):
    kb = parse_kb(text)
    expected = FALLBACK[text]
    precompleted = TableauReasoner(kb)._precompleted is not None
    assert precompleted == (expected["consistent"] is True)
    for concept, answer in expected.items():
        if concept == "consistent":
            assert outcome(TableauReasoner(kb).abox_consistent) == answer
            continue
        c = parse_concept(concept)
        engine = ExtensionEngine(kb, Backend.ENTAIL)
        assert outcome(lambda: TableauReasoner(kb).retrieve(c)) == answer
        assert outcome(lambda: engine.extension(c)) == answer
