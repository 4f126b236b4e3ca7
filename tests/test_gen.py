import hashlib

import pytest

from alcsim.errors import InvalidShape
from alcsim.gen import KbShape, random_kb, with_atleast
from alcsim.parser import parse_kb, serialize_kb


def test_same_seed_same_kb():
    assert random_kb(42) == random_kb(42)


def test_different_seeds_differ_somewhere():
    kbs = {serialize_kb(random_kb(seed)) for seed in range(20)}
    assert len(kbs) > 10


def test_generated_tboxes_are_acyclic_and_parse():
    for seed in range(25):
        kb = random_kb(seed)
        kb.tbox.check_acyclic()
        assert parse_kb(serialize_kb(kb)) == kb


def test_shape_limits_respected():
    shape = KbShape(individuals=4, primitives=2, defined=1, roles=1)
    for seed in range(10):
        kb = random_kb(seed, shape)
        assert len(kb.individuals) <= 4
        assert len(kb.tbox.definitions) <= 1
        assert len(kb.signature.role_names) <= 1


def test_el_only_bodies_have_no_negation():
    for seed in range(10):
        kb = random_kb(seed, KbShape(el_only=True))
        text = serialize_kb(kb)
        assert "not " not in text
        assert "forall" not in text
        assert " or " not in text


def test_primitive_only_assertions():
    shape = KbShape(assert_primitive_only=True)
    for seed in range(10):
        kb = random_kb(seed, shape)
        for concept, _ in kb.abox.concept_assertions:
            assert concept not in kb.tbox.definitions


def test_no_atleast_anywhere():
    for seed in range(10):
        kb = random_kb(seed)
        assert "atleast" not in serialize_kb(kb)


@pytest.mark.parametrize("fields", [
    dict(individuals=-3), dict(individuals=9), dict(primitives=9),
    dict(defined=7), dict(roles=4), dict(roles=-1), dict(body_depth=-1),
    dict(concept_assertions=-1), dict(role_assertions=-2),
    # assertions with no name to draw from
    dict(individuals=0), dict(individuals=0, concept_assertions=0),
    dict(roles=0), dict(primitives=0, defined=0),
    dict(primitives=0, assert_primitive_only=True),
])
def test_shape_it_cannot_draw_is_rejected(fields):
    with pytest.raises(InvalidShape):
        KbShape(**fields)


@pytest.mark.parametrize("fields", [
    dict(individuals=0, concept_assertions=0, role_assertions=0),
    dict(roles=0, role_assertions=0),
    dict(primitives=0, defined=0, concept_assertions=0),
    dict(primitives=0, defined=2),
    dict(individuals=8, primitives=8, defined=6, roles=3),
])
def test_shape_at_the_edge_of_its_pools_generates(fields):
    shape = KbShape(**fields)
    for seed in range(5):
        kb = random_kb(seed, shape)
        assert len(kb.individuals) <= shape.individuals
        assert parse_kb(serialize_kb(kb)) == kb


def with_atleast_text(seed):
    kb, concepts = with_atleast(seed)
    return "\n".join([serialize_kb(kb), *map(str, concepts)])


# sha256 over seeds 0-49 of each draw's text, each followed by a NUL byte
@pytest.mark.parametrize("draw, digest", [
    (lambda seed: serialize_kb(random_kb(seed)),
     "8a9f71040f6633361ab59d9cf2747d3cd965d63aef8c0e84a97ce2fe354a7126"),
    (lambda seed: serialize_kb(random_kb(seed, KbShape(el_only=True))),
     "950e63997d985d0a30e543dbdd3aea62204ff21f4730e0a768bd2c77eb5becc3"),
    (with_atleast_text,
     "36969c7cd5ff756ee29510b0d2aa7b100db3417f6583f56bcff5ca082050fe6d"),
], ids=["default", "el_only", "with_atleast"])
def test_seeds_draw_what_they_always_drew(draw, digest):
    # a change to the draw order of the generators changes these texts
    h = hashlib.sha256()
    for seed in range(50):
        h.update(draw(seed).encode() + b"\0")
    assert h.hexdigest() == digest
