import pytest

from alcsim.errors import InvalidShape
from alcsim.gen import KbShape, random_kb
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
