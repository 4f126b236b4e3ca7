import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcsim.errors import AlcsimError, UnknownIndividual, UnsupportedNegation
from alcsim.gen import KbShape, random_kb, with_atleast
from alcsim.model import (
    And,
    Atom,
    Exists,
    Top,
    make_and,
)
from alcsim.msc import msc_approx
from alcsim.parser import parse_kb
from alcsim.retrieval import Backend, ExtensionEngine
from alcsim.tableau import TableauReasoner
from oracles import (
    concept_depth,
    concept_names_in,
    msc_extension,
    normalize,
    retrieve_canonical,
)


def longest_path_oracle(kb):
    """Bitmask DP over vertex subsets; independent of the DFS in msc."""
    nodes = sorted(kb.individuals)
    index = {name: i for i, name in enumerate(nodes)}
    succ = [[] for _ in nodes]
    for _, source, target in kb.abox.role_assertions:
        if source != target:
            succ[index[source]].append(index[target])

    best = 0
    # longest[(mask, last)] = longest simple path over `mask` ending at `last`
    frontier = {(1 << i, i): 0 for i in range(len(nodes))}
    while frontier:
        nxt = {}
        for (mask, last), length in frontier.items():
            for t in succ[last]:
                if mask & (1 << t):
                    continue
                key = (mask | (1 << t), t)
                if nxt.get(key, -1) < length + 1:
                    nxt[key] = length + 1
                    best = max(best, length + 1)
        frontier = nxt
    return best


class TestAboxDepth:
    def test_chain(self):
        kb = parse_kb("R(a, b)\nR(b, c)\n")
        assert kb.abox.depth == 2

    def test_empty_role_graph(self):
        kb = parse_kb("C(a)\n")
        assert kb.abox.depth == 0

    def test_cycle_counts_once(self):
        kb = parse_kb("R(a, b)\nR(b, a)\n")
        assert kb.abox.depth == 1

    def test_parallel_roles_collapse(self):
        kb = parse_kb("R(a, b)\nS(a, b)\n")
        assert kb.abox.depth == 1

    def test_family_matches_oracle(self, family_kb, fathers_kb):
        for kb in (family_kb, fathers_kb):
            assert kb.abox.depth == longest_path_oracle(kb)

    def test_random_kbs_match_oracle(self):
        kbs = [*(random_kb(seed, KbShape(individuals=7, role_assertions=10))
                 for seed in range(40)),
               *map(random_kb, range(50))]
        for kb in kbs:
            assert kb.abox.depth == longest_path_oracle(kb)

    def test_dense_digraphs_match_oracle(self):
        # the search stops at the simple-path bound (individuals with an
        # edge to another, minus one); cover graphs that reach it and not
        reached = 0
        for seed in range(60):
            kb = random_digraph(seed, 8, 6 + seed % 20)
            depth = kb.abox.depth
            assert depth == longest_path_oracle(kb), seed
            linked = {x for _, s, t in kb.abox.role_assertions if s != t
                      for x in (s, t)}
            reached += depth == len(linked) - 1
        assert 10 < reached < 50  # 27 of 60

    def test_long_chain_needs_no_recursion(self):
        # the search keeps its own stack: 1,499 edges deep, past Python's
        # default recursion limit
        kb = parse_kb("".join(f"r(a{i:04}, a{i + 1:04})\n"
                              for i in range(1499)))
        assert len(kb.individuals) == 1500
        assert kb.abox.depth == 1499


class TestMscApprox:
    def test_depth_zero_claudia(self, family_kb):
        result = msc_approx(family_kb, "Claudia", 0)
        names = concept_names_in(result.concept)
        assert {"Woman", "Sibling", "Child", "Human", "Female"} <= names
        # depth 0: no role restrictions at all
        assert concept_depth(result.concept) == 0

    def test_depth_zero_is_exactly_the_memberships(self, family_kb):
        result = msc_approx(family_kb, "Claudia", 0)
        names = concept_names_in(result.concept)
        for name in family_kb.signature.concept_names:
            holds = "Claudia" in retrieve_canonical(family_kb, Atom(name))
            assert (name in names) == holds

    def test_no_assertions_gives_top(self, family_kb):
        result = msc_approx(family_kb, "Nicola", 0)
        assert result.concept == Top()
        assert msc_approx(family_kb, "Nicola", 5).concept == Top()

    def test_unknown_individual(self, family_kb):
        with pytest.raises(UnknownIndividual):
            msc_approx(family_kb, "Nobody", 0)

    def test_depth_respected(self, family_kb):
        for depth in (0, 1, 2, 3):
            result = msc_approx(family_kb, "Claudia", depth)
            assert concept_depth(result.concept) <= depth
            assert result.depth == depth

    def test_default_depth_is_abox_depth(self, family_kb):
        result = msc_approx(family_kb, "Claudia")
        assert result.depth == family_kb.abox.depth

    def test_self_membership_all_individuals(self, family_kb):
        for individual in sorted(family_kb.individuals):
            for depth in (0, 1, 2):
                result = msc_approx(family_kb, individual, depth)
                assert individual in retrieve_canonical(family_kb, result.concept)

    def test_self_membership_entail_backend(self, fathers_kb):
        for individual in sorted(fathers_kb.individuals):
            result = msc_approx(fathers_kb, individual, 1,
                                ExtensionEngine(fathers_kb, Backend.ENTAIL))
            reasoner = TableauReasoner(fathers_kb)
            assert reasoner.instance_check(individual, result.concept)

    def test_specificity_monotone_in_depth(self, family_kb):
        reasoner = TableauReasoner(family_kb)
        for individual in sorted(family_kb.individuals):
            previous = None
            for depth in (0, 1, 2, 3):
                concept = msc_approx(family_kb, individual, depth).concept
                if previous is not None:
                    assert reasoner.subsumes(previous, concept)
                previous = concept
        # the search itself (ROADMAP W2): copy-on-write states and
        # interned concepts must not change it
        assert reasoner.stats.satisfiability_calls == 33
        assert reasoner.stats.branches_explored == 18_568
        assert reasoner.stats.node_copies == 58_253

    def test_cycle_cut_yields_top_restriction(self):
        kb = parse_kb("C(a)\nR(a, b)\nR(b, a)\n")
        result = msc_approx(kb, "a", 4)
        # the path a -> b -> a is cut at the revisit: exists R.Top
        assert Exists("R", Top()) in walk_exists(result.concept)
        assert concept_depth(result.concept) <= 2

    def test_terminates_on_cyclic_abox_at_large_depth(self, family_kb):
        # mutual HasParent/HasChild assertions form 2-cycles
        result = msc_approx(family_kb, "Claudia", 50)
        assert "Claudia" in retrieve_canonical(family_kb, result.concept)

    def test_entail_backend_raises_on_atleast_definition(self, family_kb):
        # retrieving Sibling by refutation needs the negated at-least
        from alcsim.errors import UnsupportedNegation
        with pytest.raises(UnsupportedNegation):
            msc_approx(family_kb, "Claudia", 0,
                       ExtensionEngine(family_kb, Backend.ENTAIL))


def plain_roll_up(kb, individual, depth, name_exts):
    """The roll-up with its parts in the order met, neither deduplicated
    nor sorted: the names, then one ``exists`` per out-edge."""
    def visit(x, d, path):
        parts = [Atom(name) for name, ext in name_exts.items() if x in ext]
        if d > 0:
            for role, source, t in sorted(kb.abox.role_assertions):
                if source == x:
                    parts.append(Exists(role, Top() if t in path else
                                        visit(t, d - 1, path | {t})))
        return make_and(parts)

    return visit(individual, depth, {individual})


def subconcepts(c):
    """``c`` and every concept below it."""
    out, stack = set(), [c]
    while stack:
        node = stack.pop()
        out.add(node)
        stack.extend(getattr(node, "args", ()))
        if isinstance(node, Exists):
            stack.append(node.filler)
    return out


class TestNormalFormRollUp:
    """``msc_approx`` builds its concept in normal form: ``normalize`` of
    the plain roll-up, and a fixed point of ``normalize``."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), atleast=st.booleans(),
           backend=st.sampled_from(Backend))
    def test_equals_normalized_plain_roll_up(self, seed, atleast, backend):
        kb = with_atleast(seed)[0] if atleast else random_kb(seed)
        engine = ExtensionEngine(kb, backend)
        try:
            name_exts = {name: kb.abox.members(mask)
                         for name, mask in engine.name_masks.items()}
        except UnsupportedNegation:
            return      # msc_approx raises on this KB and backend
        for individual in sorted(kb.individuals):
            for depth in (0, 1, 2):
                concept = msc_approx(kb, individual, depth, engine).concept
                assert concept == normalize(
                    plain_roll_up(kb, individual, depth, name_exts))
                assert normalize(concept) == concept

    def test_str_is_injective_on_roll_ups(self):
        # msc_approx dedupes a node's parts by their text
        for seed in range(50):
            for kb in (random_kb(seed), with_atleast(seed)[0]):
                parts = set()
                for backend in Backend:
                    engine = ExtensionEngine(kb, backend)
                    for individual in sorted(kb.individuals):
                        for depth in (0, 1, 2, None):
                            try:
                                concept = msc_approx(kb, individual, depth,
                                                     engine).concept
                            except UnsupportedNegation:
                                continue
                            parts |= subconcepts(concept)
                assert len({str(c) for c in parts}) == len(parts), seed


def expr_roll_up(abox, name_masks, x, d, visited):
    """The roll-up of the individual with bit ``x`` at depth ``d`` built as
    a concept tree, with its ``str`` and its ``concept_depth``: the plain
    path for ``msc._rollup``, which interns the same concept on ids."""
    parts = {name: (Atom(name), 0)
             for name, ext in name_masks.items() if ext & x}
    if d > 0:
        for role, (succ, _) in abox.images.items():
            out = succ.get(x, 0)
            while out:      # each successor, lowest bit first
                out ^= (bit := out & -out)
                filler, text, height = (Top(), "Top", 0) if visited & bit else (
                    expr_roll_up(abox, name_masks, bit, d - 1, visited | bit))
                if isinstance(filler, And):
                    text = f"({text})"
                parts.setdefault(f"exists {role}.{text}",
                                 (Exists(role, filler), height + 1))
    if not parts:
        return Top(), "Top", 0
    texts = sorted(parts)
    return (make_and(parts[t][0] for t in texts), " and ".join(texts),
            max(parts[t][1] for t in texts))


def assert_matches_expr_roll_up(kb):
    """``msc_approx`` on both backends, at depths 0-3 and auto, equals the
    concept tree built by ``expr_roll_up`` from the engine's name masks."""
    for backend in Backend:
        engine = ExtensionEngine(kb, backend)
        try:
            names = engine.name_masks
        except UnsupportedNegation:
            continue    # msc_approx raises on this KB and backend
        for individual in sorted(kb.individuals):
            bit = kb.abox.bits[individual]
            for depth in (0, 1, 2, 3, None):
                result = msc_approx(kb, individual, depth, engine)
                concept, text, height = expr_roll_up(kb.abox, names, bit,
                                                     result.depth, bit)
                assert result.concept == concept, (individual, depth)
                assert str(result.concept) == text
                assert concept_depth(result.concept) == height


class TestRollUpOnIds:
    @pytest.mark.parametrize("fixture", ["family_kb", "fathers_kb"])
    def test_fixtures(self, fixture, request):
        assert_matches_expr_roll_up(request.getfixturevalue(fixture))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), atleast=st.booleans())
    def test_random_kbs(self, seed, atleast):
        assert_matches_expr_roll_up(with_atleast(seed)[0] if atleast
                                    else random_kb(seed))


def concept_path_extension(kb, individual, depth):
    """Canonical extension of the built and normalised MSC concept."""
    concept = msc_approx(kb, individual, depth).concept
    return ExtensionEngine(kb).extension(concept)


def assert_matches_concept_path(kb, depths=(0, 1, 2, None)):
    for individual in sorted(kb.individuals):
        for depth in depths:
            assert msc_extension(kb, individual, depth) == (
                concept_path_extension(kb, individual, depth)
            ), (individual, depth)


class TestMscExtension:
    """``msc_extension`` against the concept path as the oracle."""

    def test_family_fixture(self, family_kb):
        assert_matches_concept_path(family_kb)

    def test_fathers_fixture(self, fathers_kb):
        assert_matches_concept_path(fathers_kb)

    def test_random_kbs(self):
        for seed in range(20):
            assert_matches_concept_path(random_kb(seed))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), depth=st.integers(0, 3))
    def test_random_kbs_property(self, seed, depth):
        assert_matches_concept_path(random_kb(seed), (depth,))

    def test_atleast_kbs(self):
        # forall and atleast in definitions feed the names' meets
        for seed in range(20):
            assert_matches_concept_path(with_atleast(seed)[0])

    def test_cycle_cut(self):
        kb = parse_kb("R(a, b)\nR(b, a)\nR(g, h)\nR(h, i)\nR(i, j)\n")
        # a -> b -> a is cut to exists R.(exists R.Top), which the chain's
        # g and h also satisfy; no cut would give exists R^4.Top
        assert msc_extension(kb, "a", 4) == {"a", "b", "g", "h"}
        assert_matches_concept_path(kb, (0, 1, 2, 3, 4))

    def test_shared_engine(self, family_kb):
        engine = ExtensionEngine(family_kb)
        for individual in sorted(family_kb.individuals):
            assert msc_extension(family_kb, individual, 2, engine) == (
                concept_path_extension(family_kb, individual, 2))

    def test_unknown_individual(self, family_kb):
        for roll_up in (msc_approx, msc_extension):
            with pytest.raises(UnknownIndividual):
                roll_up(family_kb, "Nobody", 0)

    def test_negative_depth(self, family_kb):
        for roll_up in (msc_approx, msc_extension):
            with pytest.raises(ValueError):
                roll_up(family_kb, "Claudia", -1)

    def test_no_engine_is_a_canonical_one(self):
        # the engine's backend is the MSC's
        kb = random_kb(0)
        assert msc_approx(kb, "a", 1, engine=ExtensionEngine(kb)) == (
            msc_approx(kb, "a", 1))

    def test_engine_of_another_kb_rejected(self):
        # its names' extensions and role images are another KB's
        k0, k1 = random_kb(0), random_kb(1)
        for backend in Backend:
            with pytest.raises(ValueError):
                msc_approx(k1, "a", 1, ExtensionEngine(k0, backend))
        with pytest.raises(ValueError):
            msc_extension(k1, "a", 1, ExtensionEngine(k0))
        # an equal KB is the same KB
        assert msc_extension(k1, "a", 1, ExtensionEngine(random_kb(1))) == (
            msc_extension(k1, "a", 1))


def entail_answer(compute):
    """``compute()``, or the type of the ``AlcsimError`` it raises."""
    try:
        return compute()
    except AlcsimError as exc:
        return type(exc)


def assert_entail_matches_concept_path(kb, depths=(0, 1, 2, None)):
    masks = ExtensionEngine(kb, Backend.ENTAIL)
    for depth in depths:
        concepts = ExtensionEngine(kb, Backend.ENTAIL)
        for individual in sorted(kb.individuals):
            assert entail_answer(
                lambda: msc_extension(kb, individual, depth, masks)
            ) == entail_answer(lambda: concepts.extension(msc_approx(
                kb, individual, depth, concepts).concept)), (
                individual, depth)


# a check of exists s.H on g meets a negated at-least; y's roll-up at depth
# 1 asks it, and so does x's at depth 2, where the whole concept answers
UNKNOWN_GAP_KB = """\
H := atleast 2 t
L := (exists s.H) or B
D := exists r.(L and exists s.H)
H(z)
D(c)
L(g)
r(x, y)
s(y, z)
r(c, g)
s(g, w)
"""


class TestEntailMscExtension:
    """``msc_extension`` on an entail engine against the engine's
    extension of the built concept, or the same typed error."""

    def test_fixtures(self, family_kb, fathers_kb):
        assert_entail_matches_concept_path(family_kb)
        assert_entail_matches_concept_path(fathers_kb)

    def test_random_kbs(self):
        for seed in range(50):
            assert_entail_matches_concept_path(random_kb(seed))

    def test_atleast_kbs(self):
        for seed in range(50):
            assert_entail_matches_concept_path(with_atleast(seed)[0])

    def test_a_raising_check_defers_to_the_concept(self):
        kb = parse_kb(UNKNOWN_GAP_KB)
        engine = ExtensionEngine(kb, Backend.ENTAIL)
        assert msc_extension(kb, "x", 2, engine) == {"c", "x"}
        with pytest.raises(UnsupportedNegation):
            msc_extension(kb, "y", 1, engine)
        assert_entail_matches_concept_path(kb)

    def test_a_raising_check_is_not_searched_again(self):
        # x's mask path meets the raising gap check, its only check, and
        # the concept path it falls back to decides x by the bounds; the
        # engine remembers both, so a second call makes no check, for x
        # and for y, which raises both times
        kb = parse_kb(UNKNOWN_GAP_KB)
        counts = []
        for through_masks in (True, False):
            engine = ExtensionEngine(kb, Backend.ENTAIL)
            engine.name_masks
            stats = engine._reasoner.stats
            before = stats.instance_checks
            if through_masks:
                msc_extension(kb, "x", 2, engine)
            else:
                engine.extension(msc_approx(kb, "x", 2, engine).concept)
            counts.append(stats.instance_checks - before)
        assert counts == [1, 0]

        def second_call(individual, depth):
            """Both calls' answers on one engine, and the second's checks."""
            engine = ExtensionEngine(kb, Backend.ENTAIL)
            engine.name_masks
            stats = engine._reasoner.stats
            answers = []
            for _ in range(2):
                before = stats.instance_checks
                try:
                    answers.append(msc_extension(kb, individual, depth, engine))
                except UnsupportedNegation:
                    answers.append(UnsupportedNegation)
            return answers, stats.instance_checks - before

        assert second_call("x", 2) == ([{"c", "x"}] * 2, 0)
        assert second_call("y", 1) == ([UnsupportedNegation] * 2, 0)

    def test_raising_name_extensions_fill_no_memo(self):
        # a second call on the engine raises the same error, not KeyError
        kb = with_atleast(8)[0]
        engine = ExtensionEngine(kb, Backend.ENTAIL)
        for _ in range(2):
            with pytest.raises(UnsupportedNegation):
                msc_extension(kb, "a", 1, engine)
        assert "rollup_masks" not in vars(engine)


def random_digraph(seed, individuals, edges, mirrored=False):
    """``edges`` distinct ``r``/``s`` assertions between distinct
    individuals drawn from ``random.Random(seed)``, each also reversed
    when ``mirrored``, plus two self-loops, three names and a definition."""
    rng = random.Random(seed)
    names = [f"i{k}" for k in range(individuals)]
    pairs = set()
    while len(pairs) < edges:
        a, b = rng.sample(names, 2)
        pairs.add((rng.choice("rs"), a, b))
    if mirrored:
        pairs |= {(role, b, a) for role, a, b in pairs}
    pairs |= {(rng.choice("rs"), a, a) for a in rng.sample(names, 2)}
    lines = [f"{role}({a}, {b})" for role, a, b in sorted(pairs)]
    lines += [f"{rng.choice('AB')}({a})" for a in rng.sample(names, 3)]
    return parse_kb("D := A and exists r.B\n" + "\n".join(lines) + "\n")


class TestSharedRollUpMemo:
    """One engine's masks serve every roll-up of a matrix: each answer
    must equal a fresh engine's and the concept path's."""

    def assert_shared_engine_agrees(self, kb, seed):
        jobs = [(individual, depth) for individual in sorted(kb.individuals)
                for depth in (0, 1, 2, 3, None)]
        random.Random(seed).shuffle(jobs)
        engine = ExtensionEngine(kb)
        for individual, depth in jobs:
            shared = msc_extension(kb, individual, depth, engine)
            assert shared == msc_extension(kb, individual, depth)
            assert shared == concept_path_extension(kb, individual, depth), (
                seed, individual, depth)

    def test_random_kbs(self):
        for seed in range(20):
            self.assert_shared_engine_agrees(random_kb(seed), seed)

    def test_cycles_and_self_loops(self):
        for seed in range(20):
            kb = random_digraph(seed, 5, 3, mirrored=True)
            roles = kb.abox.role_assertions
            assert any(s == t for _, s, t in roles)
            assert any((r, t, s) in roles for r, s, t in roles if s != t)
            self.assert_shared_engine_agrees(kb, seed)


class TestOwnMembership:
    """Every individual is in its own roll-up's extension: the invariant
    that lets ``msc_extension`` skip subtrees."""

    @staticmethod
    def assert_members(kb):
        engine = ExtensionEngine(kb)
        for individual in sorted(kb.individuals):
            for depth in (0, 1, 2, 3, None):
                assert individual in msc_extension(kb, individual, depth,
                                                   engine), (individual, depth)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000))
    def test_random_kbs(self, seed):
        self.assert_members(random_kb(seed))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000))
    def test_atleast_kbs(self, seed):
        self.assert_members(with_atleast(seed)[0])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000))
    def test_cycles_and_self_loops(self, seed):
        self.assert_members(random_digraph(seed, 5, 3, mirrored=True))


def walk_exists(c):
    """All existential restriction nodes in a concept tree."""
    out = []
    stack = [c]
    while stack:
        node = stack.pop()
        if isinstance(node, Exists):
            out.append(node)
            stack.append(node.filler)
        for child in getattr(node, "args", ()):
            stack.append(child)
    return out
