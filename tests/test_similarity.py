import json
import random
from fractions import Fraction

import pytest

from alcsim import load_fixture, model, msc, retrieval, similarity
from alcsim.errors import CardinalityViolation
from alcsim.gen import KbShape, random_concept, random_kb
from alcsim.model import And, Atom, Bottom, Not, Or, Top
from alcsim.parser import parse_kb
from alcsim.retrieval import Backend
from alcsim.similarity import SimilarityReport, sim_formula, sim_matrix, sim_pair
from alcsim.tableau import TableauReasoner
from oracles import retrieve_canonical


class TestSimFormula:
    def test_worked_example_two_thirds(self):
        assert sim_formula(2, 3, 2) == Fraction(2, 3)

    def test_worked_example_half(self):
        assert sim_formula(2, 1, 1) == Fraction(1, 2)

    def test_equal_extensions_give_one(self):
        for n in (1, 2, 10):
            assert sim_formula(n, n, n) == 1

    def test_disjoint_gives_zero(self):
        assert sim_formula(5, 7, 0) == 0
        assert sim_formula(0, 0, 0) == 0

    def test_symmetry(self):
        rng = random.Random(3)
        for _ in range(300):
            n_c, n_d = rng.randint(0, 12), rng.randint(0, 12)
            n_i = rng.randint(0, min(n_c, n_d))
            assert sim_formula(n_c, n_d, n_i) == sim_formula(n_d, n_c, n_i)

    def test_range(self):
        rng = random.Random(4)
        for _ in range(300):
            n_c, n_d = rng.randint(0, 12), rng.randint(0, 12)
            n_i = rng.randint(0, min(n_c, n_d))
            assert 0 <= sim_formula(n_c, n_d, n_i) <= 1

    def test_cardinality_violation(self):
        with pytest.raises(CardinalityViolation):
            sim_formula(2, 3, 4)
        with pytest.raises(CardinalityViolation):
            sim_formula(3, 2, 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sim_formula(-1, 2, 0)

    def test_equals_the_two_factor_form(self):
        # the paper's form: overlap |I|/(|C|+|D|-|I|) times max incidence
        for n_c in range(31):
            for n_d in range(31):
                for n_i in range(1, min(n_c, n_d) + 1):
                    paper = (Fraction(n_i, n_c + n_d - n_i)
                             * max(Fraction(n_i, n_c), Fraction(n_i, n_d)))
                    assert sim_formula(n_c, n_d, n_i) == paper
                assert sim_formula(n_c, n_d, 0) == 0


class TestSimConcepts:
    def test_grandparent_father(self, family_kb):
        report = sim_pair(family_kb, Atom("Grandparent"), Atom("Father"))
        assert report.value == Fraction(2, 3)
        assert (report.ext_c, report.ext_d, report.ext_i) == (2, 3, 2)
        assert report.backend is Backend.CANONICAL
        assert report.extension_computations == 3
        assert report.msc_computations == 0

    def test_identity_is_one(self, family_kb):
        for name in ("Woman", "Father", "Sibling"):
            assert sim_pair(family_kb, Atom(name), Atom(name)).value == 1

    def test_complement_is_zero(self, family_kb):
        report = sim_pair(family_kb, Atom("Woman"), Not(Atom("Woman")))
        assert report.value == 0

    def test_report_invariants(self, family_kb):
        names = ["Woman", "Parent", "Father", "Sibling", "Niece", "Uncle"]
        for left in names:
            for right in names:
                report = sim_pair(family_kb, Atom(left), Atom(right))
                assert report.ext_i <= min(report.ext_c, report.ext_d)
                assert (report.value == 0) == (report.ext_i == 0)
                assert (report.value == 1) == (
                    report.ext_i == report.ext_c == report.ext_d > 0
                )

    def test_entail_backend(self, fathers_kb):
        report = sim_pair(fathers_kb, Atom("Father"), Atom("Parent"),
                          backend=Backend.ENTAIL)
        assert report.backend is Backend.ENTAIL
        assert report.extension_computations == 3
        # only Leonardo's fatherhood is entailed
        assert (report.ext_c, report.ext_d, report.ext_i) == (1, 1, 1)
        assert report.value == 1


class TestSimIndividuals:
    def test_claudia_tiziana_half(self, family_kb):
        report = sim_pair(family_kb, "Claudia", "Tiziana")
        assert report.value == Fraction(1, 2)
        assert (report.ext_c, report.ext_d, report.ext_i) == (2, 1, 1)
        assert report.msc_computations == 2
        assert report.extension_computations == 3
        assert report.msc_depth == 10

    def test_self_similarity_is_one(self, family_kb):
        for individual in ("Claudia", "Antonio", "Nicola"):
            assert sim_pair(family_kb, individual, individual).value == 1

    def test_disconnected_components_are_dissimilar(self):
        kb = parse_kb("A(a)\nR(a, c)\nB(b)\nS(b, d)\n")
        report = sim_pair(kb, "a", "b")
        assert report.value == 0

    def test_individual_concept(self, family_kb):
        report = sim_pair(family_kb, "Claudia", Atom("Woman"))
        assert report.ext_d == 4
        assert report.msc_computations == 1
        assert report.ext_i >= 1  # Claudia is in both extensions

    def test_individual_vs_top_when_msc_is_top(self, family_kb):
        report = sim_pair(family_kb, "Nicola", Top())
        assert report.value == 1

    def test_individual_vs_bottom_is_zero(self, family_kb):
        report = sim_pair(family_kb, "Claudia", Bottom())
        assert report.value == 0


class TestSimPairAndMatrix:
    def test_pair_dispatch_orders_cardinalities(self, family_kb):
        left = sim_pair(family_kb, Atom("Woman"), "Claudia")
        right = sim_pair(family_kb, "Claudia", Atom("Woman"))
        assert left.value == right.value
        assert (left.ext_c, left.ext_d) == (right.ext_d, right.ext_c)

    def test_matrix_example(self, family_kb):
        matrix = sim_matrix(family_kb, [Atom("Grandparent"), Atom("Father")])
        assert matrix == [[1, Fraction(2, 3)], [Fraction(2, 3), 1]]

    def test_single_item(self, family_kb):
        assert sim_matrix(family_kb, [Atom("Woman")]) == [[1]]

    def test_empty_items_rejected(self, family_kb):
        with pytest.raises(ValueError):
            sim_matrix(family_kb, [])

    def test_matrix_symmetric_with_individuals(self, family_kb):
        items = [Atom("Woman"), "Claudia", "Vito", Atom("Father")]
        matrix = sim_matrix(family_kb, items, depth=1)
        for i in range(len(items)):
            for j in range(len(items)):
                assert matrix[i][j] == matrix[j][i]
            assert matrix[i][i] == 1

    @pytest.mark.parametrize("backend", list(Backend))
    def test_depth_past_the_longest_simple_path_changes_the_matrix(
            self, backend):
        # depth auto is the longest simple path, 1: both roll-ups are
        # exists r.B.  At 3, this KB's simple-path bound, a's roll-up is
        # exists r.(B and exists r.Top), the cut at b back to a, and d has
        # no successor.  So no larger bound may stand in for depth auto.
        kb = parse_kb("B(b)\nr(a, b)\nr(b, a)\nB(d)\nr(c, d)\n")
        assert kb.abox.depth == 1
        assert sim_matrix(kb, ["a", "c"], None, backend)[0][1] == 1
        assert sim_matrix(kb, ["a", "c"], 3, backend)[0][1] == Fraction(1, 2)


def pairwise_matrix(kb, items, depth=None, backend=Backend.CANONICAL):
    """The matrix built cell by cell from single-pair reports."""
    return [[sim_pair(kb, x, y, depth, backend).value for y in items]
            for x in items]


def mixed_items(kb, rng):
    """Every individual, interleaved with two concept names and a random concept."""
    names = sorted(kb.signature.concept_names)
    concepts = [Atom(names[0]), Atom(names[-1]),
                random_concept(rng, names, ("r", "s"), 2)]
    items = sorted(kb.individuals)
    for k, concept in enumerate(concepts):
        items.insert(2 * k + 1, concept)
    return items


class TestMatrixOracle:
    """``sim_matrix`` against the per-pair path, as exact fractions."""

    def test_family_fixture(self, family_kb):
        items = mixed_items(family_kb, random.Random(1))
        assert sim_matrix(family_kb, items, 1) == pairwise_matrix(
            family_kb, items, 1)
        few = ["Claudia", Atom("Woman"), "Antonio", "Vito",
               Atom("Grandparent")]
        assert sim_matrix(family_kb, few) == pairwise_matrix(family_kb, few)

    def test_fathers_fixture(self, fathers_kb):
        items = mixed_items(fathers_kb, random.Random(2))
        for depth in (0, 1, None):
            assert sim_matrix(fathers_kb, items, depth) == pairwise_matrix(
                fathers_kb, items, depth)
        assert sim_matrix(fathers_kb, items, 1, Backend.ENTAIL) == (
            pairwise_matrix(fathers_kb, items, 1, Backend.ENTAIL))

    def test_random_kbs_canonical(self):
        rng = random.Random(20)
        for seed in range(20):
            kb = random_kb(seed)
            items = mixed_items(kb, rng)
            for depth in (0, 1, None):
                assert sim_matrix(kb, items, depth) == pairwise_matrix(
                    kb, items, depth), (seed, depth)

    def test_random_kbs_entail(self):
        rng = random.Random(21)
        shape = KbShape(individuals=4, role_assertions=5, concept_assertions=5)
        for seed in range(3):
            kb = random_kb(seed, shape)
            items = mixed_items(kb, rng)
            assert sim_matrix(kb, items, 1, Backend.ENTAIL) == pairwise_matrix(
                kb, items, 1, Backend.ENTAIL), seed

    def test_single_and_repeated_items(self, family_kb):
        for items in (["Claudia"], [Atom("Father")],
                      ["Claudia", "Claudia", Atom("Woman"), Atom("Woman")],
                      ["Vito", Atom("Woman"), "Vito"]):
            assert sim_matrix(family_kb, items, 2) == pairwise_matrix(
                family_kb, items, 2)


def count_calls(monkeypatch, name, *modules) -> list:
    """Wrap ``name`` in each of ``modules`` to record its calls in one list."""
    calls = []

    def wrap(original):
        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        return counted

    for module in modules:
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    return calls


def count_depth_searches(monkeypatch) -> list:
    """Record each search of the ABox depth: the first read of
    ``ABox.depth`` on an ABox, which caches the answer for later reads.
    A test that counts searches parses its own KB, as the session
    fixtures may have been searched already."""
    searches = []
    search = model.ABox.depth.func

    def counted(abox):
        searches.append(abox)
        return search(abox)

    monkeypatch.setattr(model.ABox.depth, "func", counted)
    return searches


class TestMatrixCost:
    def test_one_msc_per_individual_and_one_depth(self, monkeypatch):
        # canonical: one roll-up evaluated straight into its extension per
        # individual, and no MSC concept built
        family_kb = load_fixture("family")
        rollups = count_calls(monkeypatch, "msc_mask", similarity)
        msc_calls = count_calls(monkeypatch, "msc_approx", similarity)
        searches = count_depth_searches(monkeypatch)
        builds = count_calls(monkeypatch, "build_canonical", retrieval)
        individuals = sorted(family_kb.individuals)
        sim_matrix(family_kb, individuals)
        assert len(rollups) == len(individuals)
        assert msc_calls == []
        assert len(searches) <= 1
        assert len(builds) == 1

    def test_one_extension_per_concept_name(self, family_kb, monkeypatch):
        # every roll-up reads the engine's name masks, computed once, and
        # no extension is listed by name
        calls = count_calls(monkeypatch, "mask", retrieval.ExtensionEngine)
        listed = count_calls(monkeypatch, "extension",
                             retrieval.ExtensionEngine)
        sim_matrix(family_kb, sorted(family_kb.individuals))
        names = sorted(family_kb.signature.concept_names)
        assert [concept for _, concept in calls] == [Atom(n) for n in names]
        assert listed == []

    def test_one_fraction_per_distinct_triple(self, family_kb, monkeypatch):
        # cells with the same three counts share one computed value
        triples = count_calls(monkeypatch, "sim_formula", similarity)
        individuals = sorted(family_kb.individuals)
        sim_matrix(family_kb, individuals)
        assert len(triples) == len(set(triples))
        assert len(triples) < len(individuals) * (len(individuals) + 1) // 2

    def test_entail_rolls_up_on_masks(self, monkeypatch):
        # one path per individual on both backends: no MSC concept is built
        # where no instance check raises
        fathers_kb = load_fixture("fathers")
        rollups = count_calls(monkeypatch, "msc_mask", similarity)
        msc_calls = count_calls(monkeypatch, "msc_approx", similarity, msc)
        searches = count_depth_searches(monkeypatch)
        individuals = sorted(fathers_kb.individuals)
        sim_matrix(fathers_kb, individuals, backend=Backend.ENTAIL)
        assert len(rollups) == len(individuals)
        assert msc_calls == []
        assert len(searches) == 1

    def test_no_depth_search_without_individuals(self, monkeypatch):
        family_kb = load_fixture("family")
        searches = count_depth_searches(monkeypatch)
        sim_matrix(family_kb, [Atom("Woman"), Atom("Father")])
        assert searches == []

    def test_individual_pair_searches_depth_once(self, monkeypatch):
        family_kb = load_fixture("family")
        searches = count_depth_searches(monkeypatch)
        report = sim_pair(family_kb, "Claudia", "Tiziana")
        assert len(searches) == 1
        assert report.msc_depth == 10

    def test_one_depth_search_per_abox(self, monkeypatch):
        # the depth is a fact of the frozen ABox: after the first search,
        # every depth-auto call on the KB reads it, on either backend
        kb = load_fixture("fathers")
        searches = count_depth_searches(monkeypatch)
        individuals = sorted(kb.individuals)
        sim_matrix(kb, individuals)
        sim_matrix(kb, individuals, backend=Backend.ENTAIL)
        report = sim_pair(kb, individuals[0], individuals[-1])
        result = msc.msc_approx(kb, individuals[0])
        msc.msc_mask(kb, individuals[-1])
        assert searches == [kb.abox]
        assert report.msc_depth == result.depth == kb.abox.depth

    def test_individual_pair_builds_one_canonical_model(self, family_kb,
                                                         monkeypatch):
        # both MSC roll-ups and the three extensions share one engine
        builds = count_calls(monkeypatch, "build_canonical", retrieval)
        report = sim_pair(family_kb, "Claudia", "Tiziana")
        assert len(builds) == 1
        assert report.value == Fraction(1, 2)
        assert report.extension_computations == 3

    def test_entail_individual_pair_builds_one_reasoner(self, fathers_kb,
                                                        monkeypatch):
        reasoners = count_calls(monkeypatch, "TableauReasoner", retrieval)
        report = sim_pair(fathers_kb, "Leonardo", "Vito",
                          backend=Backend.ENTAIL)
        assert len(reasoners) == 1
        assert report.extension_computations == 3
        assert report.msc_computations == 2


def plain_report(kb, x, y, depth, backend):
    """A pair report the plain way: a fresh MSC per individual, then a
    fresh engine for C, D and C and D."""
    mscs = []

    def concept(item):
        if isinstance(item, str):
            mscs.append(msc.msc_approx(
                kb, item, depth, retrieval.ExtensionEngine(kb, backend)))
            return mscs[-1].concept
        return item

    c, d = concept(x), concept(y)
    engine = retrieval.ExtensionEngine(kb, backend)
    n_c = len(engine.extension(c))
    n_d = len(engine.extension(d))
    n_i = len(engine.extension(And((c, d))))
    return SimilarityReport(sim_formula(n_c, n_d, n_i), n_c, n_d, n_i,
                            backend, 3, len(mscs),
                            mscs[0].depth if mscs else None)


def outcome(compute, *args):
    try:
        return compute(*args)
    except Exception as exc:
        return type(exc)


class TestPairOracle:
    """``sim_pair`` on one shared engine against the plain path, for every
    order of item kinds."""

    def kbs(self, family_kb, fathers_kb):
        yield family_kb, ("Claudia", "Tiziana")
        yield fathers_kb, ("Leonardo", "Vito")
        rng = random.Random(12)
        for seed in range(20):
            kb = random_kb(seed)
            yield kb, tuple(rng.sample(sorted(kb.individuals), 2))

    def test_every_kind_order_on_both_backends(self, family_kb, fathers_kb):
        rng = random.Random(13)
        compared = raised = 0
        for kb, (a, b) in self.kbs(family_kb, fathers_kb):
            names = sorted(kb.signature.concept_names)
            c = Atom(rng.choice(names))
            d = random_concept(rng, names, ("r", "s"), 2)
            for x, y in ((c, d), (a, d), (c, b), (a, b)):
                for backend in Backend:
                    for depth in (None, 1):
                        got = outcome(sim_pair, kb, x, y, depth, backend)
                        want = outcome(plain_report, kb, x, y, depth, backend)
                        assert got == want, (x, y, depth, backend)
                        if isinstance(got, SimilarityReport):
                            assert got.extension_computations == 3
                            compared += 1
                        else:
                            raised += 1
        assert compared > 300
        assert raised > 0


class TestJsonReport:
    def test_fields(self, family_kb):
        report = sim_pair(family_kb, Atom("Grandparent"), Atom("Father"))
        data = json.loads(json.dumps(report.to_json_dict()))
        assert data == {
            "value": 2 / 3, "value_exact": "2/3", "ext_c": 2, "ext_d": 3,
            "ext_i": 2, "backend": "canonical", "extension_computations": 3,
            "msc_computations": 0, "msc_depth": None}
        assert Fraction(data["value_exact"]) == report.value

    def test_fields_with_depth(self, family_kb):
        report = sim_pair(family_kb, "Claudia", "Vito", depth=2)
        data = json.loads(json.dumps(report.to_json_dict()))
        assert data == {
            "value": 0.0, "value_exact": "0/1", "ext_c": 2, "ext_d": 1,
            "ext_i": 0, "backend": "canonical", "extension_computations": 3,
            "msc_computations": 2, "msc_depth": 2}
        assert Fraction(data["value_exact"]) == report.value


def measure_cases(seeds, per_kb=3):
    rng = random.Random(2024)
    for seed in seeds:
        kb = random_kb(seed)
        names = sorted(kb.signature.concept_names)
        for _ in range(per_kb):
            c = random_concept(rng, names, ("r", "s"), 3)
            d = random_concept(rng, names, ("r", "s"), 3)
            yield kb, c, d


class TestMeasureProperties:
    def test_range_and_symmetry(self):
        for kb, c, d in measure_cases(range(40)):
            forward = sim_pair(kb, c, d)
            backward = sim_pair(kb, d, c)
            assert 0 <= forward.value <= 1
            assert forward.value == backward.value

    def test_self_maximality(self):
        for kb, c, d in measure_cases(range(30)):
            assert sim_pair(kb, c, d).value <= sim_pair(kb, c, c).value

    def test_equivalent_variants_give_one(self):
        for kb, c, _ in measure_cases(range(30), per_kb=1):
            if not retrieve_canonical(kb, c):
                continue
            for variant in (And((c, Top())), Or((c, c))):
                assert sim_pair(kb, c, variant).value == 1

    def test_disjoint_extensions_give_zero(self):
        found = 0
        for kb, c, d in measure_cases(range(40)):
            ext_c = retrieve_canonical(kb, c)
            ext_d = retrieve_canonical(kb, d)
            if ext_c and ext_d and not (ext_c & ext_d):
                found += 1
                assert sim_pair(kb, c, d).value == 0
        assert found > 3

    def test_subsumption_form(self):
        found = 0
        for kb, c, d in measure_cases(range(40)):
            ext_c = retrieve_canonical(kb, c)
            ext_d = retrieve_canonical(kb, d)
            if ext_c and ext_c <= ext_d:
                found += 1
                value = sim_pair(kb, c, d).value
                assert value == Fraction(len(ext_c), len(ext_d))
        assert found > 3


class TestBruteForceOracle:
    def naive_sim(self, kb, c, d):
        """Element-by-element extensions via individual instance checks."""
        reasoner = TableauReasoner(kb)
        ext_c = ext_d = ext_i = 0
        for individual in sorted(kb.individuals):
            in_c = reasoner.instance_check(individual, c)
            in_d = reasoner.instance_check(individual, d)
            ext_c += in_c
            ext_d += in_d
            ext_i += in_c and in_d
        return sim_formula(ext_c, ext_d, ext_i)

    def test_agrees_with_sim_pair(self):
        rng = random.Random(512)
        compared = 0
        for seed in range(40):
            kb = random_kb(seed, KbShape(individuals=5, role_assertions=6))
            if not TableauReasoner(kb).abox_consistent():
                continue
            names = sorted(kb.signature.concept_names)
            c = random_concept(rng, names, ("r", "s"), 2)
            d = random_concept(rng, names, ("r", "s"), 2)
            report = sim_pair(kb, c, d, backend=Backend.ENTAIL)
            assert report.value == self.naive_sim(kb, c, d)
            compared += 1
        assert compared > 20
