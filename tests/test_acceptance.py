"""Acceptance suite: one test per release criterion.

Each test prints a single ``criterion N: PASS`` line on success (visible
with ``pytest -s``); a failing criterion fails its test.  Tolerances are
exact rational equality unless a runtime bound is stated.
"""

import random
import time
from fractions import Fraction

from alcsim.cli import main
from alcsim.gen import KbShape, random_concept, random_kb
from alcsim.model import And, Atom, Or, Top
from alcsim.msc import msc_approx
from alcsim.retrieval import Backend
from alcsim.similarity import sim_formula, sim_pair
from alcsim.tableau import TableauReasoner
from oracles import eval_concept, normalize, retrieve_canonical


def ok(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS ({detail})")


def test_criterion_1_family_concept_similarity(family_kb, capsys, tmp_path):
    started = time.perf_counter()
    report = sim_pair(family_kb, Atom("Grandparent"), Atom("Father"),
                      backend=Backend.CANONICAL)
    elapsed = time.perf_counter() - started
    assert (report.ext_c, report.ext_d, report.ext_i) == (2, 3, 2)
    assert report.value == Fraction(2, 3)
    assert f"{float(report.value):.4f}" == "0.6667"
    assert elapsed < 1.0

    # same numbers through the command line, load included in the budget
    from alcsim import fixture_text
    path = tmp_path / "family.dlkb"
    path.write_text(fixture_text("family"))
    started = time.perf_counter()
    code = main(["sim", str(path), "Grandparent", "Father"])
    cli_elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0
    assert "value: 0.6667" in out
    assert "ext: (2, 3, 2)" in out
    assert cli_elapsed < 1.0
    ok(1, f"sim(Grandparent, Father) = 2/3 with ext (2, 3, 2) in {cli_elapsed:.3f}s")


def test_criterion_2_formula_value():
    assert sim_formula(2, 1, 1) == Fraction(1, 2)
    ok(2, "sim_formula(2, 1, 1) = 1/2 exactly")


def test_criterion_3_individual_similarity(family_kb):
    # The bundled family fixture is arranged so the individual-level
    # worked value reproduces exactly at the default depth bound.
    report = sim_pair(family_kb, "Claudia", "Tiziana")
    assert (report.ext_c, report.ext_d) == (2, 1)
    assert report.ext_i == 1
    assert report.value == Fraction(1, 2)
    ok(3, "sim(Claudia, Tiziana) = 1/2 with ext (2, 1, 1) at depth "
          f"{report.msc_depth}")


def test_criterion_4_reasoning_examples(fathers_kb):
    reasoner = TableauReasoner(fathers_kb)
    timings = []

    started = time.perf_counter()
    assert reasoner.subsumes(Atom("Parent"), Atom("Father"))
    timings.append(time.perf_counter() - started)

    started = time.perf_counter()
    assert reasoner.subsumes(Atom("Father"), Atom("FatherWithoutSons"))
    timings.append(time.perf_counter() - started)

    started = time.perf_counter()
    assert reasoner.instance_check("Leonardo", Atom("Father"))
    timings.append(time.perf_counter() - started)

    assert all(t < 0.1 for t in timings)
    ok(4, "Father below Parent, FatherWithoutSons below Father, "
          f"Father(Leonardo) entailed; max {max(timings) * 1000:.1f} ms")


def _measure_kbs(count):
    shapes = [
        KbShape(individuals=8, primitives=3, defined=3),
        KbShape(individuals=6, primitives=2, defined=3, role_assertions=10),
        KbShape(individuals=4, primitives=3, defined=2, role_assertions=5),
        KbShape(individuals=8, primitives=4, defined=2, concept_assertions=10),
    ]
    for seed in range(count):
        yield seed, random_kb(seed, shapes[seed % len(shapes)])


def test_criterion_5_measure_properties():
    rng = random.Random(20240)
    kbs = violations = equivalents = disjoints = subsumptions = 0
    for seed, kb in _measure_kbs(500):
        kbs += 1
        names = sorted(kb.signature.concept_names)
        c = random_concept(rng, names, ("r", "s"), 3)
        d = random_concept(rng, names, ("r", "s"), 3)

        forward = sim_pair(kb, c, d)
        backward = sim_pair(kb, d, c)
        self_sim = sim_pair(kb, c, c)
        if not (0 <= forward.value <= 1):
            violations += 1
        if forward.value != backward.value:
            violations += 1
        if forward.value > self_sim.value:
            violations += 1

        ext_c = retrieve_canonical(kb, c)
        ext_d = retrieve_canonical(kb, d)
        if ext_c:
            # equivalent rewritings must score 1
            equivalents += 1
            for variant in (And((c, Top())), Or((c, c))):
                if sim_pair(kb, c, variant).value != 1:
                    violations += 1
        if ext_c and ext_d and not (ext_c & ext_d):
            disjoints += 1
            if forward.value != 0:
                violations += 1
        if ext_c and ext_c <= ext_d:
            subsumptions += 1
            if forward.value != Fraction(len(ext_c), len(ext_d)):
                violations += 1

    assert kbs >= 500
    assert equivalents > 100 and disjoints > 10 and subsumptions > 10
    assert violations == 0
    ok(5, f"{kbs} KBs, {equivalents} equivalence, {disjoints} disjoint, "
          f"{subsumptions} subsumption cases; 0 violations")


def test_criterion_6_cost_accounting(family_kb, fathers_kb):
    pair = sim_pair(family_kb, Atom("Woman"), Atom("Parent"))
    assert pair.extension_computations == 3
    assert pair.msc_computations == 0

    one = sim_pair(family_kb, "Claudia", Atom("Woman"), depth=1)
    assert one.extension_computations == 3
    assert one.msc_computations == 1

    two = sim_pair(family_kb, "Claudia", "Vito", depth=1)
    assert two.extension_computations == 3
    assert two.msc_computations == 2

    # both backends, assorted operands
    rng = random.Random(6)
    for seed in range(20):
        kb = random_kb(seed)
        names = sorted(kb.signature.concept_names)
        c = random_concept(rng, names, ("r", "s"), 2)
        d = random_concept(rng, names, ("r", "s"), 2)
        assert sim_pair(kb, c, d).extension_computations == 3
    entail = sim_pair(fathers_kb, Atom("Father"), Atom("Parent"),
                      backend=Backend.ENTAIL)
    assert entail.extension_computations == 3
    ok(6, "3 extension computations per pair; 1 and 2 MSC computations "
          "for the derived forms")


def test_criterion_7_msc_invariants(family_kb):
    reasoner = TableauReasoner(family_kb)
    memberships = subsumptions = 0
    for individual in sorted(family_kb.individuals):
        concepts = {
            depth: msc_approx(family_kb, individual, depth).concept
            for depth in (0, 1, 2, 3)
        }
        for depth in (0, 1, 2):
            assert individual in retrieve_canonical(family_kb, concepts[depth])
            memberships += 1
            # deeper approximations are more specific
            assert reasoner.subsumes(concepts[depth], concepts[depth + 1])
            subsumptions += 1
    # termination under the cyclic parent/child assertions, far beyond
    # the ABox depth
    deep = msc_approx(family_kb, "Claudia", 25)
    assert "Claudia" in retrieve_canonical(family_kb, deep.concept)
    ok(7, f"{memberships} self-memberships, {subsumptions} tableau-verified "
          "monotonicity checks, termination at depth 25")


def test_criterion_8_cross_backend_coherence():
    shape = KbShape(el_only=True, assert_primitive_only=True)
    rng = random.Random(88)
    kbs = containments = subsumption_checks = 0
    for seed in range(200):
        kb = random_kb(seed, shape)
        assert TableauReasoner(kb).abox_consistent()
        kbs += 1
        names = sorted(kb.signature.concept_names)
        concepts = [
            random_concept(rng, names, ("r", "s"), 2, el_only=True)
            for _ in range(3)
        ]
        for c in concepts:
            assert TableauReasoner(kb).retrieve(c) <= retrieve_canonical(kb, c)
            containments += 1
        reasoner = TableauReasoner(kb)
        for c in concepts:
            for d in concepts:
                if reasoner.subsumes(d, c):
                    assert retrieve_canonical(kb, c) <= retrieve_canonical(kb, d)
                    subsumption_checks += 1
    assert kbs >= 200
    assert subsumption_checks > 100
    ok(8, f"{kbs} KBs, {containments} entail-vs-canonical containments, "
          f"{subsumption_checks} subsumption containments; 0 violations")


def test_criterion_9_normalization_soundness():
    from alcsim.model import TBox
    from alcsim.canonical import build_canonical

    rng = random.Random(99)
    empty = TBox({})
    checked = 0
    for seed in range(50):
        kb = random_kb(seed)
        model = build_canonical(kb)
        names = sorted(kb.signature.concept_names)
        for _ in range(4):
            c = random_concept(rng, names, ("r", "s"), 3)
            normalized = normalize(c)
            assert TableauReasoner.for_tbox(empty).equivalent(c, normalized)
            assert eval_concept(model, c) == eval_concept(model, normalized)
            checked += 1
    assert checked >= 200
    ok(9, f"{checked} concepts: tableau-equivalent and extension-equal "
          "after normalization")


def test_criterion_10_brute_force_similarity_oracle():
    rng = random.Random(1010)
    compared = 0
    for seed in range(120):
        kb = random_kb(seed, KbShape(individuals=6, role_assertions=7))
        if not TableauReasoner(kb).abox_consistent():
            continue
        names = sorted(kb.signature.concept_names)
        c = random_concept(rng, names, ("r", "s"), 2)
        d = random_concept(rng, names, ("r", "s"), 2)

        reasoner = TableauReasoner(kb)
        ext_c = ext_d = ext_i = 0
        for individual in sorted(kb.individuals):
            in_c = reasoner.instance_check(individual, c)
            in_d = reasoner.instance_check(individual, d)
            ext_c += in_c
            ext_d += in_d
            ext_i += in_c and in_d
        expected = sim_formula(ext_c, ext_d, ext_i)

        report = sim_pair(kb, c, d, backend=Backend.ENTAIL)
        assert report.value == expected
        assert (report.ext_c, report.ext_d, report.ext_i) == (ext_c, ext_d, ext_i)
        compared += 1
    assert compared >= 100
    ok(10, f"{compared} KBs: engine similarity equals the one-check-at-a-time "
           "oracle exactly")
