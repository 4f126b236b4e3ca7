"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

They are not part of the repository's test suite, which collects ``tests/``
only; the subsumption test spends about 25 s in the tableau.
"""

from __future__ import annotations

import gc
import importlib
import json
import types

import pytest

import run
from spans import LAYERS, SESSION_CLASSES, Tracer
from workloads import mark_collections, merge_sets, timed

EXPECTED = json.loads((run.HERE / "expected.json").read_text())


def set_up(name: str, tmp_path, seed: int = 7):
    workload, pinned, _ = run.set_up(name, seed, tmp_path, EXPECTED)
    return workload, pinned


def bindings() -> dict:
    """Every attribute the tracer may replace, by owner and name."""
    import alcsim
    owners = [alcsim] + [importlib.import_module(f"alcsim.{m}") for m in LAYERS]
    owners += [getattr(importlib.import_module(f"alcsim.{m}"), c)
               for m, c in SESSION_CLASSES]
    return {(id(owner), name): value for owner in owners
            for name, value in list(vars(owner).items())
            if isinstance(value, types.FunctionType)}


def test_tracer_restores_the_original_functions(tmp_path):
    set_up("kb_churn", tmp_path)
    before = bindings()
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            assert bindings() != before
            raise RuntimeError("traced code failed")
    assert bindings() == before
    assert tracer.stack == []


def test_tableau_counts_from_the_outermost_reasoner_call(tmp_path):
    import alcsim
    set_up("family_matrix", tmp_path)
    fathers = alcsim.load_fixture("fathers")
    father, parent = alcsim.Atom("Father"), alcsim.Atom("Parent")
    with Tracer() as tracer:
        assert alcsim.subsumes(parent, father, fathers.tbox)
        assert alcsim.TableauReasoner(fathers).equivalent(father, father)
    assert tracer.tableau["satisfiability_calls"] == 3
    keys = [span.key for span in tracer.spans]
    assert keys.count("tableau.TableauReasoner.is_satisfiable") == 3


def test_self_times_count_each_second_once(tmp_path):
    _, pinned = set_up("family_matrix", tmp_path)
    with Tracer() as tracer:
        assert pinned.run() == 0
    roots = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    assert sum(tracer.self_times()) == pytest.approx(roots)
    assert {"msc", "canonical", "tableau", "cluster"} <= {
        s.layer for s in tracer.spans}


def test_op_latency_is_the_minimum_over_passes():
    passes = [{"pieces": [[0.1, 0.2], [0.02]], "ops": [3, 1]},
              {"pieces": [[0.4, 0.1], [0.01]], "ops": [3, 1]}]
    # call 0 takes 0.1 + 0.1 piece by piece, shared by its 3 cells
    assert run.op_latencies(passes) == pytest.approx([0.2 / 3] * 3 + [0.01])


def test_a_call_cut_differently_takes_its_whole_minimum():
    assert run.call_latency(([0.1, 0.2], [0.25])) == pytest.approx(0.25)


def test_timed_cuts_a_call_where_the_collector_runs():
    with mark_collections():
        op = timed(lambda: [gc.collect() for _ in range(3)], None)
    assert len(op.pieces) == 4
    assert min(op.pieces) >= 0
    assert len(timed(gc.collect, None).pieces) == 1  # not marking any more


def test_passes_cut_their_calls_alike():
    one, two = (run.pass_in_fresh_process("kb_churn", 5) for _ in range(2))
    assert [len(p) for p in one["pieces"]] == [len(p) for p in two["pieces"]]
    assert sum(map(len, one["pieces"])) > len(one["pieces"])


def outputs(workload, ops) -> list:
    assert sum(workload.failed_ops(op) for op in ops) == 0
    if workload.name == "family_matrix":
        return [(matrix, merge_sets(dendrogram))
                for matrix, dendrogram in (op.output for op in ops)]
    return [op.output for op in ops]


@pytest.mark.parametrize("name", ["family_matrix", "kb_churn", "entail_matrix"])
def test_traced_and_untraced_passes_agree(name, tmp_path):
    workload, pinned = set_up(name, tmp_path)
    plain = outputs(workload, workload.run_pass())
    with Tracer():
        assert pinned.run() == 0
        traced = outputs(workload, workload.run_pass())
    assert traced == plain


def traced_pass(workload) -> dict:
    with Tracer() as tracer:
        workload.run_pass()
    return {name: value for name, value in tracer.metrics().items()
            if not name.endswith("_s")}


def test_family_matrix_counts_repeat(tmp_path):
    workload, _ = set_up("family_matrix", tmp_path)
    first, second = traced_pass(workload), traced_pass(workload)
    assert first == second
    assert first["retrieval.extension.calls"] == 2046
    assert first["msc.approx.calls"] == 132
    assert first["canonical.build.calls"] == 198
    assert first["similarity.pairs"] == 66
    assert first["tableau.sat.calls"] == 0


def test_subsumption_sweep_counts_repeat(tmp_path):
    workload, _ = set_up("subsumption_sweep", tmp_path)
    first, second = traced_pass(workload), traced_pass(workload)
    assert first == second
    assert first["tableau.branches"] == 18786
    assert first["tableau.sat.calls"] == 66
    assert first["canonical.eval.calls"] == 0


def test_seed_changes_inputs_but_not_answers(tmp_path):
    one, _ = set_up("entail_matrix", tmp_path / "a", seed=1)
    two, _ = set_up("entail_matrix", tmp_path / "b", seed=2)
    again, _ = set_up("entail_matrix", tmp_path / "c", seed=1)
    names = [sorted(kb.individuals) for kb, *_ in one.kbs]
    assert names == [sorted(kb.individuals) for kb, *_ in again.kbs]
    assert names != [sorted(kb.individuals) for kb, *_ in two.kbs]
    for workload in (one, two):
        assert sum(workload.failed_ops(op) for op in workload.run_pass()) == 0
