"""Write ``expected.json``: the inputs of ``kb_churn`` and every expected output.

Run from the repository root as ``python3 perfbench/record.py``.  The file is
recorded once, on the commit that defines the benchmark, and later commits are
checked against it; re-recording it hides a change in the program's answers.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

from run import HERE, import_alcsim
from workloads import (CHURN_CONCEPT_DEPTH, CHURN_REQUESTS, CHURN_SHAPE,
                       CLUSTER_LINKAGE, ENTAIL_KB_SEEDS, ENTAIL_SHAPE,
                       SWEEP_DEPTHS, digest, fill, matrix_cells, merge_sets,
                       run_cli, sweep_key, write_fixtures)

PINNED = {
    "sim Grandparent Father":
        ["sim", "{family}", "Grandparent", "Father", "--format", "json"],
    "sim Claudia Tiziana":
        ["sim", "{family}", "ind:Claudia", "ind:Tiziana", "--format", "json"],
    "subsumes Father Parent":
        ["subsumes", "{fathers}", "Father", "Parent", "--format", "json"],
    "retrieve Father entail":
        ["retrieve", "{fathers}", "Father", "--backend", "entail",
         "--format", "json"],
    "cluster family concepts":
        ["cluster", "{family}", "Woman", "Mother", "Father", "Man",
         "--format", "json"],
}


def record(alcsim, workdir: Path) -> dict:
    from alcsim.gen import KbShape, random_concept, random_kb

    files = write_fixtures(alcsim, workdir)
    pinned = {}
    for label, argv in PINNED.items():
        code, stdout = run_cli(alcsim, fill(argv, files))
        pinned[label] = {"argv": argv, "code": code, "stdout": stdout}

    family = alcsim.load_fixture("family")
    labels = sorted(family.individuals)
    matrix = alcsim.sim_matrix(family, labels)
    family_matrix = {
        "cells": matrix_cells(labels, matrix),
        "merges": merge_sets(alcsim.cluster_matrix(labels, matrix,
                                                   CLUSTER_LINKAGE)),
    }

    entail_matrix = {}
    for seed in ENTAIL_KB_SEEDS:
        kb = random_kb(seed, KbShape(**ENTAIL_SHAPE))
        items = sorted(kb.individuals)
        entail_matrix[str(seed)] = {
            "kb_sha": digest(alcsim.parser.serialize_kb(kb)),
            "cells": matrix_cells(items, alcsim.sim_matrix(
                kb, items, 1, alcsim.Backend.ENTAIL)),
        }

    reasoner = alcsim.TableauReasoner(family)
    sweep = {}
    for a in labels:
        msc = [alcsim.msc_approx(family, a, d).concept
               for d in range(max(SWEEP_DEPTHS) + 2)]
        for d in SWEEP_DEPTHS:
            sweep[sweep_key(a, d, True)] = reasoner.subsumes(msc[d], msc[d + 1])
            sweep[sweep_key(a, d, False)] = reasoner.subsumes(msc[d + 1], msc[d])

    churn = []
    path = workdir / "churn.dlkb"
    for kb_seed in range(CHURN_REQUESTS):
        kb = random_kb(kb_seed, KbShape(**CHURN_SHAPE))
        text = alcsim.parser.serialize_kb(kb)
        path.write_text(text)
        rng = random.Random(kb_seed)
        names = sorted(kb.signature.concept_names)
        roles = sorted(kb.signature.role_names)

        def concept() -> str:
            return str(random_concept(rng, names, roles, CHURN_CONCEPT_DEPTH))

        if kb_seed % 2 == 0:
            argv = ["sim", "{kb}", f"concept:{concept()}", f"concept:{concept()}",
                    "--format", "json"]
        else:
            argv = ["retrieve", "{kb}", concept(), "--format", "json"]
        code, stdout = run_cli(alcsim, fill(argv, {"{kb}": path}))
        churn.append({"kb_seed": kb_seed, "kb_sha": digest(text), "argv": argv,
                      "code": code, "stdout": stdout})

    return {"pinned": pinned, "family_matrix": family_matrix,
            "entail_matrix": entail_matrix, "subsumption_sweep": sweep,
            "kb_churn": churn}


def main() -> None:
    alcsim = import_alcsim()
    workdir = HERE / ".work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        data = record(alcsim, workdir)
    finally:
        shutil.rmtree(workdir)
    (HERE / "expected.json").write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
