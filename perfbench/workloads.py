"""The four workloads, the pinned acceptance checks, and their output checks.

Each workload is built in its constructor (the set-up that ``setup_s``
times).  Its ``run_pass`` returns a list of :class:`Op` records, one per
timed call into the program; a call that fills a whole matrix counts one op
per cell.  Its ``failed_ops`` says how many ops of a record gave a wrong
answer.  Outputs are compared with ``expected.json`` after the pass, outside
the timed region.  Every workload is a closed loop with one client: each call
starts when the previous one has returned.

The workload seed never reaches the program.  It only orders the ops and, on
the two workloads built from generated KBs, renames the individuals, which
changes the KB text and the order in which the reasoners visit individuals
but not the answers, so one recorded expectation serves every seed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import string
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ENTAIL_KB_SEEDS = (0, 1, 2, 3, 4, 5)
ENTAIL_SHAPE = dict(individuals=6, role_assertions=8, concept_assertions=8)
CHURN_REQUESTS = 600
CHURN_SHAPE = dict(individuals=8, role_assertions=10, concept_assertions=10)
CHURN_CONCEPT_DEPTH = 3
SWEEP_DEPTHS = (0, 1, 2)
CLUSTER_LINKAGE = "complete"


@dataclass
class Op:
    pieces: list[float]  # the call's wall time, cut where the collector ran
    ops: int       # program ops covered by this call (matrix cells, checks, requests)
    key: object    # what the output is checked against
    output: object  # the call's result, or the exception it raised


# Start times of the garbage collector's runs, while ``mark_collections`` is on.
COLLECTIONS: list[float] = []


def note_collection(phase: str, info: dict) -> None:
    if phase == "start":
        COLLECTIONS.append(time.perf_counter())


@contextlib.contextmanager
def mark_collections():
    """Cut every timed call into pieces at the collector's runs.

    The collector runs after a fixed number of allocations, so in a program
    that makes the same calls on the same inputs under the same hash seed,
    piece *k* of a call covers the same work in every process.
    """
    gc.callbacks.append(note_collection)
    try:
        yield
    finally:
        gc.callbacks.remove(note_collection)


def timed(call, key, ops: int = 1) -> Op:
    start = time.perf_counter()
    COLLECTIONS.clear()
    try:
        output = call()
    except Exception as exc:  # a failed op, counted by the check
        output = exc
    marks = [start, *COLLECTIONS, time.perf_counter()]
    return Op([b - a for a, b in zip(marks, marks[1:])], ops, key, output)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def same_input(alcsim, kb, record: dict) -> bool:
    """Whether the generator still gives the KB the answers were recorded for."""
    return digest(alcsim.parser.serialize_kb(kb)) == record["kb_sha"]


def cell_key(a: str, b: str) -> str:
    return " ".join(sorted((a, b)))


def fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def renamed(alcsim, kb, rng: random.Random):
    """``kb`` with its individuals given random fresh names, and the map back."""
    new_of: dict[str, str] = {}
    for name in sorted(kb.individuals):
        new = None
        while new is None or new in new_of.values():
            new = "i" + "".join(rng.choice(string.ascii_lowercase) for _ in range(5))
        new_of[name] = new
    abox = alcsim.ABox.from_assertions(
        {(c, new_of[a]) for c, a in kb.abox.concept_assertions},
        {(r, new_of[s], new_of[t]) for r, s, t in kb.abox.role_assertions},
    )
    back = {new: old for old, new in new_of.items()}
    return alcsim.KnowledgeBase.assemble(kb.tbox, abox), back


def matrix_cells(labels, matrix) -> dict[str, str]:
    return {cell_key(labels[i], labels[j]): fraction_text(matrix[i][j])
            for i in range(len(labels)) for j in range(i, len(labels))}


def merge_sets(dendrogram) -> list:
    """Merges as (members, members, p/q), independent of the leaf order."""
    members = {i: [leaf] for i, leaf in enumerate(dendrogram.leaves)}
    out = []
    for a, b, sim in dendrogram.merges:
        members[len(members)] = members[a] + members[b]
        out.append([sorted(members[a]), sorted(members[b]), fraction_text(sim)])
    return out


def run_cli(alcsim, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = alcsim.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    return code, out.getvalue()


class FamilyMatrix:
    """Canonical ``sim_matrix`` over the family KB at depth auto, then clustering."""

    name = "family_matrix"

    def __init__(self, alcsim, rng, workdir: Path, expected: dict):
        self.alcsim = alcsim
        self.expected = expected[self.name]
        self.kb = alcsim.load_fixture("family")
        self.items = sorted(self.kb.individuals)
        rng.shuffle(self.items)
        self.cells = len(self.items) * (len(self.items) + 1) // 2

    def run_pass(self) -> list[Op]:
        alcsim = self.alcsim

        def call():
            matrix = alcsim.sim_matrix(self.kb, self.items)
            return matrix, alcsim.cluster_matrix(self.items, matrix,
                                                 CLUSTER_LINKAGE)

        return [timed(call, None, self.cells)]

    def failed_ops(self, op: Op) -> int:
        if isinstance(op.output, Exception):
            return op.ops
        matrix, dendrogram = op.output
        if merge_sets(dendrogram) != self.expected["merges"]:
            return op.ops
        cells = matrix_cells(self.items, matrix)
        return sum(cells.get(k) != v for k, v in self.expected["cells"].items())


class EntailMatrix:
    """``sim_matrix`` on the entail backend at depth 1 over six generated KBs."""

    name = "entail_matrix"

    def __init__(self, alcsim, rng, workdir: Path, expected: dict):
        from alcsim.gen import KbShape, random_kb
        self.alcsim = alcsim
        self.expected = expected[self.name]
        self.kbs = []
        for seed in ENTAIL_KB_SEEDS:
            base = random_kb(seed, KbShape(**ENTAIL_SHAPE))
            kb, back = renamed(alcsim, base, rng)
            items = sorted(kb.individuals)
            rng.shuffle(items)
            self.kbs.append((kb, items, back, self.expected[str(seed)], base))
        rng.shuffle(self.kbs)

    def run_pass(self) -> list[Op]:
        alcsim = self.alcsim
        ops = []
        for entry in self.kbs:
            kb, items = entry[:2]
            ops.append(timed(
                lambda: alcsim.sim_matrix(kb, items, 1, alcsim.Backend.ENTAIL),
                entry, len(items) * (len(items) + 1) // 2))
        return ops

    def failed_ops(self, op: Op) -> int:
        kb, items, back, record, base = op.key
        if (isinstance(op.output, Exception)
                or not same_input(self.alcsim, base, record)):
            return op.ops
        cells = matrix_cells([back[a] for a in items], op.output)
        return sum(cells.get(k) != v for k, v in record["cells"].items())


def sweep_key(individual: str, depth: int, deeper_below: bool) -> str:
    direction = "deeper<=shallower" if deeper_below else "shallower<=deeper"
    return f"{individual} {depth} {direction}"


class SubsumptionSweep:
    """MSC monotonicity in both directions, decided by the tableau."""

    name = "subsumption_sweep"

    def __init__(self, alcsim, rng, workdir: Path, expected: dict):
        self.alcsim = alcsim
        self.expected = expected[self.name]
        self.kb = alcsim.load_fixture("family")
        individuals = sorted(self.kb.individuals)
        msc = {(a, d): alcsim.msc_approx(self.kb, a, d).concept
               for a in individuals for d in range(max(SWEEP_DEPTHS) + 2)}
        # deeper_below: MSC_{d+1} is subsumed by MSC_d, which must hold
        self.checks = [
            (sweep_key(a, d, below), msc[a, d], msc[a, d + 1]) if below else
            (sweep_key(a, d, below), msc[a, d + 1], msc[a, d])
            for a in individuals for d in SWEEP_DEPTHS for below in (True, False)
        ]
        rng.shuffle(self.checks)

    def run_pass(self) -> list[Op]:
        reasoner = self.alcsim.TableauReasoner(self.kb)
        return [timed(lambda: reasoner.subsumes(sup, sub), key)
                for key, sup, sub in self.checks]

    def failed_ops(self, op: Op) -> int:
        return int(op.output is not self.expected[op.key])


def churn_stdout(stdout: str, names: dict[str, str]) -> str:
    """Expected stdout of a request on a KB whose individuals were renamed."""
    data = json.loads(stdout)
    if "members" in data:
        data["members"] = sorted(names[m] for m in data["members"])
    return json.dumps(data) + "\n"


class KbChurn:
    """In-process CLI requests, each on its own freshly written KB file."""

    name = "kb_churn"

    def __init__(self, alcsim, rng, workdir: Path, expected: dict):
        from alcsim.gen import KbShape, random_kb
        self.alcsim = alcsim
        self.files: dict[Path, str] = {}  # written after set-up, see run.set_up
        self.requests = []
        for index, record in enumerate(expected[self.name]):
            base = random_kb(record["kb_seed"], KbShape(**CHURN_SHAPE))
            kb, back = renamed(alcsim, base, rng)
            path = workdir / f"churn{index}.dlkb"
            self.files[path] = alcsim.parser.serialize_kb(kb)
            argv = fill(record["argv"], {"{kb}": path})
            self.requests.append((argv, (record, base, back)))
        rng.shuffle(self.requests)

    def run_pass(self) -> list[Op]:
        alcsim = self.alcsim
        return [timed(lambda: run_cli(alcsim, argv), key)
                for argv, key in self.requests]

    def failed_ops(self, op: Op) -> int:
        record, base, back = op.key
        if not same_input(self.alcsim, base, record):
            return op.ops
        new_of = {old: new for new, old in back.items()}
        want = (record["code"], churn_stdout(record["stdout"], new_of))
        return int(op.output != want)


WORKLOADS = {w.name: w for w in (FamilyMatrix, EntailMatrix, SubsumptionSweep,
                                 KbChurn)}


def write_fixtures(alcsim, workdir: Path) -> dict[str, Path]:
    """Write the bundled KBs; returns their paths by argv placeholder."""
    files = {}
    for name in ("family", "fathers"):
        files["{%s}" % name] = workdir / f"{name}.dlkb"
        files["{%s}" % name].write_text(alcsim.fixture_text(name))
    return files


def fill(argv: list[str], files: dict[str, Path]) -> list[str]:
    return [str(files[a]) if a in files else a for a in argv]


class Pinned:
    """CLI requests whose answers the acceptance tests pin, run once per run.

    Each run makes them after its timed passes; a traced run traces them with
    its pass, so that every layer, the tableau and clustering included, shows
    in every workload's trace.
    """

    def __init__(self, alcsim, workdir: Path, expected: dict):
        self.alcsim = alcsim
        files = write_fixtures(alcsim, workdir)
        self.requests = [(label, fill(record["argv"], files), record)
                         for label, record in expected["pinned"].items()]

    def run(self) -> int:
        """Run the requests and return how many gave a wrong answer."""
        failed = 0
        for label, argv, record in self.requests:
            try:
                code, stdout = run_cli(self.alcsim, argv)
            except Exception:  # a crash is a wrong answer
                failed += 1
                continue
            ok = (code, stdout) == (record["code"], record["stdout"])
            failed += not (ok and pinned_value_holds(label, stdout))
        return failed


def pinned_value_holds(label: str, stdout: str) -> bool:
    """The values the acceptance criteria pin, asserted apart from the record."""
    data = json.loads(stdout)
    if label == "sim Grandparent Father":        # criterion 1
        return (data["value_exact"], data["ext_c"], data["ext_d"],
                data["ext_i"]) == ("2/3", 2, 3, 2)
    if label == "sim Claudia Tiziana":           # criterion 3, depth auto
        return data["value_exact"] == "1/2" and data["msc_depth"] == 10
    if label == "subsumes Father Parent":        # criterion 4
        return data["holds"] is True
    if label == "retrieve Father entail":        # criterion 4
        return "Leonardo" in data["members"]
    return True
