"""Differential transcript of the reasoner: one deterministic line per case.

    python3 tools/differential.py --src DIR [--seeds 150] > transcript.txt

The inputs come from the alcsim of this checkout (the ``src/`` beside
``tools/``): both fixtures, and ``gen.random_kb`` seeds 0 to ``--seeds``-1
each twice, as drawn and as ``gen.with_atleast`` draws it, with concepts
over each KB.  They pass as text to the alcsim under ``DIR/src``, which
answers every case, so two trees answer the very same inputs.  Per KB:

* ``parse_kb``: ``parse_kb`` of the KB's serialised text, and
  ``parse_kb mutation <k>``: of ``MUTATIONS_PER_KB`` seeded mutations of
  it, each one to three edits (a piece of syntax, a keyword, a digit or a
  junk character inserted, a character dropped, a name swapped for a
  keyword, a line dropped or repeated); per concept text,
  ``parse_concept``: ``parse_concept`` of the text and of one such
  mutation of it.  The answer is the serialised result, or the
  ``ParseError``'s line, column, kind and message;
* ``consistent``: ``abox_consistent``;
* per concept, ``sat``: ``is_satisfiable``; ``subsumes``: ``subsumes``
  of the concept by the next one in the list, cyclically, shown as
  ``C <= D``; ``check <individual>``:
  ``instance_check``; ``retrieve``: ``retrieve``; ``bounds``: the
  individuals in ``TableauReasoner.bounds``' lower and upper bound (the
  precompleted ABox's and the witness's); ``extension``: the
  entail ``ExtensionEngine.extension``, one engine for all the KB's
  concepts, as ``sim_matrix`` uses it; ``extension canonical``: the same
  on one canonical engine, whose name memo fills in the order of the
  concepts; ``retrieve canonical``: ``extension`` on a fresh canonical
  engine per concept, a fresh canonical model with no name memo;
* ``matrix entail 1`` and ``matrix entail auto``: the entail
  ``sim_matrix`` of all individuals at depth 1 and at depth auto;
* ``sim_pair <backend> <kinds>``: the ``SimilarityReport`` of ``sim_pair``
  on the first two concepts and the first and last individuals, in the
  four orders concept-concept, concept-individual, individual-concept and
  individual-individual, at depth auto on the canonical backend and at
  depth 1 on the entail one;
* ``abox_depth``: ``ABox.depth``;
* per individual and depth 0, 1, 2 and auto, ``msc_approx``: the
  canonical ``msc_approx`` concept; ``msc_extension``: the individuals in
  the canonical ``msc.msc_mask``;
* ``matrix canonical auto``: the canonical ``sim_matrix`` of all
  individuals at depth auto; ``cluster <linkage>``: ``cluster_matrix`` of
  that matrix under each linkage.

Each line is the KB, the case, the concept, then the answer, or the
exception's type and message, then the ``ReasonerStats`` counters
(instance checks, satisfiability calls, branches, node copies) of the
reasoner that answered, or ``-`` where no reasoner answers.  Each case
but ``extension`` gets a fresh reasoner.

``tools/differential.sha256`` holds the sha256 of the transcript of
``--src . --seeds 150``, and CI checks it, so a change to any answer or
counter shows.  A change that alters lines on purpose updates the digest
and lists the changed lines by kind and count.

To compare a parent commit with the working tree:

    mkdir /tmp/alcsim-parent
    git archive HEAD~1 | tar -x -C /tmp/alcsim-parent
    python3 tools/differential.py --src /tmp/alcsim-parent > parent.txt
    python3 tools/differential.py --src . > change.txt
    diff parent.txt change.txt
    rm -r /tmp/alcsim-parent
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONCEPTS_PER_KB = 8
MUTATIONS_PER_KB = 8
# What a mutation inserts, or puts in place of a character
PIECES = (" ", "\t", "\r", "\n", "(", ")", ",", ".", "#", ":=", "<=", "0",
          "12", "x", "B", "_", "$", "\u03a9", "\x0b")
KEYWORDS = ("not", "and", "or", "exists", "forall", "atleast", "Top",
            "Bottom")
DEPTHS = {"0": 0, "1": 1, "2": 2, "auto": None}
LINKAGES = ("single", "complete", "average")


def import_alcsim(src: Path):
    """Import ``alcsim`` from ``src``, dropping any alcsim imported before."""
    for name in [m for m in sys.modules
                 if m == "alcsim" or m.startswith("alcsim.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        import alcsim
    finally:
        sys.path.remove(str(src))
    if src.resolve() not in Path(alcsim.__file__).resolve().parents:
        raise SystemExit(f"alcsim was imported from {alcsim.__file__}, "
                         f"not {src}")
    return alcsim


def inputs(seeds: int) -> list[tuple[str, str, list[str]]]:
    """(label, KB text, concept texts) for every KB, from this checkout."""
    alcsim = import_alcsim(ROOT / "src")
    from alcsim.gen import random_concept, random_kb, with_atleast

    def concepts(kb, rng):
        names = sorted(kb.signature.concept_names)
        roles = sorted(kb.signature.role_names) or ["r"]
        return [random_concept(rng, names, roles, 2)
                for _ in range(CONCEPTS_PER_KB)]

    cases = []
    for fixture in ("family", "fathers"):
        kb = alcsim.load_fixture(fixture)
        named = [alcsim.Atom(n) for n in sorted(kb.signature.concept_names)]
        cases.append((fixture, kb, named + concepts(kb, random.Random(0))))
    for seed in range(seeds):
        kb = random_kb(seed)
        cases.append((f"seed {seed}", kb, concepts(kb, random.Random(seed))))
        cases.append((f"seed {seed} atleast", *with_atleast(seed)))
    return [(label, alcsim.serialize(kb), [str(c) for c in drawn])
            for label, kb, drawn in cases]


def show(compute) -> str:
    """What ``compute()`` returns, or the type and message of its raise."""
    try:
        answer = compute()
    except Exception as exc:    # a raise is an answer to compare too
        return f"{type(exc).__name__}: {exc}"
    if isinstance(answer, frozenset):
        return "{" + ", ".join(sorted(answer)) + "}"
    if isinstance(answer, list):        # a matrix
        return " / ".join(" ".join(map(str, row)) for row in answer)
    return str(answer)


def mutate(text: str, rng: random.Random) -> str:
    """``text`` after one to three seeded edits."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        edit = rng.randrange(5)
        if edit == 0:
            text = text[:at] + rng.choice(PIECES + KEYWORDS) + text[at:]
        elif edit == 1:
            text = text[:at] + text[at + 1:]
        elif edit == 2:
            text = text[:at] + rng.choice(PIECES) + text[at + 1:]
        elif edit == 3:
            names = list(re.finditer(r"[A-Za-z]\w*", text))
            if names:
                name = rng.choice(names)
                text = (text[:name.start()] + rng.choice(KEYWORDS)
                        + text[name.end():])
        else:
            lines = text.splitlines(keepends=True)
            if lines:
                k = rng.randrange(len(lines))
                lines[k] = rng.choice(("", lines[k] * 2))
                text = "".join(lines)
    return text


def parsed(alcsim, parse, text: str) -> str:
    """``parse(text)`` serialised on one line, or its ``ParseError``."""
    try:
        result = parse(text)
    except alcsim.ParseError as exc:
        return (f"ParseError {exc.line}:{exc.column} {exc.kind.value}: "
                f"{exc.message}")
    return " ; ".join(alcsim.serialize(result).splitlines())


def parse_cases(alcsim, label, text, concept_texts) -> None:
    """Print the ``parse_kb`` and ``parse_concept`` cases of one KB."""
    rng = random.Random(label)
    kb_texts = [text, *(mutate(text, rng) for _ in range(MUTATIONS_PER_KB))]
    for k, source in enumerate(kb_texts):
        case = f"parse_kb mutation {k - 1}" if k else "parse_kb"
        answer = show(lambda: parsed(alcsim, alcsim.parse_kb, source))
        print(f"{label} | {case} | - | {answer} | -")
    for c in concept_texts:
        for case, source in (("parse_concept", c),
                             ("parse_concept mutation", mutate(c, rng))):
            answer = show(lambda: parsed(alcsim, alcsim.parse_concept, source))
            print(f"{label} | {case} | {source!r} | {answer} | -")


def counters(reasoner) -> str:
    return ("-" if reasoner is None else
            " ".join(str(v) for v in vars(reasoner.stats).values()))


def bounds(reasoner, c) -> str:
    """The individuals in the reasoner's lower and upper bound of ``c``."""
    masks = reasoner.bounds(reasoner.table.id(c))
    bits = reasoner.kb.abox.bits
    return "lower {} upper {}".format(*(
        show(lambda: frozenset(a for a, bit in bits.items() if bit & mask))
        for mask in masks))


def transcript(alcsim, cases) -> None:
    """Print every case of every KB, answered by ``alcsim``."""
    Reasoner, entail = alcsim.TableauReasoner, alcsim.Backend.ENTAIL
    for label, text, concept_texts in cases:
        parse_cases(alcsim, label, text, concept_texts)
        kb = alcsim.parse_kb(text)
        individuals = sorted(kb.individuals)
        r = Reasoner(kb)
        print(f"{label} | consistent | - | {show(r.abox_consistent)} | "
              f"{counters(r)}")
        engine = alcsim.ExtensionEngine(kb, entail)
        canonical = alcsim.ExtensionEngine(kb)
        concepts = [alcsim.parse_concept(text) for text in concept_texts]
        for i, c in enumerate(concepts):
            r = Reasoner(kb)
            print(f"{label} | sat | {c} | {show(lambda: r.is_satisfiable(c))}"
                  f" | {counters(r)}")
            d = concepts[(i + 1) % len(concepts)]
            r = Reasoner(kb)
            print(f"{label} | subsumes | {c} <= {d} | "
                  f"{show(lambda: r.subsumes(d, c))} | {counters(r)}")
            for a in individuals:
                r = Reasoner(kb)
                print(f"{label} | check {a} | {c} | "
                      f"{show(lambda: r.instance_check(a, c))} | "
                      f"{counters(r)}")
            r = Reasoner(kb)
            print(f"{label} | retrieve | {c} | {show(lambda: r.retrieve(c))} "
                  f"| {counters(r)}")
            r = Reasoner(kb)
            print(f"{label} | bounds | {c} | {show(lambda: bounds(r, c))} "
                  f"| {counters(r)}")
            print(f"{label} | extension | {c} | "
                  f"{show(lambda: engine.extension(c))} | "
                  f"{counters(engine._reasoner)}")
            print(f"{label} | extension canonical | {c} | "
                  f"{show(lambda: canonical.extension(c))} | -")
            print(f"{label} | retrieve canonical | {c} | "
                  f"{show(lambda: alcsim.ExtensionEngine(kb).extension(c))}"
                  " | -")
        for name in ("1", "auto"):
            matrix = show(lambda: alcsim.sim_matrix(kb, individuals,
                                                    DEPTHS[name], entail))
            print(f"{label} | matrix entail {name} | - | {matrix} | -")
        sim_pairs(alcsim, label, kb, concept_texts, individuals)
        roll_ups(alcsim, label, kb, individuals)


def sim_pairs(alcsim, label, kb, concept_texts, individuals) -> None:
    """Print ``sim_pair`` in each order of item kinds, on both backends."""
    c, d = map(alcsim.parse_concept, concept_texts[:2])
    a, b = individuals[0], individuals[-1]
    orders = {"concept-concept": (c, d), "concept-individual": (c, a),
              "individual-concept": (a, c), "individual-individual": (a, b)}
    for backend, depth in ((alcsim.Backend.CANONICAL, None),
                           (alcsim.Backend.ENTAIL, 1)):
        for kinds, (x, y) in orders.items():
            report = show(lambda: alcsim.sim_pair(kb, x, y, depth, backend))
            print(f"{label} | sim_pair {backend.value} {kinds} | {x} ~ {y} | "
                  f"{report} | -")


def roll_ups(alcsim, label, kb, individuals) -> None:
    """Print the canonical roll-up, matrix and clustering cases of ``kb``."""
    print(f"{label} | abox_depth | - | {show(lambda: kb.abox.depth)} | -")
    for a in individuals:
        for name, depth in DEPTHS.items():
            concept = show(lambda: alcsim.msc_approx(kb, a, depth).concept)
            print(f"{label} | msc_approx {a} {name} | - | {concept} | -")
            ext = show(lambda: kb.abox.members(
                alcsim.msc.msc_mask(kb, a, depth)))
            print(f"{label} | msc_extension {a} {name} | - | {ext} | -")
    matrix = alcsim.sim_matrix(kb, individuals)
    print(f"{label} | matrix canonical auto | - | {show(lambda: matrix)} | -")
    for linkage in LINKAGES:
        dendrogram = show(
            lambda: alcsim.cluster_matrix(individuals, matrix, linkage))
        print(f"{label} | cluster {linkage} | - | {dendrogram} | -")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True,
                        help="checkout whose src/alcsim answers the cases")
    parser.add_argument("--seeds", type=int, default=150,
                        help="random_kb seeds 0 to SEEDS-1 (default 150)")
    args = parser.parse_args(argv)
    cases = inputs(args.seeds)
    transcript(import_alcsim(args.src / "src"), cases)


if __name__ == "__main__":
    main()
