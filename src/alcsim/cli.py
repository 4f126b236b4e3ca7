"""Command-line front end.

Exit codes are a stable contract for scripting: 0 for success (or "the
queried relationship holds"), 1 for a negative answer (subsumption does
not hold, KB inconsistent), 2 for usage, parse or internal errors.

Each ``cmd_*`` handler takes the parsed ``argparse.Namespace`` and reads
only the options its own subcommand defines; ``_HANDLERS`` is the one map
from subcommand to handler.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction
from typing import Callable

from .cluster import LINKAGES, cluster_matrix, render_dendrogram
from .errors import AlcsimError
from .gen import KbShape, random_kb
from .model import ConceptExpr, KnowledgeBase
from .msc import msc_approx
from .parser import ParseError, parse_concept, parse_kb, serialize_kb
from .retrieval import Backend, ExtensionEngine
from .similarity import Item, sim_matrix, sim_pair
from .tableau import TableauReasoner

EXIT_OK = 0
EXIT_NO = 1
EXIT_ERROR = 2


class CliError(Exception):
    """User-facing failure; message printed to stderr, exit code 2."""


def _load(path: str) -> KnowledgeBase:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_kb(handle.read())
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {path}: not UTF-8 "
                       f"(byte {exc.start}: {exc.reason})") from exc
    except ParseError as exc:
        raise CliError(f"{path}:{exc}") from exc


def _parse_concept_arg(text: str) -> ConceptExpr:
    try:
        return parse_concept(text)
    except ParseError as exc:
        raise CliError(f"bad concept {text!r}: {exc}") from exc


def _resolve_item(kb: KnowledgeBase, text: str) -> Item:
    """Interpret an argument as an individual or a concept expression.

    Bare names found among the individuals are individuals; explicit
    ``ind:``/``concept:`` prefixes override, and a name that is both an
    individual and a concept name must be prefixed.
    """
    if text.startswith("ind:"):
        name = text[len("ind:"):]
        if name not in kb.individuals:
            raise CliError(f"unknown individual {name!r}")
        return name
    if text.startswith("concept:"):
        return _parse_concept_arg(text[len("concept:"):])
    if text in kb.individuals:
        if text in kb.signature.concept_names:
            raise CliError(
                f"{text!r} names both an individual and a concept; "
                "disambiguate with 'ind:' or 'concept:'"
            )
        return text
    return _parse_concept_arg(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_check(args: argparse.Namespace) -> int:
    kb = _load(args.kb)
    consistent = TableauReasoner(kb).abox_consistent()
    n_defs = len(kb.tbox.definitions)
    n_asserts = len(kb.abox.concept_assertions) + len(kb.abox.role_assertions)
    n_inds = len(kb.individuals)
    if args.format == "json":
        print(json.dumps({
            "consistent": consistent,
            "acyclic": True,
            "definitions": n_defs,
            "assertions": n_asserts,
            "individuals": n_inds,
        }))
    else:
        word = "consistent" if consistent else "inconsistent"
        print(f"{word}, {n_defs} definitions, {n_asserts} assertions, "
              f"{n_inds} individuals")
    return EXIT_OK if consistent else EXIT_NO


def cmd_subsumes(args: argparse.Namespace) -> int:
    kb = _load(args.kb)
    sub = _parse_concept_arg(args.sub)
    sup = _parse_concept_arg(args.super)
    holds = TableauReasoner(kb).subsumes(sup, sub)
    if args.format == "json":
        print(json.dumps({"sub": str(sub), "super": str(sup), "holds": holds}))
    else:
        relation = "is subsumed by" if holds else "is not subsumed by"
        print(f"{sub} {relation} {sup}")
    return EXIT_OK if holds else EXIT_NO


def cmd_retrieve(args: argparse.Namespace) -> int:
    kb = _load(args.kb)
    concept = _parse_concept_arg(args.concept)
    backend = Backend(args.backend)
    members = sorted(ExtensionEngine(kb, backend).extension(concept))
    if args.format == "json":
        print(json.dumps({
            "concept": str(concept),
            "backend": backend.value,
            "members": members,
        }))
    else:
        for member in members:
            print(member)
    return EXIT_OK


def cmd_msc(args: argparse.Namespace) -> int:
    kb = _load(args.kb)
    if args.individual not in kb.individuals:
        raise CliError(f"unknown individual {args.individual!r}")
    engine = ExtensionEngine(kb, Backend(args.backend))
    result = msc_approx(kb, args.individual, args.depth, engine)
    members = sorted(engine.extension(result.concept))
    if args.format == "json":
        print(json.dumps({
            "individual": result.individual,
            "depth": result.depth,
            "backend": engine.backend.value,
            "concept": str(result.concept),
            "members": members,
            "cardinality": len(members),
        }))
    else:
        print(f"MSC({result.individual}) at depth {result.depth}:")
        print(f"  {result.concept}")
        print(f"extension ({len(members)}): {', '.join(members)}")
    return EXIT_OK


def cmd_sim(args: argparse.Namespace) -> int:
    kb = _load(args.kb)
    x = _resolve_item(kb, args.x)
    y = _resolve_item(kb, args.y)
    report = sim_pair(kb, x, y, args.depth, Backend(args.backend))
    if args.format == "json":
        print(json.dumps(report.to_json_dict()))
    else:
        print(f"value: {float(report.value):.4f}")
        print(f"ext: ({report.ext_c}, {report.ext_d}, {report.ext_i})")
        print(f"backend: {report.backend.value}")
        print(f"extension_computations: {report.extension_computations}")
        print(f"msc_computations: {report.msc_computations}")
        if report.msc_depth is not None:
            print(f"msc_depth: {report.msc_depth}")
    return EXIT_OK


def _labelled_matrix(args: argparse.Namespace
                     ) -> tuple[list[str], list[list[Fraction]]]:
    """Load the KB, resolve the items and return their labels and matrix."""
    kb = _load(args.kb)
    items = [_resolve_item(kb, text) for text in args.items]
    labels = [item if isinstance(item, str) else str(item) for item in items]
    return labels, sim_matrix(kb, items, args.depth, Backend(args.backend))


def cmd_matrix(args: argparse.Namespace) -> int:
    labels, matrix = _labelled_matrix(args)
    if args.format == "json":
        print(json.dumps({
            "labels": labels,
            "matrix": [[float(v) for v in row] for row in matrix],
        }))
    elif args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([""] + labels)
        for label, row in zip(labels, matrix):
            writer.writerow([label] + [repr(float(v)) for v in row])
        sys.stdout.write(out.getvalue())
    else:
        width = max(len(label) for label in labels)
        header = " ".join(f"{label:>{width}}" for label in labels)
        print(f"{'':>{width}} {header}")
        for label, row in zip(labels, matrix):
            cells = " ".join(f"{float(v):>{width}.4f}" for v in row)
            print(f"{label:>{width}} {cells}")
    return EXIT_OK


def cmd_cluster(args: argparse.Namespace) -> int:
    labels, matrix = _labelled_matrix(args)
    dendrogram = cluster_matrix(labels, matrix, args.linkage)
    if args.format == "json":
        print(json.dumps({
            "leaves": dendrogram.leaves,
            "linkage": args.linkage,
            "merges": [[a, b, float(sim)] for a, b, sim in dendrogram.merges],
        }))
    else:
        for a, b, sim in dendrogram.merges:
            print(f"merge {a} + {b} at {float(sim):.4f}")
        print(render_dendrogram(dendrogram))
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    shape = KbShape(
        individuals=args.individuals,
        primitives=args.primitives,
        defined=args.defined,
        roles=args.roles,
        body_depth=args.body_depth,
        concept_assertions=args.concept_assertions,
        role_assertions=args.role_assertions,
        el_only=args.el_only,
    )
    sys.stdout.write(serialize_kb(random_kb(args.seed, shape)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _depth_arg(value: str) -> int | None:
    if value == "auto":
        return None
    try:
        depth = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError("depth must be an integer or 'auto'")
    if depth < 0:
        raise argparse.ArgumentTypeError("depth must be non-negative")
    return depth


def _add_common(parser: argparse.ArgumentParser, *, backend: bool = True,
                depth: bool = False,
                formats: tuple[str, ...] = ("text", "json")) -> None:
    if backend:
        parser.add_argument("--backend", choices=["entail", "canonical"],
                            default="canonical")
    parser.add_argument("--format", choices=formats, default="text")
    if depth:
        parser.add_argument("--depth", type=_depth_arg, default=None,
                            metavar="N|auto",
                            help="MSC depth bound (default: ABox depth)")


@functools.cache
def build_argparser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on first use and shared afterwards.

    Each ``parse_args`` fills a fresh ``Namespace``, so requests served in
    one process share nothing through it; callers must not add to it.
    """
    parser = argparse.ArgumentParser(
        prog="alcsim",
        description="Reasoning and semantic similarity over .dlkb knowledge bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse a KB and report its shape and consistency")
    p.add_argument("kb")
    _add_common(p, backend=False)

    p = sub.add_parser("subsumes",
                       help="is the first concept subsumed by the second?")
    p.add_argument("kb")
    p.add_argument("sub", help="candidate subsumee")
    p.add_argument("super", help="candidate subsumer")
    _add_common(p, backend=False)

    p = sub.add_parser("retrieve", help="individuals in a concept's extension")
    p.add_argument("kb")
    p.add_argument("concept")
    _add_common(p)

    p = sub.add_parser("msc", help="most-specific-concept approximation")
    p.add_argument("kb")
    p.add_argument("individual")
    _add_common(p, depth=True)

    p = sub.add_parser("sim", help="similarity of two concepts/individuals")
    p.add_argument("kb")
    p.add_argument("x")
    p.add_argument("y")
    _add_common(p, depth=True)

    p = sub.add_parser("matrix", help="pairwise similarity matrix")
    p.add_argument("kb")
    p.add_argument("items", nargs="+")
    _add_common(p, depth=True, formats=("text", "json", "csv"))

    p = sub.add_parser("cluster", help="agglomerative clustering of items")
    p.add_argument("kb")
    p.add_argument("items", nargs="+")
    p.add_argument("--linkage", choices=LINKAGES, default="complete")
    _add_common(p, depth=True)

    p = sub.add_parser("gen", help="emit a seeded random KB")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--individuals", type=int, default=6)
    p.add_argument("--primitives", type=int, default=3)
    p.add_argument("--defined", type=int, default=3)
    p.add_argument("--roles", type=int, default=2)
    p.add_argument("--body-depth", type=int, default=2)
    p.add_argument("--concept-assertions", type=int, default=6)
    p.add_argument("--role-assertions", type=int, default=8)
    p.add_argument("--el-only", action="store_true")

    return parser


_HANDLERS: dict[str, Callable[[argparse.Namespace], int]] = {
    "check": cmd_check, "subsumes": cmd_subsumes, "retrieve": cmd_retrieve,
    "msc": cmd_msc, "sim": cmd_sim, "matrix": cmd_matrix,
    "cluster": cmd_cluster, "gen": cmd_gen,
}


def main(argv: list[str] | None = None) -> int:
    args = build_argparser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (CliError, AlcsimError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # anything else is a failure of alcsim itself, never a "no" answer
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return EXIT_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
