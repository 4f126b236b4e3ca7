"""Depth-bounded most-specific-concept approximation.

For an individual ``a``, the roll-up conjoins every concept name whose
retrieval contains ``a`` (derived memberships included, not just
asserted ones) with one existential restriction per outgoing role
assertion, recursing into the target up to the depth bound.  A per-path
visited set cuts cycles: re-entering an individual already on the
current path contributes ``exists R.Top`` instead of recursing, so
mutually inverse role assertions cannot blow the concept up.

The default depth bound is the ABox depth: the length of the longest
simple path in the role-assertion digraph.

One traversal holds the out-edge order and the cycle cut.  ``msc_approx``
builds the concept through it; ``msc_extension`` evaluates the same tree
straight into its canonical extension and builds no concept, which is all
a canonical similarity matrix needs.  The entail backend has no such
shortcut (open-world ``exists`` is not compositional), so an entail
matrix builds one MSC concept per individual, which the engine then
evaluates conjunct by conjunct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

from .errors import UnknownIndividual
from .model import (
    ConceptExpr,
    Atom,
    Exists,
    KnowledgeBase,
    TOP,
    concept_depth,
    make_and,
    normalize,
)
from .retrieval import Backend, ExtensionEngine

T = TypeVar("T")


@dataclass(frozen=True)
class MscResult:
    individual: str
    depth: int
    concept: ConceptExpr
    backend: Backend


def abox_depth(kb: KnowledgeBase) -> int:
    """Edge count of the longest simple directed path between individuals.

    Parallel role assertions between the same pair collapse to a single
    edge.  Computed by exhaustive depth-first search with a per-path
    visited set; fine for the KB sizes this toolkit targets.
    """
    adjacency = {
        source: sorted({t for ts in out.values() for t in ts} - {source})
        for source, out in kb.abox.successors.items()
    }

    best = 0

    def dfs(node: str, length: int, seen: set[str]) -> None:
        nonlocal best
        if length > best:
            best = length
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                dfs(nxt, length + 1, seen)
                seen.remove(nxt)

    for start in adjacency:
        dfs(start, 0, {start})
    return best


def _checked_depth(kb: KnowledgeBase, individual: str,
                   depth: int | None) -> int:
    if individual not in kb.abox.individuals:
        raise UnknownIndividual(individual)
    if depth is None:
        depth = abox_depth(kb)
    if depth < 0:
        raise ValueError("depth must be non-negative")
    return depth


def _roll_up(kb: KnowledgeBase, individual: str, depth: int, top: T,
             exists: Callable[[str, T], T],
             conjoin: Callable[[str, list[T]], T]) -> T:
    """Fold the roll-up tree of ``individual`` down to ``depth``.

    A node for individual ``x`` is ``conjoin(x, parts)``, where ``parts``
    holds one ``exists(role, filler)`` per out-edge of ``x`` in sorted
    ``(role, target)`` order (none at depth 0).  The filler is the target's
    node one level down, or ``top`` when the target is already on the
    current path.
    """
    successors = kb.abox.successors

    def visit(x: str, d: int, visited: frozenset[str]) -> T:
        parts: list[T] = []
        if d > 0:
            for role, targets in successors.get(x, {}).items():
                for target in targets:
                    if target in visited:
                        filler = top
                    else:
                        filler = visit(target, d - 1, visited | {target})
                    parts.append(exists(role, filler))
        return conjoin(x, parts)

    return visit(individual, depth, frozenset((individual,)))


def msc_approx(kb: KnowledgeBase, individual: str,
               depth: int | None = None,
               backend: Backend = Backend.CANONICAL,
               engine: ExtensionEngine | None = None) -> MscResult:
    """Most-specific-concept approximation of ``individual`` up to ``depth``.

    ``depth=None`` uses the ABox depth.  The individual always belongs to
    the retrieval of the returned concept under the chosen backend.  An
    ``engine``, which must be for that backend, shares its concept-name
    extensions across calls.
    """
    depth = _checked_depth(kb, individual, depth)
    if engine is None:
        engine = ExtensionEngine(kb, backend)
    elif engine.backend is not backend:
        raise ValueError(f"a {engine.backend.value} engine cannot compute "
                         f"a {backend.value} MSC")
    name_exts = engine.name_extensions

    def conjoin(x: str, parts: list[ConceptExpr]) -> ConceptExpr:
        names = [Atom(name) for name, ext in name_exts.items() if x in ext]
        return make_and(names + parts)

    concept = normalize(_roll_up(kb, individual, depth, TOP, Exists, conjoin))
    assert concept_depth(concept) <= depth
    return MscResult(individual, depth, concept, backend)


def msc_extension(kb: KnowledgeBase, individual: str,
                  depth: int | None = None,
                  engine: ExtensionEngine | None = None) -> frozenset[str]:
    """Canonical extension of ``msc_approx(kb, individual, depth).concept``.

    Evaluates the roll-up tree in the canonical model as it is traversed,
    without building the concept: a node is the intersection of the
    extensions of the names that hold for its individual and of one
    ``exists R.filler`` extension per out-edge.  Canonical evaluation is
    compositional and a roll-up has no negation, disjunction or value
    restriction, so the normalisation that ``msc_approx`` applies cannot
    change the extension and the two are equal.  ``engine`` must be a
    canonical engine; it shares its concept-name extensions across calls.
    """
    depth = _checked_depth(kb, individual, depth)
    if engine is None:
        engine = ExtensionEngine(kb)
    model = engine.canonical_model()
    name_exts = engine.name_extensions.values()
    # intersection of the extensions of the names that hold for x
    names_meet: dict[str, frozenset[str]] = {}

    def conjoin(x: str, parts: list[frozenset[str]]) -> frozenset[str]:
        ext = names_meet.get(x)
        if ext is None:
            ext = model.domain
            for name_ext in name_exts:
                if x in name_ext:
                    ext = ext & name_ext
            names_meet[x] = ext
        for part in parts:
            ext = ext & part
        return ext

    # many subtrees evaluate to the same filler set (every cut edge to the
    # whole domain), so each (role, filler) term is evaluated once
    exists_memo: dict[tuple[str, frozenset[str]], frozenset[str]] = {}

    def exists(role: str, filler: frozenset[str]) -> frozenset[str]:
        ext = exists_memo.get((role, filler))
        if ext is None:
            ext = exists_memo[role, filler] = model.exists_ext(role, filler)
        return ext

    return _roll_up(kb, individual, depth, model.domain, exists, conjoin)
