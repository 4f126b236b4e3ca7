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
"""

from __future__ import annotations

from dataclasses import dataclass

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
    edges: dict[str, set[str]] = {}
    for _, source, target in kb.abox.role_assertions:
        if source != target:
            edges.setdefault(source, set()).add(target)
    adjacency = {s: sorted(ts) for s, ts in edges.items()}

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


def msc_approx(kb: KnowledgeBase, individual: str,
               depth: int | None = None,
               backend: Backend = Backend.CANONICAL,
               engine: ExtensionEngine | None = None) -> MscResult:
    """Most-specific-concept approximation of ``individual`` up to ``depth``.

    ``depth=None`` uses the ABox depth.  The individual always belongs to
    the retrieval of the returned concept under the chosen backend.  An
    ``engine`` for the same backend with its memo on shares the
    concept-name retrievals across calls.
    """
    if individual not in kb.abox.individuals:
        raise UnknownIndividual(individual)
    if depth is None:
        depth = abox_depth(kb)
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if engine is None:
        engine = ExtensionEngine(kb, backend)

    name_ext = {
        name: engine.extension(Atom(name))
        for name in sorted(kb.signature.concept_names)
    }
    out_edges: dict[str, list[tuple[str, str]]] = {}
    for role, source, target in sorted(kb.abox.role_assertions):
        out_edges.setdefault(source, []).append((role, target))

    def roll_up(x: str, d: int, visited: frozenset[str]) -> ConceptExpr:
        conjuncts: list[ConceptExpr] = [
            Atom(name) for name, ext in name_ext.items() if x in ext
        ]
        if d > 0:
            for role, target in out_edges.get(x, ()):
                if target in visited:
                    conjuncts.append(Exists(role, TOP))
                else:
                    conjuncts.append(
                        Exists(role, roll_up(target, d - 1, visited | {target}))
                    )
        return make_and(conjuncts)

    concept = normalize(roll_up(individual, depth, frozenset((individual,))))
    assert concept_depth(concept) <= depth
    return MscResult(individual, depth, concept, backend)
