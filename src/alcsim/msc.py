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
straight into its canonical extension, as a bit mask, and builds no
concept, which is all a canonical similarity matrix needs; the engine
keeps the masks that every roll-up of the matrix shares.  The entail
backend has no such shortcut (open-world ``exists`` is not
compositional), so an entail matrix builds one MSC concept per
individual, which the engine then evaluates conjunct by conjunct.
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
    visited set, which stops once a path reaches the simple-path bound:
    a path visits each individual with a role edge at most once.
    """
    adjacency = {
        source: sorted({t for ts in out.values() for t in ts} - {source})
        for source, out in kb.abox.successors.items()
    }
    bound = len({x for s, ts in adjacency.items() if ts for x in (s, *ts)}) - 1

    best = 0

    def dfs(node: str, length: int, seen: set[str]) -> None:
        nonlocal best
        if length > best:
            best = length
        for nxt in adjacency.get(node, ()):
            if nxt not in seen and best < bound:
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
    bits = kb.abox.bits

    def visit(x: str, d: int, visited: int) -> T:
        parts: list[T] = []
        if d > 0:
            for role, targets in successors.get(x, {}).items():
                for target in targets:
                    bit = bits[target]
                    if visited & bit:
                        filler = top
                    else:
                        filler = visit(target, d - 1, visited | bit)
                    parts.append(exists(role, filler))
        return conjoin(x, parts)

    return visit(individual, depth, bits[individual])


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
    change the extension and the two are equal.  Extensions are bit masks
    over ``ABox.bits`` until the result is returned.  ``engine`` must be a
    canonical engine; its ``name_meets`` and ``exists_masks`` keep, across
    calls, each individual's meet of names and each ``(role, filler mask)``
    term evaluated so far.
    """
    depth = _checked_depth(kb, individual, depth)
    if engine is None:
        engine = ExtensionEngine(kb)
    role_succ = engine.canonical_model().role_succ
    bits = kb.abox.bits
    full = (1 << len(bits)) - 1
    meets = engine.name_meets
    if not meets:
        meets.update(dict.fromkeys(bits, full))
        for ext in engine.name_extensions.values():
            mask = sum(bits[a] for a in ext)
            for a in ext:
                meets[a] &= mask
    memo = engine.exists_masks

    def exists(role: str, filler: int) -> int:
        try:  # most terms repeat across the matrix
            return memo[role, filler]
        except KeyError:
            ext = 0
            for a, bs in role_succ.get(role, {}).items():
                if any(bits[b] & filler for b in bs):
                    ext |= bits[a]
            memo[role, filler] = ext
            return ext

    def conjoin(x: str, parts: list[int]) -> int:
        ext = meets[x]
        for part in parts:
            ext &= part
        return ext

    ext = _roll_up(kb, individual, depth, full, exists, conjoin)
    return frozenset(a for a, bit in bits.items() if ext & bit)
