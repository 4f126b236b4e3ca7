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

``msc_approx`` builds the concept in normal form: a node with successors
dedupes its parts and sorts them by ``str``, all that ``normalize`` does
to a tree of names and existentials.  ``msc_extension`` evaluates the
same tree straight into its canonical extension and builds no concept,
which is all a canonical similarity matrix needs.  The entail backend
has no such shortcut (open-world ``exists`` is not compositional), so an
entail matrix builds one MSC concept per individual, which the engine
then evaluates conjunct by conjunct.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownIndividual
from .model import (
    ABox,
    ConceptExpr,
    Atom,
    Exists,
    KnowledgeBase,
    TOP,
    concept_depth,
    make_and,
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
    edge.  The depth-first search stops once a path reaches the
    simple-path bound: a path visits each individual with a role edge at
    most once.
    """
    adjacency = {
        source: sorted({t for ts in out.values() for t in ts} - {source})
        for source, out in kb.abox.successors.items()
    }
    bound = len({x for s, ts in adjacency.items() if ts for x in (s, *ts)}) - 1

    best = 0
    for start in adjacency:
        best = _longest_path(adjacency, start, 0, {start}, best, bound)
    return best


def _longest_path(adjacency: dict[str, list[str]], node: str, length: int,
                  seen: set[str], best: int, bound: int) -> int:
    """The longer of ``best`` and the simple paths that extend ``seen``,
    a path of ``length`` edges ending at ``node``; the search stops once
    one reaches ``bound``."""
    if length > best:
        best = length
    for nxt in adjacency.get(node, ()):
        if nxt not in seen and best < bound:
            seen.add(nxt)
            best = _longest_path(adjacency, nxt, length + 1, seen, best, bound)
            seen.remove(nxt)
    return best


class _Images(dict):
    """Mask -> its image under one role or its inverse, filled per bit."""

    def __missing__(self, mask: int) -> int:
        out, rest = 0, mask
        while rest:
            low = rest & -rest
            out |= self.get(low, 0)
            rest ^= low
        self[mask] = out
        return out


def _checked(kb: KnowledgeBase, individual: str, depth: int | None,
             backend: Backend,
             engine: ExtensionEngine | None) -> tuple[int, ExtensionEngine]:
    if individual not in kb.abox.individuals:
        raise UnknownIndividual(individual)
    if depth is None:
        depth = abox_depth(kb)
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if engine is None:
        engine = ExtensionEngine(kb, backend)
    elif engine.kb != kb:
        raise ValueError("the engine was built for another KB")
    elif engine.backend is not backend:
        raise ValueError(f"a {engine.backend.value} engine cannot compute "
                         f"a {backend.value} MSC")
    return depth, engine


def msc_approx(kb: KnowledgeBase, individual: str,
               depth: int | None = None,
               backend: Backend = Backend.CANONICAL,
               engine: ExtensionEngine | None = None) -> MscResult:
    """Most-specific-concept approximation of ``individual`` up to ``depth``.

    ``depth=None`` uses the ABox depth.  The individual always belongs to
    the retrieval of the returned concept under the chosen backend.  An
    ``engine``, which must be for this KB and that backend, shares its
    concept-name extensions across calls.
    """
    depth, engine = _checked(kb, individual, depth, backend, engine)
    concept = _rollup(kb.abox, engine.name_extensions, individual, depth,
                      kb.abox.bits[individual])
    assert concept_depth(concept) <= depth
    return MscResult(individual, depth, concept, backend)


def msc_extension(kb: KnowledgeBase, individual: str,
                  depth: int | None = None,
                  engine: ExtensionEngine | None = None) -> frozenset[str]:
    """Canonical extension of ``msc_approx(kb, individual, depth).concept``.

    Evaluates the roll-up tree in the canonical model without building
    the concept: a node is the intersection of the extensions of the names
    that hold for its individual and of one ``exists R.filler`` extension
    per out-edge.  Canonical evaluation is compositional, and ignores the
    order and repeats of a conjunction's parts, so the two are equal.

    A node's extension is computed within ``care``, the candidates still
    in question.  An edge ``R`` to ``t`` asks only about the
    ``R``-successors of the candidates that carry ``t``'s names, none when
    that is ``t`` alone, and a node whose candidates are down to its own
    individual is done.  Both are exact, as every individual is in its own
    node's extension.  Extensions are bit masks over ``ABox.bits``.
    ``engine`` must be a canonical engine for this KB; its ``name_meets``
    and ``role_images`` keep the names' meets and role images across calls.
    """
    depth, engine = _checked(kb, individual, depth, Backend.CANONICAL, engine)
    successors = kb.abox.successors
    bits = kb.abox.bits
    full = (1 << len(bits)) - 1
    meets, images = engine.name_meets, engine.role_images
    if not meets:
        meets.update(dict.fromkeys(bits, full))
        for ext in engine.name_extensions.values():
            mask = sum(bits[a] for a in ext)
            for a in ext:
                meets[a] &= mask
        for source, out in successors.items():
            for role, targets in out.items():
                succ, pred = images.setdefault(role, (_Images(), _Images()))
                succ[bits[source]] = sum(bits[t] for t in targets)
                for t in targets:
                    pred[bits[t]] = pred.get(bits[t], 0) | bits[source]

    ext = _rollup_extension(kb.abox, meets, images, individual, depth,
                            bits[individual], full)
    return frozenset(a for a, bit in bits.items() if ext & bit)


def _rollup(abox: ABox, name_exts: dict[str, frozenset[str]], x: str,
            d: int, visited: int) -> ConceptExpr:
    parts: list[ConceptExpr] = [
        Atom(name) for name, ext in name_exts.items() if x in ext]
    if d > 0 and x in abox.successors:
        for role, targets in abox.successors[x].items():
            for target in targets:
                bit = abox.bits[target]
                parts.append(Exists(role, TOP if visited & bit else _rollup(
                    abox, name_exts, target, d - 1, visited | bit)))
        parts = sorted(dict.fromkeys(parts), key=str)  # normalize's order
    return make_and(parts)


def _rollup_extension(abox: ABox, meets: dict[str, int],
                      images: dict[str, tuple[_Images, _Images]], x: str,
                      d: int, visited: int, care: int) -> int:
    ext = meets[x] & care
    if d > 0:
        for role, targets in abox.successors.get(x, {}).items():
            succ, pred = images[role]
            for target in targets:
                bit = abox.bits[target]
                need = succ[ext]
                if not visited & bit:     # else the cut: the filler is Top
                    need &= meets[target]
                    if need != bit:
                        need = _rollup_extension(abox, meets, images, target,
                                                 d - 1, visited | bit, need)
                ext &= pred[need]
                if ext == abox.bits[x]:  # x stays in, whatever follows
                    return ext
    return ext
