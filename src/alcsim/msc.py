"""Depth-bounded most-specific-concept approximation.

For an individual ``a``, the roll-up conjoins every concept name whose
retrieval contains ``a`` (derived memberships included, not just
asserted ones) with one existential restriction per outgoing role
assertion, recursing into the target up to the depth bound.  A per-path
visited set cuts cycles: re-entering an individual already on the
current path contributes ``exists R.Top`` instead of recursing, so
mutually inverse role assertions cannot blow the concept up.

The default depth bound is the ABox depth: the length of the longest
simple path in the role-assertion digraph, searched once per ABox.
Both walks take an individual as its bit and read its out-edges from
``ABox.images``: roles in sorted order, targets lowest bit (name) first.

The roll-up is built on concept ids: it interns its names, each
``exists R.filler`` and the conjunction of a node's parts straight into
the engine's :class:`~alcsim.tableau.ConceptTable`, in normal form: a
node with successors dedupes its parts and sorts them by their text, so
equal trees of names and existentials get one id.
``msc_approx`` returns the table's concept for the root's id.
``msc_mask`` evaluates the same tree straight into its extension, a mask
over ``ABox.bits``, as a similarity matrix needs it.  A node is the meet
of its individual's names and of one ``exists R.filler`` per out-edge,
whose extension among the node's candidates is first ``told``: the
candidates with an asserted ``R``-successor in the filler's extension.
On the canonical backend that is the answer.  On the entail backend it
is a lower bound, and the ``gap``, the candidates it leaves out, goes to
the reasoner's bounds and instance checks (``ExtensionEngine.instances``)
as the id of ``exists R.filler``, which only then is rolled up into the
reasoner's table; no concept is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AlcsimError, UnknownIndividual
from .model import ABox, ConceptExpr, KnowledgeBase
from .retrieval import Backend, ExtensionEngine
from .tableau import _TOP_ID, ConceptTable


@dataclass(frozen=True)
class MscResult:
    individual: str
    depth: int
    concept: ConceptExpr


def _checked(kb: KnowledgeBase, individual: str, depth: int | None,
             engine: ExtensionEngine | None) -> tuple[int, ExtensionEngine]:
    if individual not in kb.abox.individuals:
        raise UnknownIndividual(individual)
    if depth is None:       # resolved here only
        depth = kb.abox.depth
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if engine is None:
        engine = ExtensionEngine(kb)
    elif engine.kb != kb:
        raise ValueError("the engine was built for another KB")
    return depth, engine


def msc_approx(kb: KnowledgeBase, individual: str, depth: int | None = None,
               engine: ExtensionEngine | None = None) -> MscResult:
    """Most-specific-concept approximation of ``individual`` up to ``depth``.

    ``depth=None`` uses the ABox depth.  The individual always belongs to
    the retrieval of the returned concept under the engine's backend
    (canonical when there is none).  An ``engine``, which must be for this
    KB, shares its concept-name extensions across calls.
    """
    depth, engine = _checked(kb, individual, depth, engine)
    bit, names = kb.abox.bits[individual], engine.name_masks
    cid, _, height = _rollup(engine.table, kb.abox, names, bit, depth, bit)
    assert height <= depth
    return MscResult(individual, depth, engine.table.concept(cid))


def msc_mask(kb: KnowledgeBase, individual: str, depth: int | None = None,
             engine: ExtensionEngine | None = None) -> int:
    """Extension of ``msc_approx(kb, individual, depth, engine).concept``
    under the engine's backend (canonical when there is none), as a mask
    over ``ABox.bits``.

    Evaluates the roll-up tree without building the concept: a node is
    the intersection of the extensions of the names that hold for its
    individual and of one ``exists R.filler`` extension per out-edge.
    Both backends ignore the order and repeats of a conjunction's parts.
    Canonical ``exists`` is the told extension; entail ``exists`` adds
    the gap's members by ``engine.instances`` on its id.

    A node's extension is computed within ``care``, the candidates still
    in question.  An edge ``R`` to ``t`` asks only about the
    ``R``-successors of the candidates that carry ``t``'s names, none when
    that is ``t`` alone, and a node whose candidates are down to its own
    individual is done.  Both are exact, as every individual is in its own
    node's extension.  ``engine.rollup_masks``, by bit, and ``ABox.images``
    keep the names' meets and the role images across calls.  Where an
    entail check raises, ``engine.mask`` of the built concept decides, as
    it documents; the engine remembers the raising check, so that path
    raises it again with no search.
    """
    depth, engine = _checked(kb, individual, depth, engine)
    entail = None if engine.backend is Backend.CANONICAL else engine
    try:
        bit = kb.abox.bits[individual]
        return _rollup_extension(kb.abox, engine.rollup_masks, entail, bit,
                                 depth, bit, kb.abox.everyone)
    except AlcsimError:     # only an entail check raises
        return engine.mask(msc_approx(kb, individual, depth, engine).concept)


def _rollup(table: ConceptTable, abox: ABox, name_masks: dict[str, int],
            x: int, d: int, visited: int) -> tuple[int, str, int]:
    """The id in ``table`` of the roll-up of the individual with bit ``x``
    at depth ``d`` in normal form, its text as a filler (in parentheses
    if it is a conjunction) and its nesting of ``exists``; parts are deduped
    and sorted by their text, which is injective on concepts of names,
    ``exists``, ``Top`` and ``and``."""
    parts = {name: (table.name(name), 0)
             for name, ext in name_masks.items() if ext & x}
    if d > 0:
        for role, (succ, _) in abox.images.items():
            out = succ.get(x, 0)
            while out:      # each successor, lowest bit first
                out ^= (bit := out & -out)
                filler, text, height = (
                    (_TOP_ID, "Top", 0) if visited & bit else
                    _rollup(table, abox, name_masks, bit, d - 1, visited | bit))
                text = f"exists {role}.{text}"
                if text not in parts:
                    parts[text] = (table.exists(role, filler), height + 1)
    texts = sorted(parts)
    text = " and ".join(texts) or "Top"
    return (table.meet(tuple(parts[t][0] for t in texts)),
            f"({text})" if len(texts) > 1 else text,
            max((parts[t][1] for t in texts), default=0))


def _rollup_extension(abox: ABox, meets: dict[int, int],
                      entail: ExtensionEngine | None, x: int, d: int,
                      visited: int, care: int) -> int:
    ext = meets[x] & care
    if d > 0:
        for role, (succ, pred) in abox.images.items():
            out = succ.get(x, 0)
            while out:
                out ^= (bit := out & -out)
                need = succ[ext]
                if not visited & bit:     # else the cut: the filler is Top
                    need &= meets[bit]
                    if need != bit:
                        need = _rollup_extension(abox, meets, entail, bit,
                                                 d - 1, visited | bit, need)
                told = ext & pred[need]
                if entail is not None and told != ext:   # the gap: check it
                    table = entail.table
                    filler = _TOP_ID if visited & bit else _rollup(
                        table, abox, entail.name_masks, bit, d - 1,
                        visited | bit)[0]
                    told |= entail.instances(table.exists(role, filler),
                                             ext & ~told)
                ext = told
                if ext == x:    # x stays in, whatever follows
                    return ext
    return ext
