"""Extension-based semantic similarity between concepts and individuals.

The measure compares two concepts through the cardinalities of their
extensions and of the extension of their conjunction::

    s(C, D) = |I| / (|C| + |D| - |I|) * max(|I|/|C|, |I|/|D|)    I = C and D

It is 1 exactly for equivalent concepts with non-empty extensions, 0
exactly for disjoint (or empty) extensions, and strictly between
otherwise.  Individuals are compared through their most-specific-concept
approximations.

Values are exact rationals; any rounding happens at the presentation
layer only.  ``sim_pair`` computes every pair report on one extension
engine: the MSC roll-ups share its concept-name extensions, uncounted,
and the report counts the three extension computations for C, D and
their conjunction, so the cost model is observable.

A matrix over n items costs one extension per item and n^2 set
intersections: on both backends ext(C and D) = ext(C) & ext(D).
Canonical evaluation of a conjunction is that intersection; under
entailment, KB |= (C and D)(a) exactly when KB |= C(a) and KB |= D(a),
and an inconsistent KB puts every individual on both sides.  On the
canonical backend an individual's extension comes from evaluating its
MSC roll-up directly (``msc_extension``), so the matrix builds no
concept; on the entail backend it builds the individual's MSC concept,
n in all, and the engine evaluates each conjunct by conjunct, checking
only the memberships no cheaper rule decides (see ``retrieval``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import CardinalityViolation
from .model import And, ConceptExpr, KnowledgeBase
from .msc import abox_depth, msc_approx, msc_extension
from .retrieval import Backend, ExtensionEngine

Item = Union[ConceptExpr, str]  # a concept expression or an individual name


@dataclass(frozen=True)
class SimilarityReport:
    value: Fraction
    ext_c: int
    ext_d: int
    ext_i: int
    backend: Backend
    extension_computations: int
    msc_computations: int
    msc_depth: int | None

    def to_json_dict(self) -> dict:
        return {
            "value": float(self.value),
            "value_exact": f"{self.value.numerator}/{self.value.denominator}",
            "ext_c": self.ext_c,
            "ext_d": self.ext_d,
            "ext_i": self.ext_i,
            "backend": self.backend.value,
            "extension_computations": self.extension_computations,
            "msc_computations": self.msc_computations,
            "msc_depth": self.msc_depth,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimilarityReport":
        return cls(
            value=Fraction(data["value_exact"]),
            ext_c=data["ext_c"],
            ext_d=data["ext_d"],
            ext_i=data["ext_i"],
            backend=Backend(data["backend"]),
            extension_computations=data["extension_computations"],
            msc_computations=data["msc_computations"],
            msc_depth=data["msc_depth"],
        )


def sim_formula(n_c: int, n_d: int, n_i: int) -> Fraction:
    """Similarity value from the three extension cardinalities.

    ``n_i = 0`` (disjoint or empty extensions) yields 0 without touching
    the formula, which also covers the otherwise-undefined 0/0 cases;
    both denominators are strictly positive whenever ``n_i > 0``.  Then
    max(n_i/n_c, n_i/n_d) = n_i/min(n_c, n_d), so the value is the one
    fraction n_i^2 / ((n_c + n_d - n_i) * min(n_c, n_d)).
    """
    if min(n_c, n_d, n_i) < 0:
        raise ValueError("cardinalities must be non-negative")
    if n_i > n_c or n_i > n_d:
        raise CardinalityViolation(
            f"intersection {n_i} exceeds extension ({n_c}, {n_d})"
        )
    if n_i == 0:
        return Fraction(0)
    return Fraction(n_i * n_i, (n_c + n_d - n_i) * min(n_c, n_d))


def sim_pair(kb: KnowledgeBase, x: Item, y: Item,
             depth: int | None = None,
             backend: Backend = Backend.CANONICAL) -> SimilarityReport:
    """Similarity of two items, each a concept or an individual name.

    The one implementation of the measure.  One engine serves the request:
    each individual is replaced by its MSC approximation at ``depth``
    (``None``: the ABox depth, searched once), and the same engine then
    computes ext(C), ext(D) and ext(C and D).  The concept-name extensions
    the roll-ups read are shared with those three and are not counted in
    ``extension_computations``, so every report reads 3.
    """
    engine = ExtensionEngine(kb, backend)
    individuals = [item for item in (x, y) if isinstance(item, str)]
    if not individuals:
        depth = None
    elif depth is None:
        depth = abox_depth(kb)
    c, d = [msc_approx(kb, item, depth, backend, engine).concept
            if isinstance(item, str) else item for item in (x, y)]
    before = engine.computations
    n_c = len(engine.extension(c))
    n_d = len(engine.extension(d))
    n_i = len(engine.extension(And((c, d))))
    return SimilarityReport(
        value=sim_formula(n_c, n_d, n_i),
        ext_c=n_c,
        ext_d=n_d,
        ext_i=n_i,
        backend=backend,
        extension_computations=engine.computations - before,
        msc_computations=len(individuals),
        msc_depth=depth,
    )


def sim_concepts(kb: KnowledgeBase, c: ConceptExpr, d: ConceptExpr,
                 backend: Backend = Backend.CANONICAL) -> SimilarityReport:
    """Similarity of two concept descriptions over the knowledge base."""
    return sim_pair(kb, c, d, None, backend)


def sim_individual_concept(kb: KnowledgeBase, individual: str, c: ConceptExpr,
                           depth: int | None = None,
                           backend: Backend = Backend.CANONICAL
                           ) -> SimilarityReport:
    """Similarity of an individual (via its MSC approximation) and a concept."""
    return sim_pair(kb, individual, c, depth, backend)


def sim_individuals(kb: KnowledgeBase, a: str, b: str,
                    depth: int | None = None,
                    backend: Backend = Backend.CANONICAL) -> SimilarityReport:
    """Similarity of two individuals via their MSC approximations."""
    return sim_pair(kb, a, b, depth, backend)


def sim_matrix(kb: KnowledgeBase, items: Sequence[Item],
               depth: int | None = None,
               backend: Backend = Backend.CANONICAL) -> list[list[Fraction]]:
    """Symmetric matrix of pairwise similarities.

    One engine serves the whole matrix, so each concept name's extension
    is computed once for all roll-ups.  Each item's extension is computed
    once, an individual's from one MSC roll-up, and a cell intersects two
    extensions.
    """
    if not items:
        raise ValueError("items must be non-empty")
    engine = ExtensionEngine(kb, backend)
    if depth is None and any(isinstance(item, str) for item in items):
        depth = abox_depth(kb)

    def extension(item: Item) -> frozenset[str]:
        if not isinstance(item, str):
            return engine.extension(item)
        if backend is Backend.CANONICAL:
            return msc_extension(kb, item, depth, engine)
        return engine.extension(msc_approx(kb, item, depth, backend,
                                           engine).concept)

    exts = [extension(item) for item in items]
    return [[sim_formula(len(a), len(b), len(a & b)) for b in exts]
            for a in exts]
