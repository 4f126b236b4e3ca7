"""Extension-based semantic similarity between concepts and individuals.

The measure compares two concepts through the cardinalities of their
extensions and of the extension of their conjunction::

    s(C, D) = |I| / (|C| + |D| - |I|) * max(|I|/|C|, |I|/|D|)    I = C and D

It is 1 exactly for equivalent concepts with non-empty extensions, 0
exactly for disjoint (or empty) extensions, and strictly between
otherwise.  Individuals are compared through their most-specific-concept
approximations, by default at the ABox depth.

Values are exact rationals; any rounding happens at the presentation
layer only.  ``sim_pair`` computes every pair report on one extension
engine: the MSC roll-ups share its concept-name masks, uncounted, and
the report counts the three extension computations for C, D and their
conjunction, so the cost model is observable.  Extensions are bit masks
over ``ABox.bits``, and a cardinality is a ``bit_count``.

A matrix over n items costs one extension per item and n(n+1)/2 mask
intersections, one per cell i <= j, the rest mirrored, and one
``Fraction`` per distinct count triple: on both backends
ext(C and D) = ext(C) & ext(D).  Canonical evaluation of a conjunction
is that intersection; under entailment, KB |= (C and D)(a) exactly when
KB |= C(a) and KB |= D(a), and an inconsistent KB puts every individual
on both sides.  An individual's extension is its MSC's, which both
backends evaluate without building the MSC concept: the entail backend
builds only the ``exists`` parts that its told successors leave
undecided (see ``msc`` and ``retrieval``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence, Union

from .errors import CardinalityViolation
from .model import And, ConceptExpr, KnowledgeBase
from .msc import msc_approx, msc_mask
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
    (``None``: the ABox depth), and the same engine then
    computes ext(C), ext(D) and ext(C and D).  The concept-name extensions
    the roll-ups read are shared with those three and are not counted in
    ``extension_computations``, so every report reads 3.
    """
    engine = ExtensionEngine(kb, backend)
    mscs = [msc_approx(kb, item, depth, backend, engine)
            for item in (x, y) if isinstance(item, str)]
    rolled = iter(mscs)
    c, d = [next(rolled).concept if isinstance(item, str) else item
            for item in (x, y)]
    before = engine.computations
    n_c, n_d, n_i = (engine.mask(e).bit_count() for e in (c, d, And((c, d))))
    return SimilarityReport(
        value=sim_formula(n_c, n_d, n_i),
        ext_c=n_c,
        ext_d=n_d,
        ext_i=n_i,
        backend=backend,
        extension_computations=engine.computations - before,
        msc_computations=len(mscs),
        msc_depth=mscs[0].depth if mscs else None,
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
    and each roll-up memo is computed once for all roll-ups.
    Each item's extension is computed once, an individual's from one MSC
    roll-up; a cell i <= j intersects two extensions, and the measure is
    symmetric, so cell (j, i) is the same value.
    """
    if not items:
        raise ValueError("items must be non-empty")
    engine = ExtensionEngine(kb, backend)
    formula = cache(sim_formula)    # each triple once
    exts = [msc_mask(kb, item, depth, engine) if isinstance(item, str)
            else engine.mask(item) for item in items]
    matrix: list[list[Fraction]] = []
    counts = [ext.bit_count() for ext in exts]
    for i, a in enumerate(exts):
        matrix.append([matrix[j][i] if j < i else
                       formula(counts[i], counts[j], (a & b).bit_count())
                       for j, b in enumerate(exts)])
    return matrix
