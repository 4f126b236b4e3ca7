"""Agglomerative clustering over a similarity matrix.

Clusters start as singletons and the pair with the highest linkage
similarity merges first; merged clusters get fresh ids numbered after
the leaves.  Ties break on the lexicographically smallest sorted member
labels, so runs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

LINKAGES = ("single", "complete", "average")


@dataclass(frozen=True)
class Dendrogram:
    leaves: list[str]
    merges: list[tuple[int, int, Fraction]]  # (cluster id, cluster id, similarity)


def _linkage_value(members_a, members_b, matrix, linkage: str) -> Fraction:
    pairs = [matrix[i][j] for i in members_a for j in members_b]
    if linkage == "single":
        return max(pairs)
    if linkage == "complete":
        return min(pairs)
    return sum(pairs, Fraction(0)) / len(pairs)  # "average"


def cluster_matrix(labels: Sequence[str], matrix,
                   linkage: str = "complete") -> Dendrogram:
    """Merge clusters greedily by maximal linkage similarity."""
    if linkage not in LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}")
    if len(labels) != len(matrix):
        raise ValueError("labels and matrix size disagree")

    clusters: dict[int, tuple[int, ...]] = {
        i: (i,) for i in range(len(labels))
    }
    sort_key = {i: (labels[i],) for i in range(len(labels))}
    merges: list[tuple[int, int, Fraction]] = []
    next_id = len(labels)

    while len(clusters) > 1:
        best = None
        for a in clusters:
            for b in clusters:
                if a == b:
                    continue
                ka, kb = sort_key[a], sort_key[b]
                if ka > kb:
                    continue
                sim = _linkage_value(clusters[a], clusters[b], matrix, linkage)
                candidate = (-sim, ka, kb, a, b)
                if best is None or candidate < best:
                    best = candidate
        neg_sim, _, _, a, b = best
        merges.append((a, b, -neg_sim))
        clusters[next_id] = clusters.pop(a) + clusters.pop(b)
        sort_key[next_id] = tuple(sorted(
            labels[i] for i in clusters[next_id]
        ))
        next_id += 1

    return Dendrogram(list(labels), merges)


def render_dendrogram(dendrogram: Dendrogram) -> str:
    """Plain-text tree, merge similarities annotated on inner nodes."""
    n = len(dendrogram.leaves)
    children: dict[int, tuple[int, int, Fraction]] = {}
    merged_into: set[int] = set()
    for offset, (a, b, sim) in enumerate(dendrogram.merges):
        children[n + offset] = (a, b, sim)
        merged_into.update((a, b))

    roots = [i for i in list(range(n)) + list(children) if i not in merged_into]

    lines: list[str] = []

    def walk(node: int, indent: int) -> None:
        pad = "  " * indent
        if node < n:
            lines.append(f"{pad}{dendrogram.leaves[node]}")
        else:
            a, b, sim = children[node]
            lines.append(f"{pad}+ [sim={float(sim):.4f}]")
            walk(a, indent + 1)
            walk(b, indent + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)
