"""Agglomerative clustering over a similarity matrix.

Clusters start as singletons and the pair with the highest linkage
similarity merges first; merged clusters get fresh ids numbered after
the leaves.  Ties break on the lexicographically smallest sorted member
labels, then on the smallest ids, so runs are deterministic.  A table of
linkage values per live cluster pair, updated on each merge, makes
clustering n items O(n^3); for single and complete linkage it holds ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Sequence

# Lance–Williams updates: the linkage of clusters a and b merged to a third
# cluster k, from their linkages ak and bk to k and their sizes na and nb
_UPDATES = {
    "single": lambda ak, bk, na, nb: max(ak, bk),
    "complete": lambda ak, bk, na, nb: min(ak, bk),
    "average": lambda ak, bk, na, nb: (na * ak + nb * bk) / Fraction(na + nb),
}
LINKAGES = tuple(_UPDATES)


@dataclass(frozen=True)
class Dendrogram:
    leaves: list[str]
    merges: list[tuple[int, int, Fraction]]  # (cluster id, cluster id, similarity)


def cluster_matrix(labels: Sequence[str], matrix,
                   linkage: str = "complete") -> Dendrogram:
    """Merge clusters greedily by maximal linkage similarity.

    ``matrix`` must be square and symmetric, with finite ``Fraction``,
    ``int`` or ``float`` entries off the diagonal (``ValueError``
    otherwise).  Each merge updates the linkage to every other cluster by
    the Lance–Williams recurrence: single linkage takes the max of ranks,
    complete the min, and average the exact size-weighted mean.
    """
    if linkage not in LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}")
    n = len(labels)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError(f"matrix is not {n} x {n}, one row per label")
    key = {}    # (i, j) -> exact ratio of the entry
    for i, j in permutations(range(n), 2):
        try:
            key[i, j] = matrix[i][j].as_integer_ratio()
        except (ValueError, OverflowError):
            raise ValueError(f"matrix entry ({i}, {j}) is not a finite "
                             "number") from None
    if any(key[i, j] != key[j, i] for i in range(n) for j in range(i)):
        raise ValueError("matrix is not symmetric")

    update = _UPDATES[linkage]
    # (a, b) with a < b -> linkage similarity of the live clusters a and b
    link = {(i, j): matrix[i][j] for j in range(n) for i in range(j)}
    if linkage != "average":    # max and min commute with ranking
        values = sorted({key[pair]: v for pair, v in link.items()}.values())
        rank = {v.as_integer_ratio(): r for r, v in enumerate(values)}
        link = {pair: rank[key[pair]] for pair in link}
    size = dict.fromkeys(range(n), 1)
    sort_key = {i: (labels[i],) for i in range(n)}
    merges: list[tuple[int, int, Fraction]] = []

    def tie_key(pair: tuple[int, int]) -> tuple:
        a, b = pair
        ka, kb = sort_key[a], sort_key[b]
        return (ka, kb, a, b) if ka <= kb else (kb, ka, b, a)

    for new in range(n, 2 * n - 1):
        # the pair minimising (-sim, sorted labels a, sorted labels b, a, b)
        sim = max(link.values())
        ka, kb, a, b = min(tie_key(pair) for pair, value in link.items()
                           if value == sim)
        merges.append((a, b, sim if linkage == "average" else values[sim]))
        del link[min(a, b), max(a, b)]
        na, nb = size.pop(a), size.pop(b)
        for k in size:
            ak = link.pop((min(a, k), max(a, k)))
            bk = link.pop((min(b, k), max(b, k)))
            link[k, new] = update(ak, bk, na, nb)
        size[new] = na + nb
        sort_key[new] = tuple(sorted(ka + kb))

    return Dendrogram(list(labels), merges)


def render_dendrogram(dendrogram: Dendrogram) -> str:
    """Plain-text tree, merge similarities annotated on inner nodes."""
    n = len(dendrogram.leaves)
    children = dict(enumerate(dendrogram.merges, n))
    merged_into = {x for a, b, _ in dendrogram.merges for x in (a, b)}
    lines: list[str] = []
    # pre-order from the roots, each node with its indent
    stack = [(i, 0) for i in reversed(range(n + len(children)))
             if i not in merged_into]
    while stack:
        node, indent = stack.pop()
        pad = "  " * indent
        if node < n:
            lines.append(f"{pad}{dendrogram.leaves[node]}")
        else:
            a, b, sim = children[node]
            lines.append(f"{pad}+ [sim={float(sim):.4f}]")
            stack += (b, indent + 1), (a, indent + 1)
    return "\n".join(lines)
