import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alcsim.cluster import (LINKAGES, Dendrogram, cluster_matrix,
                            render_dendrogram)
from alcsim.model import Atom
from alcsim.parser import parse_kb
from alcsim.similarity import sim_matrix


def toy_two_blocks():
    # extensions form two disjoint blocks: {W, X} over {a, b}, {Y, Z} over {c, d}
    kb = parse_kb("W(a)\nX(a)\nW(b)\nY(c)\nZ(c)\nY(d)\n")
    items = [Atom("W"), Atom("X"), Atom("Y"), Atom("Z")]
    labels = ["W", "X", "Y", "Z"]
    return kb, items, labels


class TestClusterMatrix:
    def test_single_leaf(self):
        dendrogram = cluster_matrix(["only"], [[Fraction(1)]])
        assert dendrogram.leaves == ["only"]
        assert dendrogram.merges == []

    def test_identical_extensions_merge_first(self, family_kb):
        # Father and Man have the same three instances
        items = [Atom("Woman"), Atom("Father"), Atom("Man")]
        matrix = sim_matrix(family_kb, items)
        dendrogram = cluster_matrix(["Woman", "Father", "Man"], matrix)
        first = dendrogram.merges[0]
        assert {first[0], first[1]} == {1, 2}
        assert first[2] == 1

    def test_two_disjoint_blocks(self):
        kb, items, labels = toy_two_blocks()
        matrix = sim_matrix(kb, items)
        dendrogram = cluster_matrix(labels, matrix)
        sims = [sim for _, _, sim in dendrogram.merges]
        assert len(sims) == 3
        assert sims[0] > 0 and sims[1] > 0
        assert sims[2] == 0

    def test_complete_linkage_merges_non_increasing(self):
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randint(2, 7)
            matrix = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                matrix[i][i] = Fraction(1)
                for j in range(i + 1, n):
                    value = Fraction(rng.randint(0, 8), 8)
                    matrix[i][j] = matrix[j][i] = value
            labels = [f"x{i}" for i in range(n)]
            merges = cluster_matrix(labels, matrix, "complete").merges
            sims = [sim for _, _, sim in merges]
            assert sims == sorted(sims, reverse=True)

    def test_linkages_differ_on_chained_similarities(self):
        # a~b strong, b~c strong, a~c weak: single links the chain tighter
        matrix = [
            [Fraction(1), Fraction(3, 4), Fraction(1, 8)],
            [Fraction(3, 4), Fraction(1), Fraction(3, 4)],
            [Fraction(1, 8), Fraction(3, 4), Fraction(1)],
        ]
        labels = ["a", "b", "c"]
        single = cluster_matrix(labels, matrix, "single")
        complete = cluster_matrix(labels, matrix, "complete")
        average = cluster_matrix(labels, matrix, "average")
        assert single.merges[-1][2] == Fraction(3, 4)
        assert complete.merges[-1][2] == Fraction(1, 8)
        assert average.merges[-1][2] == Fraction(7, 16)

    def test_deterministic_tie_break(self):
        matrix = [[Fraction(1), Fraction(1, 2), Fraction(0), Fraction(0)],
                  [Fraction(1, 2), Fraction(1), Fraction(0), Fraction(0)],
                  [Fraction(0), Fraction(0), Fraction(1), Fraction(1, 2)],
                  [Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1)]]
        labels = ["p", "q", "m", "n"]
        merges = cluster_matrix(labels, matrix).merges
        # both pairs tie at 1/2; (m, n) sorts before (p, q)
        assert (merges[0][0], merges[0][1]) == (2, 3)
        assert (merges[1][0], merges[1][1]) == (0, 1)

    def test_unknown_linkage(self):
        with pytest.raises(ValueError):
            cluster_matrix(["a"], [[Fraction(1)]], "median")

    def test_rejects_matrix_not_square(self):
        one, half = Fraction(1), Fraction(1, 2)
        with pytest.raises(ValueError, match="2 x 2"):
            cluster_matrix(["a", "b"], [[one, half], [half]])
        with pytest.raises(ValueError, match="2 x 2"):
            cluster_matrix(["a", "b"], [[one, half]])
        with pytest.raises(ValueError, match="1 x 1"):
            cluster_matrix(["a"], [[one, half], [half, one]])

    def test_rejects_asymmetric_matrix(self):
        one, half = Fraction(1), Fraction(1, 2)
        matrix = [[one, half, half], [half, one, half], [half, one, one]]
        for linkage in LINKAGES:
            with pytest.raises(ValueError, match="not symmetric"):
                cluster_matrix(["a", "b", "c"], matrix, linkage)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_entry_without_exact_ratio(self, bad):
        # named by its position, not "not symmetric" or a bare float error
        half = Fraction(1, 2)
        matrix = [[1, half, half], [half, 1, bad], [half, half, 1]]
        for linkage in LINKAGES:
            with pytest.raises(ValueError, match=r"matrix entry \(1, 2\) is "
                               "not a finite number"):
                cluster_matrix(["a", "b", "c"], matrix, linkage)

    def test_diagonal_is_not_read(self):
        matrix = [[math.nan, 0.5], [0.5, math.inf]]
        assert cluster_matrix(["a", "b"], matrix).merges == [(0, 1, 0.5)]


def greedy_oracle(labels, matrix, linkage):
    """Clustering by recomputing every cluster pair's linkage from its
    members at every merge: O(n^4), kept as the reference."""

    def linkage_value(members_a, members_b):
        pairs = [matrix[i][j] for i in members_a for j in members_b]
        if linkage == "single":
            return max(pairs)
        if linkage == "complete":
            return min(pairs)
        return sum(pairs, Fraction(0)) / len(pairs)

    clusters = {i: (i,) for i in range(len(labels))}
    sort_key = {i: (labels[i],) for i in range(len(labels))}
    merges = []
    next_id = len(labels)
    while len(clusters) > 1:
        best = None
        for a in clusters:
            for b in clusters:
                ka, kb = sort_key[a], sort_key[b]
                if a == b or ka > kb:
                    continue
                sim = linkage_value(clusters[a], clusters[b])
                candidate = (-sim, ka, kb, a, b)
                if best is None or candidate < best:
                    best = candidate
        neg_sim, _, _, a, b = best
        merges.append((a, b, -neg_sim))
        clusters[next_id] = clusters.pop(a) + clusters.pop(b)
        sort_key[next_id] = tuple(sorted(labels[i] for i in clusters[next_id]))
        next_id += 1
    return Dendrogram(list(labels), merges)


ENTRIES = {   # entry type -> its values: exact, so equal values compare equal
    Fraction: st.fractions(0, 1, max_denominator=6),
    int: st.integers(0, 2),
    float: st.integers(0, 8).map(lambda k: k / 8),     # dyadic
}


@st.composite
def tied_symmetric_matrices(draw):
    """A symmetric matrix over a pool of three values of one drawn type
    (``Fraction``, ``int`` or ``float``), so linkages tie often, with
    labels that repeat."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(list(ENTRIES)))
    pool = draw(st.lists(ENTRIES[kind], min_size=3, max_size=3))
    labels = draw(st.lists(st.sampled_from("pqrs"), min_size=n, max_size=n))
    matrix = [[kind(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            matrix[i][j] = matrix[j][i] = draw(st.sampled_from(pool))
    return labels, matrix


class TestLinkageTableOracle:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=tied_symmetric_matrices(), linkage=st.sampled_from(LINKAGES))
    def test_equals_greedy_recomputation(self, case, linkage):
        labels, matrix = case
        kind = type(matrix[0][0])
        # float means round, so the recurrence and the oracle can part
        assume(not (linkage == "average" and kind is float))
        dendrogram = cluster_matrix(labels, matrix, linkage)
        assert dendrogram == greedy_oracle(labels, matrix, linkage)
        if linkage != "average":    # ranks read back the matrix's own values
            assert all(type(sim) is kind for _, _, sim in dendrogram.merges)

    def test_mixed_types_give_equal_values(self):
        # equal values of other types share a rank; any of them reads back
        third = Fraction(1, 3)
        matrix = [[1, 0.5, third, 0], [Fraction(1, 2), 1, 0.25, 0.0],
                  [third, Fraction(1, 4), 1, 1], [0, 0, 1, 1]]
        for linkage in ("single", "complete"):
            assert cluster_matrix("abcd", matrix, linkage) == (
                greedy_oracle("abcd", matrix, linkage))

    def test_integer_matrix_averages_exactly(self):
        matrix = [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
        merges = cluster_matrix(["a", "b", "c"], matrix, "average").merges
        assert merges == greedy_oracle(["a", "b", "c"], matrix,
                                       "average").merges
        assert merges[-1][2] == Fraction(1, 2)
        assert isinstance(merges[-1][2], Fraction)

    def test_family_matrix(self, family_kb):
        labels = sorted(family_kb.individuals)
        matrix = sim_matrix(family_kb, labels)
        for linkage in LINKAGES:
            assert cluster_matrix(labels, matrix, linkage) == (
                greedy_oracle(labels, matrix, linkage))


class TestRenderDendrogram:
    def test_leaf_only(self):
        text = render_dendrogram(Dendrogram(["solo"], []))
        assert text == "solo"

    def test_contains_all_leaves_and_similarities(self):
        kb, items, labels = toy_two_blocks()
        dendrogram = cluster_matrix(labels, sim_matrix(kb, items))
        text = render_dendrogram(dendrogram)
        for label in labels:
            assert label in text
        assert "sim=0.0000" in text

    def test_chain_of_1200_leaves_prints_without_recursion(self):
        # each merge takes the last cluster and the next leaf: 1,199 levels
        n = 1200
        merges = [(0, 1, Fraction(1))] + [
            (n + k - 1, k + 1, Fraction(1, k + 1)) for k in range(1, n - 1)]
        lines = render_dendrogram(Dendrogram([f"x{i}" for i in range(n)],
                                             merges)).split("\n")
        assert len(lines) == 2 * n - 1
        inner = [f"{'  ' * i}+ [sim={1 / (n - 1 - i):.4f}]"
                 for i in range(n - 1)]
        leaves = ["  " * (n - 1) + "x0"] + [
            "  " * (n - k) + f"x{k}" for k in range(1, n)]
        assert lines == inner + leaves


def recursive_render(dendrogram):
    """The plain recursive renderer: a pre-order walk from each root."""
    n = len(dendrogram.leaves)
    children = dict(enumerate(dendrogram.merges, n))
    merged = {x for a, b, _ in dendrogram.merges for x in (a, b)}

    def walk(node, indent):
        if node < n:
            return ["  " * indent + dendrogram.leaves[node]]
        a, b, sim = children[node]
        return ["  " * indent + f"+ [sim={float(sim):.4f}]",
                *walk(a, indent + 1), *walk(b, indent + 1)]

    return "\n".join(line for root in range(n + len(children))
                     if root not in merged for line in walk(root, 0))


def w7_matrix(n, seed):
    """A random symmetric n x n matrix with entries in eighths (W7)."""
    rng = random.Random(seed)
    matrix = [[Fraction(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            matrix[i][j] = matrix[j][i] = Fraction(rng.randint(0, 8), 8)
    return matrix


class TestRenderOracle:
    @pytest.mark.parametrize("linkage", LINKAGES)
    def test_family_dendrogram(self, family_kb, linkage):
        labels = sorted(family_kb.individuals)
        dendrogram = cluster_matrix(labels, sim_matrix(family_kb, labels),
                                    linkage)
        assert render_dendrogram(dendrogram) == recursive_render(dendrogram)

    @pytest.mark.parametrize("linkage", LINKAGES)
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 30])
    def test_random_matrices(self, n, linkage):
        labels = [f"i{k}" for k in range(n)]
        for seed in range(3):
            dendrogram = cluster_matrix(labels, w7_matrix(n, seed), linkage)
            assert render_dendrogram(dendrogram) == (
                recursive_render(dendrogram))

    def test_forest_and_empty(self):
        # a hand-built dendrogram may stop short of one root, or have none
        forest = Dendrogram(list("abcde"), [(3, 1, Fraction(1, 2)),
                                            (5, 4, 0.25)])
        assert render_dendrogram(forest) == recursive_render(forest)
        assert render_dendrogram(Dendrogram([], [])) == ""
