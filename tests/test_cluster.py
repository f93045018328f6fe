import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform

from covtarget import (
    DataError,
    Dendrogram,
    complete_linkage,
    corr_distance,
    cut_tree,
    dendrogram_to_json,
    to_newick,
)

from conftest import random_corr

from tables import CORR5, LABELS5


def reference_complete_linkage(dist, labels):
    """Dict-of-pairs complete linkage: at every merge the pair with the
    smallest (distance, (id_a, id_b)) wins, comparing id pairs
    lexicographically. The oracle for the work-matrix implementation."""
    d = np.asarray(dist, dtype=float)
    n = d.shape[0]
    pair = {(i, j): float(d[i, j]) for i in range(n) for j in range(i + 1, n)}
    active = set(range(n))
    merges = []
    for k in range(n - 1):
        (a, b), height = min(pair.items(), key=lambda kv: (kv[1], kv[0]))
        new = n + k
        active.discard(a)
        active.discard(b)
        for c in active:
            da = pair.pop((min(a, c), max(a, c)))
            db = pair.pop((min(b, c), max(b, c)))
            pair[(c, new)] = max(da, db)
        del pair[(a, b)]
        active.add(new)
        merges.append((a, b, height))
    return Dendrogram(labels=tuple(labels), merges=tuple(merges))


@st.composite
def tied_distances(draw):
    """Symmetric distance matrices with entries in {0, ..., 4}, so most
    merges face ties."""
    n = draw(st.integers(1, 30))
    upper = draw(
        st.lists(st.integers(0, 4), min_size=n * (n - 1) // 2,
                 max_size=n * (n - 1) // 2)
    )
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = upper
    return d + d.T


def partition(assign):
    groups = {}
    for leaf, cid in enumerate(assign):
        groups.setdefault(cid, []).append(leaf)
    return tuple(sorted(tuple(m) for m in groups.values()))


class TestCorrDistance:
    def test_values(self):
        c = np.array([[1.0, 0.25, -0.5], [0.25, 1.0, 0.0], [-0.5, 0.0, 1.0]])
        d = corr_distance(c)
        assert np.allclose(d, [[0.0, 0.75, 1.5], [0.75, 0.0, 1.0], [1.5, 1.0, 0.0]])
        assert np.all(np.diag(d) == 0.0)

    def test_validation(self):
        with pytest.raises(DataError):
            corr_distance(np.eye(2) * 2.0)
        with pytest.raises(DataError):
            corr_distance(np.array([[1.0, 1.4], [1.4, 1.0]]))


class TestDendrogram:
    def test_validation(self):
        Dendrogram(labels=("A",), merges=())
        with pytest.raises(DataError):
            Dendrogram(labels=("A", "B"), merges=())
        with pytest.raises(DataError):
            Dendrogram(labels=("A", "B"), merges=((1, 0, 0.5),))
        with pytest.raises(DataError):
            Dendrogram(labels=("A", "B"), merges=((0, 5, 0.5),))
        with pytest.raises(DataError):
            Dendrogram(
                labels=("A", "B", "C"),
                merges=((0, 1, 0.5), (2, 3, 0.1)),  # heights decrease
            )

    @pytest.mark.parametrize(
        "labels, merges, reused",
        [
            (("a", "b", "c"), ((0, 1, 0.1), (0, 2, 0.2)), 0),  # a leaf
            (("a", "b", "c", "d"), ((0, 1, 0.1), (2, 4, 0.2), (3, 4, 0.3)), 4),
        ],
        ids=["leaf", "cluster"],
    )
    def test_rejects_an_id_merged_twice(self, labels, merges, reused):
        # not a tree: a Newick rendering would drop a leaf
        with pytest.raises(DataError, match=f"id {reused} is already merged"):
            Dendrogram(labels=labels, merges=merges)


class TestCompleteLinkage:
    def test_hand_example(self):
        d = np.array([[0.0, 0.1, 0.5], [0.1, 0.0, 0.4], [0.5, 0.4, 0.0]])
        dend = complete_linkage(d, ("A", "B", "C"))
        assert dend.merges == ((0, 1, 0.1), (2, 3, 0.5))

    def test_two_block_structure_recovered(self):
        c = np.full((5, 5), 0.1)
        c[:3, :3] = 0.8
        c[3:, 3:] = 0.85
        np.fill_diagonal(c, 1.0)
        dend = complete_linkage(corr_distance(c), tuple("ABCDE"))
        assert partition(cut_tree(dend, 2)) == ((0, 1, 2), (3, 4))

    def test_ties_break_on_lowest_id_pair(self):
        d = np.full((4, 4), 0.5)
        np.fill_diagonal(d, 0.0)
        dend = complete_linkage(d, tuple("ABCD"))
        assert dend.merges == ((0, 1, 0.5), (2, 3, 0.5), (4, 5, 0.5))

    def test_heights_nondecreasing(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            dend = complete_linkage(
                corr_distance(random_corr(rng, n)),
                tuple(f"V{i}" for i in range(n)),
            )
            h = np.array([m[2] for m in dend.merges])
            assert np.all(np.diff(h) >= -1e-12)

    def test_matches_reference_implementation(self, rng):
        # generic distances have no ties, so partitions are unique and the
        # merge heights coincide with the reference complete linkage
        for _ in range(10):
            n = int(rng.integers(3, 9))
            d = corr_distance(random_corr(rng, n))
            labels = tuple(f"V{i}" for i in range(n))
            dend = complete_linkage(d, labels)
            z = linkage(squareform(d, checks=False), method="complete")
            assert np.allclose(sorted([m[2] for m in dend.merges]), np.sort(z[:, 2]), atol=1e-12)
            for k in range(1, n + 1):
                ours = partition(cut_tree(dend, k))
                ref = partition(fcluster(z, t=k, criterion="maxclust") - 1)
                assert ours == ref

    @given(d=tied_distances())
    @settings(max_examples=200, deadline=None)
    def test_matches_dict_oracle_exactly_under_ties(self, d):
        labels = tuple(f"V{i}" for i in range(d.shape[0]))
        assert (
            complete_linkage(d, labels).merges
            == reference_complete_linkage(d, labels).merges
        )

    def test_matches_dict_oracle_on_correlation_distances(self, rng):
        n = 60
        d = corr_distance(random_corr(rng, n))
        labels = tuple(f"V{i}" for i in range(n))
        assert (
            complete_linkage(d, labels).merges
            == reference_complete_linkage(d, labels).merges
        )

    def test_matches_dict_oracle_with_many_stale_row_minima(self, rng):
        # distances in {0, ..., 4} at n = 120: merges tie in many rows at once
        # and leave many rows whose cached minimum sat in a merged slot
        n = 120
        d = np.zeros((n, n))
        d[np.triu_indices(n, 1)] = rng.integers(0, 5, n * (n - 1) // 2)
        d += d.T
        labels = tuple(f"V{i}" for i in range(n))
        assert (
            complete_linkage(d, labels).merges
            == reference_complete_linkage(d, labels).merges
        )

    def test_matches_dict_oracle_on_a_three_block_market(self, rng):
        # sample correlations of three sectors of 200 assets: the rows of a
        # sector keep their minima in the slots that sector's merges touch
        n, t = 200, 250
        sector = np.arange(n) % 3
        r = rng.standard_normal((t, 3))[:, sector] + rng.standard_normal((t, n))
        c = np.corrcoef(r, rowvar=False)
        np.fill_diagonal(c, 1.0)
        d = corr_distance(0.5 * (c + c.T))
        labels = tuple(f"V{i}" for i in range(n))
        assert (
            complete_linkage(d, labels).merges
            == reference_complete_linkage(d, labels).merges
        )

    def test_validation(self):
        with pytest.raises(DataError):
            complete_linkage(np.zeros((2, 2)) - 1.0, ("A", "B"))
        with pytest.raises(DataError):
            complete_linkage(np.zeros((2, 2)), ("A",))


class TestCutTree:
    def test_extremes(self):
        dend = complete_linkage(corr_distance(CORR5), LABELS5)
        assert np.array_equal(cut_tree(dend, 1), np.zeros(5, dtype=int))
        assert np.array_equal(cut_tree(dend, 5), np.arange(5))
        with pytest.raises(DataError):
            cut_tree(dend, 0)
        with pytest.raises(DataError):
            cut_tree(dend, 6)

    @pytest.mark.parametrize("k", [2.0, True, np.float64(2.0), "2"])
    def test_k_must_be_an_integer(self, k):
        # a float once failed inside a slice, and True cut into one cluster
        dend = complete_linkage(corr_distance(CORR5), LABELS5)
        with pytest.raises(DataError, match=f"^k must be an integer >= 1, got {re.escape(repr(k))}$"):
            cut_tree(dend, k)
        assert cut_tree(dend, np.int64(2)).tolist() == cut_tree(dend, 2).tolist()

    @given(d=tied_distances())
    @settings(max_examples=100, deadline=None)
    def test_every_cut_numbers_k_clusters_by_smallest_leaf(self, d):
        n = d.shape[0]
        dend = complete_linkage(d, tuple(f"V{i}" for i in range(n)))
        for k in range(1, n + 1):
            assign = cut_tree(dend, k)
            assert sorted(set(assign.tolist())) == list(range(k))
            firsts = [int(np.flatnonzero(assign == c)[0]) for c in range(k)]
            assert firsts == sorted(firsts)

    def test_ids_ordered_by_smallest_leaf(self):
        d = np.array([[0.0, 0.9, 0.1], [0.9, 0.0, 0.9], [0.1, 0.9, 0.0]])
        dend = complete_linkage(d, ("A", "B", "C"))
        # {A, C} merge first; cluster containing leaf 0 gets id 0
        assert cut_tree(dend, 2).tolist() == [0, 1, 0]


class TestNewick:
    def test_hand_example(self):
        d = np.array([[0.0, 0.1, 0.5], [0.1, 0.0, 0.4], [0.5, 0.4, 0.0]])
        dend = complete_linkage(d, ("A", "B", "C"))
        assert to_newick(dend) == "(C:0.5,(A:0.1,B:0.1):0.4);"

    def test_single_leaf(self):
        assert to_newick(Dendrogram(labels=("ONLY",), merges=())) == "ONLY;"

    def test_reserved_characters_quoted(self):
        d = np.array([[0.0, 0.3], [0.3, 0.0]])
        dend = complete_linkage(d, ("A B", "C'D"))
        assert to_newick(dend) == "('A B':0.3,'C''D':0.3);"

    def test_brackets_and_any_whitespace_quoted(self):
        # Newick reads [...] as a comment; a raw newline splits the tree
        d = np.array([[0.0, 0.3, 0.5], [0.3, 0.0, 0.5], [0.5, 0.5, 0.0]])
        dend = complete_linkage(d, ("A[1]", "B]", "C\nD"))
        assert to_newick(dend) == "('C\nD':0.5,('A[1]':0.3,'B]':0.3):0.2);"

    def test_branch_lengths_recover_heights(self, rng):
        n = 6
        dend = complete_linkage(
            corr_distance(random_corr(rng, n)), tuple(f"V{i}" for i in range(n))
        )
        text = to_newick(dend)
        assert text.endswith(";") and text.count(",") == n - 1


class TestJson:
    def test_document_fields(self):
        dend = complete_linkage(corr_distance(CORR5), LABELS5)
        doc = dendrogram_to_json(dend)
        assert doc["labels"] == list(LABELS5)
        assert doc["newick"] == to_newick(dend)
        assert [tuple(m) for m in doc["merges"]] == list(dend.merges)
