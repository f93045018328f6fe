import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covtarget import (
    CovTargetError,
    DataError,
    ThresholdGraph,
    build_graph,
    compare_graphs,
    corr_distance,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    maximal_cliques,
    threshold_correlation,
)
from covtarget.report import render_json

from tables import (
    CLIQUES5_D50,
    CLIQUES5_D71,
    CLIQUES8_D50,
    CLIQUES15_D50,
    CORR5,
    CORR8,
    CORR15,
    LABELS5,
    LABELS8,
    LABELS15,
)


def random_sym(rng, n):
    """Symmetric matrix with entries in (-1, 1) and a unit diagonal; PD is
    irrelevant for thresholding."""
    c = rng.uniform(-1.0, 1.0, (n, n))
    c = 0.5 * (c + c.T)
    np.fill_diagonal(c, 1.0)
    return c


def graphs(n):
    """Graphs on n vertices at delta 0.5 with random signed weights above it,
    edgeless, complete or of a random density."""

    def build(seed, density):
        rng = np.random.default_rng(seed)
        keep = np.triu(rng.random((n, n)) < density, 1)
        a = np.where(keep, rng.uniform(0.51, 1.0, (n, n)) * rng.choice([-1.0, 1.0], (n, n)), 0.0)
        return ThresholdGraph(tuple(f"V{i}" for i in range(n)), 0.5, a + a.T + np.eye(n))

    density = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    return st.builds(build, st.integers(0, 2**32 - 1), density)


def brute_force_cliques(graph):
    """Maximal cliques by scanning every vertex subset as a bitmask."""
    n = graph.n
    nbr = [
        sum(1 << j for j in range(n) if j != i and graph.adjacency[i, j] != 0.0)
        for i in range(n)
    ]
    found = []
    for mask in range(1, 1 << n):
        is_clique = True
        for i in range(n):
            if mask >> i & 1 and (nbr[i] | (1 << i)) & mask != mask:
                is_clique = False
                break
        if not is_clique:
            continue
        if any(
            not (mask >> v & 1) and nbr[v] & mask == mask for v in range(n)
        ):
            continue  # extendable, not maximal
        found.append(tuple(i for i in range(n) if mask >> i & 1))
    return tuple(sorted(found))


class TestBuildGraph:
    def test_strict_threshold(self):
        c = np.array([[1.0, 0.5, 0.6], [0.5, 1.0, 0.2], [0.6, 0.2, 1.0]])
        g = build_graph(c, ("A", "B", "C"), 0.5)
        assert g.edges == ((0, 2),)
        assert g.adjacency[0, 2] == 0.6
        assert g.adjacency[0, 1] == 0.0

    def test_negative_edges_kept_with_sign(self):
        c = np.array([[1.0, -0.9], [-0.9, 1.0]])
        g = build_graph(c, ("A", "B"), 0.5)
        assert g.edges == ((0, 1),)
        assert g.adjacency[0, 1] == -0.9

    def test_edges_are_derived_from_the_adjacency(self):
        adj = threshold_correlation(CORR5, 0.5)
        g = ThresholdGraph(labels=LABELS5, delta=0.5, adjacency=adj)
        assert g.edges == build_graph(CORR5, LABELS5, 0.5).edges
        assert g.edges == tuple(
            (i, j) for i in range(5) for j in range(i + 1, 5) if adj[i, j] != 0.0
        )
        with pytest.raises(TypeError):
            ThresholdGraph(labels=LABELS5, delta=0.5, adjacency=adj, edges=())
        with pytest.raises(AttributeError):
            g.edges = ()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12).flatmap(graphs))
    def test_edges_are_the_upper_triangle_in_row_major_order(self, g):
        rows, cols = np.nonzero(np.triu(g.adjacency, 1))
        assert g.edges == tuple(zip(rows.tolist(), cols.tolist()))

    def test_validation(self):
        with pytest.raises(DataError):
            build_graph(np.eye(3), ("A", "B"), 0.5)
        with pytest.raises(DataError):
            build_graph(np.eye(2) * 1.5, ("A", "B"), 0.5)
        with pytest.raises(DataError):
            build_graph(np.array([[1.0, 1.2], [1.2, 1.0]]), ("A", "B"), 0.5)
        with pytest.raises(DataError):
            build_graph(np.eye(2), ("A", "B"), 1.0)


def corr_with(i, j, value, mirror=True):
    """A valid 3x3 correlation matrix with entry (i, j), and (j, i) when
    ``mirror``, set to ``value``."""
    c = np.array([[1.0, 0.6, 0.2], [0.6, 1.0, -0.3], [0.2, -0.3, 1.0]])
    c[i, j] = value
    if mirror:
        c[j, i] = value
    return c


@pytest.mark.parametrize("corr", [
    corr_with(1, 1, 0.5),
    corr_with(0, 1, 1.2),
    corr_with(0, 1, 0.6 + 1e-6, mirror=False),
    corr_with(2, 0, np.nan),
], ids=["diagonal", "above-one", "asymmetric", "nan"])
def test_one_correlation_rule(corr):
    # threshold_correlation, build_graph and corr_distance refuse the same
    # matrices with the same error.
    errors = []
    for call in (
        lambda: threshold_correlation(corr, 0.5),
        lambda: build_graph(corr, ("A", "B", "C"), 0.5),
        lambda: corr_distance(corr),
    ):
        with pytest.raises(CovTargetError) as err:
            call()
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1] == errors[2]


class TestMaximalCliques:
    def test_observed_panel_five_assets(self):
        g = build_graph(CORR5, LABELS5, 0.5)
        assert maximal_cliques(g) == CLIQUES5_D50
        g = build_graph(CORR5, LABELS5, 0.71)
        assert maximal_cliques(g) == CLIQUES5_D71

    def test_observed_panel_eight_assets(self):
        g = build_graph(CORR8, LABELS8, 0.5)
        assert maximal_cliques(g) == CLIQUES8_D50

    def test_observed_panel_fifteen_assets(self):
        g = build_graph(CORR15, LABELS15, 0.5)
        assert maximal_cliques(g) == CLIQUES15_D50

    def test_isolated_vertices_are_singletons(self):
        g = build_graph(np.eye(4), ("A", "B", "C", "D"), 0.5)
        assert maximal_cliques(g) == ((0,), (1,), (2,), (3,))

    def test_dense_graph_is_one_clique(self, rng):
        c = random_sym(rng, 6)
        c[np.abs(c) < 0.05] = 0.1  # keep every off-diagonal entry surviving
        np.fill_diagonal(c, 1.0)
        g = build_graph(c, tuple("ABCDEF"), 0.0)
        assert maximal_cliques(g) == ((0, 1, 2, 3, 4, 5),)

    def test_thousand_vertex_clique(self):
        # one clique of order 1,000: deeper than Python's default recursion limit
        n = 1000
        c = np.full((n, n), 0.5)
        np.fill_diagonal(c, 1.0)
        g = build_graph(c, tuple(f"V{i}" for i in range(n)), 0.4)
        assert maximal_cliques(g) == (tuple(range(n)),)

    def test_thousand_vertex_clique_holds_no_edge_objects(self):
        # the graph holds its 8 MB adjacency and no Python object per edge
        n = 1000
        c = np.full((n, n), 0.5)
        np.fill_diagonal(c, 1.0)
        labels = tuple(f"V{i}" for i in range(n))
        tracemalloc.start()
        try:
            g = build_graph(c, labels, 0.4)
            cliques = maximal_cliques(g)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert cliques == (tuple(range(n)),)
        assert held < 16 * 2**20

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 11))
            g = build_graph(
                random_sym(rng, n),
                tuple(f"V{i}" for i in range(n)),
                float(rng.uniform(0.1, 0.9)),
            )
            assert maximal_cliques(g) == brute_force_cliques(g)

    def test_clique_set_accessors(self):
        g = build_graph(CORR5, LABELS5, 0.71)
        cs = maximal_cliques(g)
        assert len(cs) == 3
        assert tuple(map(len, cs)) == (3, 2, 2)
        assert tuple(g.labels[v] for v in cs[0]) == ("MSFT", "AMZN", "CRM")


def compare(obs, sim):
    return compare_graphs(obs, sim, maximal_cliques(obs), maximal_cliques(sim))


def set_comparison(obs, sim, obs_cliques, sim_cliques):
    """compare_graphs' block computed on Python sets of (i, j) pairs."""

    def edge_set(g):
        rows, cols = np.nonzero(np.triu(g.adjacency, 1))
        return set(zip(rows.tolist(), cols.tolist()))

    def jaccard(a, b):
        return 1.0 if not a and not b else len(a & b) / len(a | b)

    e_obs, e_sim = edge_set(obs), edge_set(sim)
    c_obs = [frozenset(c) for c in obs_cliques]
    c_sim = {frozenset(c) for c in sim_cliques}
    return {
        "edges_only_observed": [list(e) for e in sorted(e_obs - e_sim)],
        "edges_only_simulated": [list(e) for e in sorted(e_sim - e_obs)],
        "edge_jaccard": jaccard(e_obs, e_sim),
        "cliques_matched": sum(c in c_sim for c in c_obs),
        "clique_best_jaccard": [
            max((jaccard(c, s) for s in c_sim), default=0.0) for c in c_obs
        ],
    }


class TestCompare:
    def test_identical_graphs(self):
        g = build_graph(CORR5, LABELS5, 0.5)
        cmp = compare(g, g)
        assert cmp["edge_jaccard"] == 1.0
        assert cmp["edges_only_observed"] == []
        assert cmp["edges_only_simulated"] == []
        assert cmp["cliques_matched"] == len(maximal_cliques(g))
        assert all(s == 1.0 for s in cmp["clique_best_jaccard"])

    def test_disjoint_edges(self):
        labels = ("A", "B", "C")
        obs = build_graph(
            np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            labels,
            0.5,
        )
        sim = build_graph(
            np.array([[1.0, 0.0, 0.9], [0.0, 1.0, 0.0], [0.9, 0.0, 1.0]]),
            labels,
            0.5,
        )
        cmp = compare(obs, sim)
        assert cmp["edge_jaccard"] == 0.0
        assert cmp["edges_only_observed"] == [[0, 1]]
        assert cmp["edges_only_simulated"] == [[0, 2]]
        assert cmp["cliques_matched"] == 0

    def test_both_empty_graphs_agree(self):
        obs = build_graph(np.eye(3), ("A", "B", "C"), 0.5)
        cmp = compare(obs, obs)
        assert cmp["edge_jaccard"] == 1.0
        assert cmp["cliques_matched"] == 3

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(graphs(n), graphs(n))))
    def test_matches_the_set_comparison(self, pair):
        obs, sim = pair
        for a, b in ((obs, sim), (sim, obs), (obs, obs)):
            cliques = maximal_cliques(a), maximal_cliques(b)
            block = compare_graphs(a, b, *cliques)
            assert block == set_comparison(a, b, *cliques)
            assert json.loads(render_json(block)) == block  # JSON-ready as it is

    def test_mismatch_errors(self):
        a = build_graph(np.eye(2), ("A", "B"), 0.5)
        b = build_graph(np.eye(2), ("A", "C"), 0.5)
        c = build_graph(np.eye(2), ("A", "B"), 0.6)
        with pytest.raises(DataError):
            compare(a, b)
        with pytest.raises(DataError):
            compare(a, c)


DOT_ID = r'"((?:[^"\\]|\\.)*)"'


# Distinct labels of printable Unicode, backslashes and quotes included.
LABEL_LISTS = st.lists(
    st.text(
        st.one_of(st.sampled_from('\\"'), st.characters().filter(str.isprintable)),
        min_size=1,
        max_size=8,
    ),
    min_size=1,
    max_size=5,
    unique=True,
).map(tuple)


def dot_document(dot):
    """(vertex ids, edge id pairs) of a graph_to_dot document, each id
    unescaped; fails unless every line is the header, a vertex, an edge or
    the closing brace, with each id one well-formed DOT quoted string."""
    lines = dot.split("\n")
    assert lines[0] == "graph correlation {" and lines[-2:] == ["}", ""]
    ids, edges = [], []
    for line in lines[1:-2]:
        vertex = re.fullmatch(f"  {DOT_ID};", line)
        edge = re.fullmatch(f'  {DOT_ID} -- {DOT_ID} \\[weight="-?\\d+\\.\\d{{4}}"\\];', line)
        assert vertex or edge, line
        unescaped = tuple(re.sub(r"\\(.)", r"\1", i) for i in (vertex or edge).groups())
        (ids.extend if vertex else edges.append)(unescaped)
    return tuple(ids), edges


class TestSerialization:
    def test_dot_golden(self):
        c = np.array([[1.0, 0.75, 0.0], [0.75, 1.0, -0.6], [0.0, -0.6, 1.0]])
        g = build_graph(c, ("AA", "BB", "CC"), 0.5)
        assert graph_to_dot(g) == (
            "graph correlation {\n"
            '  "AA";\n'
            '  "BB";\n'
            '  "CC";\n'
            '  "AA" -- "BB" [weight="0.7500"];\n'
            '  "BB" -- "CC" [weight="-0.6000"];\n'
            "}\n"
        )

    def test_dot_escapes_quotes_in_labels(self):
        labels = ('A"B', "C,D", 'E"')
        c = np.array([[1.0, 0.75, 0.0], [0.75, 1.0, 0.6], [0.0, 0.6, 1.0]])
        dot = graph_to_dot(build_graph(c, labels, 0.5))
        assert '  "A\\"B" -- "C,D" [weight="0.7500"];\n' in dot
        assert dot_document(dot)[0] == labels

    def test_dot_escapes_backslashes_in_labels(self):
        dot = graph_to_dot(build_graph(np.eye(2), ("A\\", "B"), 0.5))
        assert '  "A\\\\";\n  "B";\n' in dot
        assert dot_document(dot)[0] == ("A\\", "B")

    @settings(max_examples=200, deadline=None)
    @given(LABEL_LISTS)
    def test_every_dot_id_unescapes_to_its_label(self, labels):
        n = len(labels)
        corr = np.full((n, n), 0.9)
        np.fill_diagonal(corr, 1.0)
        ids, edges = dot_document(graph_to_dot(build_graph(corr, tuple(labels), 0.5)))
        assert ids == tuple(labels)
        assert edges == [(a, b) for i, a in enumerate(labels) for b in labels[i + 1 :]]

    @settings(max_examples=150, deadline=None)
    @given(LABEL_LISTS, st.integers(0, 2**32 - 1), st.floats(0.0, 1.0, exclude_max=True))
    def test_json_round_trip(self, labels, seed, delta):
        # through the text of a graph.json file, as `cliques --input` reads it
        g = build_graph(random_sym(np.random.default_rng(seed), len(labels)), labels, delta)
        back = graph_from_json(json.loads(render_json(graph_to_json(g))))
        assert back.labels == g.labels
        assert np.float64(back.delta).tobytes() == np.float64(g.delta).tobytes()
        assert back.edges == g.edges
        assert back.adjacency.tobytes() == g.adjacency.tobytes()
        assert maximal_cliques(back) == maximal_cliques(g)

    def test_malformed_document(self):
        with pytest.raises(DataError):
            graph_from_json({"labels": ["A"], "delta": 0.5})
        with pytest.raises(DataError):
            graph_from_json(
                {"labels": ["A", "B"], "delta": 0.5, "edges": [[0, 5, 0.9]]}
            )
        # documents graph_to_json cannot write, each named by its edge or label
        cases = [
            (["A", "B"], [[0, 1, 0.3]], "edge (0, 1) has weight 0.3, not above delta 0.5"),
            (["A", "B"], [[0, 1, -0.5]], "edge (0, 1) has weight -0.5, not above delta 0.5"),
            (["A", "B"], [[0.7, 1.2, 0.9]],
             "edge [0.7, 1.2, 0.9]: indices must be distinct integers in [0, 2)"),
            (["A", "B"], [[0, True, 0.9]],
             "edge [0, True, 0.9]: indices must be distinct integers in [0, 2)"),
            (["A", "B"], [[1, 1, 0.9]], "edge [1, 1, 0.9]: indices must be distinct integers in [0, 2)"),
            (["A", "B"], [[0, 1, 0.9], [1, 0, 0.8]], "edge (1, 0) appears twice"),
            (["A", "B"], [[0, 1, 0.9], [0, 1, 0.9]], "edge (0, 1) appears twice"),
            ("AB", [], "graph labels must be a list, got 'AB'"),
            ({"A": 1, "B": 2}, [], "graph labels must be a list, got {'A': 1, 'B': 2}"),
            (["A", "B"], [[0, 1, 1.5]], "edge (0, 1) has weight 1.5, above 1 in magnitude"),
            (["A", "B"], [[0, 1, -1.5]], "edge (0, 1) has weight -1.5, above 1 in magnitude"),
            (["A", "B"], [[0, 1, float("inf")]], "edge (0, 1) has weight inf, above 1 in magnitude"),
            ([1, 2.5], [], "graph label 1 is not a string"),
            (["A", None], [], "graph label None is not a string"),
            (["A", "B", "A"], [], "duplicate series labels: 'A'"),
            (["A", "B"], [[0, 1, "0.9"]], "edge (0, 1) has weight '0.9', not a number"),
            (["A", "B"], [[0, 1, True]], "edge (0, 1) has weight True, not a number"),
            (["A", "B"], [[0, 1, None]], "edge (0, 1) has weight None, not a number"),
        ]
        for labels, edges, message in cases:
            with pytest.raises(DataError) as err:
                graph_from_json({"labels": labels, "delta": 0.5, "edges": edges})
            assert str(err.value) == message
        # graph_to_json writes delta as a number
        for delta in ("0.5", False, None):
            with pytest.raises(DataError) as err:
                graph_from_json({"labels": ["A", "B"], "delta": delta, "edges": [[0, 1, 0.9]]})
            assert str(err.value) == f"graph delta {delta!r} is not a number"
