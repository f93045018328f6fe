"""Threshold correlation graphs and maximal-clique analysis.

Vertices are series; an edge joins i and j when |rho_ij| > delta (strict).
Maximal cliques are enumerated with Bron-Kerbosch using pivoting; output
ordering is canonical (each clique sorted, cliques sorted lexicographically)
and therefore independent of pivot choices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .targeting import threshold_correlation


@dataclass(frozen=True)
class ThresholdGraph:
    """Undirected graph of surviving correlations at a threshold.

    adjacency holds the surviving correlation weights (zero elsewhere, unit
    diagonal); edges are (i, j) with i < j in lexicographic order.
    """

    labels: tuple[str, ...]
    delta: float
    adjacency: np.ndarray
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        a = np.array(self.adjacency, dtype=float)
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)
        object.__setattr__(
            self, "edges", tuple((int(i), int(j)) for i, j in self.edges)
        )

    @property
    def n(self) -> int:
        return len(self.labels)

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(
            j for j in range(self.n) if j != v and self.adjacency[v, j] != 0.0
        )

    def weight(self, i: int, j: int) -> float:
        return float(self.adjacency[i, j])


def build_graph(corr: np.ndarray, labels: tuple[str, ...], delta: float) -> ThresholdGraph:
    """Threshold a correlation matrix into a graph; survival is strict
    (|rho| > delta), as in targeting.threshold_correlation."""
    adj = threshold_correlation(corr, delta)
    n = adj.shape[0]
    if len(labels) != n:
        raise DataError(f"{len(labels)} labels for a {n}x{n} correlation matrix")
    if np.abs(np.diag(np.asarray(corr, dtype=float)) - 1.0).max() > 1e-12:
        raise DataError("correlation matrix must have a unit diagonal")
    edges = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if adj[i, j] != 0.0
    )
    return ThresholdGraph(
        labels=tuple(labels), delta=float(delta), adjacency=adj, edges=edges
    )


@dataclass(frozen=True)
class CliqueSet:
    """Canonically ordered maximal cliques: each clique is a sorted vertex
    tuple, and cliques are sorted lexicographically."""

    cliques: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "cliques",
            tuple(tuple(int(v) for v in c) for c in self.cliques),
        )

    def __len__(self) -> int:
        return len(self.cliques)

    def orders(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cliques)

    def as_labels(self, labels: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(labels[v] for v in c) for c in self.cliques)


def maximal_cliques(graph: ThresholdGraph) -> CliqueSet:
    """Enumerate all maximal cliques (isolated vertices count as cliques of
    order one)."""
    nbrs = [graph.neighbors(v) for v in range(graph.n)]
    out: list[tuple[int, ...]] = []

    def expand(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            out.append(tuple(sorted(r)))
            return
        # Pivot on the vertex covering most of P; only non-neighbors of the
        # pivot are branched on.
        pivot = max(p | x, key=lambda u: len(p & nbrs[u]))
        for v in sorted(p - nbrs[pivot]):
            expand(r | {v}, p & nbrs[v], x & nbrs[v])
            p.remove(v)
            x.add(v)

    expand(set(), set(range(graph.n)), set())
    return CliqueSet(cliques=tuple(sorted(out)))


@dataclass(frozen=True)
class GraphComparison:
    """Edge- and clique-level agreement between an observed and a simulated
    graph at the same threshold.

    clique_best_jaccard[k] is the best Jaccard overlap of observed clique k
    against any simulated clique; cliques_matched counts exact matches.
    """

    edges_only_observed: tuple[tuple[int, int], ...]
    edges_only_simulated: tuple[tuple[int, int], ...]
    edge_jaccard: float
    cliques_matched: int
    clique_best_jaccard: tuple[float, ...]


def _jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def compare_graphs(observed: ThresholdGraph, simulated: ThresholdGraph) -> GraphComparison:
    """Compare two graphs built over the same labels and threshold."""
    if observed.labels != simulated.labels:
        raise DataError("graphs have different vertex labels")
    if observed.delta != simulated.delta:
        raise DataError(
            f"graphs have different thresholds: {observed.delta} vs {simulated.delta}"
        )
    e_obs = set(observed.edges)
    e_sim = set(simulated.edges)
    edge_jaccard = _jaccard(frozenset(e_obs), frozenset(e_sim))
    c_obs = maximal_cliques(observed).cliques
    c_sim = [frozenset(c) for c in maximal_cliques(simulated).cliques]
    matched = 0
    best: list[float] = []
    for c in c_obs:
        cs = frozenset(c)
        if c_sim:
            score = max(_jaccard(cs, s) for s in c_sim)
        else:
            score = 0.0
        if any(cs == s for s in c_sim):
            matched += 1
        best.append(score)
    return GraphComparison(
        edges_only_observed=tuple(sorted(e_obs - e_sim)),
        edges_only_simulated=tuple(sorted(e_sim - e_obs)),
        edge_jaccard=edge_jaccard,
        cliques_matched=matched,
        clique_best_jaccard=tuple(best),
    )


def graph_to_dot(graph: ThresholdGraph) -> str:
    """Graphviz rendering; vertices in label order, edges lexicographic,
    weights printed with four decimals."""
    lines = ["graph correlation {"]
    for lab in graph.labels:
        lines.append(f'  "{lab}";')
    for i, j in graph.edges:
        w = graph.weight(i, j)
        lines.append(
            f'  "{graph.labels[i]}" -- "{graph.labels[j]}" [weight="{w:.4f}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: ThresholdGraph) -> dict:
    """JSON-ready dict: labels, delta, and [i, j, weight] edge triples."""
    return {
        "labels": list(graph.labels),
        "delta": graph.delta,
        "edges": [[i, j, graph.weight(i, j)] for i, j in graph.edges],
    }


def graph_from_json(doc: dict) -> ThresholdGraph:
    """Rebuild a ThresholdGraph from graph_to_json output."""
    try:
        labels = tuple(str(s) for s in doc["labels"])
        delta = float(doc["delta"])
        edges = [(int(i), int(j), float(w)) for i, j, w in doc["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed graph document: {exc}") from exc
    n = len(labels)
    adj = np.zeros((n, n))
    np.fill_diagonal(adj, 1.0)
    for i, j, w in edges:
        if not (0 <= i < n and 0 <= j < n and i != j):
            raise DataError(f"edge ({i}, {j}) out of range for {n} vertices")
        adj[i, j] = adj[j, i] = w
    return build_graph(adj, labels, delta)
