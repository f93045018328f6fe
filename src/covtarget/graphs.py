"""Threshold correlation graphs and maximal-clique analysis.

Vertices are series; an edge joins i and j when |rho_ij| > delta (strict).
A graph stores only its adjacency; edges and comparisons read its upper
triangle. Maximal cliques are enumerated with Bron-Kerbosch using Tomita's
pivot, on integer bitsets and from an explicit stack, so cliques of any order
fit; output ordering is canonical (each clique sorted, cliques sorted
lexicographically) and therefore independent of pivot choices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _check_labels
from .errors import DataError
from .targeting import check_delta, threshold_correlation


@dataclass(frozen=True)
class ThresholdGraph:
    """Undirected graph of surviving correlations at a threshold.

    adjacency, the one array stored, holds the surviving correlation weights
    (zero elsewhere, unit diagonal); edges are read from it when asked for:
    the (i, j) with i < j and a nonzero weight, in lexicographic order.
    """

    labels: tuple[str, ...]
    delta: float
    adjacency: np.ndarray

    def __post_init__(self):
        _check_labels(self.labels)
        a = np.array(self.adjacency, dtype=float)
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        rows, cols = np.nonzero(np.triu(self.adjacency, 1))  # row-major: by i, then j
        return tuple(zip(rows.tolist(), cols.tolist()))


def build_graph(corr: np.ndarray, labels: tuple[str, ...], delta: float) -> ThresholdGraph:
    """Threshold a correlation matrix into a graph; validation and survival
    (strict, |rho| > delta) are those of targeting.threshold_correlation."""
    adj = threshold_correlation(corr, delta)
    n = adj.shape[0]
    if len(labels) != n:
        raise DataError(f"{len(labels)} labels for a {n}x{n} correlation matrix")
    return ThresholdGraph(labels=tuple(labels), delta=float(delta), adjacency=adj)


def maximal_cliques(graph: ThresholdGraph) -> tuple[tuple[int, ...], ...]:
    """Enumerate all maximal cliques (isolated vertices count as cliques of
    order one) in canonical order: each clique a sorted vertex tuple, the
    cliques sorted lexicographically."""
    # Vertex sets are int bitmasks: bit v of nbrs[u] says u and v are adjacent.
    rows = (np.packbits(a != 0.0, bitorder="little").tobytes() for a in graph.adjacency)
    nbrs = [int.from_bytes(b, "little") & ~(1 << v) for v, b in enumerate(rows)]
    out: list[tuple[int, ...]] = []
    stack = [((), (1 << graph.n) - 1, 0)]  # (R, P, X) of each pending call
    while stack:
        r, p, x = stack.pop()
        if not p | x:
            out.append(tuple(sorted(r)))
            continue
        # Pivot on the first vertex covering most of P, at most top (no vertex
        # neighbors itself); only non-neighbors of the pivot are branched on.
        best, rest, top = -1, p | x, p.bit_count() - (not x)
        while rest and best < top:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            cover = (p & nbrs[u]).bit_count()
            if cover > best:
                best, pivot = cover, u
        branch = p & ~nbrs[pivot]
        while branch:
            bit = branch & -branch
            branch ^= bit
            v = bit.bit_length() - 1
            stack.append((r + (v,), p & nbrs[v], x & nbrs[v]))
            p, x = p ^ bit, x | bit
    return tuple(sorted(out))


def _jaccard(both: int, either: int) -> float:
    return both / either if either else 1.0  # two empty sets agree


def compare_graphs(
    observed: ThresholdGraph,
    simulated: ThresholdGraph,
    observed_cliques: tuple[tuple[int, ...], ...],
    simulated_cliques: tuple[tuple[int, ...], ...],
) -> dict:
    """Edge- and clique-level agreement of two graphs built over the same
    labels and threshold, given each graph's maximal_cliques, as report.json's
    JSON-ready comparison block: the [i, j] edges only one graph has, each list
    lexicographic; edge_jaccard; cliques_matched, the observed cliques that
    are simulated cliques too; and clique_best_jaccard, whose entry k is the
    best Jaccard overlap of observed clique k with any simulated clique."""
    if observed.labels != simulated.labels:
        raise DataError("graphs have different vertex labels")
    if observed.delta != simulated.delta:
        raise DataError(
            f"graphs have different thresholds: {observed.delta} vs {simulated.delta}"
        )
    e_obs, e_sim = (np.triu(g.adjacency != 0.0, 1) for g in (observed, simulated))
    c_obs = [frozenset(c) for c in observed_cliques]
    c_sim = {frozenset(c) for c in simulated_cliques}
    return {
        # argwhere is row-major, so both differences are lexicographic
        "edges_only_observed": np.argwhere(e_obs & ~e_sim).tolist(),
        "edges_only_simulated": np.argwhere(e_sim & ~e_obs).tolist(),
        "edge_jaccard": _jaccard(np.count_nonzero(e_obs & e_sim), np.count_nonzero(e_obs | e_sim)),
        "cliques_matched": sum(c in c_sim for c in c_obs),
        "clique_best_jaccard": [
            max((_jaccard(len(c & s), len(c | s)) for s in c_sim), default=0.0) for c in c_obs
        ],
    }


def graph_to_dot(graph: ThresholdGraph) -> str:
    """Graphviz rendering; vertices in label order as quoted ids (a label's
    '\\' and '"' escaped with a backslash), edges lexicographic, weights
    printed with four decimals."""
    ids = [
        '"' + lab.replace("\\", "\\\\").replace('"', '\\"') + '"'
        for lab in graph.labels
    ]
    lines = ["graph correlation {"]
    lines.extend(f"  {v};" for v in ids)
    for i, j in graph.edges:
        w = graph.adjacency[i, j]
        lines.append(f'  {ids[i]} -- {ids[j]} [weight="{w:.4f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: ThresholdGraph) -> dict:
    """JSON-ready dict: labels, delta, and [i, j, weight] edge triples."""
    return {
        "labels": list(graph.labels),
        "delta": graph.delta,
        "edges": [[i, j, float(graph.adjacency[i, j])] for i, j in graph.edges],
    }


def graph_from_json(doc: dict) -> ThresholdGraph:
    """Rebuild a ThresholdGraph from graph_to_json output; a document it
    could not have written raises DataError naming the edge or label."""
    try:
        if not isinstance(doc["labels"], list):
            raise DataError(f"graph labels must be a list, got {doc['labels']!r}")
        labels = tuple(doc["labels"])
        if bad := [lab for lab in labels if not isinstance(lab, str)]:
            raise DataError(f"graph label {bad[0]!r} is not a string")
        if type(doc["delta"]) not in (int, float):
            raise DataError(f"graph delta {doc['delta']!r} is not a number")
        delta = check_delta(doc["delta"])
        edges = [(i, j, w) for i, j, w in doc["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed graph document: {exc}") from exc
    n = len(labels)
    adj = np.eye(n)
    for i, j, w in edges:
        if not (type(i) is type(j) is int and 0 <= i < n and 0 <= j < n and i != j):
            raise DataError(f"edge {[i, j, w]}: indices must be distinct integers in [0, {n})")
        if type(w) not in (int, float):
            raise DataError(f"edge ({i}, {j}) has weight {w!r}, not a number")
        if adj[i, j]:
            raise DataError(f"edge ({i}, {j}) appears twice")
        if not abs(w) > delta:
            raise DataError(f"edge ({i}, {j}) has weight {w!r}, not above delta {delta!r}")
        if not abs(w) <= 1.0:
            raise DataError(f"edge ({i}, {j}) has weight {w!r}, above 1 in magnitude")
        adj[i, j] = adj[j, i] = w
    return build_graph(adj, labels, delta)
