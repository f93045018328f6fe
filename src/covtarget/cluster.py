"""Agglomerative complete-linkage clustering of correlation distances.

The linkage works on a dense N x N float matrix of distances between the
clusters currently held in N slots; the diagonal and retired slots hold
+inf, and a slot -> cluster id array says which cluster sits where. Each
merge takes the matrix minimum, gathers every entry equal to it, and breaks
ties by the lexicographically smallest (min id, max id) pair, so the run is
fully deterministic. The Lance-Williams update for complete linkage,
d(A u B, C) = max(d(A, C), d(B, C)), is one elementwise maximum of two rows
written into the surviving slot's row and column; the other slot is retired.
The maximum of two floats is exact, so heights are input entries. Each
live slot's smallest distance is cached (Anderberg's row minima): a merge
scans only the rows holding the minimum and rescans only the rows whose
minimum sat in a merged slot. Cost: O(N^2) memory and O(N) work per merge
besides those rows. Complete linkage makes merge heights nondecreasing,
which the Dendrogram type asserts on every construction.

Cluster ids: leaves are 0..N-1; the cluster created by merge k is N+k.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .linalg import check_correlation, symmetrize

_HEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class Dendrogram:
    """Merge tree of a complete-linkage run: (id_a, id_b, height) per merge,
    id_a < id_b, each id merged at most once, heights nondecreasing."""

    labels: tuple[str, ...]
    merges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(self.merges) != max(0, n - 1):
            raise DataError(
                f"{n} leaves require {n - 1} merges, got {len(self.merges)}"
            )
        norm = []
        merged: set[int] = set()
        last = -np.inf
        for k, (a, b, height) in enumerate(self.merges):
            a, b, height = int(a), int(b), float(height)
            if not a < b:
                raise DataError(f"merge {k}: ids must satisfy id_a < id_b")
            if a < 0 or b >= n + k:
                raise DataError(f"merge {k}: id out of range")
            if merged & {a, b}:
                raise DataError(f"merge {k}: id {min(merged & {a, b})} is already merged")
            merged.update((a, b))
            if height < last - _HEIGHT_TOL:
                raise DataError(
                    f"merge heights must be nondecreasing; merge {k} at "
                    f"{height} after {last}"
                )
            last = max(last, height)
            norm.append((a, b, height))
        object.__setattr__(self, "merges", tuple(norm))

    @property
    def n(self) -> int:
        return len(self.labels)


def corr_distance(corr: np.ndarray) -> np.ndarray:
    """Distance d_ij = 1 - rho_ij of a matrix that passes
    linalg.check_correlation; zero diagonal exactly."""
    d = 1.0 - check_correlation(corr)
    np.fill_diagonal(d, 0.0)
    return d


def complete_linkage(dist: np.ndarray, labels: tuple[str, ...]) -> Dendrogram:
    """Agglomerate with d(A u B, C) = max(d(A, C), d(B, C))."""
    d = symmetrize(dist)
    n = d.shape[0]
    if len(labels) != n:
        raise DataError(f"{len(labels)} labels for a {n}x{n} distance matrix")
    if np.any(d < 0.0):
        raise DataError("distances must be nonnegative")
    if n == 0:
        raise DataError("empty distance matrix")
    work = d  # symmetrize returned a fresh array
    np.fill_diagonal(work, np.inf)
    rowmin = work.min(axis=1)
    ids = np.arange(n)
    merges: list[tuple[int, int, float]] = []
    for k in range(n - 1):
        height = rowmin.min()
        # every entry equal to height lies in a row whose minimum it is
        tied = np.flatnonzero(rowmin == height)
        sub, cols = np.divmod(np.flatnonzero(work[tied] == height), n)
        rows = tied[sub]
        lo = np.minimum(ids[rows], ids[cols])
        hi = np.maximum(ids[rows], ids[cols])
        pick = np.lexsort((hi, lo))[0]
        keep, drop = rows[pick], cols[pick]
        old = np.minimum(work[keep], work[drop])
        merged = np.maximum(work[keep], work[drop])
        work[keep] = merged
        work[:, keep] = merged
        work[drop] = np.inf
        work[:, drop] = np.inf
        rowmin[drop] = np.inf
        # only a row whose minimum sat at keep or drop can change it; retired
        # rows read inf in both
        stale = np.flatnonzero((old == rowmin) & (old < np.inf))
        rowmin[stale] = work[stale].min(axis=1)
        ids[keep] = n + k
        merges.append((int(lo[pick]), int(hi[pick]), float(height)))
    return Dendrogram(labels=tuple(labels), merges=tuple(merges))


def cut_tree(dend: Dendrogram, k: int) -> np.ndarray:
    """Assignments for exactly k clusters: replay the first n-k merges on
    each cluster's member leaves.

    Cluster ids are 0..k-1, numbered by each cluster's smallest leaf.
    """
    n = dend.n
    if not (1 <= k <= n):
        raise DataError(f"k must be in [1, {n}], got {k}")
    members = {leaf: [leaf] for leaf in range(n)}
    for new, (a, b, _) in enumerate(dend.merges[: n - k], start=n):
        members[new] = members.pop(a) + members.pop(b)
    assign = np.empty(n, dtype=int)
    for cid, leaves in enumerate(sorted(members.values(), key=min)):
        assign[leaves] = cid
    return assign


def to_newick(dend: Dendrogram) -> str:
    """Newick text with branch lengths = height differences (nonnegative
    because complete-linkage heights are monotone)."""
    n = dend.n
    height = {i: 0.0 for i in range(n)}
    node: dict[int, str] = {i: _quote(lab) for i, lab in enumerate(dend.labels)}
    for k, (a, b, h) in enumerate(dend.merges):
        new = n + k
        la = h - height[a]
        lb = h - height[b]
        node[new] = f"({node[a]}:{la:.10g},{node[b]}:{lb:.10g})"
        height[new] = h
    return node[2 * n - 2] + ";"  # the last merge's cluster, or the lone leaf


def _quote(label: str) -> str:
    # Newick reserved characters (brackets open comments) and whitespace force quoting.
    if any(ch in "()[],:;'\"" or ch.isspace() for ch in label):
        return "'" + label.replace("'", "''") + "'"
    return label


def dendrogram_to_json(dend: Dendrogram) -> dict:
    """JSON-ready dict: labels, merge triples, and the Newick rendering."""
    return {
        "labels": list(dend.labels),
        "merges": [[a, b, h] for a, b, h in dend.merges],
        "newick": to_newick(dend),
    }
