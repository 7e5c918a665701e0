"""Subcluster decomposition of selected features.

Selected columns of each modality are clustered by complete-linkage
agglomeration under that modality's own distance (scaled Euclidean or
correlation distance between feature columns), and every cross-modality
cluster pair is scored by its unregularized canonical correlation.

Inter-cluster distance is the maximum pairwise distance.  The merges come
from one nearest-neighbour chain in O(f^2), tied distances included: ties
break toward the pair with the lexicographically smallest (min member
index, min member index), which keeps the linkage reducible, so the chain
gives the same merges as an argmin over all pairs at every step.  Feature
distances must be finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hdpaired.distances import DistanceMatrix, _pairwise


@dataclass(frozen=True)
class FeatureClustering:
    """Cluster labels (1..k) for the selected feature columns."""

    feature_indices: np.ndarray
    labels: np.ndarray
    k: int

    def __post_init__(self):
        if len(self.feature_indices) != len(self.labels):
            raise ValueError("one label per selected feature required")
        present = set(int(l) for l in self.labels)
        if not present <= set(range(1, self.k + 1)):
            raise ValueError(f"labels must lie in 1..{self.k}, got {sorted(present)}")

    def members(self, label: int) -> np.ndarray:
        """Positions (within the selected-column matrix) carrying `label`."""
        return np.flatnonzero(self.labels == label)


@dataclass(frozen=True)
class SubclusterPairRanking:
    """All nonempty cluster pairs sorted by descending canonical correlation."""

    pairs: tuple[tuple[int, int, float], ...]
    top_k_reported: int = 3
    skipped: tuple[tuple[int, int, str], ...] = ()

    def __post_init__(self):
        if self.top_k_reported < 0:
            raise ValueError(f"top must be >= 0, got {self.top_k_reported}")
        corrs = [c for _, _, c in self.pairs]
        if any(corrs[i] < corrs[i + 1] for i in range(len(corrs) - 1)):
            raise ValueError("pairs must be sorted by descending correlation")

    @property
    def top(self) -> tuple[tuple[int, int, float], ...]:
        return self.pairs[: self.top_k_reported]


def feature_distance_matrix(
    data: np.ndarray, feature_indices: np.ndarray, metric_tag: str
) -> DistanceMatrix:
    """Distances between feature COLUMNS across the (training) rows.

    The scaled Euclidean distance divides by the column length (the number
    of rows here); the correlation distance is unchanged.  A constant column
    under the correlation distance is rejected with its feature index named.
    """
    data = np.asarray(data, dtype=float)
    feature_indices = np.asarray(feature_indices, dtype=int)
    if feature_indices.size < 2:
        raise ValueError("need at least 2 selected features to cluster")
    labels = tuple(str(int(i)) for i in feature_indices)
    out = _pairwise(data[:, feature_indices].T, metric_tag, labels)
    return DistanceMatrix(out, metric_tag, labels, copy=False)


def complete_linkage_merges(d: np.ndarray) -> list[tuple[int, int, float]]:
    """Full complete-linkage merge sequence down to a single cluster.

    Each merge is recorded as (a, b, height) where a < b are the minimum
    member indices of the two merged clusters.  Heights are exact maxima of
    original pairwise distances (Lance-Williams max update), so they can be
    compared exactly against a recomputation from scratch.  Merges come in
    the order of the key (height, a, b), so among equal heights the
    lexicographically smallest pair goes first.

    Only the i < j entries of `d` are read, and each must be finite: a NaN
    or infinite entry raises ValueError naming its pair.

    The merges come from Muellner's nearest-neighbour chain (2011,
    arXiv:1109.2378), in O(f^2).  The chain grows by the nearest neighbour
    of its last cluster, the lowest-index argmin of its row, until the last
    two are each other's nearest; those two merge, and the chain goes on
    from what is left of it.  Cluster 0 always lives, so an empty chain
    restarts there.  The row argmin is the neighbour with the smallest key,
    and complete linkage stays reducible under the key: a merged cluster's
    key to any k is at least the smaller of its two parts' keys to k.  So
    the chain makes the same merges as taking the smallest key each step,
    and as those keys increase strictly, sorting by key gives their order.
    """
    d = np.asarray(d, dtype=float)
    f = d.shape[0]
    if d.ndim != 2 or d.shape[1] != f:
        raise ValueError(f"square distance matrix required, got {d.shape}")
    # The i < j entries mirrored; each live cluster sits in the row and
    # column of its minimum member.
    i = np.arange(f)
    work = np.where(i[:, None] < i, d, d.T)
    np.fill_diagonal(work, 0.0)
    if not np.isfinite(work).all():
        # work is symmetric, so its first bad entry in row-major order has i < j
        a, b = np.argwhere(~np.isfinite(work))[0]
        raise ValueError(f"distance ({a}, {b}) is {work[a, b]}; complete linkage needs "
                         f"finite distances")
    # +inf marks the diagonal and merged-away clusters, so no argmin picks them
    np.fill_diagonal(work, np.inf)
    merges: list[tuple[int, int, float]] = []
    chain: list[int] = []
    while len(merges) < f - 1:
        if not chain:
            chain.append(0)
        a = chain[-1]
        b = int(work[a].argmin())
        if len(chain) > 1 and b == chain[-2]:
            del chain[-2:]
            a, b = min(a, b), max(a, b)
            merges.append((a, b, float(work[a, b])))
            # b joins a: a's distances become the maxima of both, and b's
            # row and column become +inf
            np.maximum(work[a], work[b], out=work[a])
            work[:, a] = work[a]
            work[b] = np.inf
            work[:, b] = np.inf
        else:
            chain.append(b)
    merges.sort(key=lambda m: (m[2], m[0], m[1]))
    return merges


def complete_linkage(d: DistanceMatrix, k: int) -> FeatureClustering:
    """Agglomerate down to k clusters; labels 1..k ordered by min member index."""
    f = d.n_subjects
    if not 1 <= k <= f:
        raise ValueError(f"k={k} out of range for {f} features")
    # root[i] is the minimum member of i's cluster
    root = np.arange(f)
    for a, b, _ in complete_linkage_merges(d.data)[: f - k]:
        root[root == b] = a
    return FeatureClustering(
        feature_indices=np.array([int(s) for s in d.subject_ids]),
        labels=np.unique(root, return_inverse=True)[1] + 1,
        k=k,
    )


def _orthonormal_basis(block: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the centered column space, truncating singular
    values below 1e-10 * max (rank-deficient blocks are common when
    cluster sizes exceed the number of rows)."""
    centered = block - block.mean(axis=0)
    u, s, _ = np.linalg.svd(centered, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.empty((block.shape[0], 0))
    keep = s > 1e-10 * s[0]
    return u[:, keep]


def subcluster_cca(
    x_sel: np.ndarray,
    y_sel: np.ndarray,
    cx: FeatureClustering,
    cy: FeatureClustering,
    top_k: int = 3,
) -> SubclusterPairRanking:
    """Rank all (x-cluster, y-cluster) pairs by unregularized canonical
    correlation (score-norm constraints only).

    The correlation is the top singular value of Qx^T Qy, with Qx, Qy
    truncated orthonormal bases of the centered within-cluster columns.
    Pairs where either block has no usable directions are skipped with a
    note.
    """
    x_sel = np.asarray(x_sel, dtype=float)
    y_sel = np.asarray(y_sel, dtype=float)
    if x_sel.shape[0] != y_sel.shape[0]:
        raise ValueError(f"row mismatch: {x_sel.shape[0]} vs {y_sel.shape[0]}")
    if x_sel.shape[1] != len(cx.labels) or y_sel.shape[1] != len(cy.labels):
        raise ValueError("clustering labels do not match selected-column matrices")
    bases_x = {a: _orthonormal_basis(x_sel[:, cx.members(a)]) for a in range(1, cx.k + 1)}
    bases_y = {b: _orthonormal_basis(y_sel[:, cy.members(b)]) for b in range(1, cy.k + 1)}
    scored: list[tuple[int, int, float]] = []
    skipped: list[tuple[int, int, str]] = []
    for a in range(1, cx.k + 1):
        for b in range(1, cy.k + 1):
            qa, qb = bases_x[a], bases_y[b]
            if qa.shape[1] == 0 or qb.shape[1] == 0:
                skipped.append((a, b, "no usable directions (empty or constant block)"))
                continue
            s = np.linalg.svd(qa.T @ qb, compute_uv=False)
            corr = float(min(s[0], 1.0)) if s.size else 0.0
            scored.append((a, b, corr))
    scored.sort(key=lambda t: (-t[2], t[0], t[1]))
    return SubclusterPairRanking(pairs=tuple(scored), top_k_reported=top_k, skipped=tuple(skipped))
