"""Inter-subject distance functions and symmetric distance-matrix builders.

Two domain metrics plus plain Euclidean:

* scaled_euclidean            d(x, x') = ||x - x'||_2 / p
* pearson_correlation_distance d(y, y') = 1 - pearson(y, y'), in [0, 2]
* euclidean                   d(x, x') = ||x - x'||_2

The correlation distance is not a proper metric (no triangle inequality,
zero for positive scalar multiples); it is nonnegative, symmetric and zero
for identical inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from hdpaired.matrixio import FeatureMatrix, _as_readonly, load_matrix, save_matrix

METRICS = ("scaled_euclidean", "pearson_correlation_distance", "euclidean")

# Side of the square tiles over which the symmetry check compares d with its
# transpose: a tile pair fits in cache, and no n x n temporary is built.
_SYMMETRY_TILE = 128


def _is_symmetric(d: np.ndarray, tol: float) -> bool:
    """max |d - d.T| <= tol, checked tile by tile: d[a:a+T, b:b+T] against
    d[b:b+T, a:a+T].T for every b >= a."""
    n, t = d.shape[0], _SYMMETRY_TILE
    return all(np.max(np.abs(d[a:a + t, b:b + t] - d[b:b + t, a:a + t].T)) <= tol
               for a in range(0, n, t) for b in range(a, n, t))


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric n x n inter-subject distance matrix with zero diagonal."""

    data: np.ndarray
    metric_tag: str
    subject_ids: tuple[str, ...]

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError(f"distance matrix must be square, got {data.shape}")
        if self.metric_tag not in METRICS:
            raise ValueError(f"unknown metric_tag {self.metric_tag!r}; expected one of {METRICS}")
        n = data.shape[0]
        ids = tuple(str(s) for s in self.subject_ids)
        if len(ids) != n:
            raise ValueError(f"{len(ids)} subject ids for {n} rows")
        if not np.all(np.isfinite(data)):
            raise ValueError("distance matrix contains non-finite entries")
        if np.any(np.diag(data) != 0.0):
            raise ValueError("distance matrix diagonal must be exactly zero")
        if not _is_symmetric(data, 1e-12):
            raise ValueError("distance matrix is not symmetric within 1e-12")
        if np.any(data < 0.0):
            raise ValueError("negative distance entry")
        if self.metric_tag == "pearson_correlation_distance" and np.any(data > 2.0):
            raise ValueError("correlation distance entry above 2")
        object.__setattr__(self, "data", _as_readonly(data))
        object.__setattr__(self, "subject_ids", ids)

    @property
    def n_subjects(self) -> int:
        return self.data.shape[0]


def d_x(x: np.ndarray, x2: np.ndarray) -> float:
    """Euclidean distance scaled by the number of features, ||x - x'||_2 / p."""
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x.shape != x2.shape or x.ndim != 1 or x.size < 1:
        raise ValueError(f"length mismatch: {x.shape} vs {x2.shape}")
    diff = x - x2
    return float(np.sqrt(np.dot(diff, diff)) / x.size)


def euclidean(x: np.ndarray, x2: np.ndarray) -> float:
    """Plain Euclidean distance ||x - x'||_2."""
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x.shape != x2.shape or x.ndim != 1 or x.size < 1:
        raise ValueError(f"length mismatch: {x.shape} vs {x2.shape}")
    diff = x - x2
    return float(np.sqrt(np.dot(diff, diff)))


def d_y(y: np.ndarray, y2: np.ndarray) -> float:
    """One minus the Pearson correlation of the two vectors' entries."""
    y = np.asarray(y, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    if y.shape != y2.shape or y.ndim != 1 or y.size < 2:
        raise ValueError(f"length mismatch or too short: {y.shape} vs {y2.shape}")
    a = y - y.mean()
    b = y2 - y2.mean()
    na = np.dot(a, a)
    nb = np.dot(b, b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("zero-variance input; correlation distance undefined")
    r = np.dot(a, b) / np.sqrt(na * nb)
    return float(min(max(1.0 - r, 0.0), 2.0))


def _pairwise(rows: np.ndarray, metric_tag: str, labels: tuple[str, ...]) -> np.ndarray:
    """Square matrix of distances between the rows of `rows` under metric_tag.

    pdist computes each pair on its own, so entries do not depend on row
    order; squareform mirrors the condensed vector, so symmetry and the zero
    diagonal are exact.  `labels` name the rows in error messages.
    """
    from scipy.spatial.distance import pdist, squareform  # slow to load; only builds need it

    rows = np.asarray(rows, dtype=float)
    if metric_tag in ("scaled_euclidean", "euclidean"):
        cond = pdist(rows, "euclidean")
        if metric_tag == "scaled_euclidean":
            cond *= 1.0 / rows.shape[1]
    elif metric_tag == "pearson_correlation_distance":
        if rows.shape[1] < 2:
            raise ValueError("correlation distance needs at least 2 entries per row")
        centered = rows - rows.mean(axis=1, keepdims=True)
        bad = np.flatnonzero(np.einsum("ij,ij->i", centered, centered) == 0.0)
        if bad.size:
            raise ValueError(
                f"zero-variance vectors under correlation distance: {[labels[i] for i in bad[:5]]}"
            )
        cond = pdist(rows, "correlation")
        np.clip(cond, 0.0, 2.0, out=cond)
    else:
        raise ValueError(f"unknown metric_tag {metric_tag!r}; expected one of {METRICS}")
    return squareform(cond)


def distance_matrix(m: FeatureMatrix, metric_tag: str) -> DistanceMatrix:
    """Pairwise distance matrix over subjects under the declared metric."""
    return DistanceMatrix(_pairwise(m.data, metric_tag, m.subject_ids), metric_tag, m.subject_ids)


def upper_triangle(d: DistanceMatrix | np.ndarray) -> np.ndarray:
    """Entries above the diagonal in lexicographic (i, j), i < j order."""
    a = d.data if isinstance(d, DistanceMatrix) else np.asarray(d, dtype=float)
    iu, ju = np.triu_indices(a.shape[0], 1)
    return a[iu, ju]


def save_distance_matrix(d: DistanceMatrix, path: str) -> None:
    """Persist as the binary matrix format plus a JSON sidecar {metric_tag, n}."""
    save_matrix(FeatureMatrix(d.data, d.subject_ids, d.metric_tag), path, "bin")
    with open(str(path) + ".json", "w", encoding="utf-8") as f:
        json.dump({"metric_tag": d.metric_tag, "n": d.n_subjects}, f, sort_keys=True)
        f.write("\n")


def load_distance_matrix(path: str) -> DistanceMatrix:
    with open(str(path) + ".json", "r", encoding="utf-8") as f:
        meta = json.load(f)
    m = load_matrix(path, "bin")
    if m.n_subjects != meta["n"]:
        raise ValueError(f"{path}: sidecar n={meta['n']} but matrix has {m.n_subjects} rows")
    return DistanceMatrix(m.data, meta["metric_tag"], m.subject_ids)
