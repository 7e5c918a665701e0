"""Symmetric inter-subject distance-matrix builders.

Two domain metrics plus plain Euclidean, each defined here only as a
matrix builder (`distance_matrix`):

* scaled_euclidean            d(x, x') = ||x - x'||_2 / p
* pearson_correlation_distance d(y, y') = 1 - pearson(y, y'), in [0, 2]
* euclidean                   d(x, x') = ||x - x'||_2

The correlation distance is not a proper metric (no triangle inequality,
zero for positive scalar multiples); it is nonnegative, symmetric and zero
for identical inputs.

Every n x n matrix, of subjects here and of feature columns in
`subcluster`, comes from one Gram product g = z @ z.T (`_pairwise`): of
the rows shifted by a per-column center for the Euclidean metrics, with
d^2_ij = (g_ii + g_jj) - 2 g_ij, and of the centered unit-norm rows for
the correlation distance, with d_ij = 1 - g_ij.  The matrices are exactly
symmetric with an exact zero diagonal, their bits do not depend on the
BLAS thread count, and relabeling the rows moves entries without changing
their bits.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from hdpaired.matrixio import FeatureMatrix, _as_readonly

METRICS = ("scaled_euclidean", "pearson_correlation_distance", "euclidean")

# Side of the square tiles over which the symmetry check compares d with its
# transpose: a tile pair fits in cache, and no n x n temporary is built.
_SYMMETRY_TILE = 128

# Rows of the Gram matrix turned into distances at a time: the sums
# g_ii + g_jj never need an n x n temporary, and at n in the thousands a
# block stays in cache through its passes.
_GRAM_ROWS = 32

# The Gram product runs on rows padded with zeros to a multiple of this.
# Without padding, an entry's last bit was seen to depend on where its rows
# sit (OpenBLAS sums the ragged edge tiles of a product in another order),
# so relabeling the subjects could change it.  Padded, none changed over 450
# relabelings of 2 to 400 rows, at 1 and 2 BLAS threads.
_GRAM_PAD = 16

# A squared Euclidean distance below this share of g_ii + g_jj lost more
# than 10 bits to cancellation and is recomputed from the rows.
_CANCELLED = 2.0 ** -10


def _is_symmetric(d: np.ndarray, tol: float) -> bool:
    """max |d - d.T| <= tol, checked tile by tile: d[a:a+T, b:b+T] against
    d[b:b+T, a:a+T].T for every b >= a."""
    n, t = d.shape[0], _SYMMETRY_TILE
    return all(np.max(np.abs(d[a:a + t, b:b + t] - d[b:b + t, a:a + t].T)) <= tol
               for a in range(0, n, t) for b in range(a, n, t))


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric n x n inter-subject distance matrix with zero diagonal.

    The data are copied and the copy is marked read-only.  With copy=False
    a float array is kept as given and marked read-only: for a fresh array
    that nothing else holds, such as a builder's output, whose copy would
    cost a second n x n buffer.
    """

    data: np.ndarray
    metric_tag: str
    subject_ids: tuple[str, ...]
    copy: InitVar[bool] = True

    def __post_init__(self, copy: bool):
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
        if copy:
            data = _as_readonly(data)
        else:
            data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "subject_ids", ids)

    @property
    def n_subjects(self) -> int:
        return self.data.shape[0]


def _padded(n: int, p: int) -> np.ndarray:
    """Zeros of shape (m, p), m = n rounded up to a multiple of _GRAM_PAD:
    the caller writes its n rows into the top and passes it to _gram."""
    return np.zeros((-(-n // _GRAM_PAD) * _GRAM_PAD, p))


def _gram(z: np.ndarray, n: int) -> np.ndarray:
    """The n x n corner of z @ z.T for z from _padded, exactly symmetric:
    numpy hands a product with its own transpose to BLAS syrk, which fills
    one triangle and mirrors it.  The zero padding keeps the bits the same
    at any BLAS thread count, as far as measured (see _GRAM_PAD): the
    unpadded product of a 150 x 500 z differed between 1 and 2 OpenBLAS
    threads, and its padded product did not.

    The result is a new C-contiguous array that owns its data.  Where z has
    padding rows, the corner's rows are moved to the front of the product's
    own buffer, which is then shrunk in place, so no second buffer is made."""
    g = z @ z.T
    if g.shape[0] != n:
        flat = g.reshape(-1)
        # Row i moves from offset i*m to i*n <= i*m, past every row already
        # moved and before any row still to move.
        for i in range(1, n):
            flat[i * n:(i + 1) * n] = g[i, :n]
        del flat
        g.resize((n, n), refcheck=False)  # no view of g is left
    return g


def _pairwise(rows: np.ndarray, metric_tag: str, labels: tuple[str, ...]) -> np.ndarray:
    """Square matrix of distances between the rows of `rows` under metric_tag,
    from one Gram product; `labels` name the rows in error messages.

    Euclidean metrics: z is the rows shifted by the per-column midrange
    (min + max) / 2, a center that does not depend on row order and that
    takes any large common offset out of the products.  With g = z @ z.T,
    d^2_ij = (g_ii + g_jj) - 2 g_ij, the sum formed first so that d^2 is
    exactly symmetric.  Where d^2_ij < 2^-10 (g_ii + g_jj), more than 10
    bits cancelled, and the pair is recomputed as the plain sum of squared
    differences, so duplicate rows give exact zeros.  Above that cut the
    relative error of d^2 is at most 2^10 times the rounding error of the
    Gram entries relative to g_ii + g_jj; measured against long-double
    distances, at most 4.2e-13 relative on d for p from 4 to 1000 and common
    offsets 0, 3 and 1e3, with pairs placed around the cut.

    Correlation distance: rows are centered and scaled to unit norm, and
    d = 1 - g, at most 2.  For unit rows 1 - g_ij = ||z_i - z_j||^2 / 2, so
    a pair with d_ij < 2^-10, whose 1 - g cancelled the same way, is
    recomputed as that half sum of squared differences, and identical rows
    give exact zeros.

    The result is the Gram buffer from `_gram`, a new C-contiguous array.
    """
    rows = np.asarray(rows, dtype=float)
    n, p = rows.shape
    corr = metric_tag == "pearson_correlation_distance"
    z = _padded(n, p)
    if corr:
        if p < 2:
            raise ValueError("correlation distance needs at least 2 entries per row")
        centered = rows - rows.mean(axis=1, keepdims=True)
        ss = np.einsum("ij,ij->i", centered, centered)
        bad = np.flatnonzero(ss == 0.0)
        if bad.size:
            raise ValueError(
                f"zero-variance vectors under correlation distance: {[labels[i] for i in bad[:5]]}"
            )
        np.divide(centered, np.sqrt(ss)[:, None], out=z[:n])
    elif metric_tag in ("scaled_euclidean", "euclidean"):
        np.subtract(rows, (rows.min(axis=0) + rows.max(axis=0)) / 2.0, out=z[:n])
    else:
        raise ValueError(f"unknown metric_tag {metric_tag!r}; expected one of {METRICS}")
    d = _gram(z, n)
    # Cancelled pairs are recomputed from the unit rows as ||z_i - z_j||^2 / 2
    # under the correlation distance, and from the unshifted rows otherwise.
    src, half = (z, 0.5) if corr else (rows, 1.0)
    sq = d.diagonal().copy()
    top = sq.max()
    total = np.empty((min(n, _GRAM_ROWS), n))
    for a in range(0, n, _GRAM_ROWS):
        blk = d[a:a + _GRAM_ROWS]
        m = blk.shape[0]
        diag = (np.arange(m), np.arange(a, a + m))
        if corr:
            # 1 - g is half of d^2 = (g_ii + g_jj) - 2 g_ij, and g_ii + g_jj
            # is about 2, so its cut is 2^-10 itself.
            np.subtract(1.0, blk, out=blk)
            scale = row_scale = np.ones(m)
        else:
            scale = total[:m]
            np.add(sq[a:a + m, None], sq, out=scale)
            blk *= -2.0
            blk += scale
            row_scale = sq[a:a + m] + top
        blk[diag] = np.inf
        # Only rows whose smallest entry could fall under the cut are tested
        # pair by pair.  (i, j) and (j, i) are recomputed in their own rows
        # from differences that are exact negatives, so they stay equal.
        # Every value under the cut is recomputed, negative ones included,
        # so none is left below 0.
        for r in np.flatnonzero(blk.min(axis=1) < _CANCELLED * row_scale):
            js = np.flatnonzero(blk[r] < _CANCELLED * scale[r])
            diff = src[js] - src[a + r]
            blk[r, js] = np.einsum("ij,ij->i", diff, diff) * half
        blk[diag] = 0.0
        if corr:
            np.minimum(blk, 2.0, out=blk)
        else:
            np.sqrt(blk, out=blk)
            if metric_tag == "scaled_euclidean":
                blk *= 1.0 / p
    return d


def distance_matrix(m: FeatureMatrix, metric_tag: str) -> DistanceMatrix:
    """Pairwise distance matrix over subjects under the declared metric."""
    return DistanceMatrix(_pairwise(m.data, metric_tag, m.subject_ids), metric_tag, m.subject_ids,
                          copy=False)


def upper_triangle(d: DistanceMatrix | np.ndarray) -> np.ndarray:
    """Entries above the diagonal in lexicographic (i, j), i < j order."""
    a = d.data if isinstance(d, DistanceMatrix) else np.asarray(d, dtype=float)
    # Row slices joined: no index array or mask as large as the triangle
    # or the matrix is built.
    if a.shape[0] < 2:
        return np.empty(0)
    return np.concatenate([a[i, i + 1:] for i in range(a.shape[0] - 1)])
