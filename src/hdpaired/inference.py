"""Statistical inference on distance-based correlations.

The core statistic is the Pearson correlation between the upper triangles
of two inter-subject distance matrices dx, dy.  The permutation, subsampling
and bootstrap procedures all take that pair, built once by
`distances.distance_matrix`, and resample its subjects.  Inference paths:

* one-sided permutation test (permute subjects of one matrix only),
* unbiased distance-correlation t-test on U-centered Euclidean distances,
* subsampling (without replacement) confidence intervals,
* a bootstrap replicate distribution, kept as a demonstrator of why
  sampling WITH replacement biases this statistic upward (duplicate
  subjects zero out distance entries).

Replicates are drawn in blocks from one generator keyed by (seed, stream);
each block jumps straight to its first replicate's draws.  Replicate i is
therefore a function of the data, seed, i and n alone: the same across runs,
b, thread counts and block sizes, and the first b replicates of a larger
run.  Each statistic takes a whole block of draws: the permutation
statistic loops over it, the subsample and bootstrap statistic forms the
sums of a chunk of draws in one batched product (one BLAS syrk per draw).
Permutation replicates and the observed value make no BLAS call, and syrk
does not split its sums across threads, so no replicate depends on the BLAS
thread count either.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from hdpaired._util import (
    STREAM_BOOTSTRAP,
    STREAM_PERMUTATION,
    STREAM_SUBSAMPLE,
    parallel_map,
    replicate_rng,
)
from hdpaired.distances import DistanceMatrix, distance_matrix, upper_triangle
from hdpaired.matrixio import FeatureMatrix

# Byte budget of one block's raw draws (rows x n 64-bit words): 873
# replicates per block at n=150, 65 at n=2000.  Threads split the work
# across blocks; no result depends on this value.
_BLOCK_BYTES = 1 << 20

# Byte budget of one chunk of the subsample and bootstrap statistic (rows x
# the 2 x K doubles of a draw's stacked pair triangles): 23 draws per chunk
# at K = 703 pairs, one at K = 36,315.  No result depends on this value.
_CHUNK_BYTES = 1 << 18

# Byte budget of one row tile of the permutation kernel (rows x n doubles):
# 16 rows at n=2000, one tile for every n <= 181.  The tile height fixes the
# order of the kernel's additions, so changing it moves permutation values
# and the observed value by a few ULPs.
_TILE_BYTES = 1 << 18


def _replicates(stat, n: int, b: int, seed: int, stream: int, threads: int = 1,
                replace: bool = False) -> np.ndarray:
    """stat(draws) for b index draws of length n, in replicate order.

    Replicate i reads the raw 64-bit outputs i*n .. (i+1)*n - 1 of the
    generator keyed by (seed, stream).  Their stable argsort is a uniform
    permutation of 0..n-1 (two equal words, the only source of bias, come
    with probability below n**2 / 2**65); with replace=True each output
    mod n is one draw with replacement (bias below n / 2**64).  Each block
    jumps to its first replicate with `advance`, so replicate i depends on
    neither b, the block size nor the thread count.  `stat` is handed a
    whole block, a (rows, n) array of draws, and returns one value per
    draw; how it batches them must not change any value.
    """
    rows = max(1, _BLOCK_BYTES // (8 * n))

    def block(start: int) -> np.ndarray:
        bits = replicate_rng(seed, stream).bit_generator
        bits.advance(start * n)
        raw = bits.random_raw((min(rows, b - start), n))
        if replace:
            draws = (raw % np.uint64(n)).astype(np.intp)
        else:
            draws = raw.argsort(axis=1, kind="stable")
        return stat(draws)

    return np.concatenate(parallel_map(block, range(0, b, rows), threads))


def _pair_pearson(dx: DistanceMatrix, dy: DistanceMatrix, m: int):
    """Statistic of a block of draws: for each draw s, the Pearson
    correlation over the K = m(m-1)/2 distance pairs of the subjects s[:m]
    in both matrices, NaN where either side is constant (m >= 4, so K >= 6).

    Draws go in chunks of max(1, _CHUNK_BYTES // (16K)) rows.  A chunk's
    pairs are gathered through one flat index straight into a (rows, 2, K)
    stack, centered row by row, and its sums come from one batched
    c @ c.transpose(0, 2, 1).  numpy runs each stacked product as BLAS syrk,
    which does not split the inner sums across threads, so every value is
    the bits of pearson_or_nan on the two gathered vectors at any chunk
    height and any BLAS thread count.
    """
    n = dx.n_subjects
    im, jm = np.triu_indices(m, 1)
    rows = max(1, _CHUNK_BYTES // (16 * im.size))
    fx, fy = dx.data.ravel(), dy.data.ravel()

    def stat(draws: np.ndarray) -> np.ndarray:
        out = np.empty(len(draws))
        for a in range(0, len(draws), rows):
            s = draws[a:a + rows]
            k = (s[:, :m] * n).take(im, axis=1)  # [:, im] took twice as long at m=270
            k += s.take(jm, axis=1)
            c = np.empty((len(s), 2, im.size))
            # mode="clip" (the indices are in range): under the default
            # "raise", take buffers its output and copies it over.
            fx.take(k, out=c[:, 0], mode="clip")
            fy.take(k, out=c[:, 1], mode="clip")
            c -= c.mean(axis=2, keepdims=True)
            sums = c @ c.transpose(0, 2, 1)
            ssx, sxy, ssy = sums[:, 0, 0], sums[:, 0, 1], sums[:, 1, 1]
            with np.errstate(divide="ignore", invalid="ignore"):
                r = sxy / np.sqrt(ssx * ssy)
            out[a:a + len(s)] = np.where((ssx == 0.0) | (ssy == 0.0), np.nan, r)
        return out

    return stat


def _cross_product(dx: DistanceMatrix, cy: np.ndarray) -> Callable[[np.ndarray], float]:
    """The Mantel/QAP cross-product G(s) = sum over i < j of
    dx[s[i], s[j]] * cy[i, j] as a function of a permutation s, where cy is
    a triangle in `upper_triangle` order.

    The rows are cut into tiles of max(1, _TILE_BYTES // (8n)) rows.  The
    tile of rows a..e-1 holds cy over the columns a..n-1, contiguously, with
    zeros where j <= i; it is filled straight from the triangle.  G(s) adds,
    in tile order, each tile's einsum against dx gathered at
    (s[a:e], s[a:]).  No pair index is built and no BLAS call is made, so
    G(s) depends on the data, s and n alone.
    """
    n = dx.n_subjects
    rows = max(1, _TILE_BYTES // (8 * n))
    tiles = []
    start = 0  # offset of row i's pairs (i, i+1..n-1) in cy
    for a in range(0, n - 1, rows):
        e = min(a + rows, n)
        tile = np.zeros((e - a, n - a))
        for i in range(a, e):
            tile[i - a, i + 1 - a:] = cy[start:start + n - 1 - i]
            start += n - 1 - i
        tiles.append((a, e, tile))
    x = dx.data

    def gamma(s: np.ndarray) -> float:
        total = 0.0
        for a, e, tile in tiles:
            total += float(np.einsum("ij,ij->", x.take(s[a:e], 0).take(s[a:], 1), tile))
        return total

    return gamma


def _check_same_subjects(dx: DistanceMatrix, dy: DistanceMatrix) -> int:
    if dx.subject_ids != dy.subject_ids:
        raise ValueError("distance matrices must share the same subjects in the same order")
    return dx.n_subjects


def distance_pair_correlation(dx: DistanceMatrix, dy: DistanceMatrix) -> float:
    """Pearson correlation over the n(n-1)/2 upper-triangle pairs (i < j).

    Sums use exactly-rounded accumulation (math.fsum), which makes the value
    invariant under a joint relabeling of subjects applied to both matrices:
    the pair multiset is unchanged, so the correctly rounded sums are equal.
    """
    n = _check_same_subjects(dx, dy)
    if n < 3:
        raise ValueError(f"need at least 3 subjects, got {n}")
    tx = upper_triangle(dx)
    ty = upper_triangle(dy)
    k = tx.size
    mx = math.fsum(tx) / k
    my = math.fsum(ty) / k
    cx = tx - mx
    cy = ty - my
    ssx = math.fsum(cx * cx)
    ssy = math.fsum(cy * cy)
    if ssx == 0.0 or ssy == 0.0:
        raise ValueError("constant distance triangle; correlation undefined")
    return math.fsum(cx * cy) / math.sqrt(ssx * ssy)


def _observed_statistic(
    dx: DistanceMatrix, dy: DistanceMatrix
) -> tuple[float, Callable[[np.ndarray], float], float]:
    """Observed distance-pair correlation shared by the replicate procedures.

    It is the permutation replicate at the identity: the cross-product
    `_cross_product(dx, cy)` of dx with the centered y triangle cy, over
    sqrt(ssx * ssy).  The mean of dx's triangle needs no subtracting,
    because cy sums to zero up to rounding.  So it can differ in the last
    bits from the exactly rounded `distance_pair_correlation`, and the
    identity replicate equals it bit for bit.  Also returns the
    cross-product and the denominator, from which the permutation test
    forms its replicates.  No step calls BLAS.
    """
    n = _check_same_subjects(dx, dy)
    if n < 3:
        raise ValueError(f"need at least 3 subjects, got {n}")
    cx = upper_triangle(dx)
    cx -= cx.mean()
    cy = upper_triangle(dy)
    cy -= cy.mean()
    ssx = float(np.einsum("i,i->", cx, cx))
    ssy = float(np.einsum("i,i->", cy, cy))
    if ssx == 0.0 or ssy == 0.0:
        raise ValueError("constant distance triangle; correlation undefined")
    denom = math.sqrt(ssx * ssy)
    gamma = _cross_product(dx, cy)
    return gamma(np.arange(n)) / denom, gamma, denom


@dataclass(frozen=True)
class PermutationResult:
    """Observed statistic, null replicates and the one-sided p-value.

    p_value is the plain proportion of replicates >= observed;
    p_value_smoothed is the add-one variant (1 + count) / (1 + B), which
    never returns exactly zero.
    """

    observed: float
    n_permutations: int
    null_samples: np.ndarray
    p_value: float
    p_value_smoothed: float
    seed: int

    def __post_init__(self):
        if not -1.0 - 1e-12 <= self.observed <= 1.0 + 1e-12:
            raise ValueError(f"observed statistic {self.observed} outside [-1, 1]")
        if len(self.null_samples) != self.n_permutations:
            raise ValueError("null sample count does not match n_permutations")
        count = int(np.sum(np.asarray(self.null_samples) >= self.observed))
        if self.p_value != count / self.n_permutations:
            raise ValueError("p_value inconsistent with null samples")


def permutation_test(
    dx: DistanceMatrix,
    dy: DistanceMatrix,
    b: int = 10_000,
    seed: int = 0,
    threads: int = 1,
) -> PermutationResult:
    """One-sided permutation test of positive distance-pair correlation.

    Each replicate draws a uniform subject permutation and applies it to the
    rows/columns of dx only (the feature dimension is never permuted).
    Because a subject permutation leaves the multiset of upper-triangle
    distances invariant, the mean and the centered sum of squares of dx are
    the same for every replicate: a replicate is the cross-product of the
    permuted dx with the centered y triangle over one shared denominator.
    """
    n = _check_same_subjects(dx, dy)
    if b < 1:
        raise ValueError(f"need at least 1 permutation, got {b}")
    observed, gamma, denom = _observed_statistic(dx, dy)
    null = _replicates(lambda draws: np.array([gamma(s) for s in draws]) / denom, n, b, seed,
                       STREAM_PERMUTATION, threads)
    count = int(np.sum(null >= observed))
    return PermutationResult(
        observed=observed,
        n_permutations=b,
        null_samples=null,
        p_value=count / b,
        p_value_smoothed=(1 + count) / (1 + b),
        seed=seed,
    )


def rank_correlations(dx: DistanceMatrix, dy: DistanceMatrix) -> tuple[float, float]:
    """Spearman's rho (average-rank ties) and Kendall's tau-b over the triangles."""
    _check_same_subjects(dx, dy)
    tx = upper_triangle(dx)
    ty = upper_triangle(dy)
    if tx.size < 2 or np.all(tx == tx[0]) or np.all(ty == ty[0]):
        raise ValueError("constant distance triangle; rank correlation undefined")
    import scipy.stats  # imported here: it is slow to load, and only rank checks need it

    rho = scipy.stats.spearmanr(tx, ty).statistic
    tau = scipy.stats.kendalltau(tx, ty).statistic
    return float(rho), float(tau)


def ucenter(d: DistanceMatrix | np.ndarray) -> np.ndarray:
    """U-centering: the modified double-centering behind the unbiased estimator.

    For i != j:
        u_ij = d_ij - row_i/(n-2) - col_j/(n-2) + grand/((n-1)(n-2))
    and u_ii = 0.  Off-diagonal row sums of the result are zero.
    """
    a = d.data if isinstance(d, DistanceMatrix) else np.asarray(d, dtype=float)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"square matrix required, got {a.shape}")
    if n < 4:
        raise ValueError(f"U-centering requires n >= 4, got {n}")
    rows = a.sum(axis=1)
    cols = a.sum(axis=0)
    grand = a.sum()
    # Updated in place, so that only one n x n array is made; the bits are
    # those of the same expression written as one line.
    u = a - rows[:, None] / (n - 2)
    u -= cols[None, :] / (n - 2)
    u += grand / ((n - 1) * (n - 2))
    np.fill_diagonal(u, 0.0)
    return u


@dataclass(frozen=True)
class DcorResult:
    """Bias-corrected distance correlation and its t-test."""

    bias_corrected_r: float
    t_statistic: float
    degrees_of_freedom: int
    p_value: float

    def __post_init__(self):
        if self.degrees_of_freedom < 1:
            raise ValueError("t-test needs degrees of freedom >= 1 (n >= 4)")
        if not -1.0 - 1e-9 <= self.bias_corrected_r <= 1.0 + 1e-9:
            raise ValueError(f"bias-corrected r {self.bias_corrected_r} outside [-1, 1]")


def dcor_ttest(x: FeatureMatrix, y: FeatureMatrix) -> DcorResult:
    """Unbiased distance-correlation t-test on Euclidean distances.

    Builds Euclidean distance matrices for both modalities, U-centers them,
    and forms r = <Ux, Uy> / sqrt(<Ux,Ux><Uy,Uy>) with
    <A,B> = sum_{i!=j} A_ij B_ij / (n(n-3)).  Under independence
    t = sqrt(v-1) r / sqrt(1-r^2), v = n(n-3)/2, follows a Student-t with
    v-1 degrees of freedom; the p-value is the upper tail.
    """
    from scipy.special import stdtr  # imported here: it is slow to load, and only this test needs it

    if x.subject_ids != y.subject_ids:
        raise ValueError("matrices must be row-aligned over the same subjects")
    n = x.n_subjects
    if n < 4:
        raise ValueError(f"dCor t-test requires n >= 4, got {n}")
    ux = ucenter(distance_matrix(x, "euclidean"))
    uy = ucenter(distance_matrix(y, "euclidean"))
    scale = n * (n - 3)
    prod = np.empty_like(ux)  # one n x n buffer for the three products
    vxy = float(np.multiply(ux, uy, out=prod).sum()) / scale
    vx = float(np.multiply(ux, ux, out=prod).sum()) / scale
    vy = float(np.multiply(uy, uy, out=prod).sum()) / scale
    if vx <= 0.0 or vy <= 0.0:
        raise ValueError("degenerate U-centered matrix (constant features)")
    r = vxy / math.sqrt(vx * vy)
    v = n * (n - 3) // 2
    rc = min(max(r, -1.0), 1.0)
    if abs(rc) == 1.0:
        t = math.inf if rc > 0 else -math.inf
    else:
        t = math.sqrt(v - 1) * rc / math.sqrt(1.0 - rc * rc)
    p = float(stdtr(v - 1, -t))  # upper tail of Student-t with v - 1 df
    return DcorResult(bias_corrected_r=r, t_statistic=t, degrees_of_freedom=v - 1, p_value=p)


def _check_interval(level: float, method: str) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if method not in ("root", "percentile"):
        raise ValueError(f"method must be 'root' or 'percentile', got {method!r}")


@dataclass(frozen=True)
class ConfidenceInterval:
    """Subsampling confidence interval for the distance-pair correlation.

    `replicates` holds the per-subsample statistics when the interval was
    built with keep_replicates=True (NaN for degenerate draws).
    """

    point_estimate: float
    lower: float
    upper: float
    level: float
    subsample_ratio: float
    n_subsamples: int
    method: str
    n_degenerate: int = 0
    replicates: np.ndarray | None = None

    def __post_init__(self):
        _check_interval(self.level, self.method)
        if self.lower > self.upper:
            raise ValueError("lower bound above upper bound")


def subsample_ci(
    dx: DistanceMatrix,
    dy: DistanceMatrix,
    ratio: float = 0.135,
    b: int = 10_000,
    level: float = 0.95,
    seed: int = 0,
    method: str = "root",
    threads: int = 1,
    keep_replicates: bool = False,
) -> ConfidenceInterval:
    """Confidence interval from b subsamples of size round(ratio * n).

    Subsamples are drawn without replacement; the statistic is recomputed on
    each subset (every metric is pairwise, so the subset's distance matrix
    is exactly the corresponding submatrix of the full one).

    method="root" (default) inverts the subsampling root: with quantiles q
    of sqrt(m) * (theta_m - theta_n), the interval is
    [theta_n - q_hi / sqrt(n), theta_n - q_lo / sqrt(n)].
    method="percentile" returns raw (alpha/2, 1-alpha/2) replicate quantiles.
    """
    n = _check_same_subjects(dx, dy)
    m = round(ratio * n)
    if m < 4:
        raise ValueError(f"subsample size round({ratio} * {n}) = {m} < 4")
    if m > n:
        raise ValueError(f"subsample size {m} exceeds n = {n}")
    if b < 2:
        raise ValueError(f"need at least 2 subsamples, got {b}")
    _check_interval(level, method)
    observed = _observed_statistic(dx, dy)[0]
    stats = _replicates(_pair_pearson(dx, dy, m), n, b, seed, STREAM_SUBSAMPLE, threads)
    valid = stats[~np.isnan(stats)]
    n_degenerate = int(b - valid.size)
    if valid.size < 2:
        raise ValueError("all subsample replicates degenerate")
    alpha = 1.0 - level
    if method == "root":
        roots = math.sqrt(m) * (valid - observed)
        q_lo, q_hi = np.quantile(roots, [alpha / 2, 1 - alpha / 2])
        lower = observed - q_hi / math.sqrt(n)
        upper = observed - q_lo / math.sqrt(n)
    else:  # percentile
        lower, upper = np.quantile(valid, [alpha / 2, 1 - alpha / 2])
    return ConfidenceInterval(
        point_estimate=observed,
        lower=float(lower),
        upper=float(upper),
        level=level,
        subsample_ratio=ratio,
        n_subsamples=b,
        method=method,
        n_degenerate=n_degenerate,
        replicates=stats if keep_replicates else None,
    )


@dataclass(frozen=True)
class BootstrapResult:
    """Bootstrap replicate statistics; degenerate replicates recorded as NaN."""

    replicates: np.ndarray
    observed: float
    seed: int

    @property
    def n_degenerate(self) -> int:
        return int(np.isnan(self.replicates).sum())

    @property
    def valid(self) -> np.ndarray:
        return self.replicates[~np.isnan(self.replicates)]


def bootstrap_distribution(
    dx: DistanceMatrix,
    dy: DistanceMatrix,
    b: int = 10_000,
    seed: int = 0,
    threads: int = 1,
) -> BootstrapResult:
    """Replicate statistics over b size-n resamples drawn WITH replacement.

    Any duplicated subject contributes zero off-diagonal distances, which
    biases the replicate distribution upward relative to the observed
    statistic; this function exists to demonstrate that failure mode, not
    as an inference path.  Replicates whose distance triangle is constant
    are recorded as NaN and counted by n_degenerate.
    """
    n = _check_same_subjects(dx, dy)
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if b < 1:
        raise ValueError(f"need at least 1 resample, got {b}")
    observed = _observed_statistic(dx, dy)[0]
    reps = _replicates(_pair_pearson(dx, dy, n), n, b, seed, STREAM_BOOTSTRAP, threads,
                       replace=True)
    return BootstrapResult(replicates=reps, observed=observed, seed=seed)
