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

`report` runs the first three on one pair of feature matrices, and passes
the test's observed value to `subsample_ci` as `observed`, which must be the
bits of `permutation_test(dx, dy).observed`.

Replicates are drawn in blocks from one generator keyed by (seed, stream);
each thread's run of blocks jumps straight to its first replicate's draws.
Replicate i is therefore a function of the data, seed, i and n alone: the
same across runs, b, thread counts and block sizes, and the first b
replicates of a larger run.  Only the engine sizes a block, and each
statistic takes it whole.  The permutation statistic loops over the y tiles
on the outside and over the block's draws on the inside, so each tile is
read once per block; each draw still adds its tile sums in tile order into
its own accumulator, so no value depends on the block height.  With one
tile (n <= 181) a draw's gather goes through dx's transpose and never
along columns; past that, it takes rows and then columns.  Either way it
writes into buffers made by each call, so calls on different threads share
none, and assumes no symmetry of dx.  A permutation draw is the low bits
of its sorted keys (`_permutations`), the same bits as their argsort.  The
subsample and bootstrap statistic forms its sums in one batched product
(one BLAS syrk per draw).
Permutation replicates and the observed value make no BLAS call, and syrk
does not split its sums across threads, so no replicate depends on the BLAS
thread count either.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from hdpaired._util import (
    STREAM_BOOTSTRAP,
    STREAM_PERMUTATION,
    STREAM_SUBSAMPLE,
    parallel_map,
    pearson_rows,
    replicate_rng,
)
from hdpaired.distances import DistanceMatrix, distance_matrix, upper_triangle
from hdpaired.matrixio import FeatureMatrix

# Byte budget of one block of draws (`_replicates`): 218 permutation draws at
# n=150, 16 at n=2000; 23 subsample draws at K = 703 pairs, one at K = 36,315.
# No result depends on this value.
_BLOCK_BYTES = 1 << 18

# Byte budget of one row tile of the permutation kernel (rows x n doubles):
# 16 rows at n=2000, one tile for every n <= 181.  The tile height fixes the
# order of the kernel's additions, so changing it moves permutation values
# and the observed value by a few ULPs.
_TILE_BYTES = 1 << 18


def _replicates(stat, n: int, b: int, seed: int, stream: int, threads: int = 1,
                replace: bool = False, draw_bytes: int = 0) -> np.ndarray:
    """stat(draws) for b index draws of length n, in replicate order.

    Replicate i reads the raw 64-bit outputs i*n .. (i+1)*n - 1 of the
    generator keyed by (seed, stream).  `_permutations` overwrites the low
    (n - 1).bit_length() bits of word j with j, so the n keys are distinct,
    and sorts them: a uniform permutation of 0..n-1 up to a bias below
    n**3 / 2**64.  With replace=True each output mod n is one draw with
    replacement (bias below n / 2**64).  A block holds
    max(1, _BLOCK_BYTES // max(8n, draw_bytes)) draws, where draw_bytes is
    what `stat` holds per draw, each block fresh from the generator.  The
    blocks go in at most `threads` runs of consecutive blocks; a run jumps
    to its first replicate with `advance` and reads on, so one generator is
    keyed per run and replicate i depends on neither b, the block size nor
    the thread count.  `stat` maps a block's (rows, n) draws to one value
    each; no value may depend on the block height.
    """
    rows = max(1, _BLOCK_BYTES // max(8 * n, draw_bytes))
    starts = range(0, b, rows)
    per_run = -(-len(starts) // max(1, threads))

    def run(part: range) -> np.ndarray:
        bits = replicate_rng(seed, stream).bit_generator
        bits.advance(part[0] * n)
        values = []
        for start in part:
            raw = bits.random_raw((min(rows, b - start), n))
            draws = (raw % np.uint64(n)).astype(np.intp) if replace else _permutations(raw)
            values.append(stat(draws))
        return np.concatenate(values)

    parts = [starts[i:i + per_run] for i in range(0, len(starts), per_run)]
    return np.concatenate(parallel_map(run, parts, threads))


def _permutations(raw: np.ndarray) -> np.ndarray:
    """The permutation draws of a fresh (rows, n) block of raw words, which
    it overwrites: the low b = (n - 1).bit_length() bits of word j become j,
    each row is sorted in place, and the low b bits of the sorted words,
    read as int64 (numpy's intp on 64-bit hosts), are the draws.

    The keys of a row are distinct, so their sorted order is unique, and the
    low bits of the sorted keys are exactly the row's argsort.  The draw is
    the stable argsort of the words' top 64 - b bits, so it matches the
    stable argsort of the raw words unless two words agree in those bits
    (probability below n**2 2**(b - 65) per draw).  Given distinct top bits
    it is the argsort of i.i.d. uniform values, so uniform: its
    total-variation distance from uniform is below n**3 / 2**64.
    """
    n = raw.shape[1]
    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    raw &= ~low
    raw |= np.arange(n, dtype=np.uint64)
    raw.sort(axis=1)
    raw &= low
    return raw.view(np.int64)


def _pair_pearson(dx: DistanceMatrix, dy: DistanceMatrix, m: int):
    """Statistic of a block of draws and its bytes per draw: for each draw
    s, the Pearson correlation over the K = m(m-1)/2 distance pairs of the
    subjects s[:m] in both matrices, NaN where either side is constant
    (m >= 4, so K >= 6).  A draw holds 16K bytes: its 2 x K pair values.

    A block's pairs are gathered through one flat index straight into a
    (rows, 2, K) stack for `pearson_rows`, so every value is the bits of
    pearson_or_nan on the two gathered vectors at any block height and any
    BLAS thread count.
    """
    n = dx.n_subjects
    im, jm = np.triu_indices(m, 1)
    fx, fy = dx.data.ravel(), dy.data.ravel()

    def stat(draws: np.ndarray) -> np.ndarray:
        k = (draws[:, :m] * n).take(im, axis=1)  # [:, im] took twice as long at m=270
        k += draws.take(jm, axis=1)
        c = np.empty((len(draws), 2, im.size))
        # mode="clip" (the indices are in range): under the default
        # "raise", take buffers its output and copies it over.
        fx.take(k, out=c[:, 0], mode="clip")
        fy.take(k, out=c[:, 1], mode="clip")
        return pearson_rows(c)

    return stat, 16 * im.size


def _cross_product(dx: DistanceMatrix, dy: DistanceMatrix,
                   mean_y: float) -> Callable[[np.ndarray], np.ndarray]:
    """The Mantel/QAP cross-product G(s) = sum over i < j of
    dx[s[i], s[j]] * cy[i, j] for each permutation s of a (rows, n) block,
    where cy[i, j] = dy[i, j] - mean_y is dy's centered triangle.

    The rows are cut into tiles of max(1, _TILE_BYTES // (8n)) rows.  The
    tile of rows a..e-1 holds cy over the columns a..n-1, contiguously, with
    zeros where j <= i.  It is one np.triu of dy's block less mean_y, so no
    triangle is held beside the tiles; each entry is the same subtraction as
    in the centered triangle, so it has the same bits.  The loop runs over
    the tiles on the outside and over the block's draws on the inside, so a
    tile is read from memory once per block and stays in cache across its
    draws.  Each draw adds, in tile order, each tile's einsum against dx
    gathered at (s[a:e], s[a:]) into its own accumulator, so G(s) does not
    depend on the block height.  No pair index is built and no BLAS call is
    made, so G(s) depends on the data, s and n alone.

    The gather writes into two buffers made afresh by each call, so calls
    on different threads share none.  With one tile (every n <= 181) it
    never gathers along columns, the slowest numpy take at desk size: the
    rows s of dx's transpose xt, held beside the tile, are x[:, s] read by
    columns; copied back transposed and gathered at the rows s[:e], they
    are x[s[:e]][:, s].  Past one tile, the rows s[a:e] of dx are gathered,
    then their columns s[a:].  Either way the einsum reads the same values
    in the same C-contiguous layout, whether or not dx is exactly
    symmetric, so G(s) keeps its bits.
    """
    n = dx.n_subjects
    rows = max(1, _TILE_BYTES // (8 * n))
    tiles = []
    x, y = dx.data, dy.data
    for a in range(0, n - 1, rows):
        e = min(a + rows, n)
        tiles.append((a, e, np.triu(y[a:e, a:] - mean_y, 1)))
    xt = np.ascontiguousarray(x.T) if len(tiles) == 1 else None

    def gamma(draws: np.ndarray) -> np.ndarray:
        totals = [0.0] * len(draws)
        # mode="clip" (the indices are in range) makes take write straight
        # into `out`, which under the default "raise" it would buffer.
        if xt is not None:
            ((_, e, tile),) = tiles
            r, t = np.empty((n, n)), np.empty((n, n))
            for k, s in enumerate(draws):
                xt.take(s, 0, out=r, mode="clip")
                np.copyto(t, r.T)
                g = t.take(s[:e], 0, out=r[:e], mode="clip")
                totals[k] += float(np.einsum("ij,ij->", g, tile))
            return np.array(totals)
        row_buffer, tile_buffer = np.empty(tiles[0][2].size), np.empty(tiles[0][2].size)
        for a, e, tile in tiles:
            r = row_buffer[:(e - a) * n].reshape(e - a, n)
            g = tile_buffer[:tile.size].reshape(tile.shape)
            for k, s in enumerate(draws):
                x.take(s[a:e], 0, out=r, mode="clip").take(s[a:], 1, out=g, mode="clip")
                totals[k] += float(np.einsum("ij,ij->", g, tile))
        return np.array(totals)

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
) -> tuple[float, Callable[[np.ndarray], np.ndarray], float]:
    """Observed distance-pair correlation shared by the replicate procedures.

    It is the permutation replicate at the identity: the cross-product
    `_cross_product(dx, dy, mean_y)` of dx with the centered y triangle cy,
    over sqrt(ssx * ssy).  The mean of dx's triangle needs no subtracting,
    because cy sums to zero up to rounding.  So it can differ in the last
    bits from the exactly rounded `distance_pair_correlation`, and the
    identity replicate equals it bit for bit.  Also returns the block
    cross-product and the denominator, from which the permutation test
    forms its replicates.  No step calls BLAS.

    One triangle is held at a time: x's is freed once ssx is taken, and y's
    once ssy and its mean are taken, before the tiles are built.
    """
    n = _check_same_subjects(dx, dy)
    if n < 3:
        raise ValueError(f"need at least 3 subjects, got {n}")
    cx = upper_triangle(dx)
    cx -= cx.mean()
    ssx = float(np.einsum("i,i->", cx, cx))
    del cx
    cy = upper_triangle(dy)
    mean_y = cy.mean()
    cy -= mean_y
    ssy = float(np.einsum("i,i->", cy, cy))
    del cy
    if ssx == 0.0 or ssy == 0.0:
        raise ValueError("constant distance triangle; correlation undefined")
    denom = math.sqrt(ssx * ssy)
    gamma = _cross_product(dx, dy, mean_y)
    return float(gamma(np.arange(n)[None])[0]) / denom, gamma, denom


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
    null = _replicates(lambda draws: gamma(draws) / denom, n, b, seed, STREAM_PERMUTATION,
                       threads)
    count = int(np.sum(null >= observed))
    return PermutationResult(
        observed=observed,
        n_permutations=b,
        null_samples=null,
        p_value=count / b,
        p_value_smoothed=(1 + count) / (1 + b),
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
    and u_ii = 0.  Off-diagonal row sums of the result are zero.  Returns a
    new array: a copy of d, centered by `_ucenter_in_place`.
    """
    a = d.data if isinstance(d, DistanceMatrix) else d
    return _ucenter_in_place(np.array(a, dtype=float))


def _ucenter_in_place(a: np.ndarray) -> np.ndarray:
    """U-center the float array a in place and return it.  Each step is an
    in-place update with the bits of the same expression written as one
    line, so no second n x n array is made."""
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"square matrix required, got {a.shape}")
    if n < 4:
        raise ValueError(f"U-centering requires n >= 4, got {n}")
    rows = a.sum(axis=1)
    cols = a.sum(axis=0)
    grand = a.sum()
    a -= rows[:, None] / (n - 2)
    a -= cols[None, :] / (n - 2)
    a += grand / ((n - 1) * (n - 2))
    np.fill_diagonal(a, 0.0)
    return a


def _ucentered_euclidean(m: FeatureMatrix) -> np.ndarray:
    """U-centered Euclidean distances between the subjects of m, in one n x n
    buffer: the array of `distance_matrix(m, "euclidean")`, which has passed
    every `DistanceMatrix` check, centered in place.  That array is the
    builder's own buffer, kept without a copy, and the DistanceMatrix is
    dropped here, so nothing else reads it once it is made writeable."""
    d = distance_matrix(m, "euclidean").data
    d.flags.writeable = True
    return _ucenter_in_place(d)


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
    <A,B> = sum_{i!=j} A_ij B_ij / (n(n-3)) (Szekely & Rizzo 2014).  Under
    independence t = sqrt(v-1) r / sqrt(1-r^2), v = n(n-3)/2, follows a
    Student-t with v-1 degrees of freedom; the p-value is the upper tail.

    At most two n x n arrays are held.  Each matrix is built, with every
    `DistanceMatrix` check, and U-centered in one buffer
    (`_ucentered_euclidean`); <Ux,Ux> is taken before Uy is built, then Ux*Uy is formed in
    Ux's buffer and Uy*Uy in Uy's.  Each sum is numpy's sum of the same
    products in the same C-contiguous layout as
    `np.multiply(ucenter(dx), ucenter(dy)).sum()`, so r and t have its bits.
    """
    if x.subject_ids != y.subject_ids:
        raise ValueError("matrices must be row-aligned over the same subjects")
    n = x.n_subjects
    if n < 4:
        raise ValueError(f"dCor t-test requires n >= 4, got {n}")
    scale = n * (n - 3)
    ux = _ucentered_euclidean(x)
    vx = float(np.multiply(ux, ux).sum()) / scale
    uy = _ucentered_euclidean(y)
    vxy = float(np.multiply(ux, uy, out=ux).sum()) / scale
    vy = float(np.multiply(uy, uy, out=uy).sum()) / scale
    if vx <= 0.0 or vy <= 0.0:
        raise ValueError("degenerate U-centered matrix (constant features)")
    r = vxy / math.sqrt(vx * vy)
    v = n * (n - 3) // 2
    rc = min(max(r, -1.0), 1.0)
    if abs(rc) == 1.0:
        t = math.inf if rc > 0 else -math.inf
    else:
        t = math.sqrt(v - 1) * rc / math.sqrt(1.0 - rc * rc)
    p = _t_upper_tail(v - 1, t)
    return DcorResult(bias_corrected_r=r, t_statistic=t, degrees_of_freedom=v - 1, p_value=p)


def _t_upper_tail(df: int, t: float) -> float:
    """P(T > t) for Student's t with df degrees of freedom, as
    scipy.special.stdtr(df, -t) gives it.

    For t > 0 the tail is I_x(df/2, 1/2) / 2 with x = df / (df + t^2), I
    being the regularized incomplete beta function; for t < 0 it is one
    minus the tail at -t.  x and y = 1 - x are each formed from t^2 / df
    (or its inverse, which cannot overflow), never one as 1 - the other,
    since at large df x lies within t^2 / df of 1.  I then comes from the
    continued fraction BFRAC of DiDonato & Morris (1992, ACM TOMS 18:360),
    which reads x and y apart: as I_x(a, 1/2) when x lies below the mean
    a / (a + 1/2) of Beta(a, 1/2), else as 1 - I_y(1/2, a).
    """
    if math.isnan(t):
        return math.nan
    if t == 0.0 or math.isinf(t):
        return 0.5 if t == 0.0 else float(t < 0)
    a = 0.5 * df
    z = abs(t) / math.sqrt(df)
    if z <= 1.0:
        s = z * z
        if s == 0.0:
            return 0.5
        log_x = -math.log1p(s)
        log_y = math.log(s) + log_x
        x, y = 1.0 / (1.0 + s), s / (1.0 + s)
    else:
        u = 1.0 / (z * z)
        log_y = -math.log1p(u)
        log_x = log_y - 2.0 * math.log(z)
        x, y = u / (1.0 + u), 1.0 / (1.0 + u)
    # x^a y^(1/2) / B(a, 1/2), with log B(a, 1/2) = log(pi) / 2 - _log_gamma_ratio(a).
    front = math.exp(a * log_x + 0.5 * log_y + _log_gamma_ratio(a) - 0.5 * math.log(math.pi))
    lam = (a + 0.5) * y - 0.5  # a - (a + 1/2) x
    if lam >= 0.0:
        tail = 0.5 * front * _beta_fraction(a, 0.5, x, y, lam)
    else:
        tail = 0.5 - 0.5 * front * _beta_fraction(0.5, a, y, x, -lam)
    return tail if t > 0 else 1.0 - tail


def _log_gamma_ratio(a: float) -> float:
    """log Gamma(a + 1/2) - log Gamma(a).  From a = 20 on, its asymptotic
    series to a^-9, whose first omitted term is below 1e-16 there: the
    difference of the two log-gammas loses digits as a grows (7e-10 off at
    a = 1e6, which the tail's p carries as a relative error)."""
    if a < 20.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    u = 1.0 / (a * a)
    series = 1 / 8 - u * (1 / 192 - u * (1 / 640 - u * (17 / 14336 - u * 31 / 18432)))
    return 0.5 * math.log(a) - series / a


def _beta_fraction(a: float, b: float, x: float, y: float, lam: float) -> float:
    """I_x(a, b) B(a, b) / (x^a y^b) for lam = a - (a + b) x >= 0, y = 1 - x:
    the continued fraction BFRAC of TOMS 708, evaluated forward with the
    partial numerators and denominators rescaled at every step.  It takes
    at most about 150 steps at any df for the t tail's b = 1/2."""
    c = lam + 1.0
    c0 = b / a
    c1 = 1.0 / a + 1.0
    yp1 = y + 1.0
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, 1001):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        e = (t + 1.0) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = t + 1.0
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= 1e-15 * r:
            return r
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    raise ArithmeticError(f"incomplete beta fraction did not converge (a={a}, b={b}, x={x})")


def _check_interval(level: float, method: str) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if method not in ("root", "percentile"):
        raise ValueError(f"method must be 'root' or 'percentile', got {method!r}")


@dataclass(frozen=True)
class ConfidenceInterval:
    """Subsampling confidence interval for the distance-pair correlation.

    `replicates` holds the per-subsample statistics in replicate order
    (NaN for degenerate draws).
    """

    point_estimate: float
    lower: float
    upper: float
    level: float
    subsample_ratio: float
    n_subsamples: int
    method: str
    n_degenerate: int
    replicates: np.ndarray

    def __post_init__(self):
        _check_interval(self.level, self.method)
        if self.lower > self.upper:
            raise ValueError("lower bound above upper bound")


def _subsample_size(n: int, ratio: float, b: int, level: float, method: str) -> int:
    """The subsample size round(ratio * n) of `subsample_ci`, after checking
    its arguments; raises the ValueError that `subsample_ci` would."""
    if not math.isfinite(ratio):
        raise ValueError(f"subsample ratio must be finite, got {ratio}")
    m = round(ratio * n)
    if m < 4:
        raise ValueError(f"subsample size round({ratio} * {n}) = {m} < 4")
    if m > n:
        raise ValueError(f"subsample size {m} exceeds n = {n}")
    if b < 2:
        raise ValueError(f"need at least 2 subsamples, got {b}")
    _check_interval(level, method)
    return m


def subsample_ci(
    dx: DistanceMatrix,
    dy: DistanceMatrix,
    ratio: float = 0.135,
    b: int = 10_000,
    level: float = 0.95,
    seed: int = 0,
    method: str = "root",
    threads: int = 1,
    observed: float | None = None,
) -> ConfidenceInterval:
    """Confidence interval from b subsamples of size round(ratio * n).

    Subsamples are drawn without replacement; the statistic is recomputed on
    each subset (every metric is pairwise, so the subset's distance matrix
    is exactly the corresponding submatrix of the full one).

    method="root" (default) inverts the subsampling root: with quantiles q
    of sqrt(m) * (theta_m - theta_n), the interval is
    [theta_n - q_hi / sqrt(n), theta_n - q_lo / sqrt(n)].
    method="percentile" returns raw (alpha/2, 1-alpha/2) replicate quantiles.

    theta_n is `observed` if given, which must be the bits of
    `permutation_test(dx, dy).observed`; if None, it is computed so.
    """
    n = _check_same_subjects(dx, dy)
    m = _subsample_size(n, ratio, b, level, method)
    if observed is None:
        observed = _observed_statistic(dx, dy)[0]
    stat, draw_bytes = _pair_pearson(dx, dy, m)
    stats = _replicates(stat, n, b, seed, STREAM_SUBSAMPLE, threads, draw_bytes=draw_bytes)
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
        replicates=stats,
    )


@dataclass(frozen=True)
class BootstrapResult:
    """Bootstrap replicate statistics; degenerate replicates recorded as NaN."""

    replicates: np.ndarray
    observed: float

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
    stat, draw_bytes = _pair_pearson(dx, dy, n)
    reps = _replicates(stat, n, b, seed, STREAM_BOOTSTRAP, threads, replace=True,
                       draw_bytes=draw_bytes)
    return BootstrapResult(replicates=reps, observed=observed)


def report(x: FeatureMatrix, y: FeatureMatrix, metric_x: str = "scaled_euclidean",
           metric_y: str = "pearson_correlation_distance", b: int = 10_000, seed: int = 0,
           threads: int = 1, ratio: float = 0.135, level: float = 0.95,
           method: str = "root") -> tuple[DcorResult, PermutationResult, ConfidenceInterval]:
    """`dcor_ttest` of x and y, then `permutation_test` and `subsample_ci` of
    their distance pair, each result with the bits of its call alone.

    The interval arguments are checked before any work, and the dCor
    t-test's two n x n buffers are freed before the pair is built.  The
    interval runs once the permutation tiles are freed, and takes the test's
    observed value as its point estimate.
    """
    _subsample_size(x.n_subjects, ratio, b, level, method)
    dcor = dcor_ttest(x, y)
    dx = distance_matrix(x, metric_x)
    dy = distance_matrix(y, metric_y)
    perm = permutation_test(dx, dy, b, seed, threads)
    ci = subsample_ci(dx, dy, ratio, b, level, seed, method, threads, observed=perm.observed)
    return dcor, perm, ci
