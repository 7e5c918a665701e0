"""Shared plumbing: replicate-keyed RNG streams, ordered thread mapping, one
Pearson kernel, the sign rule for directions."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Stream tags keep RNG draws from colliding when the same user seed is reused
# across different operations.  A generator is a pure function of
# (seed, stream).  The replicate procedures read one generator keyed
# by (seed, stream) and start each block of replicates at its own offset in
# that stream, so their results do not depend on execution order, worker
# count or block size.
STREAM_PERMUTATION = 1
STREAM_SUBSAMPLE = 2
STREAM_BOOTSTRAP = 3
STREAM_SPLIT = 4
STREAM_KFOLD = 5
STREAM_SCCA_INIT = 6
STREAM_SYNTH_NULL = 7
STREAM_SYNTH_LATENT = 8
STREAM_SYNTH_PLANTED = 9
STREAM_POPULATION_MC = 10


def replicate_rng(seed: int, stream: int) -> np.random.Generator:
    """Generator keyed by (seed, stream); its entropy is (seed, stream, 0)."""
    return np.random.default_rng((int(seed), int(stream), 0))


def parallel_map(fn, items, threads: int = 1) -> list:
    """Map preserving input order; threads <= 1 runs inline."""
    items = list(items)
    if threads is None or threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        return list(pool.map(fn, items))


def pearson_or_nan(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of two equal-length vectors by centered dot
    products; NaN when they have fewer than 3 entries or either is constant.
    It is `pearson_rows` on the stacked pair, bit for bit."""
    if a.size < 3:
        return math.nan
    return float(pearson_rows(np.array([[a, b]], dtype=float))[0])


def pearson_rows(c: np.ndarray) -> np.ndarray:
    """Pearson correlation of each (2, K) pair in a (rows, 2, K) float
    stack, which it centers in place; NaN where either side is constant.

    The sums of each pair come from one product of the stack with its
    transpose, which numpy runs per pair as BLAS syrk.  syrk does not split
    the inner sums across threads, so no value depends on the BLAS thread
    count (a dot product of more than 10,000 entries does) or on the
    number of rows."""
    c -= c.mean(axis=2, keepdims=True)
    sums = c @ c.transpose(0, 2, 1)
    ssa, sab, ssb = sums[:, 0, 0], sums[:, 0, 1], sums[:, 1, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = sab / np.sqrt(ssa * ssb)
    return np.where((ssa == 0.0) | (ssb == 0.0), np.nan, r)


def canonical_sign(w: np.ndarray) -> float:
    """+1.0 or -1.0, whichever makes the first largest-magnitude entry of w
    positive.  A direction's sign is unidentifiable; multiplying by this
    fixes one (a zero vector keeps its sign)."""
    i = int(np.argmax(np.abs(w)))
    return -1.0 if w[i] < 0 else 1.0
