"""Per-subject ROI time-series -> functional-connectivity feature vector.

Pipeline: OLS nuisance residualization, a Butterworth bandpass of a given
order per band edge (first-order by default; zero-phase by default),
pairwise Pearson correlation over ROI pairs, upper-triangle vectorization.
An ROI column that is constant, or whose residual is rounding residue
because it lies in the span of the nuisance regressors, is rejected by
index: its correlations would be noise.
The filter treats each column on its own, so fcg_from_many, which the
`fcg` command runs, filters the residualized series of many subjects as one
grouped (T, C) block; the other steps run per subject.  Every operation is
pure.

BandpassSpec is the one filter, sampling rate included: building it checks
every filter option and designs the filter, once.  The `fcg` command builds
it before it reads any subject, so a bad filter option fails on its own,
and a subject's file is named only in that subject's own failures.

The filter design and the recursion are numpy ports of scipy.signal's
`butter`, `lfilter` and `filtfilt` that make the same floating-point
operations in the same order, so they return the same bits without loading
scipy.signal.  Each zero-phase pass starts from the steady state of the
filter's step response (`lfilter_zi`) scaled by the pass's first sample, as
filtfilt's default "pad" method does; that is not Gustafsson's optimized
choice of initial states (IEEE Trans. Signal Process. 44:988, 1996),
which filtfilt offers as method="gust".
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from hdpaired._util import canonical_sign
from hdpaired.distances import upper_triangle
from hdpaired.matrixio import _as_readonly


@dataclass(frozen=True)
class RoiTimeSeries:
    """T timepoints x m ROI columns."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[0] < 3:
            raise ValueError(f"time series must be 2-D with T >= 3, got {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("time series contains non-finite entries")
        object.__setattr__(self, "data", _as_readonly(data))

    @property
    def n_timepoints(self) -> int:
        return self.data.shape[0]

    @property
    def n_rois(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class NuisanceMatrix:
    """T x r regressor columns; the design prepends an intercept column."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise ValueError(f"nuisance matrix must be 2-D, got {data.shape}")
        if data.size and not np.all(np.isfinite(data)):
            raise ValueError("nuisance matrix contains non-finite entries")
        object.__setattr__(self, "data", _as_readonly(data))

    @classmethod
    def empty(cls, t: int) -> "NuisanceMatrix":
        return cls(np.empty((t, 0)))

    def design(self) -> np.ndarray:
        """Regressors with an intercept column prepended."""
        ones = np.ones((self.data.shape[0], 1))
        return np.hstack([ones, self.data])


@dataclass(frozen=True)
class BandpassSpec:
    """One Butterworth bandpass: band edges in Hz, order per edge (default
    first-order) and the sampling rate fs in Hz of the series it filters.

    Construction checks every option, Nyquist included, and designs the
    filter once: b and a are design_bandpass(spec), read-only; zi is the
    filter's steady state for a unit step; padlen is the zero-phase pad
    length, three times the samples until the impulse-response envelope
    decays below 1e-9, from the largest pole radius.  zi solves
    (I - companion(a)^T) zi = b[1:] - a[1:] b[0], as in
    scipy.signal.lfilter_zi (a[0] is 1).
    """

    f_low: float = 0.08
    f_high: float = 0.15
    order: int = 1
    fs: float = 1.0
    b: np.ndarray = field(init=False, repr=False, compare=False)
    a: np.ndarray = field(init=False, repr=False, compare=False)
    zi: np.ndarray = field(init=False, repr=False, compare=False)
    padlen: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0 < self.f_low < self.f_high):
            raise ValueError(f"need 0 < f_low < f_high, got ({self.f_low}, {self.f_high})")
        if self.order < 1:
            raise ValueError(f"order must be a positive integer, got {self.order}")
        if not self.fs > 0:
            raise ValueError(f"sampling frequency must be positive, got {self.fs}")
        if self.fs == np.inf:
            raise ValueError(f"sampling frequency must be finite, got {self.fs}")
        if not self.f_high < self.fs / 2:
            raise ValueError(
                f"band edge {self.f_high} Hz at or beyond Nyquist ({self.fs / 2} Hz)"
            )
        object.__setattr__(self, "fs", float(self.fs))
        b, a = design_bandpass(self)
        poles = np.roots(a)
        rmax = float(np.max(np.abs(poles))) if poles.size else 0.0
        if rmax >= 1.0:
            raise ValueError(f"unstable filter (pole radius {rmax})")
        length = len(b) if rmax <= 0.0 else max(len(b), int(np.ceil(np.log(1e-9) / np.log(rmax))))
        n = len(a) - 1
        companion = np.zeros((n, n))
        companion[0] = -a[1:] / (1.0 * a[0:1])
        companion[np.arange(1, n), np.arange(n - 1)] = 1
        zi = np.linalg.solve(np.eye(n) - companion.T, b[1:] - a[1:] * b[0])
        for name, value in (("b", b), ("a", a), ("zi", zi)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "padlen", 3 * length)


def ols_residualize(ts: RoiTimeSeries, nuisance: NuisanceMatrix) -> RoiTimeSeries:
    """Replace each ROI column by its OLS residual against [intercept | nuisance].

    Residuals are orthogonal to every regressor column.  The design is
    factored once by numpy's Householder QR, design = Q R; the residual is
    data - Q (Q^T data).  A design column is dependent when it lies in the
    span of the columns before it: |R_jj|, its distance from that span, is
    at most max(T, r) eps times the largest column norm of the design (R
    has the design's column norms, as Q is orthonormal).  A design with a
    dependent column raises, naming every such column in design order.
    """
    if nuisance.data.shape[0] != ts.n_timepoints:
        raise ValueError(
            f"nuisance rows ({nuisance.data.shape[0]}) != time points ({ts.n_timepoints})"
        )
    design = nuisance.design()
    t, r = design.shape
    if r > t:
        raise ValueError(f"design has more columns ({r}) than rows ({t})")
    q, rr = np.linalg.qr(design)
    largest = np.sqrt(np.max(np.einsum("ij,ij->j", rr, rr)))
    dependent = np.flatnonzero(np.abs(rr.diagonal()) <= max(t, r) * np.finfo(float).eps * largest)
    if dependent.size:
        raise ValueError(
            f"rank-deficient design (rank {r - dependent.size} < {r} columns); "
            f"dependent design columns (0 = intercept): {dependent.tolist()}"
        )
    # q is an orthonormal basis of the full-rank design's column space.
    residual = ts.data - q @ (q.T @ ts.data)
    return RoiTimeSeries(residual)


def design_bandpass(spec: BandpassSpec) -> tuple[np.ndarray, np.ndarray]:
    """Digital Butterworth bandpass coefficients (b, a).

    Designed from the analog prototype by bilinear transform with frequency
    prewarping; `spec.order` is the order per band edge, so the overall
    transfer function has twice that order.  The result is bit for bit
    that of scipy.signal.butter(spec.order, [f_low, f_high],
    btype="bandpass", fs=spec.fs), whose steps this repeats.
    """
    order = spec.order
    wn = np.array([spec.f_low, spec.f_high]) / (spec.fs / 2)
    # Analog lowpass prototype: poles on the unit circle, the middle one
    # exactly real, no zeros, unit gain.
    m = np.arange(-order + 1, order, 2, dtype=float)
    poles = -np.exp(1j * np.pi * m / (2 * order))
    # Band edges prewarped for a bilinear transform at fs = 2.
    warped = 4.0 * np.tan(np.pi * wn / 2.0)
    bw = float(warped[1] - warped[0])
    wo = float(np.sqrt(warped[0] * warped[1]))
    # Lowpass -> bandpass: each pole splits into a pair about +-wo, and
    # `order` zeros go to the origin (the other `order` are at infinity).
    p_lp = poles * bw / 2
    root = np.sqrt(p_lp**2 - wo**2)
    p_bp = np.concatenate((p_lp + root, p_lp - root))
    z_bp = np.zeros(order, dtype=complex)
    # Bilinear transform, s -> 4 (z - 1) / (z + 1): the zeros at infinity
    # move to z = -1.
    z_z = np.concatenate(((4.0 + z_bp) / (4.0 - z_bp), -np.ones(order)))
    p_z = (4.0 + p_bp) / (4.0 - p_bp)
    gain = bw**order * np.real(np.prod(4.0 - z_bp) / np.prod(4.0 - p_bp))
    return gain * np.poly(z_z), np.poly(p_z)


def _df2t(b: np.ndarray, a: np.ndarray, x: np.ndarray, z: np.ndarray, out=None) -> None:
    """scipy.signal.lfilter's direct-form-II-transposed recursion down the
    rows of x (L, C), one time step at a time and vectorized over columns,
    with the same operations in the same order:

        y = z[0] + b[0] x
        z[k] = (z[k+1] + b[k+1] x) - a[k+1] y     k = 0 .. n-1

    z is the (n + 1, C) state; its last row holds -0.0, so one addition
    forms y and every z[k+1] + b[k+1] x at once, and the last update is
    b[n] x - a[n] y with the same bits (-0.0 + v is v for every v).  z is
    advanced in place.  Row t of y goes to out[t], or nowhere when out is
    None; out may be x itself, since x[t] is read before out[t] is written."""
    n, c = len(b) - 1, x.shape[1]
    w = np.empty((n + 1, c))
    ay = np.empty((n, c))
    b_col, a_col, z_head = b[:, None], a[1:, None], z[:n]
    add, subtract, multiply = np.add, np.subtract, np.multiply
    # Outputs passed by position: keyword parsing costs about 5% here.
    for t in range(x.shape[0]):
        multiply(b_col, x[t], w)
        add(z, w, w)  # w[0] = y, w[k+1] = z[k+1] + b[k+1] x
        multiply(a_col, w[0], ay)
        subtract(w[1:], ay, z_head)
        if out is not None:
            out[t] = w[0]


def _zero_phase(spec: BandpassSpec, x: np.ndarray) -> np.ndarray:
    """scipy.signal.filtfilt(b, a, x, axis=0, padtype="even",
    padlen=padlen) with spec's b and a and its padlen clamped to T - 1,
    bit for bit, in T + padlen rows of working memory.

    Forward from zi * (first sample of the even extension): over the
    mirrored head x[padlen:0:-1], whose output is cropped away and so not
    kept, then in place over x and its mirrored tail.  Backward from
    zi * (last forward output), in place down the reversed rows without a
    reversed copy, ending at row 0: output before x[0] would be cropped."""
    b, a, zi = spec.b, spec.a, spec.zi
    t, c = x.shape
    n = len(b) - 1
    padlen = min(spec.padlen, t - 1)
    ext = np.empty((t + padlen, c))
    ext[:t] = x
    ext[t:] = x[-2:-(padlen + 2):-1]
    z = np.empty((n + 1, c))
    z[n] = -0.0
    np.multiply(zi[:, None], x[padlen], out=z[:n])
    _df2t(b, a, x[padlen:0:-1], z)
    _df2t(b, a, ext, z, out=ext)
    np.multiply(zi[:, None], ext[-1], out=z[:n])
    back = ext[::-1]
    _df2t(b, a, back, z, out=back)
    return ext[:t]


def _bandpass(x: np.ndarray, spec: BandpassSpec, zero_phase: bool) -> np.ndarray:
    """The filter of butterworth_bandpass on a (T, C) float array, without
    checking the result: an entry that overflows comes back as inf or nan,
    as from scipy.signal, for the caller to check column by column."""
    with np.errstate(over="ignore", invalid="ignore"):
        if zero_phase:
            return _zero_phase(spec, x)
        out = np.array(x)
        z = np.zeros((len(spec.b), x.shape[1]))
        z[-1] = -0.0
        _df2t(spec.b, spec.a, out, z, out=out)
        return out


def butterworth_bandpass(
    ts: RoiTimeSeries, spec: BandpassSpec | None = None, zero_phase: bool = True
) -> RoiTimeSeries:
    """Bandpass-filter every column of a (T, C) block, each on its own.

    The columns may be one subject's ROIs or several subjects' side by
    side: no column's result depends on the others, so grouping never
    changes a bit.  zero_phase=True applies the filter forward then
    backward (no phase distortion, magnitude response squared) to the
    series extended at both ends by its even (mirror) reflection, padlen
    samples long, then crops the extension; padlen is three times the
    filter's effective impulse length, clamped to T - 1.  This equals
    scipy.signal.filtfilt(b, a, x, axis=0, padtype="even", padlen=padlen)
    bit for bit.  zero_phase=False is single-pass causal filtering from a
    zero state, equal to scipy.signal.lfilter(b, a, x, axis=0).

    The recursion makes five numpy calls per time step whatever C is, so a
    narrow block is slow: one 240 x 40 subject at fs = 1 takes about 6 ms,
    some 12 times scipy.signal.filtfilt's time.  For many subjects,
    fcg_from_many filters them in wide blocks.
    """
    return RoiTimeSeries(_bandpass(ts.data, spec or BandpassSpec(), zero_phase))


def pearson_fcg(ts: RoiTimeSeries) -> np.ndarray:
    """Pairwise Pearson correlations over ROI pairs (i < j), lexicographic.

    Output length is m(m-1)/2; every entry lies in [-1, 1].  Raises for a
    zero-variance ROI column, naming its index.
    """
    data = ts.data
    centered = data - data.mean(axis=0)
    norms = np.sqrt(np.einsum("ij,ij->j", centered, centered))
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise ValueError(f"zero-variance ROI columns: indices {bad[:10].tolist()}")
    unit = centered / norms
    corr = unit.T @ unit
    return np.clip(upper_triangle(corr), -1.0, 1.0)


def pca_regressors(voxel_data: np.ndarray, k: int) -> np.ndarray:
    """Top-k principal-component time courses of a (T x voxels) signal matrix.

    Columns are unit-norm left singular vectors of the column-centered
    matrix, sign-fixed so each column's largest-magnitude entry is positive.
    Useful for building synthetic white-matter nuisance regressors.
    """
    voxel_data = np.asarray(voxel_data, dtype=float)
    if voxel_data.ndim != 2:
        raise ValueError(f"voxel matrix must be 2-D, got {voxel_data.shape}")
    if not 1 <= k <= min(voxel_data.shape):
        raise ValueError(f"k={k} out of range for shape {voxel_data.shape}")
    centered = voxel_data - voxel_data.mean(axis=0)
    u, _, _ = np.linalg.svd(centered, full_matrices=False)
    comps = u[:, :k]
    return comps * np.array([canonical_sign(col) for col in comps.T])


def fcg_from_timeseries(
    ts: RoiTimeSeries,
    nuisance: NuisanceMatrix | None = None,
    spec: BandpassSpec | None = None,
    zero_phase: bool = True,
) -> np.ndarray:
    """One subject's vector of fcg_from_many: residualize, bandpass,
    pairwise Pearson.  Raises for an ROI column that is constant in `ts` or
    that lies in the span of the nuisance regressors."""
    return next(fcg_from_many([(ts, nuisance)], spec, zero_phase))


# Bytes of residualized series that fcg_from_many stacks side by side into
# one block for the filter.  Filtering a block holds up to three times this:
# the block and its working copy with the mirrored tail (at most twice its
# rows).  Fewer, wider blocks filter faster, since the filter makes a fixed
# number of numpy calls per time step: at 2 MiB (27 subjects of 240 x 40
# per block) 150 such subjects filter in about 1.2 times the time of
# scipy.signal.filtfilt run per subject.
_BLOCK_BYTES = 2 << 20


def fcg_from_many(
    subjects: Iterable[tuple[RoiTimeSeries, NuisanceMatrix | None]],
    spec: BandpassSpec | None = None,
    zero_phase: bool = True,
) -> Iterator[np.ndarray]:
    """The functional-connectivity vector of each (ts, nuisance) pair, in
    order: reject an ROI column that is constant in `ts`, naming its index
    (filtering would leave rounding residue in it, which correlates like
    noise); residualize against the nuisance regressors (the intercept
    alone when there are none); reject, for the same reason, a column j
    that lies in the regressors' span, max|r_j| <= sqrt(eps) max|x_j -
    mean(x_j)| for residual r_j, naming its index; bandpass; pairwise
    Pearson.  Max-abs norms, unlike sums of squares, do not underflow for
    a column of tiny scale.

    Consecutive subjects with the same T are residualized, then filtered
    together as one block of at most _BLOCK_BYTES; each column is filtered
    on its own, so no bit depends on the grouping.  Failures come in
    subject order, as one subject at a time: the error raised by the k-th
    next() is subject k's, or one that `subjects` raised while yielding its
    k-th pair.
    """
    spec = spec or BandpassSpec()
    block: list[np.ndarray] = []
    pairs = iter(subjects)
    while True:
        try:
            ts, nuisance = next(pairs)
            constant = np.flatnonzero(np.all(ts.data == ts.data[0], axis=0))
            if constant.size:
                raise ValueError(f"zero-variance ROI columns: indices {constant[:10].tolist()}")
            if nuisance is None:
                nuisance = NuisanceMatrix.empty(ts.n_timepoints)
            cleaned = ols_residualize(ts, nuisance).data
            # Both sides divided by each column's peak (nonzero, as no column
            # is constant), so that the mean of a huge column cannot overflow.
            # A peak-scaled column spreads at most 2 from its mean, so only a
            # column with max|r_j| / peak_j <= 4 sqrt(eps) (2 and a rounding
            # margin) can fail; its mean and spread are formed alone.
            peak = np.max(np.abs(ts.data), axis=0)
            ratio = np.max(np.abs(cleaned), axis=0) / peak
            tol = math.sqrt(np.finfo(float).eps)
            near = np.flatnonzero(ratio <= 4.0 * tol)
            if near.size:
                unit = ts.data[:, near] / peak[near]
                # Summed row by row, the order unit.mean(axis=0) takes over
                # all m >= 2 columns of a C-ordered series, so each spread
                # keeps the bits it had when every column's was formed.
                mean = np.cumsum(unit, axis=0)[-1] / unit.shape[0]
                in_span = near[ratio[near] <= tol * np.max(np.abs(unit - mean), axis=0)]
                if in_span.size:
                    raise ValueError(
                        "ROI columns in the span of the nuisance regressors: "
                        f"indices {in_span[:10].tolist()}"
                    )
        except StopIteration:
            break
        except Exception:
            # The pending block's subjects come first, with their own failures.
            yield from _fcg_block(block, spec, zero_phase)
            raise
        if block and (
            cleaned.shape[0] != block[0].shape[0]
            or sum(s.nbytes for s in block) + cleaned.nbytes > _BLOCK_BYTES
        ):
            yield from _fcg_block(block, spec, zero_phase)
        block.append(cleaned)
    yield from _fcg_block(block, spec, zero_phase)


def _fcg_block(block: list[np.ndarray], spec: BandpassSpec, zero_phase: bool):
    """Filter the residualized series in `block` as one array, emptying the
    list, then yield each subject's Pearson vector; a column that overflowed
    in the filter fails as its own subject's."""
    if not block:
        return
    widths = [s.shape[1] for s in block]
    stacked = np.hstack(block)
    block.clear()  # the residuals now live in `stacked` alone
    filtered = _bandpass(stacked, spec, zero_phase)
    del stacked
    start = 0
    for width in widths:
        yield pearson_fcg(RoiTimeSeries(filtered[:, start:start + width]))
        start += width
