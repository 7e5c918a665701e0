"""Per-subject ROI time-series -> functional-connectivity feature vector.

Pipeline: OLS nuisance residualization, first-order Butterworth bandpass
(zero-phase by default), pairwise Pearson correlation over ROI pairs,
upper-triangle vectorization.  Each operation is pure, so per-subject
pipelines can run in parallel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from hdpaired._util import canonical_sign
from hdpaired.matrixio import _as_readonly


@dataclass(frozen=True)
class RoiTimeSeries:
    """T timepoints x m ROI columns sampled at fs Hz."""

    data: np.ndarray
    fs: float

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[0] < 3:
            raise ValueError(f"time series must be 2-D with T >= 3, got {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("time series contains non-finite entries")
        if not self.fs > 0:
            raise ValueError(f"sampling frequency must be positive, got {self.fs}")
        object.__setattr__(self, "data", _as_readonly(data))
        object.__setattr__(self, "fs", float(self.fs))

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
    """Band edges in Hz and Butterworth order per edge (default first-order)."""

    f_low: float = 0.08
    f_high: float = 0.15
    order: int = 1

    def __post_init__(self):
        if not (0 < self.f_low < self.f_high):
            raise ValueError(f"need 0 < f_low < f_high, got ({self.f_low}, {self.f_high})")
        if self.order < 1:
            raise ValueError(f"order must be a positive integer, got {self.order}")

    def validate_against(self, fs: float) -> None:
        if not self.f_high < fs / 2:
            raise ValueError(
                f"band edge {self.f_high} Hz at or beyond Nyquist ({fs / 2} Hz)"
            )


def ols_residualize(ts: RoiTimeSeries, nuisance: NuisanceMatrix) -> RoiTimeSeries:
    """Replace each ROI column by its OLS residual against [intercept | nuisance].

    Residuals are orthogonal to every regressor column.  A rank-deficient
    design raises, reporting the dependent columns found by a pivoted QR.
    """
    if nuisance.data.shape[0] != ts.n_timepoints:
        raise ValueError(
            f"nuisance rows ({nuisance.data.shape[0]}) != time points ({ts.n_timepoints})"
        )
    design = nuisance.design()
    t, r = design.shape
    if r > t:
        raise ValueError(f"design has more columns ({r}) than rows ({t})")
    import scipy.linalg  # imported here: it is slow to load, and only residualizing needs it

    q, rr, piv = scipy.linalg.qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(rr))
    tol = diag[0] * max(t, r) * np.finfo(float).eps if diag.size else 0.0
    rank = int(np.sum(diag > tol))
    if rank < r:
        dependent = sorted(int(j) for j in piv[rank:])
        raise ValueError(
            f"rank-deficient design (rank {rank} < {r} columns); "
            f"dependent design columns (0 = intercept): {dependent}"
        )
    # q is an orthonormal basis of the full-rank design's column space.
    residual = ts.data - q @ (q.T @ ts.data)
    return RoiTimeSeries(residual, ts.fs)


def design_bandpass(spec: BandpassSpec, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Digital Butterworth bandpass coefficients (b, a).

    Designed from the analog prototype by bilinear transform with frequency
    prewarping; `spec.order` is the order per band edge, so the overall
    transfer function has twice that order.
    """
    import scipy.signal  # imported here: it is slow to load, and only filtering needs it

    spec.validate_against(fs)
    b, a = scipy.signal.butter(
        spec.order, [spec.f_low, spec.f_high], btype="bandpass", fs=fs, output="ba"
    )
    return b, a


def effective_impulse_length(b: np.ndarray, a: np.ndarray, decay: float = 1e-9) -> int:
    """Samples until the filter's impulse-response envelope decays below
    `decay`, from the largest pole radius."""
    poles = np.roots(a)
    rmax = float(np.max(np.abs(poles))) if poles.size else 0.0
    if rmax <= 0.0:
        return len(b)
    if rmax >= 1.0:
        raise ValueError(f"unstable filter (pole radius {rmax})")
    return max(len(b), int(np.ceil(np.log(decay) / np.log(rmax))))


@functools.lru_cache(maxsize=64)
def _designed_bandpass(spec: BandpassSpec, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """design_bandpass(spec, fs), designed once per (spec, fs); read-only."""
    b, a = design_bandpass(spec, fs)
    b.flags.writeable = a.flags.writeable = False
    return b, a


@functools.lru_cache(maxsize=64)
def _impulse_length(spec: BandpassSpec, fs: float) -> int:
    """effective_impulse_length of the (spec, fs) filter, found once."""
    return effective_impulse_length(*_designed_bandpass(spec, fs))


def butterworth_bandpass(
    ts: RoiTimeSeries, spec: BandpassSpec | None = None, zero_phase: bool = True
) -> RoiTimeSeries:
    """Bandpass-filter every ROI column.

    zero_phase=True applies the filter forward then backward (no phase
    distortion, magnitude response squared), with the signal mirror-padded
    by three times the filter's effective impulse length before filtering
    and cropped after.  zero_phase=False is single-pass causal filtering.
    """
    import scipy.signal

    spec = spec or BandpassSpec()
    b, a = _designed_bandpass(spec, ts.fs)
    if zero_phase:
        padlen = min(3 * _impulse_length(spec, ts.fs), ts.n_timepoints - 1)
        out = scipy.signal.filtfilt(b, a, ts.data, axis=0, padtype="even", padlen=padlen)
    else:
        out = scipy.signal.lfilter(b, a, ts.data, axis=0)
    return RoiTimeSeries(out, ts.fs)


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
    iu, ju = np.triu_indices(ts.n_rois, 1)
    return np.clip(corr[iu, ju], -1.0, 1.0)


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
    """Full per-subject pipeline: residualize, bandpass, pairwise Pearson."""
    nuis = nuisance if nuisance is not None else NuisanceMatrix.empty(ts.n_timepoints)
    cleaned = ols_residualize(ts, nuis)
    filtered = butterworth_bandpass(cleaned, spec, zero_phase=zero_phase)
    return pearson_fcg(filtered)
