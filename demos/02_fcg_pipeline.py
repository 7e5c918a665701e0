"""Functional-connectivity features from raw ROI time series.

Builds a synthetic multi-subject resting-state-like dataset (shared slow
oscillations + nuisance drift + noise), then runs the pipeline on every
subject: OLS nuisance residualization, first-order Butterworth bandpass
(0.08-0.15 Hz, zero-phase), and pairwise Pearson correlation over ROI
pairs.
"""

import numpy as np

from hdpaired.fcg import (
    BandpassSpec,
    NuisanceMatrix,
    RoiTimeSeries,
    fcg_from_many,
    pca_regressors,
)
from hdpaired.matrixio import FeatureMatrix
from hdpaired.distances import distance_matrix, upper_triangle

rng = np.random.default_rng(11)
T, m, n_subjects = 840, 8, 6
fs = 1.0
t = np.arange(T) / fs

subjects, rows = [], []
for subj in range(n_subjects):
    # two in-band oscillations shared by ROI groups, per-subject phase
    osc_a = np.sin(2 * np.pi * 0.10 * t + rng.uniform(0, 2 * np.pi))
    osc_b = np.sin(2 * np.pi * 0.12 * t + rng.uniform(0, 2 * np.pi))
    drift = np.cumsum(rng.standard_normal(T)) * 0.05
    data = np.empty((T, m))
    for j in range(m):
        shared = osc_a if j < m // 2 else osc_b
        data[:, j] = shared + 0.7 * rng.standard_normal(T) + drift
    ts = RoiTimeSeries(data)

    # nuisance: the drift plus white-matter-style principal components
    wm_voxels = drift[:, None] + 0.3 * rng.standard_normal((T, 50))
    nuisance = NuisanceMatrix(np.column_stack([drift, pca_regressors(wm_voxels, 3)]))

    subjects.append((ts, nuisance))

# Filtering runs on all subjects' ROI columns as one block.
for subj, vec in enumerate(fcg_from_many(subjects, BandpassSpec(0.08, 0.15, 1, fs))):
    rows.append(vec)
    print(f"subject {subj}: FCG vector of length {vec.size} "
          f"(mean within-group corr {vec[:3].mean():.3f})")

fcg = FeatureMatrix(np.vstack(rows), tuple(f"s{i}" for i in range(n_subjects)))
d = distance_matrix(fcg, "pearson_correlation_distance")
tri = upper_triangle(d)
print(f"\ninter-subject FCG correlation distances: "
      f"min {tri.min():.3f}, mean {tri.mean():.3f}, max {tri.max():.3f}")
