"""Train/test split, k-fold cross-validated sparsity-grid search, held-out
evaluation.

Leakage rules: per-fold standardization statistics are fitted on the
fit-set rows only and applied, frozen, to the validation fold; the held-out
test set never influences any fit.  After standardization each matrix is
divided by its top singular value before entering the solver.  Under that
scaling ||X u|| <= ||u||, so the score-norm cap is implied by the unit l2
ball, the l2 bound (default 1) is the operative normalization, and the
useful l1 range is exactly [1, sqrt(dim)].  Score correlations are
invariant to the common scale.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from hdpaired._util import STREAM_KFOLD, STREAM_SPLIT, parallel_map, pearson_or_nan, replicate_rng
from hdpaired.distances import _padded
from hdpaired.matrixio import ColumnStandardizer
from hdpaired.scca import AlignmentPair, SccaParams, SccaSolver, canonical_correlation, project


def train_test_split(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Random 5:1 partition of n subjects: |train| = ceil(5n/6).

    Returns sorted index arrays (train, test); deterministic per seed.
    """
    if n < 12:
        raise ValueError(f"need n >= 12 subjects to split 5:1, got {n}")
    n_train = (5 * n + 5) // 6
    perm = replicate_rng(seed, STREAM_SPLIT).permutation(n)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def kfold_partition(indices: np.ndarray, k: int, seed: int = 0) -> list[np.ndarray]:
    """Shuffle indices and split into k folds whose sizes differ by at most 1."""
    indices = np.asarray(indices)
    if k < 1 or k > indices.size:
        raise ValueError(f"k={k} out of range for {indices.size} indices")
    perm = replicate_rng(seed, STREAM_KFOLD).permutation(indices)
    return [np.sort(fold) for fold in np.array_split(perm, k)]


def default_grid(
    p: int, q: int, cells: int = 8, max_iters: int = 200, tol: float = 1e-6
) -> list[SccaParams]:
    """Log-spaced (c1, c2) grid over [1, sqrt(dim)] x [1, sqrt(dim)].

    [1, sqrt(dim)] is the feasible l1 range for a unit-l2-norm vector, which
    is the operative scale once columns have unit norm.
    """
    if cells < 1:
        raise ValueError(f"cells must be >= 1, got {cells}")
    c1s = np.logspace(0.0, 0.5 * math.log10(p), cells)
    c2s = np.logspace(0.0, 0.5 * math.log10(q), cells)
    return [
        SccaParams(c1=float(c1), c2=float(c2), max_iters=max_iters, tol=tol)
        for c1 in c1s
        for c2 in c2s
    ]


@dataclass(frozen=True)
class FittedSccaModel:
    """An alignment fit together with the training-time column transforms.

    u/v live in the kept-column space of the respective standardizers;
    support_u/support_v map their nonzero entries back to original column
    indices.  scale_x/scale_y are the reciprocal top singular values of the
    standardized training matrices.
    """

    fit: AlignmentPair
    x_standardizer: ColumnStandardizer
    y_standardizer: ColumnStandardizer
    scale_x: float
    scale_y: float

    def transform_x(self, x: np.ndarray) -> np.ndarray:
        return self.x_standardizer.apply(x) * self.scale_x

    def transform_y(self, y: np.ndarray) -> np.ndarray:
        return self.y_standardizer.apply(y) * self.scale_y

    def scores(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return project(self.transform_x(x), self.fit.u), project(self.transform_y(y), self.fit.v)

    @property
    def support_u(self) -> np.ndarray:
        """Nonzero u entries as original column indices."""
        return self.x_standardizer.kept[self.fit.support_u]

    @property
    def support_v(self) -> np.ndarray:
        return self.y_standardizer.kept[self.fit.support_v]

    def to_json(self, params: SccaParams, train_ids: list[str]) -> dict:
        """JSON-ready model: sparse u/v, both column transforms, the fit's
        parameters and the training subject ids."""
        fit = self.fit
        return {
            "params": asdict(params),
            "objective": fit.objective,
            "iterations": fit.iterations,
            "converged": fit.converged,
            "u": _sparse_to_json(fit.u, fit.support_u),
            "v": _sparse_to_json(fit.v, fit.support_v),
            "x_standardizer": _standardizer_to_json(self.x_standardizer),
            "y_standardizer": _standardizer_to_json(self.y_standardizer),
            "scale_x": self.scale_x,
            "scale_y": self.scale_y,
            "train_ids": list(train_ids),
        }

    @classmethod
    def from_json(cls, blob: dict) -> tuple["FittedSccaModel", SccaParams, list[str]]:
        """Inverse of to_json: (model, params, train_ids).  The objective
        trace keeps only the final objective."""
        u = _sparse_from_json(blob["u"])
        v = _sparse_from_json(blob["v"])
        fit = AlignmentPair(
            u=u,
            v=v,
            objective=float(blob["objective"]),
            support_u=np.flatnonzero(u),
            support_v=np.flatnonzero(v),
            iterations=int(blob["iterations"]),
            converged=bool(blob["converged"]),
            objective_trace=np.array([float(blob["objective"])]),
        )
        model = cls(
            fit=fit,
            x_standardizer=_standardizer_from_json(blob["x_standardizer"]),
            y_standardizer=_standardizer_from_json(blob["y_standardizer"]),
            scale_x=float(blob["scale_x"]),
            scale_y=float(blob["scale_y"]),
        )
        return model, SccaParams(**blob["params"]), list(blob["train_ids"])


def _sparse_to_json(w: np.ndarray, support: np.ndarray) -> dict:
    return {"support": support.tolist(), "values": w[support].tolist(), "dim": int(w.size)}


def _sparse_from_json(block: dict) -> np.ndarray:
    out = np.zeros(int(block["dim"]))
    out[np.asarray(block["support"], dtype=int)] = np.asarray(block["values"], dtype=float)
    return out


def _standardizer_to_json(s: ColumnStandardizer) -> dict:
    return {"mean": s.mean.tolist(), "sd": s.sd.tolist(), "kept": s.kept.tolist(),
            "n_columns": s.n_columns}


def _standardizer_from_json(block: dict) -> ColumnStandardizer:
    return ColumnStandardizer(
        mean=np.asarray(block["mean"], dtype=float),
        sd=np.asarray(block["sd"], dtype=float),
        kept=np.asarray(block["kept"], dtype=int),
        n_columns=int(block["n_columns"]),
    )


@dataclass(frozen=True)
class CvReport:
    """Cross-validation surface and the selected fit's summary.

    fold_iterations / fold_converged hold the solver health of each
    (cell, fold) fit, shaped like fold_correlations; the refit's are in
    model.fit.
    """

    grid: tuple[tuple[float, float], ...]
    fold_correlations: np.ndarray
    fold_iterations: np.ndarray
    fold_converged: np.ndarray
    mean_validation: np.ndarray
    selected: tuple[float, float]
    selected_index: int
    train_correlation: float
    test_correlation: float | None
    model: FittedSccaModel


def spectral_scale(standardized: np.ndarray) -> float:
    """Reciprocal of the top singular value (1.0 for an all-zero matrix).

    The top singular value is the square root of the largest eigenvalue of
    the Gram matrix of the smaller side, on its rows zero-padded to a
    multiple of 16 (distances._padded), padding included: at 150 rows,
    eigvalsh of the unpadded Gram changed its last bits between 1 and 2
    OpenBLAS threads, and of the padded one it did not (see README)."""
    s = np.asarray(standardized, dtype=float)
    rows = s if s.shape[0] <= s.shape[1] else s.T
    z = _padded(*rows.shape)
    z[: rows.shape[0]] = rows
    top = math.sqrt(max(float(np.linalg.eigvalsh(z @ z.T)[-1]), 0.0))
    return 1.0 / top if top > 0 else 1.0


def _fit_cells(
    x: np.ndarray, y: np.ndarray, cells: list[SccaParams], init: str, seed: int,
    threads: int = 1,
) -> list[FittedSccaModel]:
    """Standardize and spectrally scale both matrices on these rows, freeze
    those transforms, and fit every cell on one solver (cells run through
    parallel_map); one model per cell, in cell order."""
    sx, sy = ColumnStandardizer.fit(x), ColumnStandardizer.fit(y)
    xs, ys = sx.apply(x), sy.apply(y)
    scale_x, scale_y = spectral_scale(xs), spectral_scale(ys)
    solver = SccaSolver(xs * scale_x, ys * scale_y)
    fits = parallel_map(lambda params: solver.fit(params, init=init, seed=seed), cells, threads)
    return [FittedSccaModel(fit, sx, sy, scale_x, scale_y) for fit in fits]


def fit_model(
    x: np.ndarray, y: np.ndarray, params: SccaParams, init: str = "svd", seed: int = 0
) -> FittedSccaModel:
    """Standardize and spectrally scale both matrices on these rows, then fit."""
    return _fit_cells(x, y, [params], init, seed)[0]


def cv_grid_search(
    x: np.ndarray,
    y: np.ndarray,
    grid: list[SccaParams],
    k: int = 5,
    seed: int = 0,
    x_test: np.ndarray | None = None,
    y_test: np.ndarray | None = None,
    init: str = "svd",
    threads: int = 1,
) -> CvReport:
    """Grid search over sparsity parameters by k-fold cross-validation.

    For every grid cell and every held-out fold: standardize on the k-1
    fit folds only, fit, project the validation fold with the frozen
    transform, and record the validation canonical correlation.  The cell
    with the largest fold-mean wins (ties break toward smaller c1 + c2,
    then grid order); the model is refit on the full training set at the
    selected parameters.  Degenerate fold fits record NaN and are excluded
    from the cell mean.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"row mismatch: {x.shape[0]} vs {y.shape[0]}")
    if not grid:
        raise ValueError("empty parameter grid")
    if k < 2:
        raise ValueError(f"cross-validation needs k >= 2 folds, got {k}")
    if x_test is not None and len(x_test) < 3:
        raise ValueError(f"held-out test set has {len(x_test)} rows; at least 3 are needed")
    n = x.shape[0]
    folds = kfold_partition(np.arange(n), k, seed)
    fold_correlations = np.full((len(grid), k), math.nan)
    fold_iterations = np.zeros((len(grid), k), dtype=int)
    fold_converged = np.zeros((len(grid), k), dtype=bool)

    for fold_idx, val in enumerate(folds):
        fit_rows = np.setdiff1d(np.arange(n), val)
        models = _fit_cells(x[fit_rows], y[fit_rows], grid, init, seed, threads)
        xv = models[0].transform_x(x[val])
        yv = models[0].transform_y(y[val])
        for i, model in enumerate(models):
            fit = model.fit
            fold_correlations[i, fold_idx] = pearson_or_nan(project(xv, fit.u), project(yv, fit.v))
            fold_iterations[i, fold_idx] = fit.iterations
            fold_converged[i, fold_idx] = fit.converged

    finite = ~np.all(np.isnan(fold_correlations), axis=1)
    if not finite.any():
        raise ValueError(
            "every grid cell degenerate; per-cell fold correlations: "
            + ", ".join(
                f"(c1={p.c1:g}, c2={p.c2:g}): {row.tolist()}"
                for p, row in zip(grid, fold_correlations)
            )
        )
    mean_validation = np.full(len(grid), math.nan)
    mean_validation[finite] = np.nanmean(fold_correlations[finite], axis=1)
    # Largest fold mean, then smallest c1 + c2; min keeps the first in grid
    # order on a full tie.
    selected_index = min((i for i in range(len(grid)) if finite[i]),
                         key=lambda i: (-mean_validation[i], grid[i].c1 + grid[i].c2))
    selected_params = grid[selected_index]

    # Refit on the full training set with transforms fitted on all rows.
    model = fit_model(x, y, selected_params, init=init, seed=seed)
    train_correlation = pearson_or_nan(*model.scores(x, y))

    test_correlation = None
    if x_test is not None and y_test is not None:
        test_correlation = evaluate_test(model, x_test, y_test)

    return CvReport(
        grid=tuple((p.c1, p.c2) for p in grid),
        fold_correlations=fold_correlations,
        fold_iterations=fold_iterations,
        fold_converged=fold_converged,
        mean_validation=mean_validation,
        selected=(selected_params.c1, selected_params.c2),
        selected_index=selected_index,
        train_correlation=train_correlation,
        test_correlation=test_correlation,
        model=model,
    )


def evaluate_test(model: FittedSccaModel, x_test: np.ndarray, y_test: np.ndarray) -> float:
    """Canonical correlation of held-out rows under the frozen training
    transforms; the test rows never touched standardization or the fit."""
    sx, sy = model.scores(np.asarray(x_test, dtype=float), np.asarray(y_test, dtype=float))
    return canonical_correlation(sx, sy)
