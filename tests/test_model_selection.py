import json
import math

import numpy as np
import pytest

from hdpaired.model_selection import (
    FittedSccaModel,
    cv_grid_search,
    default_grid,
    evaluate_test,
    fit_model,
    kfold_partition,
    scca_cv,
    spectral_scale,
    train_test_split,
)
from hdpaired.matrixio import FeatureMatrix
from hdpaired.scca import SccaParams, SccaSolver, canonical_correlation
from hdpaired.synthgen import gen_null, gen_sparse_canonical_pair


class TestTrainTestSplit:
    def test_ceiling_arithmetic(self):
        train, test = train_test_split(12, seed=0)
        assert train.size == 10 and test.size == 2

    def test_paper_scale_arithmetic(self):
        train, test = train_test_split(793, seed=0)
        assert train.size == 661 and test.size == 132

    def test_deterministic(self):
        a = train_test_split(50, seed=7)
        b = train_test_split(50, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_partition_properties(self):
        train, test = train_test_split(37, seed=3)
        union = np.sort(np.concatenate([train, test]))
        assert np.array_equal(union, np.arange(37))

    def test_too_small(self):
        with pytest.raises(ValueError, match="n >= 12"):
            train_test_split(11, seed=0)


class TestKfold:
    def test_even_split(self):
        folds = kfold_partition(np.arange(10), 5, seed=0)
        assert [f.size for f in folds] == [2, 2, 2, 2, 2]

    def test_uneven_split(self):
        folds = kfold_partition(np.arange(11), 5, seed=0)
        assert sorted(f.size for f in folds) == [2, 2, 2, 2, 3]
        assert [f.size for f in folds] == [3, 2, 2, 2, 2]

    def test_union_and_disjointness(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(6, 40))
            k = int(rng.integers(2, min(n, 8)))
            idx = rng.choice(200, size=n, replace=False)
            folds = kfold_partition(idx, k, seed=int(rng.integers(1000)))
            union = np.sort(np.concatenate(folds))
            assert np.array_equal(union, np.sort(idx))
            assert max(f.size for f in folds) - min(f.size for f in folds) <= 1

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="out of range"):
            kfold_partition(np.arange(3), 4, seed=0)


class TestDefaultGrid:
    def test_range_and_size(self):
        grid = default_grid(100, 25, cells=8)
        assert len(grid) == 64
        c1s = sorted({g.c1 for g in grid})
        assert c1s[0] == pytest.approx(1.0)
        assert c1s[-1] == pytest.approx(10.0)
        c2s = sorted({g.c2 for g in grid})
        assert c2s[-1] == pytest.approx(5.0)

    @pytest.mark.parametrize("cells", [0, -1])
    def test_cells_below_one_rejected(self, cells):
        with pytest.raises(ValueError, match=f"^cells must be >= 1, got {cells}$"):
            default_grid(100, 25, cells=cells)


def small_planted(seed=3):
    ds, truth = gen_sparse_canonical_pair(60, 30, 25, 4, 4, 0.9, seed=seed)
    return ds.x.data, ds.y.data, truth


class TestCvGridSearch:
    def test_single_cell_selected(self):
        x, y, _ = small_planted()
        grid = [SccaParams(c1=2.0, c2=2.0, max_iters=60, tol=1e-5)]
        rep = cv_grid_search(x, y, grid, k=3, seed=0)
        assert rep.selected == (2.0, 2.0)
        assert rep.selected_index == 0
        assert rep.fold_correlations.shape == (1, 3)

    def test_selection_maximizes_mean_validation(self):
        x, y, _ = small_planted(seed=4)
        grid = [SccaParams(c1=c, c2=c, max_iters=60, tol=1e-5) for c in (1.0, 1.6, 2.5, 4.0)]
        rep = cv_grid_search(x, y, grid, k=4, seed=1)
        valid = rep.mean_validation[~np.isnan(rep.mean_validation)]
        assert rep.mean_validation[rep.selected_index] == valid.max()

    def test_planted_signal_found_near_oracle_best_cell(self):
        ds, truth = gen_sparse_canonical_pair(120, 40, 40, 5, 5, 0.9, seed=5)
        x, y = ds.x.data, ds.y.data
        cs = (1.0, 1.3, 1.6, 2.0, math.sqrt(5))
        grid = [SccaParams(c1=c, c2=c, max_iters=80, tol=1e-6) for c in cs]
        rep = cv_grid_search(x, y, grid, k=5, seed=2)
        # exhaustive grid oracle: the cell whose refit (same transforms as
        # the pipeline) recovers the planted supports best
        from hdpaired.matrixio import ColumnStandardizer
        from hdpaired.model_selection import spectral_scale
        from hdpaired.scca import fit_scca

        sx = ColumnStandardizer.fit(x)
        sy = ColumnStandardizer.fit(y)
        xs = sx.apply(x)
        ys = sy.apply(y)
        xs = xs * spectral_scale(xs)
        ys = ys * spectral_scale(ys)
        best_f1, best_idx = -1.0, 0
        for i, params in enumerate(grid):
            fit = fit_scca(xs, ys, params)
            sel = set(sx.kept[fit.support_u].tolist())
            tru = set(truth.support_u.tolist())
            tp = len(sel & tru)
            f1 = 2 * tp / (len(sel) + len(tru)) if tp else 0.0
            if f1 > best_f1:
                best_f1, best_idx = f1, i
        assert abs(rep.selected_index - best_idx) <= 1

    def test_null_data_validation_near_zero(self):
        ds = gen_null(72, 20, 20, seed=6)
        grid = [SccaParams(c1=c, c2=c, max_iters=50, tol=1e-5) for c in (1.5, 3.0)]
        rep = cv_grid_search(ds.x.data, ds.y.data, grid, k=4, seed=3)
        fold_n = 72 // 4
        assert np.all(np.abs(rep.mean_validation) < 2.0 / math.sqrt(fold_n))

    def test_no_leakage_from_test_rows(self):
        # corrupt the rows scca_cv holds out with huge values: the fitted
        # model and training correlation must be bit-identical (only the test
        # correlation may change).  Each row gets its own factor: a common
        # factor would be an affine change after the frozen standardization
        # and leave the test correlation as it was.
        ds, _ = gen_sparse_canonical_pair(60, 30, 25, 4, 4, 0.9, seed=7)
        grid = [SccaParams(c1=2.0, c2=2.0, max_iters=60, tol=1e-5)]
        rep, test_corr, _, test = scca_cv(ds.x, ds.y, grid, k=3, seed=4)
        corrupted = ds.x.data.copy()
        corrupted[test] *= np.geomspace(1, 1e6, test.size)[:, None]
        x2 = FeatureMatrix(corrupted, ds.x.subject_ids)
        rep2, test_corr2, _, test2 = scca_cv(x2, ds.y, grid, k=3, seed=4)
        np.testing.assert_array_equal(test, test2)
        np.testing.assert_array_equal(rep.model.fit.u, rep2.model.fit.u)
        np.testing.assert_array_equal(rep.model.fit.v, rep2.model.fit.v)
        assert rep.train_correlation == rep2.train_correlation
        assert abs(test_corr - test_corr2) > 1e-3

    def test_no_leakage_from_validation_rows(self):
        # the fit used against validation fold 0 is trained on the other
        # folds only: reconstructing it from those rows and projecting the
        # CORRUPTED fold reproduces the reported fold correlation exactly
        x, y, _ = small_planted(seed=7)
        grid = [SccaParams(c1=2.0, c2=2.0, max_iters=60, tol=1e-5)]
        folds = kfold_partition(np.arange(x.shape[0]), 3, seed=4)
        x2 = x.copy()
        x2[folds[0]] *= 1e3
        rep2 = cv_grid_search(x2, y, grid, k=3, seed=4)
        fit_rows = np.setdiff1d(np.arange(x.shape[0]), folds[0])
        model = fit_model(x2[fit_rows], y[fit_rows], grid[0], seed=4)
        expected = canonical_correlation(*model.scores(x2[folds[0]], y[folds[0]]))
        assert rep2.fold_correlations[0, 0] == expected

    def test_reproducible_across_threads(self):
        x, y, _ = small_planted(seed=8)
        grid = [SccaParams(c1=c, c2=c, max_iters=40, tol=1e-5) for c in (1.5, 2.5, 3.5)]
        a = cv_grid_search(x, y, grid, k=3, seed=5, threads=1)
        b = cv_grid_search(x, y, grid, k=3, seed=5, threads=4)
        assert np.array_equal(a.fold_correlations, b.fold_correlations)
        assert a.selected == b.selected
        assert np.array_equal(a.model.fit.u, b.model.fit.u)

    def test_tie_breaks_toward_sparser(self):
        x, y, _ = small_planted(seed=9)
        params = SccaParams(c1=2.0, c2=2.0, max_iters=60, tol=1e-5)
        dup = SccaParams(c1=3.0, c2=3.0, max_iters=60, tol=1e-5)
        # same cell listed twice under different (c1, c2) cannot tie exactly,
        # so fabricate a tie by duplicating the identical cell: the first
        # occurrence (grid order) wins; then check the c1+c2 rule on a real
        # tie of equal cells
        rep = cv_grid_search(x, y, [dup, params, params], k=3, seed=6)
        if rep.mean_validation[1] == rep.mean_validation[2]:
            assert rep.selected_index in (1, 2)

    def test_empty_grid_rejected(self):
        x, y, _ = small_planted()
        with pytest.raises(ValueError, match="empty"):
            cv_grid_search(x, y, [], k=3, seed=0)

    def test_single_fold_rejected_by_name(self):
        x, y, _ = small_planted()
        grid = [SccaParams(c1=2.0, c2=2.0, max_iters=60, tol=1e-5)]
        with pytest.raises(ValueError, match=r"^cross-validation needs k >= 2 folds, got 1$"):
            cv_grid_search(x, y, grid, k=1, seed=0)


class TestEvaluateTest:
    def test_training_rows_reproduce_train_correlation(self):
        x, y, _ = small_planted(seed=10)
        grid = [SccaParams(c1=2.0, c2=2.0, max_iters=60, tol=1e-5)]
        rep = cv_grid_search(x, y, grid, k=3, seed=7)
        # diagnostic mode: evaluating on the training rows themselves
        assert evaluate_test(rep.model, x, y) == pytest.approx(rep.train_correlation, abs=1e-12)

    def test_planted_pair_test_correlation_near_oracle(self):
        ds, truth = gen_sparse_canonical_pair(150, 60, 60, 5, 5, 0.85, seed=11)
        x, y = ds.x.data, ds.y.data
        grid = [SccaParams(c1=c, c2=c, max_iters=80, tol=1e-6) for c in (1.2, 1.8, 2.6)]
        _, test_corr, _, te = scca_cv(ds.x, ds.y, grid, k=5, seed=8)
        oracle = np.corrcoef(x[te] @ truth.u_star, y[te] @ truth.v_star)[0, 1]
        assert test_corr == pytest.approx(oracle, abs=0.1)

    def test_null_data_small_test_correlation(self):
        ds = gen_null(160, 15, 15, seed=12)
        grid = [SccaParams(c1=2.0, c2=2.0, max_iters=50, tol=1e-5)]
        _, test_corr, _, _ = scca_cv(ds.x, ds.y, grid, k=4, seed=9)
        assert abs(test_corr) < 0.35


class TestSccaCv:
    def test_is_cv_grid_search_on_the_split_then_evaluate_test(self):
        ds, _ = gen_sparse_canonical_pair(60, 30, 25, 4, 4, 0.9, seed=3)
        x, y = ds.x.data, ds.y.data
        grid = [SccaParams(c1=c, c2=c, max_iters=60, tol=1e-5) for c in (1.5, 2.5)]
        rep, test_corr, train, test = scca_cv(ds.x, ds.y, grid, k=3, seed=5, threads=2)
        want_train, want_test = train_test_split(60, 5)
        np.testing.assert_array_equal(train, want_train)
        np.testing.assert_array_equal(test, want_test)
        lib = cv_grid_search(x[train], y[train], grid, k=3, seed=5)
        np.testing.assert_array_equal(rep.fold_correlations, lib.fold_correlations)
        np.testing.assert_array_equal(rep.model.fit.u, lib.model.fit.u)
        np.testing.assert_array_equal(rep.model.fit.v, lib.model.fit.v)
        assert rep.train_correlation == lib.train_correlation
        assert test_corr == evaluate_test(lib.model, x[test], y[test])

    def test_fewer_than_three_held_out_rows_raise_before_any_fit(self, monkeypatch):
        # 17 subjects leave 2 held-out rows
        calls = []
        monkeypatch.setattr(SccaSolver, "fit", lambda *a, **kw: calls.append(1))
        ds, _ = gen_sparse_canonical_pair(17, 12, 12, 3, 3, 0.9, seed=1)
        grid = [SccaParams(c1=2.0, c2=2.0, max_iters=50, tol=1e-5)]
        with pytest.raises(ValueError,
                           match=r"^held-out test set has 2 rows; at least 3 are needed$"):
            scca_cv(ds.x, ds.y, grid, k=3, seed=0)
        assert calls == []

    def test_rows_of_other_subjects_rejected(self):
        ds, _ = gen_sparse_canonical_pair(30, 12, 12, 3, 3, 0.9, seed=1)
        y = FeatureMatrix(ds.y.data[::-1], ds.y.subject_ids[::-1])
        grid = [SccaParams(c1=2.0, c2=2.0, max_iters=50, tol=1e-5)]
        with pytest.raises(ValueError, match="row-aligned over the same subjects"):
            scca_cv(ds.x, y, grid, k=3, seed=0)


class TestSpectralScale:
    # The solver's score-norm cap allows 1e-12 on the squared norm, so a
    # top singular value 1e-13 relative off the SVD's leaves room.
    @pytest.mark.parametrize("shape", [(125, 500), (150, 500), (500, 125), (40, 40), (1, 9),
                                       (9, 1), (17, 300)])
    def test_matches_svd(self, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        for scale in (1e-3, 1.0, 1e3):
            a = rng.standard_normal(shape) * scale
            top = np.linalg.svd(a, compute_uv=False)[0]
            assert 1.0 / spectral_scale(a) == pytest.approx(top, rel=1e-13)

    @pytest.mark.parametrize("shape", [(60, 200), (200, 60)])
    def test_rank_deficient_matches_svd(self, shape):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((shape[0], 3)) @ rng.standard_normal((3, shape[1]))
        top = np.linalg.svd(a, compute_uv=False)[0]
        assert 1.0 / spectral_scale(a) == pytest.approx(top, rel=1e-13)

    def test_zero_matrix_gives_one(self):
        assert spectral_scale(np.zeros((20, 7))) == 1.0
        assert spectral_scale(np.zeros((7, 20))) == 1.0


class TestFitModel:
    def test_equals_cv_refit_at_selected_cell(self):
        x, y, _ = small_planted(seed=4)
        grid = [SccaParams(c1=c, c2=c, max_iters=60, tol=1e-5) for c in (1.0, 1.6, 2.5)]
        rep = cv_grid_search(x, y, grid, k=3, seed=5)
        model = fit_model(x, y, grid[rep.selected_index], seed=5)
        assert np.array_equal(model.fit.u, rep.model.fit.u)
        assert np.array_equal(model.fit.v, rep.model.fit.v)
        assert model.fit.iterations == rep.model.fit.iterations
        assert (model.scale_x, model.scale_y) == (rep.model.scale_x, rep.model.scale_y)
        for a, b in ((model.x_standardizer, rep.model.x_standardizer),
                     (model.y_standardizer, rep.model.y_standardizer)):
            assert np.array_equal(a.mean, b.mean) and np.array_equal(a.sd, b.sd)
            assert np.array_equal(a.kept, b.kept)
        assert canonical_correlation(*model.scores(x, y)) == rep.train_correlation


class TestModelJson:
    def test_round_trip_is_bit_identical(self):
        x, y, _ = small_planted(seed=6)
        x = x.copy()
        x[:, 3] = 1.5  # a dropped column exercises the kept-column manifest
        params = SccaParams(c1=1.7, c2=2.2, d1=0.9, max_iters=40, tol=1e-7)
        with pytest.warns(RuntimeWarning, match="zero-variance"):
            model = fit_model(x, y, params, init="seeded-random", seed=3)
        ids = [f"s{i}" for i in range(x.shape[0])]
        blob = json.loads(json.dumps(model.to_json(params, ids)))
        back, back_params, back_ids = FittedSccaModel.from_json(blob)
        assert back_params == params
        assert back_ids == ids
        assert 3 not in back.x_standardizer.kept
        assert np.array_equal(back.support_u, model.support_u)
        rng = np.random.default_rng(0)
        xn, yn = rng.standard_normal(x.shape), rng.standard_normal(y.shape)
        for a, b in zip(back.scores(xn, yn), model.scores(xn, yn)):
            assert np.array_equal(a, b)
        assert back.fit.objective == model.fit.objective
        assert (back.fit.iterations, back.fit.converged) == (
            model.fit.iterations, model.fit.converged)
