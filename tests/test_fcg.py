import numpy as np
import pytest

from hdpaired.fcg import (
    BandpassSpec,
    NuisanceMatrix,
    RoiTimeSeries,
    butterworth_bandpass,
    design_bandpass,
    fcg_from_timeseries,
    ols_residualize,
    pca_regressors,
    pearson_fcg,
)

from oracles import bilinear_bandpass_gain, fit_sinusoid_amplitude, naive_pearson


def ts(data, fs=1.0):
    return RoiTimeSeries(np.asarray(data, dtype=float), fs)


class TestTypes:
    def test_time_series_validation(self):
        with pytest.raises(ValueError, match="T >= 3"):
            ts(np.ones((2, 3)))
        with pytest.raises(ValueError, match="positive"):
            RoiTimeSeries(np.ones((5, 2)), 0.0)

    def test_bandpass_spec_validation(self):
        with pytest.raises(ValueError, match="f_low < f_high"):
            BandpassSpec(0.2, 0.1)
        with pytest.raises(ValueError, match="Nyquist"):
            BandpassSpec(0.08, 0.6).validate_against(1.0)


class TestOlsResidualize:
    def test_nuisance_column_fully_removed(self):
        rng = np.random.default_rng(0)
        nuis = rng.standard_normal((100, 2))
        series = ts(np.column_stack([nuis[:, 0], rng.standard_normal(100)]))
        out = ols_residualize(series, NuisanceMatrix(nuis))
        assert np.max(np.abs(out.data[:, 0])) < 1e-10

    def test_empty_nuisance_mean_centers(self):
        rng = np.random.default_rng(1)
        series = ts(rng.standard_normal((50, 3)) + 5.0)
        out = ols_residualize(series, NuisanceMatrix.empty(50))
        np.testing.assert_allclose(out.data, series.data - series.data.mean(0), atol=1e-12)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(2)
        series = ts(rng.standard_normal((200, 5)))
        nuis = NuisanceMatrix(rng.standard_normal((200, 3)))
        out = ols_residualize(series, nuis)
        design = nuis.design()
        q, _ = np.linalg.qr(design)
        inner = q.T @ out.data
        norms = np.linalg.norm(out.data, axis=0)
        assert np.max(np.abs(inner) / norms) < 1e-8

    def test_rank_deficient_design_reports_columns(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((60, 2))
        nuis = NuisanceMatrix(np.column_stack([base, base[:, 0] + base[:, 1]]))
        with pytest.raises(ValueError, match="rank-deficient"):
            ols_residualize(ts(rng.standard_normal((60, 2))), nuis)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        series = ts(rng.standard_normal((120, 4)))
        nuis = NuisanceMatrix(rng.standard_normal((120, 3)))
        once = ols_residualize(series, nuis)
        twice = ols_residualize(once, nuis)
        np.testing.assert_allclose(twice.data, once.data, atol=1e-10)

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            ols_residualize(ts(np.ones((10, 2)) + np.arange(10)[:, None]),
                            NuisanceMatrix(np.ones((9, 1))))


class TestButterworthBandpass:
    def test_dc_rejection(self):
        series = ts(np.full((840, 2), 3.7))
        out = butterworth_bandpass(series)
        assert np.max(np.abs(out.data)) < 1e-6

    def test_passband_gain_matches_analytic_oracle(self):
        fs = 1.0
        spec = BandpassSpec(0.08, 0.15, 1)
        f0 = np.sqrt(0.08 * 0.15)
        t = np.arange(6000) / fs
        sig = np.sin(2 * np.pi * f0 * t)
        out = butterworth_bandpass(ts(sig[:, None], fs), spec)
        measured = fit_sinusoid_amplitude(out.data[:, 0], f0, fs, skip=500)
        expected = bilinear_bandpass_gain(f0, 0.08, 0.15, fs) ** 2
        assert measured == pytest.approx(expected, rel=0.05)

    def test_stopband_below_passband(self):
        fs = 1.0
        t = np.arange(4000) / fs
        f0 = np.sqrt(0.08 * 0.15)
        out_pass = butterworth_bandpass(ts(np.sin(2 * np.pi * f0 * t)[:, None], fs))
        out_stop = butterworth_bandpass(ts(np.sin(2 * np.pi * 0.40 * t)[:, None], fs))
        amp_pass = fit_sinusoid_amplitude(out_pass.data[:, 0], f0, fs, skip=300)
        amp_stop = fit_sinusoid_amplitude(out_stop.data[:, 0], 0.40, fs, skip=300)
        assert amp_stop < amp_pass

    def test_zero_phase_time_reversal_symmetry(self):
        rng = np.random.default_rng(5)
        sig = rng.standard_normal((600, 3))
        fwd = butterworth_bandpass(ts(sig), BandpassSpec())
        rev = butterworth_bandpass(ts(sig[::-1]), BandpassSpec())
        np.testing.assert_allclose(rev.data[::-1], fwd.data, atol=1e-8)

    def test_causal_mode_differs(self):
        rng = np.random.default_rng(6)
        sig = rng.standard_normal((400, 1))
        zero_phase = butterworth_bandpass(ts(sig), BandpassSpec())
        causal = butterworth_bandpass(ts(sig), BandpassSpec(), zero_phase=False)
        assert not np.allclose(zero_phase.data, causal.data)

    def test_scipy_design_matches_oracle_transfer_function(self):
        import scipy.signal

        fs = 1.0
        b, a = design_bandpass(BandpassSpec(0.08, 0.15, 1), fs)
        for f in (0.05, 0.09, 0.11, 0.15, 0.3):
            _, h = scipy.signal.freqz(b, a, worN=[2 * np.pi * f / fs])
            assert abs(h[0]) == pytest.approx(
                bilinear_bandpass_gain(f, 0.08, 0.15, fs), rel=1e-9
            )


class TestPearsonFcg:
    def test_identical_pair(self):
        col = np.random.default_rng(7).standard_normal(50)
        vec = pearson_fcg(ts(np.column_stack([col, col])))
        np.testing.assert_allclose(vec, [1.0])

    def test_sign_symmetry(self):
        rng = np.random.default_rng(8)
        s = rng.standard_normal(80)
        t_col = rng.standard_normal(80)
        vec = pearson_fcg(ts(np.column_stack([s, -s, t_col])))
        rho = naive_pearson(s, t_col)
        np.testing.assert_allclose(vec, [-1.0, rho, -rho], atol=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((500, 10))
        vec = pearson_fcg(ts(data))
        k = 0
        for i in range(10):
            for j in range(i + 1, 10):
                assert vec[k] == pytest.approx(naive_pearson(data[:, i], data[:, j]), abs=1e-12)
                k += 1
        assert k == vec.size == 45

    def test_zero_variance_roi_named(self):
        data = np.random.default_rng(10).standard_normal((30, 4))
        data[:, 1] = 2.0
        with pytest.raises(ValueError, match=r"\[1\]"):
            pearson_fcg(ts(data))

    def test_affine_invariance(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((100, 6))
        scaled = data * rng.uniform(0.5, 4.0, 6) + rng.uniform(-3, 3, 6)
        np.testing.assert_allclose(pearson_fcg(ts(data)), pearson_fcg(ts(scaled)), atol=1e-12)


class TestPipeline:
    def test_composition_deterministic(self):
        rng = np.random.default_rng(12)
        sig = rng.standard_normal((840, 6))
        nuis = NuisanceMatrix(rng.standard_normal((840, 4)))
        a = fcg_from_timeseries(ts(sig), nuis)
        b = fcg_from_timeseries(ts(sig), nuis)
        assert np.array_equal(a, b)
        assert a.size == 15

    def test_constant_input_roi_named(self):
        # Filtering leaves rounding residue in a constant column, so
        # pearson_fcg alone would not see it.
        data = np.random.default_rng(14).standard_normal((60, 4))
        data[:, 2] = 0.3
        with pytest.raises(ValueError, match=r"zero-variance ROI columns: indices \[2\]"):
            fcg_from_timeseries(ts(data))

    def test_pca_regressors_shape_and_unit_norm(self):
        rng = np.random.default_rng(13)
        vox = rng.standard_normal((200, 40))
        comps = pca_regressors(vox, 3)
        assert comps.shape == (200, 3)
        np.testing.assert_allclose(np.linalg.norm(comps, axis=0), 1.0, atol=1e-12)
        # orthogonal components, deterministic sign
        np.testing.assert_allclose(comps.T @ comps, np.eye(3), atol=1e-12)
        assert all(comps[np.argmax(np.abs(comps[:, j])), j] > 0 for j in range(3))
