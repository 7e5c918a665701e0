import json

import numpy as np
import pytest

from hdpaired.fcg import (
    BandpassSpec,
    NuisanceMatrix,
    RoiTimeSeries,
    butterworth_bandpass,
    design_bandpass,
    fcg_from_many,
    fcg_from_timeseries,
    ols_residualize,
    pca_regressors,
    pearson_fcg,
)

from oracles import bilinear_bandpass_gain, fit_sinusoid_amplitude, naive_pearson


def ts(data):
    return RoiTimeSeries(np.asarray(data, dtype=float))


class TestTypes:
    def test_time_series_validation(self):
        with pytest.raises(ValueError, match="T >= 3"):
            ts(np.ones((2, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            ts([[1.0], [np.nan], [2.0]])

    def test_bandpass_spec_validation(self):
        with pytest.raises(ValueError, match="f_low < f_high"):
            BandpassSpec(0.2, 0.1)
        with pytest.raises(ValueError, match="order must be a positive integer, got 0"):
            BandpassSpec(order=0)
        with pytest.raises(ValueError, match="sampling frequency must be positive, got 0.0"):
            BandpassSpec(fs=0.0)
        with pytest.raises(ValueError, match="sampling frequency must be positive, got nan"):
            BandpassSpec(fs=float("nan"))
        with pytest.raises(ValueError, match="sampling frequency must be finite, got inf"):
            BandpassSpec(fs=float("inf"))
        with pytest.raises(ValueError, match=r"band edge 0.15 Hz at or beyond Nyquist \(0.1 Hz\)"):
            BandpassSpec(fs=0.2)

    def test_bandpass_spec_design_is_read_only_and_not_compared(self):
        spec = BandpassSpec(0.05, 0.2, 2, fs=1 / 0.72)
        assert not (spec.b.flags.writeable or spec.a.flags.writeable or spec.zi.flags.writeable)
        # The design follows from the four options, so equality and hashing
        # compare the options alone.
        assert spec == BandpassSpec(0.05, 0.2, 2, fs=1 / 0.72) != BandpassSpec(0.05, 0.2, 2)
        assert hash(spec) == hash(BandpassSpec(0.05, 0.2, 2, fs=1 / 0.72))


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
        # A column is named when it lies in the span of the columns before
        # it, so the column the user added is named, never the intercept.
        rng = np.random.default_rng(3)
        base = rng.standard_normal((60, 2))
        series = ts(rng.standard_normal((60, 2)))
        for nuis, rank, r, dependent in (
            (np.column_stack([base, base[:, 0] + base[:, 1]]), 3, 4, [3]),
            (np.ones((60, 1)), 1, 2, [1]),  # a copy of the intercept
            (np.column_stack([base, base[:, 1]]), 3, 4, [3]),  # a copy
            (np.column_stack([base, np.full(60, 5.0)]), 3, 4, [3]),  # a constant
            (np.column_stack([base, 10.0 * base[:, 0]]), 3, 4, [3]),  # a scaled copy
            (np.column_stack([base, np.full(60, 5.0), base[:, 0] - base[:, 1]]), 3, 5, [3, 4]),
        ):
            with pytest.raises(ValueError) as exc:
                ols_residualize(series, NuisanceMatrix(nuis))
            assert str(exc.value) == (
                f"rank-deficient design (rank {rank} < {r} columns); "
                f"dependent design columns (0 = intercept): {dependent}")

    def test_rank_matches_matrix_rank_on_random_designs(self):
        # Exact dependencies (copies, scaled copies, sums, constants) and
        # clearly full-rank designs, with columns of mixed scales.
        rng = np.random.default_rng(5)
        eps = np.finfo(float).eps
        for trial in range(300):
            t = int(rng.choice([30, 60, 240, 1200]))
            k = int(rng.integers(1, 9))
            nuis = rng.standard_normal((t, k)) * 10.0 ** rng.uniform(-6, 6, k)
            for _ in range(int(rng.integers(0, 4)) if trial % 3 else 0):
                kind = rng.integers(3)
                cols = rng.choice(nuis.shape[1], 2)
                if kind == 0:
                    new = rng.uniform(-10, 10) * nuis[:, cols[0]]
                elif kind == 1:
                    new = nuis[:, cols[0]] + rng.uniform(-10, 10) * nuis[:, cols[1]]
                else:
                    new = np.full(t, 10.0 ** rng.uniform(-6, 6))
                at = int(rng.integers(nuis.shape[1] + 1))
                nuis = np.insert(nuis, at, new, axis=1)
            design = NuisanceMatrix(nuis).design()
            r = design.shape[1]
            series = ts(rng.standard_normal((t, 2)))
            rank = np.linalg.matrix_rank(design)
            if rank == r:
                ols_residualize(series, NuisanceMatrix(nuis))
                continue
            with pytest.raises(ValueError) as exc:
                ols_residualize(series, NuisanceMatrix(nuis))
            head, named = str(exc.value).split(": ", 1)
            assert head == (f"rank-deficient design (rank {rank} < {r} columns); "
                            "dependent design columns (0 = intercept)")
            named = [int(j) for j in named.strip("[]").split(", ")]
            assert len(named) == r - rank
            tol = max(t, r) * eps * np.max(np.linalg.norm(design, axis=0))
            for j in named:
                # Columns scaled to unit norm, so that lstsq's own rounding
                # stays far below the tolerance.
                before = design[:, :j] / np.linalg.norm(design[:, :j], axis=0)
                coef = np.linalg.lstsq(before, design[:, j], rcond=None)[0]
                assert np.linalg.norm(design[:, j] - before @ coef) <= tol, (trial, j)

    @pytest.mark.parametrize("t", [60, 240])
    @pytest.mark.parametrize("r", [1, 7, 13])
    def test_residuals_match_scipy_pivoted_qr(self, t, r):
        # The residual of scipy.linalg.qr with pivoting, the earlier route;
        # scipy is imported here only.
        import scipy.linalg

        rng = np.random.default_rng(100 * t + r)
        for _ in range(10):
            nuis = rng.standard_normal((t, r - 1)) * rng.uniform(0.1, 10.0, r - 1)
            data = rng.standard_normal((t, 5)) * 100.0 + 3.0
            got = ols_residualize(ts(data), NuisanceMatrix(nuis)).data
            q = scipy.linalg.qr(NuisanceMatrix(nuis).design(), mode="economic",
                                pivoting=True)[0]
            want = data - q @ (q.T @ data)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(data))

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
        spec = BandpassSpec(0.08, 0.15, 1, fs)
        f0 = np.sqrt(0.08 * 0.15)
        t = np.arange(6000) / fs
        sig = np.sin(2 * np.pi * f0 * t)
        out = butterworth_bandpass(ts(sig[:, None]), spec)
        measured = fit_sinusoid_amplitude(out.data[:, 0], f0, fs, skip=500)
        expected = bilinear_bandpass_gain(f0, 0.08, 0.15, fs) ** 2
        assert measured == pytest.approx(expected, rel=0.05)

    def test_stopband_below_passband(self):
        fs = 1.0
        t = np.arange(4000) / fs
        f0 = np.sqrt(0.08 * 0.15)
        spec = BandpassSpec(fs=fs)
        out_pass = butterworth_bandpass(ts(np.sin(2 * np.pi * f0 * t)[:, None]), spec)
        out_stop = butterworth_bandpass(ts(np.sin(2 * np.pi * 0.40 * t)[:, None]), spec)
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
        b, a = design_bandpass(BandpassSpec(0.08, 0.15, 1, fs))
        for f in (0.05, 0.09, 0.11, 0.15, 0.3):
            _, h = scipy.signal.freqz(b, a, worN=[2 * np.pi * f / fs])
            assert abs(h[0]) == pytest.approx(
                bilinear_bandpass_gain(f, 0.08, 0.15, fs), rel=1e-9
            )


def _same_bits(got, want):
    want = np.ascontiguousarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestScipyOracle:
    """The numpy design and filter against scipy.signal, bit for bit.
    scipy.signal is imported here only."""

    @pytest.mark.parametrize("fs", [0.5, 1.0, 1 / 0.72, 2.0])
    @pytest.mark.parametrize("order", range(1, 9))
    def test_design_matches_butter(self, order, fs):
        import scipy.signal

        for low, high in ((0.01, 0.08), (0.08, 0.15), (0.009, 0.1), (0.001, 0.2), (0.05, 0.24)):
            want_b, want_a = scipy.signal.butter(order, [low, high], btype="bandpass", fs=fs)
            if np.max(np.abs(np.roots(want_a))) >= 1.0:
                # Rounding in a high-order design put a pole outside the
                # unit circle, and the spec refuses it.
                with pytest.raises(ValueError, match="unstable filter"):
                    BandpassSpec(low, high, order, fs)
                continue
            spec = BandpassSpec(low, high, order, fs)
            b, a = design_bandpass(spec)
            assert _same_bits(b, want_b) and _same_bits(a, want_a), (low, high)
            assert _same_bits(spec.b, want_b) and _same_bits(spec.a, want_a), (low, high)
            assert _same_bits(spec.zi, scipy.signal.lfilter_zi(b, a))

    @pytest.mark.parametrize("t", [3, 4, 120, 240, 6000])
    @pytest.mark.parametrize("order, fs", [(1, 1.0), (2, 1 / 0.72), (3, 0.5)])
    def test_filter_matches_filtfilt_and_lfilter(self, t, order, fs):
        import scipy.signal

        spec = BandpassSpec(0.01, 0.2, order, fs)
        b, a = design_bandpass(spec)
        padlen = min(spec.padlen, t - 1)
        assert (padlen == t - 1) == (t <= 240)  # the pad is clamped to T - 1 up to T = 240
        rng = np.random.default_rng(t + order)
        for c in (1, 37):
            x = 3.0 * rng.standard_normal((t, c)) + 1.0
            got = butterworth_bandpass(ts(x), spec).data
            want = scipy.signal.filtfilt(b, a, x, axis=0, padtype="even", padlen=padlen)
            assert _same_bits(got, want), ("zero-phase", c)
            got = butterworth_bandpass(ts(x), spec, zero_phase=False).data
            assert _same_bits(got, scipy.signal.lfilter(b, a, x, axis=0)), ("causal", c)

    def test_signed_zeros_match(self):
        # Exact zeros of both signs take the same path through every update.
        import scipy.signal

        spec = BandpassSpec()
        b, a = design_bandpass(spec)
        x = np.random.default_rng(15).standard_normal((200, 5))
        x[:, 0] = 0.0
        x[:, 1] = -0.0
        x[50:120, 2] = 0.0
        x[::3, 3] = -0.0
        x[:, 4] = np.where(np.arange(200) % 2, 0.0, -0.0)
        padlen = min(spec.padlen, 199)
        got = butterworth_bandpass(RoiTimeSeries(x), spec).data
        assert _same_bits(got, scipy.signal.filtfilt(b, a, x, axis=0, padtype="even",
                                                     padlen=padlen))
        got = butterworth_bandpass(RoiTimeSeries(x), spec, zero_phase=False).data
        assert _same_bits(got, scipy.signal.lfilter(b, a, x, axis=0))

    def test_columns_filter_alike_alone_and_stacked(self):
        rng = np.random.default_rng(16)
        parts = [rng.standard_normal((240, m)) for m in (3, 1, 8)]
        stacked = butterworth_bandpass(ts(np.hstack(parts))).data
        alone = np.hstack([butterworth_bandpass(ts(part)).data for part in parts])
        assert _same_bits(stacked, alone)


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

    @pytest.mark.parametrize("j", [0, 3])
    def test_roi_in_nuisance_span_named(self, j):
        # The residual of an ROI that the regressors reproduce is rounding
        # residue (norm ~1e-14 here), whose correlations are noise.
        rng = np.random.default_rng(15)
        nuis = rng.standard_normal((240, 3))
        data = rng.standard_normal((240, 5))
        data[:, j] = 2.0 * nuis[:, 0] - nuis[:, 1] + 5.0
        with pytest.raises(ValueError,
                           match=r"ROI columns in the span of the nuisance regressors: "
                                 rf"indices \[{j}\]"):
            fcg_from_timeseries(ts(data), NuisanceMatrix(nuis))
        data[:, j] += 1e-3 * rng.standard_normal(240)
        assert fcg_from_timeseries(ts(data), NuisanceMatrix(nuis)).size == 10

    def test_nuisance_span_check_matches_the_full_formula(self):
        # The check forms a column's mean and spread only when its residual
        # peak is within 4 sqrt(eps) of its own peak.  The oracle forms them
        # for every column.  Half the columns sit within a factor 2 of the
        # tolerance edge, and columns are scaled from 1e-150 to 1e150.
        prefix = "ROI columns in the span of the nuisance regressors: indices "
        rng = np.random.default_rng(27)
        tol = np.sqrt(np.finfo(float).eps)
        near_edge = {"rejected": 0, "kept": 0}
        for _ in range(200):
            t, m, r = int(rng.integers(20, 120)), int(rng.integers(2, 11)), int(rng.integers(1, 4))
            nuis = NuisanceMatrix(rng.standard_normal((t, r)))
            design = nuis.design()
            data = rng.standard_normal((t, m))
            for j in np.flatnonzero(rng.random(m) < 0.5):
                span = design @ rng.standard_normal(r + 1)
                unit = span / np.abs(span).max()
                noise = rng.standard_normal(t)
                noise -= design @ np.linalg.lstsq(design, noise, rcond=None)[0]
                size = np.abs(span).max() * np.max(np.abs(unit - unit.mean())) / np.abs(noise).max()
                data[:, j] = span + rng.uniform(0.5, 2.0) * tol * size * noise
            data *= 10.0 ** rng.uniform(-150.0, 150.0, m)
            series = ts(data)
            peak = np.max(np.abs(data), axis=0)
            unit = data / peak
            edge = np.max(np.abs(ols_residualize(series, nuis).data), axis=0) / peak / (
                tol * np.max(np.abs(unit - unit.mean(axis=0)), axis=0))
            try:
                next(fcg_from_many([(series, nuis)]))
                rejected = []
            except ValueError as exc:
                assert str(exc).startswith(prefix)
                rejected = json.loads(str(exc).removeprefix(prefix))
            assert rejected == np.flatnonzero(edge <= 1.0).tolist()
            near = (edge > 0.5) & (edge < 2.0)
            near_edge["rejected"] += int(np.sum(near & (edge <= 1.0)))
            near_edge["kept"] += int(np.sum(near & (edge > 1.0)))
        assert min(near_edge.values()) >= 100

    @staticmethod
    def subjects():
        # Runs of equal T, split by changes of T; the second subject has no
        # nuisance regressors and another width.
        rng = np.random.default_rng(17)
        shapes = [(60, 4), (60, 3), (60, 4), (80, 4), (80, 4), (60, 4)]
        return [(ts(rng.standard_normal((t, m))),
                 None if i == 1 else NuisanceMatrix(rng.standard_normal((t, 2))))
                for i, (t, m) in enumerate(shapes)]

    @pytest.mark.parametrize("budget", [1, 4000, 1 << 40])
    @pytest.mark.parametrize("zero_phase", [True, False])
    def test_many_equals_one_at_a_time(self, monkeypatch, budget, zero_phase):
        monkeypatch.setattr("hdpaired.fcg._BLOCK_BYTES", budget)
        spec = BandpassSpec(0.05, 0.2, 2, fs=0.5)
        got = list(fcg_from_many(self.subjects(), spec, zero_phase))
        # The steps one subject at a time, each through its public function.
        want = [pearson_fcg(butterworth_bandpass(
                    ols_residualize(t, n or NuisanceMatrix.empty(t.n_timepoints)),
                    spec, zero_phase))
                for t, n in self.subjects()]
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
        one = [fcg_from_timeseries(t, n, spec, zero_phase) for t, n in self.subjects()]
        assert [v.tobytes() for v in one] == [v.tobytes() for v in want]

    @pytest.mark.parametrize("budget", [1, 1 << 40])
    @pytest.mark.parametrize("first, error, match", [
        (1, ValueError, r"zero-variance ROI columns: indices \[0\]"),
        (2, ValueError, "rank-deficient design"),
        (4, OSError, "unreadable"),
    ])
    def test_first_failure_in_subject_order(self, monkeypatch, budget, first, error, match):
        # Subject 1 fails only once filtered (its ROI 0 underflows to zero
        # variance), subject 2 in residualization, and the input itself at
        # subject 4.  The first of these to fail is raised by its own
        # subject's next(), after every earlier subject's vector.
        monkeypatch.setattr("hdpaired.fcg._BLOCK_BYTES", budget)
        pairs = self.subjects()
        if first <= 1:
            pairs[1] = (ts(pairs[1][0].data * [1e-200, 1, 1]), None)
        if first <= 2:
            pairs[2] = (pairs[2][0], NuisanceMatrix(np.ones((60, 1))))

        def source():
            yield from pairs[:4]
            raise OSError("unreadable")

        vectors = fcg_from_many(source())
        assert [next(vectors).size for _ in range(first)] == [6, 3, 6, 6][:first]
        with pytest.raises(error, match=match):
            next(vectors)

    def test_pca_regressors_shape_and_unit_norm(self):
        rng = np.random.default_rng(13)
        vox = rng.standard_normal((200, 40))
        comps = pca_regressors(vox, 3)
        assert comps.shape == (200, 3)
        np.testing.assert_allclose(np.linalg.norm(comps, axis=0), 1.0, atol=1e-12)
        # orthogonal components, deterministic sign
        np.testing.assert_allclose(comps.T @ comps, np.eye(3), atol=1e-12)
        assert all(comps[np.argmax(np.abs(comps[:, j])), j] > 0 for j in range(3))
