import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdpaired import distances
from hdpaired.distances import (
    _SYMMETRY_TILE,
    METRICS,
    DistanceMatrix,
    distance_matrix,
    upper_triangle,
)
from hdpaired.matrixio import FeatureMatrix
from hdpaired.subcluster import feature_distance_matrix

from oracles import naive_distance_matrix, naive_scaled_euclidean


def fm(data):
    data = np.asarray(data, dtype=float)
    return FeatureMatrix(data, tuple(f"s{i}" for i in range(data.shape[0])))


def pairwise(rows, metric):
    """The builder's matrix over the given rows, as a plain array."""
    return distance_matrix(fm(rows), metric).data


class TestScaledEuclidean:
    def test_identity(self):
        v = np.random.default_rng(0).standard_normal(10)
        assert pairwise([v, v], "scaled_euclidean")[0, 1] == 0.0

    def test_forced_value(self):
        d = pairwise([[1.0, 0, 0, 0], [0.0, 1, 0, 0]], "scaled_euclidean")
        assert d[0, 1] == pytest.approx(math.sqrt(2) / 4, abs=1e-15)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(1000)
        b = rng.standard_normal(1000)
        assert pairwise([a, b], "scaled_euclidean")[0, 1] == pytest.approx(
            naive_scaled_euclidean(a, b), rel=1e-12)

    def test_triangle_inequality_random_triples(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            d = pairwise(rng.standard_normal((3, 20)), "scaled_euclidean")
            assert d[0, 2] <= d[0, 1] + d[1, 2] + 1e-12


class TestCorrelationDistance:
    def test_identical_is_zero(self):
        v = np.random.default_rng(3).standard_normal(30)
        d = pairwise([v, v], "pearson_correlation_distance")
        assert d[0, 1] == 0.0 == d[1, 0]

    @pytest.mark.parametrize("p", [2, 3, 30, 400])
    def test_identical_rows_are_zero_at_any_scale(self, p):
        # 1 - g can fall an ulp or two off 0 for a unit row against itself;
        # the cancelled pair is recomputed from the rows.
        rng = np.random.default_rng(p)
        for scale in (1e-6, 1.0, 3.0, 1e6):
            rows = rng.standard_normal((6, p)) * scale
            rows[3:5] = rows[0]
            d = pairwise(rows, "pearson_correlation_distance")
            for i, j in ((0, 3), (0, 4), (3, 4)):
                assert d[i, j] == 0.0 == d[j, i], (scale, i, j)
            assert np.array_equal(d, d.T)
            feat = feature_distance_matrix(rows.T.copy(), np.arange(6),
                                           "pearson_correlation_distance").data
            assert np.array_equal(feat, d)

    def test_negation_is_two(self):
        v = np.random.default_rng(4).standard_normal(30)
        d = pairwise([v, -v], "pearson_correlation_distance")
        assert d[0, 1] == pytest.approx(2.0, abs=1e-12)

    def test_positive_multiple_is_zero(self):
        v = np.random.default_rng(5).standard_normal(30)
        d = pairwise([v, 3.0 * v], "pearson_correlation_distance")
        assert d[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_zero_variance_errors(self):
        with pytest.raises(ValueError, match=r"zero-variance vectors .*\['s0'\]"):
            pairwise([np.ones(5), np.arange(5.0)], "pearson_correlation_distance")

    def test_nonnegative_symmetric(self):
        rows = np.random.default_rng(6).standard_normal((100, 15))
        d = pairwise(rows, "pearson_correlation_distance")
        assert np.array_equal(d, d.T)
        assert np.all((d >= 0.0) & (d <= 2.0))
        np.testing.assert_allclose(d, naive_distance_matrix(rows, "pearson_correlation_distance"),
                                   rtol=0, atol=1e-12)


class TestDistanceMatrix:
    def test_n1_zero_matrix(self):
        d = distance_matrix(fm([[1.0, 2.0]]), "scaled_euclidean")
        assert d.data.shape == (1, 1) and d.data[0, 0] == 0.0

    def test_duplicate_rows_zero_entry(self):
        d = distance_matrix(fm([[1.0, 2.0], [1.0, 2.0], [3.0, 0.0]]), "euclidean")
        assert d.data[0, 1] == 0.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((20, 50))
        duplicated = rng.standard_normal((9, 4))
        duplicated[6] = duplicated[2]
        for rows in (data, duplicated):
            for metric in METRICS:
                d = distance_matrix(fm(rows), metric)
                np.testing.assert_allclose(
                    d.data, naive_distance_matrix(rows, metric), rtol=1e-12, atol=1e-13
                )

    def test_exact_symmetry_zero_diag(self):
        data = np.random.default_rng(8).standard_normal((15, 9))
        for metric in METRICS:
            d = distance_matrix(fm(data), metric)
            assert np.array_equal(d.data, d.data.T)
            assert np.all(np.diag(d.data) == 0.0)

    def test_relabeling_permutation_equivariance(self):
        # Sizes off a multiple of the BLAS kernel's tile width, and rows
        # close enough to be recomputed from their differences.
        rng = np.random.default_rng(9)
        for n, p in ((12, 6), (37, 5), (150, 83)):
            data = rng.standard_normal((n, p))
            perm = rng.permutation(n)
            if n > 12:
                k = n // 3
                data[:k] = data[k:2 * k] + 1e-6 * rng.standard_normal((k, p))
            m2 = FeatureMatrix(data[perm], tuple(f"s{i}" for i in perm))
            for metric in METRICS:
                base = distance_matrix(fm(data), metric)
                permuted = distance_matrix(m2, metric)
                np.testing.assert_array_equal(permuted.data, base.data[np.ix_(perm, perm)])

    def test_zero_variance_row_named(self):
        data = np.random.default_rng(10).standard_normal((4, 6))
        data[2] = 5.0
        with pytest.raises(ValueError, match="s2"):
            distance_matrix(fm(data), "pearson_correlation_distance")

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="metric_tag"):
            distance_matrix(fm([[1.0, 2.0]]), "cosine")

    def test_validation_rejects_asymmetry(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            DistanceMatrix(bad, "euclidean", ("a", "b"))

    def test_asymmetry_inside_a_later_tile_rejected(self):
        # One entry off by 2e-12 in the tile pair (row tile 1, column tile 2)
        # and nowhere else.
        t = _SYMMETRY_TILE
        n = 2 * t + 7
        d = distance_matrix(fm(np.random.default_rng(13).standard_normal((n, 3))), "euclidean")
        DistanceMatrix(d.data, "euclidean", d.subject_ids)
        bad = d.data.copy()
        bad[t + 3, 2 * t + 5] += 2e-12
        with pytest.raises(ValueError, match="not symmetric within 1e-12"):
            DistanceMatrix(bad, "euclidean", d.subject_ids)
        bad[t + 3, 2 * t + 5] = d.data[t + 3, 2 * t + 5]
        bad[2 * t + 5, t + 3] += 2e-12
        with pytest.raises(ValueError, match="not symmetric within 1e-12"):
            DistanceMatrix(bad, "euclidean", d.subject_ids)

    def test_copy_false_keeps_the_array(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        copied = DistanceMatrix(d, "euclidean", ("a", "b"))
        assert not np.shares_memory(copied.data, d) and d.flags.writeable
        kept = DistanceMatrix(d, "euclidean", ("a", "b"), copy=False)
        assert kept.data is d and not d.flags.writeable

    def test_validation_rejects_nonzero_diag(self):
        bad = np.array([[1e-18, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            DistanceMatrix(bad, "euclidean", ("a", "b"))

    @pytest.mark.parametrize("data, metric, ids, message", [
        (np.zeros((2, 3)), "euclidean", ("a", "b"), r"must be square, got \(2, 3\)"),
        (np.zeros((2, 2)), "cosine", ("a", "b"), "unknown metric_tag 'cosine'"),
        (np.zeros((2, 2)), "euclidean", ("a",), "1 subject ids for 2 rows"),
        ([[0.0, math.nan], [math.nan, 0.0]], "euclidean", ("a", "b"), "non-finite entries"),
        ([[0.0, -1.0], [-1.0, 0.0]], "euclidean", ("a", "b"), "negative distance entry"),
        ([[0.0, 2.5], [2.5, 0.0]], "pearson_correlation_distance", ("a", "b"),
         "correlation distance entry above 2"),
    ], ids=["non-square", "unknown-metric", "id-count", "non-finite", "negative",
            "correlation-above-2"])
    def test_validation_rejection_message(self, data, metric, ids, message):
        with pytest.raises(ValueError, match=message):
            DistanceMatrix(np.asarray(data, dtype=float), metric, ids)


class TestGramBuilder:
    @given(st.integers(2, 9), st.integers(2, 40), st.floats(-9.0, -1.0),
           st.sampled_from([0.0, 3.0, 1e6]), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_near_duplicates_and_offsets_match_oracle(self, n, p, log_eps, offset, seed):
        # n rows, n near-copies at distance ~10^log_eps, one exact copy of
        # row 0, all shifted by a common offset
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((n, p))
        rows = np.vstack([base, base + 10.0 ** log_eps * rng.standard_normal((n, p)),
                          base[:1]]) + offset
        for metric in METRICS:
            d = distance_matrix(fm(rows), metric).data
            np.testing.assert_allclose(d, naive_distance_matrix(rows, metric),
                                       rtol=1e-12, atol=1e-13)
            if metric != "pearson_correlation_distance":
                assert d[0, 2 * n] == 0.0

    @pytest.mark.parametrize("n", [13, 16])  # with and without padding rows
    def test_builder_output_is_kept_without_a_copy(self, n, monkeypatch):
        built = []
        pairwise = distances._pairwise
        monkeypatch.setattr(distances, "_pairwise",
                            lambda *args: built.append(pairwise(*args)) or built[-1])
        rows = np.random.default_rng(n).standard_normal((n, 4))
        for metric in METRICS:
            d = distance_matrix(fm(rows), metric).data
            assert d is built[-1]
            assert d.base is None and d.flags.c_contiguous and not d.flags.writeable


class TestUpperTriangle:
    def test_lexicographic_order(self):
        d = np.zeros((3, 3))
        d[0, 1] = d[1, 0] = 1.0
        d[0, 2] = d[2, 0] = 2.0
        d[1, 2] = d[2, 1] = 3.0
        dm = DistanceMatrix(d, "euclidean", ("a", "b", "c"))
        np.testing.assert_array_equal(upper_triangle(dm), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17])
    def test_matches_triu_indices(self, n):
        a = np.random.default_rng(n).standard_normal((n, n))
        iu, ju = np.triu_indices(n, 1)
        np.testing.assert_array_equal(upper_triangle(a), a[iu, ju])

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 300])
    def test_same_bits_as_boolean_mask(self, n):
        # the row-major boolean-mask form, bit for bit, in a fresh array
        a = np.random.default_rng(n).standard_normal((n, n))
        if n > 2:
            a[0, 1], a[1, 2] = -0.0, np.nan
        i = np.arange(n)
        expected = a[i[:, None] < i]
        out = upper_triangle(a)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()
        assert not np.shares_memory(out, a)


class TestPersistence:
    def test_euclidean_vs_dx_consistency(self):
        # d_X, the scaled Euclidean matrix, is the Euclidean matrix times
        # 1.0 / p bit for bit: both come from one Gram product.
        rng = np.random.default_rng(12)
        for n, p in ((2, 40), (19, 7), (40, 300)):
            rows = rng.standard_normal((n, p))
            rows[n // 2] = rows[0] + 1e-9  # recomputed from its differences
            np.testing.assert_array_equal(pairwise(rows, "scaled_euclidean"),
                                          pairwise(rows, "euclidean") * (1.0 / p))
