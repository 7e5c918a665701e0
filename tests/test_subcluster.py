import numpy as np
import pytest

from hdpaired.distances import DistanceMatrix
from hdpaired.subcluster import (
    FeatureClustering,
    complete_linkage,
    complete_linkage_merges,
    feature_distance_matrix,
    subcluster_cca,
)

from oracles import (
    argmin_complete_linkage_merges,
    naive_complete_linkage_merges,
    naive_correlation_distance,
    naive_scaled_euclidean,
)


def random_feature_distance(f, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((f, 3))
    d = np.zeros((f, f))
    for i in range(f):
        for j in range(f):
            if i != j:
                d[i, j] = np.linalg.norm(pts[i] - pts[j])
    return d


class TestFeatureDistanceMatrix:
    def test_duplicate_columns_zero(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((20, 4))
        data[:, 2] = data[:, 0]
        d = feature_distance_matrix(data, np.arange(4), "scaled_euclidean")
        assert d.data[0, 2] == 0.0

    def test_positive_multiple_zero_under_correlation(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((30, 3))
        data[:, 1] = 2.5 * data[:, 0]
        d = feature_distance_matrix(data, np.arange(3), "pearson_correlation_distance")
        assert d.data[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_elementwise_metric(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((50, 8))
        idx = np.array([0, 2, 3, 5, 7])
        d = feature_distance_matrix(data, idx, "scaled_euclidean")
        for a in range(5):
            for b in range(5):
                if a != b:
                    expected = naive_scaled_euclidean(data[:, idx[a]], data[:, idx[b]])
                    assert d.data[a, b] == pytest.approx(expected, rel=1e-12)
        dcorr = feature_distance_matrix(data, idx, "pearson_correlation_distance")
        for a in range(5):
            for b in range(a + 1, 5):
                expected = naive_correlation_distance(data[:, idx[a]], data[:, idx[b]])
                assert dcorr.data[a, b] == pytest.approx(expected, rel=1e-12)

    def test_constant_column_named_under_correlation(self):
        data = np.random.default_rng(3).standard_normal((12, 8))
        data[:, 5] = 4.0
        with pytest.raises(ValueError, match=r"zero-variance.*\['5'\]"):
            feature_distance_matrix(data, np.array([0, 2, 5, 7]), "pearson_correlation_distance")

    def test_needs_two_features(self):
        with pytest.raises(ValueError, match="at least 2"):
            feature_distance_matrix(np.ones((5, 3)), np.array([1]), "euclidean")


class TestCompleteLinkage:
    def test_k_equals_feature_count(self):
        d = random_feature_distance(6, 3)
        dm = DistanceMatrix(d, "euclidean", tuple(str(i) for i in range(6)))
        clust = complete_linkage(dm, 6)
        assert sorted(clust.labels.tolist()) == [1, 2, 3, 4, 5, 6]

    def test_k_one(self):
        d = random_feature_distance(5, 4)
        dm = DistanceMatrix(d, "euclidean", tuple(str(i) for i in range(5)))
        clust = complete_linkage(dm, 1)
        assert set(clust.labels.tolist()) == {1}

    def test_two_blobs(self):
        rng = np.random.default_rng(5)
        pts = np.vstack([rng.standard_normal((4, 2)), rng.standard_normal((4, 2)) + 50])
        f = 8
        d = np.zeros((f, f))
        for i in range(f):
            for j in range(f):
                if i != j:
                    d[i, j] = np.linalg.norm(pts[i] - pts[j])
        dm = DistanceMatrix(d, "euclidean", tuple(str(i) for i in range(f)))
        clust = complete_linkage(dm, 2)
        assert len(set(clust.labels[:4].tolist())) == 1
        assert len(set(clust.labels[4:].tolist())) == 1
        assert clust.labels[0] != clust.labels[4]

    def test_dendrogram_matches_naive_oracle(self):
        for seed in range(10):
            f = int(np.random.default_rng(seed).integers(4, 13))
            d = random_feature_distance(f, 100 + seed)
            assert complete_linkage_merges(d) == naive_complete_linkage_merges(d)

    @pytest.mark.parametrize("f", [2, 3, 7, 16, 45, 120])
    def test_each_path_matches_oracle_on_distinct_inputs(self, f):
        # Distinct distances, also after relabeling: the chain and the
        # argmin reference both give the oracle's merges.
        base = random_feature_distance(f, 200 + f)
        rng = np.random.default_rng(f)
        for perm in (np.arange(f), rng.permutation(f), rng.permutation(f)):
            d = base[np.ix_(perm, perm)]
            expected = naive_complete_linkage_merges(d)
            assert argmin_complete_linkage_merges(d) == expected
            assert complete_linkage_merges(d) == expected

    def test_paths_agree_at_three_hundred_features(self):
        # Past the oracle's reach: the chain against the argmin reference on
        # correlation distances of random features, as subcluster builds
        # them, and on relabelings.
        rng = np.random.default_rng(16)
        data = rng.standard_normal((125, 300))
        base = feature_distance_matrix(data, np.arange(300), "pearson_correlation_distance").data
        for perm in (np.arange(300), rng.permutation(300), rng.permutation(300)):
            d = base[np.ix_(perm, perm)]
            assert complete_linkage_merges(d) == argmin_complete_linkage_merges(d)

    @pytest.mark.parametrize("tie", ["duplicated", "rounded"])
    def test_tied_three_hundred_features_match_argmin_reference(self, tie):
        # Ties as subcluster meets them: duplicated feature columns give
        # exact-zero and repeated distances, and rounding gives repeated
        # heights.  Merges and k=5 labels both equal the argmin reference's.
        rng = np.random.default_rng(18)
        data = rng.standard_normal((125, 300))
        if tie == "duplicated":
            data[:, 150:] = data[:, rng.permutation(150)]
            dm = feature_distance_matrix(data, np.arange(300), "scaled_euclidean")
        else:
            dm = feature_distance_matrix(data, np.arange(300), "pearson_correlation_distance")
            dm = DistanceMatrix(np.round(dm.data, 2), dm.metric_tag, dm.subject_ids)
        tri = dm.data[np.triu_indices(300, 1)]
        assert np.unique(tri).size < tri.size
        expected = argmin_complete_linkage_merges(dm.data)
        assert complete_linkage_merges(dm.data) == expected
        root = np.arange(300)
        for a, b, _ in expected[:295]:
            root[root == b] = a
        labels = np.unique(root, return_inverse=True)[1] + 1
        np.testing.assert_array_equal(complete_linkage(dm, 5).labels, labels)

    def test_dendrogram_matches_oracle_with_ties(self):
        # integer-valued distances force exact ties, exercising the
        # (min member, min member) tie-break, on small and mid-size inputs
        rng = np.random.default_rng(6)
        for rep in range(16):
            f = int(rng.integers(4, 10) if rep < 10 else rng.integers(20, 41))
            vals = rng.integers(1, 4, size=(f, f)).astype(float)
            d = np.triu(vals, 1)
            d = d + d.T
            assert complete_linkage_merges(d) == naive_complete_linkage_merges(d)

    def test_near_symmetric_input_merges_from_upper_triangle(self):
        # DistanceMatrix accepts asymmetry up to 1e-12; a lower mirror just
        # below its upper entry must not change the merges.
        pts = np.random.default_rng(15).standard_normal((6, 3))
        pts[1] = pts[0] + 0.01
        d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        d[1, 0] -= 1e-14
        dm = DistanceMatrix(d, "euclidean", tuple(str(i) for i in range(6)))
        sym = np.triu(d, 1)
        sym = sym + sym.T
        merges = complete_linkage_merges(dm.data)
        assert merges[0][:2] == (0, 1)
        assert merges == naive_complete_linkage_merges(sym)
        clust = complete_linkage(dm, 5)
        assert clust.labels.tolist() == [1, 1, 2, 3, 4, 5]

    def test_non_finite_entry_rejected_with_its_pair(self):
        # +inf marks merged-away clusters and NaN breaks argmin, so a
        # non-finite i < j entry raises, naming the first such pair.
        for value, text in ((np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")):
            d = random_feature_distance(6, 17)
            d[2, 4] = d[4, 2] = np.nan
            d[1, 3] = d[3, 1] = value
            with pytest.raises(ValueError, match=rf"distance \(1, 3\) is {text};.*finite"):
                complete_linkage_merges(d)
        # a 4 x 4 case on which an argmin loop makes the self-merge (1, 1, nan)
        d = np.array([[0, 2, 2, 3], [2, 0, 3, 1], [2, 3, 0, 3], [3, 1, 3, 0]], dtype=float)
        d[1, 3] = d[3, 1] = np.nan
        with pytest.raises(ValueError, match=r"distance \(1, 3\) is nan"):
            complete_linkage_merges(d)
        # entries on or below the diagonal are not read
        d = random_feature_distance(5, 19)
        expected = complete_linkage_merges(d)
        d[3, 1] = d[2, 2] = np.nan
        assert complete_linkage_merges(d) == expected

    def test_label_permutation_invariance(self):
        d = random_feature_distance(9, 7)
        dm = DistanceMatrix(d, "euclidean", tuple(str(i) for i in range(9)))
        base = complete_linkage(dm, 3)
        perm = np.random.default_rng(8).permutation(9)
        dp = DistanceMatrix(d[np.ix_(perm, perm)], "euclidean",
                            tuple(str(i) for i in perm))
        permuted = complete_linkage(dp, 3)
        # same partition of the underlying features, up to label renaming
        def partition(clust, order):
            groups = {}
            for pos, lab in enumerate(clust.labels):
                groups.setdefault(lab, set()).add(int(order[pos]))
            return sorted(map(frozenset, groups.values()), key=min)

        assert partition(base, np.arange(9)) == partition(permuted, perm)


class TestSubclusterCca:
    def make_clusterings(self, px, py, kx, ky):
        cx = FeatureClustering(np.arange(px), np.repeat(np.arange(1, kx + 1), px // kx), kx)
        cy = FeatureClustering(np.arange(py), np.repeat(np.arange(1, ky + 1), py // ky), ky)
        return cx, cy

    def test_duplicated_cluster_ranks_first_with_unit_correlation(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((40, 6))
        y = rng.standard_normal((40, 6))
        y[:, :3] = x[:, :3]  # y-cluster 1 duplicates x-cluster 1
        cx, cy = self.make_clusterings(6, 6, 2, 2)
        ranking = subcluster_cca(x, y, cx, cy)
        a, b, corr = ranking.pairs[0]
        assert (a, b) == (1, 1)
        assert corr == pytest.approx(1.0, abs=1e-10)

    def test_independent_features_low_correlation(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((300, 6))
        y = rng.standard_normal((300, 6))
        cx, cy = self.make_clusterings(6, 6, 3, 3)
        ranking = subcluster_cca(x, y, cx, cy)
        assert all(corr < 0.5 for _, _, corr in ranking.pairs)

    def test_ranking_consistent_with_per_pair_recomputation(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((60, 10))
        y = rng.standard_normal((60, 10))
        cx, cy = self.make_clusterings(10, 10, 5, 5)
        ranking = subcluster_cca(x, y, cx, cy)
        assert len(ranking.pairs) == 25
        corrs = [c for _, _, c in ranking.pairs]
        assert corrs == sorted(corrs, reverse=True)
        # recompute one pair independently via numpy svd of whitened blocks
        a, b, corr = ranking.pairs[7]
        xa = x[:, cx.members(a)]
        yb = y[:, cy.members(b)]
        xa = xa - xa.mean(0)
        yb = yb - yb.mean(0)
        qa, _ = np.linalg.qr(xa)
        qb, _ = np.linalg.qr(yb)
        expected = np.linalg.svd(qa.T @ qb, compute_uv=False)[0]
        assert corr == pytest.approx(float(expected), abs=1e-10)

    def test_cca_dominates_single_column_correlation(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((80, 8))
        y = rng.standard_normal((80, 8))
        cx, cy = self.make_clusterings(8, 8, 2, 2)
        ranking = subcluster_cca(x, y, cx, cy)
        by_pair = {(a, b): c for a, b, c in ranking.pairs}
        for a in (1, 2):
            for b in (1, 2):
                best_single = max(
                    abs(np.corrcoef(x[:, i], y[:, j])[0, 1])
                    for i in cx.members(a)
                    for j in cy.members(b)
                )
                assert by_pair[(a, b)] >= best_single - 1e-10

    def test_constant_block_skipped_with_note(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((30, 4))
        x[:, 2:] = 1.0  # cluster 2 constant
        y = rng.standard_normal((30, 4))
        cx, cy = self.make_clusterings(4, 4, 2, 2)
        ranking = subcluster_cca(x, y, cx, cy)
        assert len(ranking.pairs) == 2
        assert {(a, b) for a, b, _ in ranking.skipped} == {(2, 1), (2, 2)}

    def test_top_k_reported(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((50, 6))
        y = rng.standard_normal((50, 6))
        cx, cy = self.make_clusterings(6, 6, 3, 3)
        ranking = subcluster_cca(x, y, cx, cy, top_k=3)
        assert len(ranking.top) == 3
        assert ranking.top == ranking.pairs[:3]

    def test_negative_top_k_rejected(self):
        # a negative count would slice pairs[:-1] and drop the last pair
        rng = np.random.default_rng(14)
        x = rng.standard_normal((50, 4))
        y = rng.standard_normal((50, 4))
        cx, cy = self.make_clusterings(4, 4, 2, 2)
        with pytest.raises(ValueError, match=r"top must be >= 0, got -1"):
            subcluster_cca(x, y, cx, cy, top_k=-1)
