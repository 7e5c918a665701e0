import math
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from hdpaired import inference
from hdpaired._util import (
    STREAM_BOOTSTRAP,
    STREAM_PERMUTATION,
    STREAM_SUBSAMPLE,
    pearson_or_nan,
    pearson_rows,
    replicate_rng,
)
from hdpaired.distances import DistanceMatrix, distance_matrix, upper_triangle
from hdpaired.inference import (
    _observed_statistic,
    _permutations,
    _replicates,
    bootstrap_distribution,
    dcor_ttest,
    distance_pair_correlation,
    permutation_test,
    rank_correlations,
    subsample_ci,
    ucenter,
)
from hdpaired.matrixio import FeatureMatrix
from hdpaired.synthgen import gen_null, gen_shared_latent

from oracles import (
    brute_bias_corrected_dcor,
    brute_kendall_tau_b,
    brute_spearman,
    brute_ucentered,
    naive_pearson,
)
from test_acceptance import _child_env


def fm(data):
    data = np.asarray(data, dtype=float)
    return FeatureMatrix(data, tuple(f"s{i}" for i in range(data.shape[0])))


def random_distance_pair(n, p=8, q=6, seed=0):
    rng = np.random.default_rng(seed)
    dx = distance_matrix(fm(rng.standard_normal((n, p))), "scaled_euclidean")
    dy = distance_matrix(fm(rng.standard_normal((n, q))), "pearson_correlation_distance")
    return dx, dy


def nearly_symmetric_pair(n, seed):
    """random_distance_pair with dx's upper triangle moved by up to 5e-13,
    so dx passes the 1e-12 symmetry check but dx[i, j] != dx[j, i]."""
    dx, dy = random_distance_pair(n, seed=seed)
    data = dx.data.copy()
    iu, ju = np.triu_indices(n, 1)
    data[iu, ju] += np.random.default_rng(seed).uniform(-5e-13, 5e-13, iu.size)
    assert (data != data.T).any()
    return DistanceMatrix(data, dx.metric_tag, dx.subject_ids), dy


def replicate_draws(n, b, seed, stream, replace=False):
    """The b index draws the replicate procedures see, taken from the engine."""
    return _replicates(lambda s: s, n, b, seed, stream, replace=replace)


def both_distances(ds):
    return (
        distance_matrix(ds.x, "scaled_euclidean"),
        distance_matrix(ds.y, "pearson_correlation_distance"),
    )


class TestDistancePairCorrelation:
    def test_perfect_positive_affine(self):
        dx, _ = random_distance_pair(10, seed=1)
        shifted = DistanceMatrix(
            np.where(np.eye(10, dtype=bool), 0.0, 2.5 * dx.data + 1.0),
            "euclidean",
            dx.subject_ids,
        )
        assert distance_pair_correlation(dx, shifted) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative_affine(self):
        dx, _ = random_distance_pair(10, seed=2)
        top = dx.data.max() * 2
        flipped = DistanceMatrix(
            np.where(np.eye(10, dtype=bool), 0.0, top - dx.data),
            "euclidean",
            dx.subject_ids,
        )
        assert distance_pair_correlation(dx, flipped) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_flatten_and_correlate_oracle(self):
        dx, dy = random_distance_pair(30, seed=3)
        got = distance_pair_correlation(dx, dy)
        expected = naive_pearson(upper_triangle(dx), upper_triangle(dy))
        assert abs(got) < 0.3
        assert got == pytest.approx(expected, abs=1e-12)

    def test_exact_joint_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        dx, dy = random_distance_pair(14, seed=4)
        perm = rng.permutation(14)
        ids = tuple(f"s{i}" for i in perm)
        dxp = DistanceMatrix(dx.data[np.ix_(perm, perm)], dx.metric_tag, ids)
        dyp = DistanceMatrix(dy.data[np.ix_(perm, perm)], dy.metric_tag, ids)
        assert distance_pair_correlation(dxp, dyp) == distance_pair_correlation(dx, dy)

    def test_constant_triangle_errors(self):
        ids = ("a", "b", "c")
        const = DistanceMatrix(np.ones((3, 3)) - np.eye(3), "euclidean", ids)
        dx, _ = random_distance_pair(3, seed=5)
        with pytest.raises(ValueError, match="constant"):
            distance_pair_correlation(const, DistanceMatrix(dx.data, "euclidean", ids))


class TestPermutationTest:
    def test_subject_mismatch_rejected(self):
        dx, dy = random_distance_pair(5, seed=6)
        swapped = DistanceMatrix(dy.data, dy.metric_tag, dy.subject_ids[::-1])
        with pytest.raises(ValueError, match="must share the same subjects in the same order"):
            permutation_test(dx, swapped, b=5)

    def test_constant_triangle_rejected(self):
        _, dy = random_distance_pair(4, seed=7)
        const = DistanceMatrix(np.ones((4, 4)) - np.eye(4), "euclidean", dy.subject_ids)
        with pytest.raises(ValueError, match="constant distance triangle; correlation undefined"):
            permutation_test(const, dy, b=5)

    def test_identity_replicate_equals_observed(self):
        # Find a replicate whose permutation is the identity on a tiny n
        # and check exact equality.
        dx, dy = random_distance_pair(5, seed=6)
        res = permutation_test(dx, dy, b=600, seed=9)
        hits = 0
        for i, sigma in enumerate(replicate_draws(5, 600, 9, STREAM_PERMUTATION)):
            if np.array_equal(sigma, np.arange(5)):
                assert res.null_samples[i] == res.observed
                hits += 1
        assert hits >= 1, "no identity permutation drawn; adjust b or seed"

    def test_pvalue_rule_and_smoothing(self):
        dx, dy = random_distance_pair(12, seed=7)
        res = permutation_test(dx, dy, b=99, seed=1)
        count = int(np.sum(res.null_samples >= res.observed))
        assert res.p_value == count / 99
        assert res.p_value_smoothed == (1 + count) / 100
        assert 0.0 < res.p_value_smoothed <= 1.0

    def test_denominator_identity_under_permutation(self):
        dx, _ = random_distance_pair(15, seed=8)
        tri = upper_triangle(dx)
        ss = ((tri - tri.mean()) ** 2).sum()
        rng = np.random.default_rng(3)
        for _ in range(10):
            perm = rng.permutation(15)
            ptri = upper_triangle(dx.data[np.ix_(perm, perm)])
            pss = ((ptri - ptri.mean()) ** 2).sum()
            assert pss == pytest.approx(ss, rel=1e-12)

    def test_planted_dependence_rejects(self):
        ds, _ = gen_shared_latent(100, 12, 12, 0.8, seed=5)
        dx = distance_matrix(ds.x, "scaled_euclidean")
        dy = distance_matrix(ds.y, "pearson_correlation_distance")
        res = permutation_test(dx, dy, b=999, seed=0)
        assert res.p_value <= 0.001

    def test_thread_count_does_not_change_results(self):
        dx, dy = random_distance_pair(20, seed=9)
        a = permutation_test(dx, dy, b=64, seed=4, threads=1)
        b = permutation_test(dx, dy, b=64, seed=4, threads=4)
        assert np.array_equal(a.null_samples, b.null_samples)
        assert a.p_value == b.p_value

    def test_null_pvalues_roughly_uniform(self):
        # Small-scale calibration check; the acceptance suite runs the full one.
        pvals = []
        for rep in range(60):
            ds = gen_null(25, 6, 6, seed=rep)
            dx = distance_matrix(ds.x, "scaled_euclidean")
            dy = distance_matrix(ds.y, "pearson_correlation_distance")
            pvals.append(permutation_test(dx, dy, b=199, seed=rep).p_value)
        assert scipy.stats.kstest(pvals, "uniform").pvalue > 0.005


def test_replicate_procedures_share_one_observed_statistic():
    for seed in range(20):
        ds, _ = gen_shared_latent(40, 8, 8, 0.8, seed=seed)
        dx, dy = both_distances(ds)
        perm = permutation_test(dx, dy, b=2, seed=seed).observed
        sub = subsample_ci(dx, dy, ratio=0.5, b=2, seed=seed)
        given = subsample_ci(dx, dy, ratio=0.5, b=2, seed=seed, observed=perm)
        boot = bootstrap_distribution(dx, dy, b=2, seed=seed).observed
        assert perm == sub.point_estimate == boot
        assert (given.point_estimate, given.lower, given.upper) == (
            sub.point_estimate, sub.lower, sub.upper)
        assert given.replicates.tobytes() == sub.replicates.tobytes()


def test_report_pair_sets_up_the_observed_statistic_once():
    ds, _ = gen_shared_latent(60, 8, 8, 0.8, seed=4)
    with mock.patch.object(inference, "_observed_statistic",
                           wraps=inference._observed_statistic) as setup:
        dcor, perm, ci = inference.report(ds.x, ds.y, "scaled_euclidean",
                                          "pearson_correlation_distance", 30, 7, 2, 0.5, 0.9,
                                          "root")
    assert setup.call_count == 1
    alone = dcor_ttest(ds.x, ds.y)
    assert (dcor.bias_corrected_r, dcor.t_statistic, dcor.p_value) == (
        alone.bias_corrected_r, alone.t_statistic, alone.p_value)
    dx, dy = both_distances(ds)
    alone = subsample_ci(dx, dy, ratio=0.5, b=30, level=0.9, seed=7, threads=2)
    assert (ci.point_estimate, ci.lower, ci.upper) == (alone.point_estimate, alone.lower,
                                                       alone.upper)
    assert ci.replicates.tobytes() == alone.replicates.tobytes()
    alone = permutation_test(dx, dy, b=30, seed=7)
    assert (perm.observed, perm.p_value, perm.null_samples.tobytes()) == (
        alone.observed, alone.p_value, alone.null_samples.tobytes())


class TestRankCorrelations:
    def test_monotone_transform_gives_one(self):
        dx, _ = random_distance_pair(10, seed=11)
        cubed = DistanceMatrix(dx.data**3, "euclidean", dx.subject_ids)
        rho, tau = rank_correlations(dx, cubed)
        assert rho == pytest.approx(1.0, abs=1e-12)
        assert tau == pytest.approx(1.0, abs=1e-12)

    def test_self_correlation(self):
        dx, _ = random_distance_pair(8, seed=12)
        rho, tau = rank_correlations(dx, dx)
        assert (rho, tau) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_matches_brute_force_oracles(self):
        for seed in range(6):
            dx, dy = random_distance_pair(int(np.random.default_rng(seed).integers(5, 26)),
                                          seed=100 + seed)
            rho, tau = rank_correlations(dx, dy)
            tx, ty = upper_triangle(dx), upper_triangle(dy)
            assert rho == pytest.approx(brute_spearman(tx, ty), abs=1e-12)
            assert tau == pytest.approx(brute_kendall_tau_b(tx, ty), abs=1e-12)


class TestUcenter:
    def test_constant_off_diagonal_gives_zero(self):
        d = 3.7 * (np.ones((6, 6)) - np.eye(6))
        np.testing.assert_allclose(ucenter(d), 0.0, atol=1e-12)

    def test_matches_per_cell_oracle(self):
        dx, _ = random_distance_pair(5, seed=13)
        np.testing.assert_allclose(ucenter(dx), brute_ucentered(dx.data), atol=1e-12)

    def test_row_sum_identity(self):
        dx, _ = random_distance_pair(9, seed=14)
        u = ucenter(dx)
        np.testing.assert_allclose(u.sum(axis=1), 0.0, atol=1e-10)

    def test_requires_n4(self):
        with pytest.raises(ValueError, match="n >= 4"):
            ucenter(np.zeros((3, 3)))

    @pytest.mark.parametrize("n", [4, 13, 16])
    def test_same_bits_as_the_one_line_expression(self, n):
        dx, _ = random_distance_pair(n, seed=n)
        u = ucenter(dx)
        assert u.tobytes() == one_line_ucenter(dx.data).tobytes()
        assert not dx.data.flags.writeable and u.flags.writeable


def one_line_ucenter(a):
    """U-centering as one out-of-place expression, the reference for the
    in-place steps."""
    n = a.shape[0]
    u = (a - a.sum(axis=1)[:, None] / (n - 2) - a.sum(axis=0)[None, :] / (n - 2)
         + a.sum() / ((n - 1) * (n - 2)))
    np.fill_diagonal(u, 0.0)
    return u


def dcor_reference(x, y):
    """(r, t, p) of the dCor t-test from the two U-centered distance matrices
    written out in full and one product buffer per sum."""
    n = x.n_subjects
    ux = one_line_ucenter(distance_matrix(x, "euclidean").data)
    uy = one_line_ucenter(distance_matrix(y, "euclidean").data)
    scale = n * (n - 3)
    vxy = float(np.multiply(ux, uy).sum()) / scale
    vx = float(np.multiply(ux, ux).sum()) / scale
    vy = float(np.multiply(uy, uy).sum()) / scale
    r = vxy / math.sqrt(vx * vy)
    v = n * (n - 3) // 2
    rc = min(max(r, -1.0), 1.0)
    t = math.sqrt(v - 1) * rc / math.sqrt(1.0 - rc * rc)
    return r, t, float(scipy.special.stdtr(v - 1, -t))


class TestDcorTtest:
    def test_self_dependence(self):
        rng = np.random.default_rng(15)
        x = fm(rng.standard_normal((12, 4)))
        res = dcor_ttest(x, x)
        assert res.bias_corrected_r == pytest.approx(1.0, abs=1e-10)
        assert res.p_value == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(16)
        for n in (4, 6, 9, 12):
            x = rng.standard_normal((n, 3))
            y = rng.standard_normal((n, 5))
            res = dcor_ttest(fm(x), fm(y))
            assert res.bias_corrected_r == pytest.approx(
                brute_bias_corrected_dcor(x, y), abs=1e-10
            )

    def test_degrees_of_freedom(self):
        rng = np.random.default_rng(17)
        x = fm(rng.standard_normal((20, 3)))
        y = fm(rng.standard_normal((20, 3)))
        res = dcor_ttest(x, y)
        assert res.degrees_of_freedom == 20 * 17 // 2 - 1

    def test_pvalue_is_upper_tail(self):
        rng = np.random.default_rng(18)
        x = fm(rng.standard_normal((15, 3)))
        y = fm(rng.standard_normal((15, 3)))
        res = dcor_ttest(x, y)
        expected = scipy.stats.t.sf(res.t_statistic, df=res.degrees_of_freedom)
        assert res.p_value == pytest.approx(float(expected), rel=1e-12)

    def test_requires_n4(self):
        rng = np.random.default_rng(19)
        x = fm(rng.standard_normal((3, 2)))
        with pytest.raises(ValueError, match="n >= 4"):
            dcor_ttest(x, x)

    def test_constant_features_degenerate(self):
        y = fm(np.random.default_rng(19).standard_normal((6, 2)))
        with pytest.raises(ValueError, match=r"degenerate U-centered matrix \(constant features\)"):
            dcor_ttest(fm(np.ones((6, 3))), y)

    @pytest.mark.parametrize("n", [4, 5, 13, 16, 37, 256])
    def test_same_bits_as_the_written_out_formula(self, n):
        # 4, 5, 13 and 37 rows are padded for the Gram product; 16 and 256 are not.
        rng = np.random.default_rng(60 + n)
        x = rng.standard_normal((n, 6))
        y = fm(x[:, :3] + rng.standard_normal((n, 3)))
        res = dcor_ttest(fm(x), y)
        r, t, p = dcor_reference(fm(x), y)
        assert (res.bias_corrected_r, res.t_statistic) == (r, t)
        # The reference's p is scipy's stdtr; dcor_ttest's own tail agrees to rounding.
        assert res.p_value == pytest.approx(p, rel=1e-12)

    @pytest.mark.parametrize("n", [4, 5, 6, 10, 20, 150, 2000])
    def test_t_tail_matches_stdtr(self, n):
        # The degrees of freedom of the dCor t-test at n subjects.  t = 10.4 at
        # n = 150 is near the benchmark's report-desk dCor, whose p is ~1e-25.
        df = n * (n - 3) // 2 - 1
        for t in (0.0, 1e-3, -1e-3, 1.0, -1.0, 5.0, -5.0, 10.4, 60.0, -60.0,
                  math.inf, -math.inf):
            got, want = inference._t_upper_tail(df, t), float(scipy.special.stdtr(df, -t))
            if want >= 1e-300:
                assert got == pytest.approx(want, rel=1e-12), (df, t)
            else:
                assert 0.0 <= got <= 1e-300, (df, t)

    def test_t_tail_at_the_ends(self):
        assert inference._t_upper_tail(1, 0.0) == 0.5
        assert inference._t_upper_tail(1, 1e-200) == 0.5
        assert inference._t_upper_tail(7, math.inf) == 0.0
        assert inference._t_upper_tail(7, -math.inf) == 1.0
        assert math.isnan(inference._t_upper_tail(7, math.nan))
        # Cauchy (df 1): P(T > t) = atan(1 / t) / pi, about 1 / (pi t) far out,
        # where t^2 overflows.
        assert inference._t_upper_tail(1, 1e200) == pytest.approx(1 / (math.pi * 1e200),
                                                                   rel=1e-12)
        assert inference._t_upper_tail(1, -1e200) == 1.0

    def test_every_distance_matrix_check_runs(self, monkeypatch):
        built = []
        build = inference.distance_matrix
        monkeypatch.setattr(inference, "distance_matrix",
                            lambda m, metric: built.append(build(m, metric)) or built[-1])
        x = fm(np.random.default_rng(21).standard_normal((7, 3)))
        dcor_ttest(x, x)
        assert [(type(d), d.metric_tag, d.n_subjects) for d in built] == [
            (DistanceMatrix, "euclidean", 7)] * 2
        # Rows scaled by 1e200 overflow the Gram product, on purpose.
        with np.errstate(over="ignore", invalid="ignore"):
            for pair in ((fm(1e200 * x.data), x), (x, fm(1e200 * x.data))):
                with pytest.raises(ValueError,
                                   match="distance matrix contains non-finite entries"):
                    dcor_ttest(*pair)


class TestSubsampleCi:
    def test_ratio_one_degenerate_interval(self):
        ds, _ = gen_shared_latent(20, 5, 5, 0.7, seed=20)
        for method in ("root", "percentile"):
            ci = subsample_ci(*both_distances(ds), ratio=1.0, b=20, seed=1, method=method)
            assert ci.upper - ci.lower <= 1e-12
            assert ci.lower == pytest.approx(ci.point_estimate, abs=1e-12)

    def test_reproducible_across_threads(self):
        ds, _ = gen_shared_latent(30, 6, 6, 0.6, seed=21)
        dx, dy = both_distances(ds)
        a = subsample_ci(dx, dy, ratio=0.5, b=40, seed=3, threads=1)
        b = subsample_ci(dx, dy, ratio=0.5, b=40, seed=3, threads=4)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_interval_brackets_point_estimate(self):
        ds, _ = gen_shared_latent(60, 8, 8, 0.7, seed=22)
        ci = subsample_ci(*both_distances(ds), ratio=0.3, b=300, seed=5)
        assert ci.lower <= ci.point_estimate <= ci.upper

    def test_small_ratio_rejected(self):
        ds, _ = gen_shared_latent(20, 5, 5, 0.5, seed=23)
        with pytest.raises(ValueError, match="< 4"):
            subsample_ci(*both_distances(ds), ratio=0.1, b=10, seed=0)

    def test_all_degenerate_rejected(self):
        # Every x distance is 1 but the one between s0 and s1, so a draw of
        # 4 of 40 subjects has a constant x triangle unless it holds both
        # (probability 1/130).
        dx, dy = random_distance_pair(40, seed=8)
        ones = np.ones((40, 40)) - np.eye(40)
        ones[0, 1] = ones[1, 0] = 2.0
        const = DistanceMatrix(ones, "euclidean", dx.subject_ids)
        with pytest.raises(ValueError, match="all subsample replicates degenerate"):
            subsample_ci(const, dy, ratio=0.1, b=2, seed=0)

    def test_percentile_method(self):
        ds, _ = gen_shared_latent(40, 6, 6, 0.8, seed=24)
        ci = subsample_ci(*both_distances(ds), ratio=0.4, b=200, seed=7, method="percentile")
        assert ci.method == "percentile"
        assert ci.lower < ci.upper


class TestBootstrap:
    def test_all_identical_resample_recorded_missing(self):
        ds, _ = gen_shared_latent(4, 5, 5, 0.5, seed=25)
        res = bootstrap_distribution(*both_distances(ds), b=400, seed=2)
        # find replicates that drew a constant index vector
        found_constant = False
        for i, idx in enumerate(replicate_draws(4, 400, 2, STREAM_BOOTSTRAP, replace=True)):
            if len(set(idx.tolist())) == 1:
                assert math.isnan(res.replicates[i])
                found_constant = True
        assert found_constant, "no constant resample drawn; adjust b or seed"
        assert res.n_degenerate >= 1

    def test_upward_bias_on_planted_dependence(self):
        ds, _ = gen_shared_latent(100, 12, 12, 0.8, seed=26)
        res = bootstrap_distribution(*both_distances(ds), b=300, seed=3)
        assert res.valid.mean() > res.observed

    def test_subsampling_not_systematically_above(self):
        ds, _ = gen_shared_latent(100, 12, 12, 0.8, seed=26)
        dmx, dmy = both_distances(ds)
        ci = subsample_ci(dmx, dmy, ratio=0.5, b=300, seed=3)
        reps = ci.replicates
        se = reps.std(ddof=1) / math.sqrt(reps.size)
        assert reps.mean() - ci.point_estimate <= 2 * se


def tiled_cross_product(x, cy, s):
    """The permutation kernel's arithmetic, written as a two-index gather:
    rows cut into tiles of max(1, _TILE_BYTES // (8n)) rows, each tile's
    einsum of x[s[i], s[j]] against cy (zero where j <= i) over columns
    a..n-1, tile sums added in order."""
    n = x.shape[0]
    rows = max(1, inference._TILE_BYTES // (8 * n))
    iu, ju = np.triu_indices(n, 1)
    total = 0.0
    for a in range(0, n - 1, rows):
        e = min(a + rows, n)
        tile = np.zeros((e - a, n - a))
        in_tile = (iu >= a) & (iu < e)
        tile[iu[in_tile] - a, ju[in_tile] - a] = cy[in_tile]
        total += float(np.einsum("ij,ij->", x[s[a:e, None], s[None, a:]], tile))
    return total


def exact_pearson(a, b):
    """Pearson correlation from centered sums taken with math.fsum; NaN if a
    side is constant."""
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        return math.nan
    ca = a - math.fsum(a) / a.size
    cb = b - math.fsum(b) / b.size
    return math.fsum(ca * cb) / math.sqrt(math.fsum(ca * ca) * math.fsum(cb * cb))


def all_replicates(dx, dy, b, seed, threads=1, ratio=0.5):
    """Replicate values of the three procedures, as one bytes string each."""
    return (
        permutation_test(dx, dy, b=b, seed=seed, threads=threads).null_samples.tobytes(),
        subsample_ci(dx, dy, ratio=ratio, b=b, seed=seed, threads=threads).replicates.tobytes(),
        bootstrap_distribution(dx, dy, b=b, seed=seed, threads=threads).replicates.tobytes(),
    )


class TestReplicateEngine:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 40), rows=st.integers(1, 6), extra=st.integers(1, 8),
           m_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
           data_seed=st.integers(0, 999))
    def test_replicates_match_two_index_reference(self, n, rows, extra, m_frac, seed, data_seed):
        # A block budget of `rows` draws makes b cross at least one block
        # boundary; each replicate is rebuilt from the engine's own draws
        # with a two-index gather, and the default budget (one block here)
        # gives the same bytes.
        b = rows + extra
        m = 4 + round(m_frac * (n - 4))
        dx, dy = random_distance_pair(n, seed=data_seed)
        _, _, denom = _observed_statistic(dx, dy)
        cy = upper_triangle(dy)
        cy -= cy.mean()
        with mock.patch.object(inference, "_BLOCK_BYTES", 8 * n * rows):
            blocks = all_replicates(dx, dy, b, seed, ratio=m / n)
            perm_draws = replicate_draws(n, b, seed, STREAM_PERMUTATION)
            sub_draws = replicate_draws(n, b, seed, STREAM_SUBSAMPLE)[:, :m]
            boot_draws = replicate_draws(n, b, seed, STREAM_BOOTSTRAP, replace=True)
        assert all_replicates(dx, dy, b, seed, ratio=m / n) == blocks

        def centered(s):
            iu, ju = np.triu_indices(n, 1)
            px = dx.data[s[iu], s[ju]]
            return float((px - px.mean()) @ cy) / denom

        def pearson(s):
            iu, ju = np.triu_indices(s.size, 1)
            return pearson_or_nan(dx.data[s[iu], s[ju]], dy.data[s[iu], s[ju]])

        perm = np.array([tiled_cross_product(dx.data, cy, s) / denom for s in perm_draws])
        assert blocks == (
            perm.tobytes(),
            np.array([pearson(s) for s in sub_draws]).tobytes(),
            np.array([pearson(s) for s in boot_draws]).tobytes(),
        )
        # 1e-12 relative to the statistic's range [-1, 1]: a null value near 0
        # carries the rounding of sums whose terms are far larger than it.
        np.testing.assert_allclose(perm, [centered(s) for s in perm_draws], rtol=1e-12,
                                   atol=1e-12)
        assert all(np.array_equal(np.sort(s), np.arange(n)) for s in perm_draws)

    @pytest.mark.parametrize("n, tiles", [(3, 1), (4, 1), (5, 1), (7, 1), (40, 1),
                                          (300, 2), (300, 3), (300, 4), (300, 5)])
    def test_cross_product_matches_exact_sums(self, n, tiles):
        # Rows per tile chosen so that the n - 1 rows with pairs make `tiles`
        # tiles; the reference sums with math.fsum.
        rows = math.ceil((n - 1) / tiles)
        budget = 8 * n * rows if tiles > 1 else inference._TILE_BYTES
        dx, dy = random_distance_pair(n, seed=40 + n + tiles)
        cy = upper_triangle(dy)
        cy -= cy.mean()
        iu, ju = np.triu_indices(n, 1)
        with mock.patch.object(inference, "_TILE_BYTES", budget):
            assert len(range(0, n - 1, max(1, inference._TILE_BYTES // (8 * n)))) == tiles
            observed, gamma, denom = _observed_statistic(dx, dy)
            null = permutation_test(dx, dy, b=20, seed=n).null_samples
            draws = replicate_draws(n, 20, n, STREAM_PERMUTATION)
            tiled = [tiled_cross_product(dx.data, cy, s) / denom for s in draws]
        assert gamma(np.arange(n)[None])[0] / denom == observed
        assert null.tolist() == tiled
        for s, value in zip(draws, null):
            terms = dx.data[s[iu], s[ju]] * cy
            exact = math.fsum(terms)
            assert abs(gamma(s[None])[0] - exact) <= 1e-12 * math.fsum(np.abs(terms))
            assert value == gamma(s[None])[0] / denom
            cx = dx.data[s[iu], s[ju]] - math.fsum(upper_triangle(dx)) / iu.size
            ref = math.fsum(cx * cy) / math.sqrt(math.fsum(cx * cx) * math.fsum(cy * cy))
            assert value == pytest.approx(ref, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("tiles", [3, 4, 5])
    def test_block_heights_meet_many_tiles(self, tiles):
        # The kernel runs the tiles on the outside and a block's draws on the
        # inside, each draw into its own accumulator.  Blocks of 1, 2 and 7
        # draws, with b = 16 crossing their boundaries, at 1 and 2 threads,
        # must each give the two-index reference's values bit for bit.
        n, b = 300, 16
        rows = math.ceil((n - 1) / tiles)
        dx, dy = random_distance_pair(n, seed=60 + tiles)
        cy = upper_triangle(dy)
        cy -= cy.mean()
        draws = replicate_draws(n, b, tiles, STREAM_PERMUTATION)
        with mock.patch.object(inference, "_TILE_BYTES", 8 * n * rows):
            assert len(range(0, n - 1, max(1, inference._TILE_BYTES // (8 * n)))) == tiles
            _, _, denom = _observed_statistic(dx, dy)
            expected = [tiled_cross_product(dx.data, cy, s) / denom for s in draws]
            for height in (1, 2, 7):
                with mock.patch.object(inference, "_BLOCK_BYTES", 8 * n * height):
                    for threads in (1, 2):
                        null = permutation_test(dx, dy, b=b, seed=tiles, threads=threads)
                        assert null.null_samples.tolist() == expected, (height, threads)

    @pytest.mark.parametrize("n, tiles", [(180, 1), (181, 1), (182, 2)])
    def test_one_tile_path_at_the_switch(self, n, tiles):
        # At the default tile budget n <= 181 makes one tile, which the
        # kernel gathers through dx's transpose, and n = 182 makes two.  dx
        # is symmetric only within 1e-12, so a gather that read dx[j, i] for
        # dx[i, j] would miss the reference's bits.
        dx, dy = nearly_symmetric_pair(n, seed=n)
        cy = upper_triangle(dy)
        cy -= cy.mean()
        assert len(range(0, n - 1, max(1, inference._TILE_BYTES // (8 * n)))) == tiles
        observed, gamma, denom = _observed_statistic(dx, dy)
        null = permutation_test(dx, dy, b=24, seed=n).null_samples
        draws = replicate_draws(n, 24, n, STREAM_PERMUTATION)
        assert gamma(np.arange(n)[None])[0] / denom == observed
        assert null.tolist() == [tiled_cross_product(dx.data, cy, s) / denom for s in draws]
        assert null.tolist() != [tiled_cross_product(dx.data.T, cy, s) / denom for s in draws]

    def test_one_tile_buffers_belong_to_each_call(self):
        # n = 150 is one tile.  Blocks of 1, 2 and 7 draws, with b = 200
        # crossing their boundaries, at 1, 2 and 8 threads, give the same
        # bytes as the two-index reference: no call reads another's buffers.
        # A short switch interval and runs of many draws let the threads
        # interleave between a draw's gather and its einsum: a kernel whose
        # calls shared one pair of buffers failed here in each of 9 runs.
        n, b = 150, 200
        dx, dy = nearly_symmetric_pair(n, seed=41)
        cy = upper_triangle(dy)
        cy -= cy.mean()
        _, _, denom = _observed_statistic(dx, dy)
        draws = replicate_draws(n, b, 4, STREAM_PERMUTATION)
        expected = np.array([tiled_cross_product(dx.data, cy, s) / denom for s in draws])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for height in (1, 2, 7):
                with mock.patch.object(inference, "_BLOCK_BYTES", 8 * n * height):
                    for threads in (1, 2, 8):
                        null = permutation_test(dx, dy, b=b, seed=4, threads=threads)
                        assert null.null_samples.tobytes() == expected.tobytes(), (height,
                                                                                   threads)
        finally:
            sys.setswitchinterval(interval)

    def test_same_bytes_at_any_thread_count(self):
        # Permutation blocks of 218 draws (n = 150 raw words each) and
        # subsample blocks of 86 (K = 190 pairs of m = 20 subjects); b runs
        # across the boundaries of both.
        dx, dy = random_distance_pair(150, seed=31)
        rows = inference._BLOCK_BYTES // (8 * 150)
        pair_rows = inference._BLOCK_BYTES // (16 * 190)
        assert (rows, pair_rows) == (218, 86)
        for b in (pair_rows + 1, rows - 1, rows, rows + 1, 2 * rows + 3):
            serial = all_replicates(dx, dy, b, seed=5, ratio=0.135)
            for threads in (2, 8):
                assert all_replicates(dx, dy, b, seed=5, threads=threads, ratio=0.135) == serial

    def test_same_bytes_at_any_chunk_height(self):
        # Blocks of 1, 2 and 3 draws of each statistic, so b = 11 crosses
        # several block boundaries, against the default height (one block)
        # and pearson_or_nan.  In dy the subjects 0..2 sit 2 apart and every
        # other pair 1 apart, so a subsample holding fewer than two of them
        # has a constant y triangle and the value NaN.
        n, m, b, seed = 9, 4, 11, 7
        dx, _ = random_distance_pair(n, seed=33)
        far = np.zeros((n, n), dtype=bool)
        far[:3, :3] = True
        dy = DistanceMatrix(np.where(np.eye(n, dtype=bool), 0.0, np.where(far, 2.0, 1.0)),
                            "euclidean", dx.subject_ids)

        def values():
            return (subsample_ci(dx, dy, ratio=m / n, b=b, seed=seed).replicates.tobytes(),
                    bootstrap_distribution(dx, dy, b=b, seed=seed).replicates.tobytes())

        def pearson(s):
            iu, ju = np.triu_indices(s.size, 1)
            return pearson_or_nan(dx.data[s[iu], s[ju]], dy.data[s[iu], s[ju]])

        expected = values()
        sub_draws = replicate_draws(n, b, seed, STREAM_SUBSAMPLE)[:, :m]
        boot_draws = replicate_draws(n, b, seed, STREAM_BOOTSTRAP, replace=True)
        for pairs in (m * (m - 1) // 2, n * (n - 1) // 2):
            for rows in (1, 2, 3):
                with mock.patch.object(inference, "_BLOCK_BYTES", 16 * pairs * rows):
                    assert values() == expected
        sub = np.array([pearson(s) for s in sub_draws])
        assert 2 <= np.isnan(sub).sum() <= b - 2
        assert expected == (sub.tobytes(),
                            np.array([pearson(s) for s in boot_draws]).tobytes())

    @pytest.mark.parametrize("k", [3, 25, 703, 11175])
    def test_pearson_kernel_matches_exact_sums(self, k):
        # pearson_rows on a (rows, 2, K) stack and pearson_or_nan on each
        # of its pairs, against centered sums taken with math.fsum.  Rows 0-4
        # are scaled 1e-3..1e3 around offsets of up to 100 spreads; row 5 has
        # a constant first side and row 6 a constant second side: NaN.
        rng = np.random.default_rng(k)
        rows = rng.standard_normal((7, 2, k))
        rows[:5, 1] += rng.uniform(-1.0, 1.0, (5, 1)) * rows[:5, 0]
        rows[:5] *= 10.0 ** rng.uniform(-3.0, 3.0, (5, 2, 1))
        rows[:5] += rng.uniform(-100.0, 100.0, (5, 2, 1)) * rows[:5].std(axis=2, keepdims=True)
        rows[5, 0], rows[6, 1] = 2.0, 0.0
        expected = [exact_pearson(a, b) for a, b in rows]
        assert np.isnan(expected[5:]).all() and not np.isnan(expected[:5]).any()
        singles = [pearson_or_nan(a, b) for a, b in rows]
        got = pearson_rows(rows.copy())
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(singles, expected, rtol=1e-12, atol=1e-12)

    def test_pair_statistic_matches_exact_sums(self):
        # Subsample and bootstrap replicates against math.fsum sums over the
        # gathered pairs; dy as in test_same_bytes_at_any_chunk_height, so
        # some subsamples have a constant y triangle and the value NaN.
        n, m, b, seed = 30, 6, 40, 3
        dx, _ = random_distance_pair(n, seed=35)
        far = np.zeros((n, n), dtype=bool)
        far[:3, :3] = True
        dy = DistanceMatrix(np.where(np.eye(n, dtype=bool), 0.0, np.where(far, 2.0, 1.0)),
                            "euclidean", dx.subject_ids)
        sub = subsample_ci(dx, dy, ratio=m / n, b=b, seed=seed).replicates
        boot = bootstrap_distribution(dx, dy, b=b, seed=seed).replicates
        sub_draws = replicate_draws(n, b, seed, STREAM_SUBSAMPLE)[:, :m]
        boot_draws = replicate_draws(n, b, seed, STREAM_BOOTSTRAP, replace=True)
        for values, draws in ((sub, sub_draws), (boot, boot_draws)):
            iu, ju = np.triu_indices(draws.shape[1], 1)
            expected = [exact_pearson(dx.data[s[iu], s[ju]], dy.data[s[iu], s[ju]])
                        for s in draws]
            np.testing.assert_allclose(values, expected, rtol=1e-12, atol=1e-12)
        assert 2 <= np.isnan(sub).sum() <= b - 2

    def test_wide_triangles_same_bytes_at_one_and_two_blas_threads(self):
        # 150 of 160 subjects give 11,175 subsample pairs, and all 160 give
        # 12,720 bootstrap pairs: above the 10,000 entries past which
        # OpenBLAS splits one dot product across its threads.  Each child
        # checks blocks of 1 draw (the default here), 2 and 3 draws against
        # pearson_or_nan and prints the bytes.
        code = """if True:
            from unittest import mock
            import numpy as np
            from hdpaired import inference
            from hdpaired._util import STREAM_BOOTSTRAP, STREAM_SUBSAMPLE, pearson_or_nan
            from hdpaired.distances import distance_matrix
            from hdpaired.matrixio import FeatureMatrix
            n, b, seed = 160, 4, 9
            rng = np.random.default_rng(34)
            ids = tuple(f"s{i}" for i in range(n))
            dx = distance_matrix(FeatureMatrix(rng.standard_normal((n, 8)), ids),
                                 "scaled_euclidean")
            dy = distance_matrix(FeatureMatrix(rng.standard_normal((n, 6)), ids),
                                 "pearson_correlation_distance")
            for stream, m, replace in ((STREAM_SUBSAMPLE, 150, False),
                                       (STREAM_BOOTSTRAP, n, True)):
                draws = inference._replicates(lambda s: s, n, b, seed, stream,
                                              replace=replace)[:, :m]
                iu, ju = np.triu_indices(m, 1)
                ref = np.array([pearson_or_nan(dx.data[s[iu], s[ju]], dy.data[s[iu], s[ju]])
                                for s in draws])
                for rows in (1, 2, 3):
                    with mock.patch.object(inference, "_BLOCK_BYTES", 16 * iu.size * rows):
                        if replace:
                            got = inference.bootstrap_distribution(dx, dy, b=b, seed=seed)
                        else:
                            got = inference.subsample_ci(dx, dy, ratio=m / n, b=b, seed=seed)
                    assert got.replicates.tobytes() == ref.tobytes()
                print(ref.tobytes().hex())
        """
        outputs = []
        for blas in ("1", "2"):
            env = dict(_child_env(), OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas)
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] and len(outputs[0].split()) == 2

    def test_permutations_match_the_stable_sort_on_tied_words(self):
        # A draw is the stable argsort of the words' top 64 - 6 bits at
        # n = 40: words that agree there keep their index order, whatever
        # their low bits.  The reference is built before `_permutations`
        # overwrites its block.
        rng = np.random.default_rng(35)
        raw = rng.integers(0, 2**64, size=(6, 40), dtype=np.uint64)
        raw[1, 7] = raw[1, 30]  # one repeated word
        raw[2] = rng.integers(0, 3, size=40)  # equal top bits, low bits in {0, 1, 2}
        raw[3] = 12345  # all equal
        raw[4, ::2] = raw[4, 1::2]  # every word twice
        keys = raw >> np.uint64(6)
        got = _permutations(raw.copy())
        assert got.dtype == np.intp
        assert np.array_equal(got, keys.argsort(axis=1, kind="stable"))
        assert np.array_equal(got[2], np.arange(40)) and np.array_equal(got[3], np.arange(40))
        assert not np.array_equal(got[2], raw[2].argsort(kind="stable"))
        assert list(got[1]).index(7) < list(got[1]).index(30)

    @pytest.mark.parametrize("n", [3, 4, 5, 128, 129, 2048, 2049])
    def test_draws_are_permutations_where_the_key_width_changes(self, n):
        # (n - 1).bit_length() low bits of each word hold its index: 2 bits
        # at n = 3 and 4, 3 at n = 5, 7 at n = 128, 8 at n = 129, 11 at
        # n = 2048 and 12 at n = 2049.
        b = (n - 1).bit_length()
        for stream in (STREAM_PERMUTATION, STREAM_SUBSAMPLE):
            draws = replicate_draws(n, 5, 9, stream)
            raw = replicate_rng(9, stream).bit_generator.random_raw((5, n))
            assert np.array_equal(draws, (raw >> np.uint64(b)).argsort(axis=1, kind="stable"))
            assert all(np.array_equal(np.sort(s), np.arange(n)) for s in draws)
        # Words that share their top 64 - b bits come out in index order,
        # whatever their low b bits.
        low = np.random.default_rng(n).integers(0, 2**b, size=(2, n), dtype=np.uint64)
        assert np.array_equal(_permutations(low | np.uint64(0xABCD << 40)),
                              np.tile(np.arange(n), (2, 1)))

    @pytest.mark.parametrize("n", [4, 150, 2000])
    def test_draws_are_stable_argsorts_of_the_raw_words(self, n):
        # b crosses a block boundary at n=2000 (65 draws per block).
        b = 70
        raw = replicate_rng(8, STREAM_PERMUTATION).bit_generator.random_raw((b, n))
        assert np.array_equal(replicate_draws(n, b, 8, STREAM_PERMUTATION),
                              raw.argsort(axis=1, kind="stable"))

    def test_replicates_are_a_prefix_of_a_longer_run(self):
        # At n=300 a block holds 436 replicates: b=300 is one short block,
        # b=1000 two full blocks and a short one.
        dx, dy = random_distance_pair(300, seed=32)
        short = all_replicates(dx, dy, 300, seed=6)
        long = all_replicates(dx, dy, 1000, seed=6)
        for a, c in zip(short, long):
            assert a == c[: len(a)]
        for stream, replace in ((STREAM_PERMUTATION, False), (STREAM_BOOTSTRAP, True)):
            head = replicate_draws(300, 300, 6, stream, replace)
            assert np.array_equal(head, replicate_draws(300, 1000, 6, stream, replace)[:300])


def traced_peak(fn) -> int:
    """Peak bytes numpy and Python allocate during fn(), after one warm-up
    call (numpy reports its buffers to tracemalloc)."""
    fn()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


class TestWorkingSet:
    """Peak allocations in units of one n x n float array, at n=256 and at
    n=250, where the Gram product is padded to 256 rows."""

    @pytest.mark.parametrize("n", [256, 250])
    def test_dcor_holds_two_matrices(self, n):
        rng = np.random.default_rng(n)
        x, y = fm(rng.standard_normal((n, 8))), fm(rng.standard_normal((n, 6)))
        assert traced_peak(lambda: dcor_ttest(x, y)) <= 2.75 * 8 * n * n

    @pytest.mark.parametrize("n", [256, 250])
    def test_replicate_setup_holds_one_triangle(self, n):
        dx, dy = random_distance_pair(n, seed=n)
        assert traced_peak(lambda: permutation_test(dx, dy, b=1)) <= 2.0 * 8 * n * n
        assert traced_peak(lambda: subsample_ci(dx, dy, b=2)) <= 2.0 * 8 * n * n

    @pytest.mark.parametrize("n", [256, 250])
    def test_pair_statistic_blocks_sized_by_its_bytes(self, n):
        # A draw of all n subjects stacks 16 * n(n-1)/2 bytes, above the
        # block budget, so each block holds one draw (a peak of about 2.5
        # arrays); blocks sized by the raw words alone would take all 8
        # draws at once (about 17).
        dx, dy = random_distance_pair(n, seed=n)
        for run in (lambda: bootstrap_distribution(dx, dy, b=8),
                    lambda: subsample_ci(dx, dy, ratio=1.0, b=8)):
            assert traced_peak(run) <= 3.0 * 8 * n * n
