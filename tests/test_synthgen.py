import numpy as np
import pytest

from hdpaired.distances import distance_matrix
from hdpaired.inference import distance_pair_correlation, permutation_test
from hdpaired.synthgen import (
    PlantedTruth,
    gen_null,
    gen_shared_latent,
    gen_sparse_canonical_pair,
    shared_latent_population_r,
)


class TestGenNull:
    def test_shapes_and_ids(self):
        ds = gen_null(10, 5, 7, seed=0)
        assert ds.x.data.shape == (10, 5)
        assert ds.y.data.shape == (10, 7)
        assert ds.x.subject_ids == ds.y.subject_ids

    def test_bit_identical_per_seed(self):
        a = gen_null(8, 4, 4, seed=3)
        b = gen_null(8, 4, 4, seed=3)
        assert np.array_equal(a.x.data, b.x.data)
        assert np.array_equal(a.y.data, b.y.data)

    def test_mean_statistic_near_zero(self):
        vals = []
        for seed in range(120):
            ds = gen_null(40, 6, 6, seed=seed)
            dx = distance_matrix(ds.x, "scaled_euclidean")
            dy = distance_matrix(ds.y, "pearson_correlation_distance")
            vals.append(distance_pair_correlation(dx, dy))
        assert abs(np.mean(vals)) < 0.02


class TestGenSharedLatent:
    def test_strength_zero_matches_null_distribution(self):
        ds, truth = gen_shared_latent(12, 5, 6, 0.0, seed=4)
        assert truth.latent_correlation == 0.0
        # same marginal scale as the null generator
        assert abs(ds.x.data.std() - 1.0) < 0.1

    def test_rejection_power(self):
        rejections = 0
        for seed in range(25):
            ds, _ = gen_shared_latent(100, 12, 12, 0.8, seed=seed)
            dx = distance_matrix(ds.x, "scaled_euclidean")
            dy = distance_matrix(ds.y, "pearson_correlation_distance")
            res = permutation_test(dx, dy, b=199, seed=seed)
            rejections += res.p_value <= 0.01
        assert rejections >= 24

    def test_population_r_monotone_in_strength(self):
        r_mid = shared_latent_population_r(10, 10, 0.5, n_pairs=60000, seed=1)
        r_strong = shared_latent_population_r(10, 10, 0.8, n_pairs=60000, seed=1)
        assert r_mid < r_strong
        assert r_strong > 0.05

    def test_invalid_strength(self):
        with pytest.raises(ValueError, match="strength"):
            gen_shared_latent(10, 4, 4, 1.5, seed=0)


class TestGenSparseCanonicalPair:
    def test_supports_recorded_exactly(self):
        ds, truth = gen_sparse_canonical_pair(20, 50, 40, 5, 7, 0.8, seed=7)
        assert truth.support_u.size == 5
        assert truth.support_v.size == 7
        assert np.all(truth.u_star[truth.support_u] != 0)
        assert np.linalg.norm(truth.u_star) == pytest.approx(1.0)
        assert np.linalg.norm(truth.v_star) == pytest.approx(1.0)

    def test_oracle_projections_are_exact_latents(self):
        # noise is orthogonalized against the planted directions, so the
        # oracle projections recover the latent pair exactly
        ds, truth = gen_sparse_canonical_pair(30, 60, 60, 6, 6, 0.85, seed=8)
        sx = ds.x.data @ truth.u_star
        sy = ds.y.data @ truth.v_star
        # regenerate the latents through the same stream
        from hdpaired._util import STREAM_SYNTH_PLANTED, replicate_rng

        rng = replicate_rng(8, STREAM_SYNTH_PLANTED)
        z_x = rng.standard_normal(30)
        z_y = 0.85 * z_x + np.sqrt(1 - 0.85**2) * rng.standard_normal(30)
        np.testing.assert_allclose(sx, z_x, atol=1e-10)
        np.testing.assert_allclose(sy, z_y, atol=1e-10)

    def test_oracle_projection_correlation_approaches_rho(self):
        hits = 0
        for seed in range(20):
            ds, truth = gen_sparse_canonical_pair(150, 40, 40, 5, 5, 0.9, seed=seed)
            corr = np.corrcoef(ds.x.data @ truth.u_star, ds.y.data @ truth.v_star)[0, 1]
            hits += abs(corr - 0.9) <= 0.1
        assert hits >= 18

    def test_rho_zero_independent(self):
        ds, truth = gen_sparse_canonical_pair(200, 30, 30, 4, 4, 0.0, seed=9)
        corr = np.corrcoef(ds.x.data @ truth.u_star, ds.y.data @ truth.v_star)[0, 1]
        assert abs(corr) < 0.2

    def test_deterministic(self):
        a, ta = gen_sparse_canonical_pair(15, 20, 20, 3, 3, 0.5, seed=10)
        b, tb = gen_sparse_canonical_pair(15, 20, 20, 3, 3, 0.5, seed=10)
        assert np.array_equal(a.x.data, b.x.data)
        assert np.array_equal(ta.u_star, tb.u_star)

    def test_validation(self):
        with pytest.raises(ValueError, match="rho"):
            gen_sparse_canonical_pair(10, 5, 5, 2, 2, 1.0, seed=0)
        with pytest.raises(ValueError, match="supports"):
            gen_sparse_canonical_pair(10, 5, 5, 6, 2, 0.5, seed=0)


class TestPlantedTruth:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="kind"):
            PlantedTruth(kind="bogus", latent_correlation=0.5)

    def test_supports_unavailable_for_latent(self):
        _, truth = gen_shared_latent(10, 4, 4, 0.5, seed=11)
        with pytest.raises(ValueError, match="no planted supports"):
            truth.support_u
