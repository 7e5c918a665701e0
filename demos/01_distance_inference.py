"""Distance-based correlation inference on synthetic paired data.

Generates a dataset with a planted shared latent, builds the two
inter-subject distance matrices, and walks through the three inference
paths: permutation test, unbiased distance-correlation t-test, and the
subsampling confidence interval.  A bootstrap replicate distribution is
included to show why sampling WITH replacement is the wrong tool here.
"""

import numpy as np

import hdpaired as hp

n, p, q = 120, 15, 15
strength = 0.7

ds, truth = hp.gen_shared_latent(n, p, q, strength, seed=7)
print(f"dataset: n={n}, p={p}, q={q}, latent strength {strength}")

dx = hp.distance_matrix(ds.x, "scaled_euclidean")
dy = hp.distance_matrix(ds.y, "pearson_correlation_distance")

r = hp.distance_pair_correlation(dx, dy)
rho, tau = hp.rank_correlations(dx, dy)
print(f"\ndistance-pair correlation: {r:.4f}")
print(f"rank correlations: spearman {rho:.4f}, kendall {tau:.4f}")

perm = hp.permutation_test(dx, dy, b=9_999, seed=1)
print(f"\npermutation test ({perm.n_permutations} permutations):")
print(f"  p-value {perm.p_value:.5f} (smoothed {perm.p_value_smoothed:.5f})")

dcor = hp.dcor_ttest(ds.x, ds.y)
print("\nunbiased distance-correlation t-test:")
print(f"  bias-corrected r {dcor.bias_corrected_r:.4f}, "
      f"t {dcor.t_statistic:.2f} on {dcor.degrees_of_freedom} df, "
      f"p {dcor.p_value:.2e}")

ci = hp.subsample_ci(dx, dy, ratio=0.25, b=5_000, level=0.95, seed=2)
print(f"\nsubsampling 95% CI (ratio {ci.subsample_ratio}, {ci.n_subsamples} subsamples):")
print(f"  [{ci.lower:.4f}, {ci.upper:.4f}] around {ci.point_estimate:.4f}")

boot = hp.bootstrap_distribution(dx, dy, b=2_000, seed=3)
print("\nbootstrap comparison (NOT an inference path):")
print(f"  mean replicate {boot.valid.mean():.4f} vs observed {boot.observed:.4f} "
      f"-- duplicates zero out distances and push replicates upward")
print(f"  degenerate replicates: {boot.n_degenerate}")

target = hp.shared_latent_population_r(p, q, strength, n_pairs=200_000, seed=4)
print(f"\nMonte-Carlo population value for this generator: {target:.4f}")
print(f"covered by the CI: {ci.lower <= target <= ci.upper}")
