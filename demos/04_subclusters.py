"""Subcluster decomposition of selected features.

After a sparse-CCA fit, the selected columns of each modality are
clustered by complete-linkage agglomeration under that modality's own
distance, and all cross-modality cluster pairs are ranked by their
unregularized canonical correlation.
"""

import math

import hdpaired as hp
from hdpaired.model_selection import cv_grid_search

ds, truth = hp.gen_sparse_canonical_pair(120, 120, 120, 8, 8, rho=0.9, seed=3)
x, y = ds.x.data, ds.y.data

grid = [hp.SccaParams(c1=c, c2=c, max_iters=100, tol=1e-6)
        for c in (1.2, 1.8, 2.4, math.sqrt(8))]
report = cv_grid_search(x, y, grid, k=5, seed=3)
model = report.model
sel_u, sel_v = model.support_u, model.support_v
print(f"selected features: {sel_u.size} (x side), {sel_v.size} (y side)")

k = 3
cx, cy, ranking = hp.subcluster_model(x, y, model, k, "scaled_euclidean",
                                      "pearson_correlation_distance")
for tag, clust in (("x", cx), ("y", cy)):
    sizes = [clust.members(lab).size for lab in range(1, k + 1)]
    print(f"{tag}-side clusters (complete linkage, k={k}): sizes {sizes}")

print("\nmost canonically correlated cluster pairs:")
for a, b, corr in ranking.pairs[:3]:
    print(f"  x-cluster {a} x y-cluster {b}: correlation {corr:.3f}")
print(f"(all {len(ranking.pairs)} nonempty pairs ranked; "
      f"{len(ranking.skipped)} skipped)")
