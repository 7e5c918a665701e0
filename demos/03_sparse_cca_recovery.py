"""Cross-validated sparse CCA on a planted sparse canonical pair.

Plants 10 active features per side among 500, runs the 5:1 train/test
split, 5-fold cross-validated grid search over the l1 bounds, refits at
the selected parameters, and scores the recovered supports against the
planted truth.
"""

import math

import hdpaired as hp

n, p, q, s = 150, 500, 500, 10
ds, truth = hp.gen_sparse_canonical_pair(n, p, q, s, s, rho=0.9, seed=1)
x, y = ds.x.data, ds.y.data

grid = [hp.SccaParams(c1=c, c2=c, max_iters=100, tol=1e-6)
        for c in (1.0, 1.4, 1.9, 2.5, math.sqrt(s))]
report, test_correlation, train, test = hp.scca_cv(ds.x, ds.y, grid, k=5, seed=1)
print(f"split: {train.size} train / {test.size} test subjects")

print("\ncross-validation surface (c, mean validation correlation):")
for (c1, _), mv in zip(report.grid, report.mean_validation):
    marker = " <- selected" if (c1, c1) == report.selected else ""
    print(f"  c = {c1:5.2f}: {mv:.3f}{marker}")

model = report.model
print(f"\nselected (c1, c2) = {report.selected}")
print(f"train correlation {report.train_correlation:.3f}, "
      f"test correlation {test_correlation:.3f}")

oracle = hp.canonical_correlation(x[test] @ truth.u_star, y[test] @ truth.v_star)
print(f"oracle projection correlation on test rows: {oracle:.3f}")


def f1(selected, true):
    s_sel, s_true = set(selected.tolist()), set(true.tolist())
    tp = len(s_sel & s_true)
    return 2 * tp / (len(s_sel) + len(s_true)) if tp else 0.0


print(f"\nsupport sizes: |u|_0 = {model.fit.support_u.size}, "
      f"|v|_0 = {model.fit.support_v.size} (planted {s} each)")
print(f"support F1 vs planted: u {f1(model.support_u, truth.support_u):.2f}, "
      f"v {f1(model.support_v, truth.support_v):.2f}")
