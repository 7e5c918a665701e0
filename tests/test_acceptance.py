"""Acceptance suite: one test per exit criterion, each printing a PASS line
with the measured quantity (run with -s to see them inline).

Criteria use synthetic data with planted ground truth; every tolerance is
pinned in the assertion.  The heavy statistical criteria use fixed seeds,
so the whole suite is deterministic.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.stats

import hdpaired as hp
from hdpaired.distances import distance_matrix, upper_triangle
from hdpaired.inference import bootstrap_distribution, dcor_ttest, permutation_test, subsample_ci
from hdpaired.matrixio import FeatureMatrix
from hdpaired.model_selection import cv_grid_search, train_test_split
from hdpaired.scca import SccaParams, fit_cca, fit_scca
from hdpaired.subcluster import complete_linkage_merges
from hdpaired.synthgen import (
    gen_null,
    gen_shared_latent,
    gen_sparse_canonical_pair,
    shared_latent_population_r,
)

from oracles import (
    bilinear_bandpass_gain,
    brute_bias_corrected_dcor,
    brute_kendall_tau_b,
    brute_spearman,
    fit_sinusoid_amplitude,
    naive_complete_linkage_merges,
)

THREADS = 8


def report(num, name, detail, passed):
    print(f"[criterion {num:2d}] {name}: {detail} -> {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num} ({name}): {detail}"


def both_distances(ds):
    return (
        distance_matrix(ds.x, "scaled_euclidean"),
        distance_matrix(ds.y, "pearson_correlation_distance"),
    )


def test_criterion_01_null_calibration():
    start = time.time()
    pvals = []
    for rep in range(200):
        ds = gen_null(60, 200, 200, seed=1000 + rep)
        dx, dy = both_distances(ds)
        pvals.append(permutation_test(dx, dy, b=999, seed=rep, threads=THREADS).p_value)
    elapsed = time.time() - start
    ks = scipy.stats.kstest(pvals, "uniform")
    report(
        1,
        "null p-value calibration",
        f"KS p={ks.pvalue:.3f} (need > 0.01), runtime {elapsed:.0f}s (need < 300)",
        ks.pvalue > 0.01 and elapsed < 300.0,
    )


def test_criterion_02_power():
    rejections = 0
    for rep in range(100):
        ds, _ = gen_shared_latent(100, 12, 12, 0.8, seed=2000 + rep)
        dx, dy = both_distances(ds)
        res = permutation_test(dx, dy, b=999, seed=rep, threads=THREADS)
        rejections += res.p_value <= 0.01
    report(2, "planted-dependence power",
           f"{rejections}/100 rejections at alpha=0.01 (need >= 95)", rejections >= 95)


def test_criterion_03_dcor_oracle_and_unbiasedness():
    rng = np.random.default_rng(3)
    max_err = 0.0
    for rep in range(50):
        n = 4 + rep % 12
        p = int(rng.integers(2, 7))
        q = int(rng.integers(2, 7))
        x = rng.standard_normal((n, p))
        y = rng.standard_normal((n, q))
        ids = tuple(f"s{i}" for i in range(n))
        res = dcor_ttest(FeatureMatrix(x, ids), FeatureMatrix(y, ids))
        max_err = max(max_err, abs(res.bias_corrected_r - brute_bias_corrected_dcor(x, y)))
    vals = []
    for rep in range(2000):
        ds = gen_null(20, 3, 3, seed=3000 + rep)
        vals.append(dcor_ttest(ds.x, ds.y).bias_corrected_r)
    mean_null = float(np.mean(vals))
    report(
        3,
        "dCor brute-force equivalence and unbiasedness",
        f"max |r - oracle| = {max_err:.2e} (need <= 1e-10); "
        f"null mean r = {mean_null:+.4f} (need within +/-0.01)",
        max_err <= 1e-10 and abs(mean_null) <= 0.01,
    )


def test_criterion_04_subsampling_coverage():
    target = shared_latent_population_r(20, 20, 0.5, n_pairs=100_000, seed=7)
    covered = 0
    for rep in range(200):
        ds, _ = gen_shared_latent(150, 20, 20, 0.5, seed=4000 + rep)
        dx, dy = both_distances(ds)
        ci = subsample_ci(dx, dy, ratio=0.25, b=2000, level=0.95, seed=rep,
                          method="root", threads=THREADS)
        covered += ci.lower <= target <= ci.upper
    report(4, "subsampling CI coverage",
           f"population R = {target:.4f}; coverage {covered}/200 (need >= 180)",
           covered >= 180)


def test_criterion_05_bootstrap_upward_bias():
    ds, _ = gen_shared_latent(100, 12, 12, 0.8, seed=42)
    dx, dy = both_distances(ds)
    boot = bootstrap_distribution(dx, dy, b=500, seed=5)
    bvals = boot.valid
    se_boot = bvals.std(ddof=1) / math.sqrt(bvals.size)
    z_boot = (bvals.mean() - boot.observed) / se_boot
    ci = subsample_ci(dx, dy, ratio=0.5, b=500, seed=5)
    svals = ci.replicates[~np.isnan(ci.replicates)]
    se_sub = svals.std(ddof=1) / math.sqrt(svals.size)
    z_sub = (svals.mean() - ci.point_estimate) / se_sub
    report(
        5,
        "bootstrap biased up, subsampling not",
        f"bootstrap z = {z_boot:.1f} (need > 3); subsampling z = {z_sub:+.2f} (need <= 2)",
        z_boot > 3.0 and z_sub <= 2.0,
    )


def test_criterion_06_sparse_cca_recovery():
    ds, truth = gen_sparse_canonical_pair(150, 500, 500, 10, 10, 0.9, seed=1)
    x, y = ds.x.data, ds.y.data
    train, test = train_test_split(150, seed=1)
    # grid capped at sqrt(s)=sqrt(10), the l1 budget of a unit-l2 10-sparse
    # vector: the budget that exactly represents the planted scale
    grid = [SccaParams(c1=c, c2=c, max_iters=100, tol=1e-6)
            for c in (1.0, 1.4, 1.9, 2.5, math.sqrt(10))]
    rep = cv_grid_search(x[train], y[train], grid, k=5, seed=1,
                         x_test=x[test], y_test=y[test], threads=THREADS)

    def f1(selected, true):
        s, t = set(selected.tolist()), set(true.tolist())
        tp = len(s & t)
        return 2 * tp / (len(s) + len(t)) if tp else 0.0

    f1_u = f1(rep.model.support_u, truth.support_u)
    f1_v = f1(rep.model.support_v, truth.support_v)
    oracle = hp.canonical_correlation(x[test] @ truth.u_star, y[test] @ truth.v_star)
    gap = abs(rep.test_correlation - oracle)
    fit = rep.model.fit
    trace_ok = bool(np.all(np.diff(fit.objective_trace) >= -1e-10))
    xs = rep.model.transform_x(x[train])
    ys = rep.model.transform_y(y[train])
    c1, c2 = rep.selected
    violation = max(
        float(np.abs(fit.u).sum()) - c1,
        float(np.abs(fit.v).sum()) - c2,
        float(np.linalg.norm(fit.u)) - 1.0,
        float(np.linalg.norm(fit.v)) - 1.0,
        float(np.linalg.norm(xs @ fit.u)) - 1.0,
        float(np.linalg.norm(ys @ fit.v)) - 1.0,
    )
    report(
        6,
        "sparse CCA planted recovery",
        f"F1 = ({f1_u:.2f}, {f1_v:.2f}) (need >= 0.8); "
        f"|test {rep.test_correlation:.3f} - oracle {oracle:.3f}| = {gap:.3f} (need <= 0.1); "
        f"trace nondecreasing: {trace_ok}; max constraint violation = {violation:.1e} (need <= 1e-8)",
        min(f1_u, f1_v) >= 0.8 and gap <= 0.1 and trace_ok and violation <= 1e-8,
    )


def test_criterion_07_plain_cca_consistency():
    max_gap = 0.0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n, p, q = 60, 12, 9
        x, _ = np.linalg.qr(rng.standard_normal((n, p)))
        y, _ = np.linalg.qr(rng.standard_normal((n, q)))
        ref = fit_cca(x, y)
        fit = fit_scca(
            x, y, SccaParams(c1=math.sqrt(p), c2=math.sqrt(q), max_iters=3000, tol=1e-10)
        )
        max_gap = max(max_gap, abs(fit.objective - ref.objective))
    report(7, "plain-CCA consistency with inactive l1",
           f"max objective gap = {max_gap:.2e} (need <= 1e-4)", max_gap <= 1e-4)


def test_criterion_08_rank_correlation_oracles():
    rng = np.random.default_rng(8)
    max_err = 0.0
    for rep in range(30):
        n = int(rng.integers(5, 26))
        x = FeatureMatrix(rng.standard_normal((n, 4)), tuple(f"s{i}" for i in range(n)))
        y = FeatureMatrix(rng.standard_normal((n, 5)), tuple(f"s{i}" for i in range(n)))
        dx = distance_matrix(x, "scaled_euclidean")
        dy = distance_matrix(y, "pearson_correlation_distance")
        rho, tau = hp.rank_correlations(dx, dy)
        tx, ty = upper_triangle(dx), upper_triangle(dy)
        max_err = max(
            max_err,
            abs(rho - brute_spearman(tx, ty)),
            abs(tau - brute_kendall_tau_b(tx, ty)),
        )
    report(8, "Spearman/Kendall brute-force equivalence",
           f"max |stat - oracle| = {max_err:.2e} (need <= 1e-12)", max_err <= 1e-12)


def test_criterion_09_filter_behavior():
    from hdpaired.fcg import BandpassSpec, RoiTimeSeries, butterworth_bandpass

    fs = 1.0
    spec = BandpassSpec(fs=fs)
    const = RoiTimeSeries(np.full((840, 1), 2.5))
    out = butterworth_bandpass(const, spec)
    rms_in = 2.5
    rms_out = float(np.sqrt(np.mean(out.data**2)))
    rejection_db = math.inf if rms_out == 0 else 20.0 * math.log10(rms_in / rms_out)

    f0 = math.sqrt(0.08 * 0.15)
    t = np.arange(6000) / fs
    sig = np.sin(2 * np.pi * f0 * t)
    filtered = butterworth_bandpass(RoiTimeSeries(sig[:, None]), spec)
    measured = fit_sinusoid_amplitude(filtered.data[:, 0], f0, fs, skip=500)
    expected = bilinear_bandpass_gain(f0, 0.08, 0.15, fs) ** 2
    rel = abs(measured - expected) / expected
    report(
        9,
        "bandpass DC rejection and passband gain",
        f"DC rejection = {rejection_db:.0f} dB (need >= 120); "
        f"gain {measured:.4f} vs analytic {expected:.4f}, rel err {rel:.3%} (need <= 5%)",
        rejection_db >= 120.0 and rel <= 0.05,
    )


def test_criterion_10_clustering_oracle():
    rng = np.random.default_rng(10)
    mismatches = 0
    for rep in range(30):
        f = int(rng.integers(4, 13))
        if rep % 3 == 2:
            vals = rng.integers(1, 4, size=(f, f)).astype(float)  # forces ties
        else:
            pts = rng.standard_normal((f, 3))
            vals = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        d = np.triu(vals, 1)
        d = d + d.T
        if complete_linkage_merges(d) != naive_complete_linkage_merges(d):
            mismatches += 1
    report(10, "complete-linkage dendrogram oracle",
           f"{mismatches}/30 dendrogram mismatches (need 0)", mismatches == 0)


# ---------------------------------------------------------------------------
# criterion 11: byte-identical CLI re-runs at 1, 4 and 8 threads
# ---------------------------------------------------------------------------


def _child_env():
    """Environment for CLI subprocesses: the directory holding the imported
    `hdpaired` goes first on PYTHONPATH, as an absolute path, so the child
    runs the package under test whatever its cwd and whether or not
    `hdpaired` is installed.  Inherited entries follow it."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(hp.__file__)))
    inherited = os.environ.get("PYTHONPATH", "")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([package_root] + ([inherited] if inherited else []))
    return env


def _cli(args, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "hdpaired.cli"] + [str(a) for a in args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=_child_env(),
    )
    assert proc.returncode == 0, (
        f"CLI failed: {args}\n--- stdout ---\n{proc.stdout}\n--- stderr ---\n{proc.stderr}"
    )


def _snapshot(outdir):
    """Map of relative path -> bytes for all files under outdir."""
    out = {}
    for root, _, files in os.walk(outdir):
        for fname in files:
            path = os.path.join(root, fname)
            rel = os.path.relpath(path, outdir)
            with open(path, "rb") as f:
                out[rel] = f.read()
    return out


def _strip_config(snapshot):
    """Results-only view: drop the resolved-config block from JSON reports
    (it embeds the thread count) and keep other files byte-for-byte."""
    view = {}
    for rel, blob in snapshot.items():
        if rel.endswith(".json"):
            payload = json.loads(blob)
            payload.pop("config", None)
            view[rel] = json.dumps(payload, sort_keys=True)
        else:
            view[rel] = blob
    return view


def test_criterion_11_cli_determinism(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    synth = work / "synth"
    _cli(["synth", "latent", "--n", 24, "--p", 8, "--q", 8, "--strength", "0.8",
          "--seed", 3, "--out", synth], cwd=str(work))
    planted = work / "planted"
    _cli(["synth", "planted", "--n", 48, "--p", 20, "--q", 20, "--su", 3,
          "--sv", 3, "--rho", "0.9", "--seed", 4, "--out", planted], cwd=str(work))
    tsdir = work / "ts"
    tsdir.mkdir()
    rng = np.random.default_rng(0)
    for name in ("alpha", "beta"):
        ts = rng.standard_normal((120, 3))
        lines = ["r0,r1,r2"] + [",".join(repr(float(v)) for v in row) for row in ts]
        (tsdir / f"{name}.csv").write_text("\n".join(lines) + "\n")
        nu = rng.standard_normal((120, 2))
        lines = ["n0,n1"] + [",".join(repr(float(v)) for v in row) for row in nu]
        (tsdir / f"{name}.nuisance.csv").write_text("\n".join(lines) + "\n")
    grid = work / "grid.csv"
    grid.write_text("c1,c2\n1.2,1.2\n1.7,1.7\n")

    x, y = synth / "x.bin", synth / "y.bin"
    px, py = planted / "x.bin", planted / "y.bin"

    def commands(out, threads):
        fit_dir = out / "sccafit"
        return [
            (["synth", "latent", "--n", 24, "--p", 8, "--q", 8, "--strength",
              "0.8", "--seed", 3, "--out", out / "synth"], None),
            (["fcg", "--input", tsdir, "--fs", "1.0", "--out", out / "fcg"], None),
            (["dist", "--x", x, "--y", y, "--bins", 6, "--out", out / "dist"], None),
            (["infer", "perm", "--x", x, "--y", y, "--b", 64, "--seed", 1,
              "--threads", threads, "--dump-replicates", "--out", out / "perm"], None),
            (["infer", "dcor", "--x", x, "--y", y, "--out", out / "dcor"], None),
            (["infer", "subsample", "--x", x, "--y", y, "--b", 64, "--ratio", "0.5",
              "--seed", 1, "--threads", threads, "--out", out / "sub"], None),
            (["infer", "bootstrap", "--x", x, "--y", y, "--b", 64, "--seed", 1,
              "--threads", threads, "--dump-replicates", "--out", out / "boot"], None),
            (["scca", "fit", "--x", px, "--y", py, "--c1", "1.5", "--c2", "1.5",
              "--out", fit_dir], None),
            (["scca", "cv", "--x", px, "--y", py, "--grid-file", grid, "--k", 3,
              "--seed", 2, "--threads", threads, "--out", out / "cv"], None),
            (["scca", "eval", "--x", px, "--y", py, "--model", fit_dir / "model.json",
              "--out", out / "eval"], None),
            (["subcluster", "--x", px, "--y", py, "--model", fit_dir / "model.json",
              "--k", 2, "--top", 2, "--out", out / "subcl"], None),
            (["report", "--x", x, "--y", y, "--b", 64, "--ratio", "0.5", "--seed", 1,
              "--threads", threads, "--out", out / "report"], None),
        ]

    # All runs write to the same directory so re-runs use an identical
    # resolved config (paths included); the directory is wiped in between.
    base = tmp_path / "run"
    snapshots = {}
    for threads in (1, 4, 8):
        runs = []
        for _attempt in range(2):
            if base.exists():
                shutil.rmtree(base)
            for args, _ in commands(base, threads):
                _cli(args, cwd=str(work))
            runs.append(_snapshot(base))
        assert runs[0] == runs[1], f"re-run at {threads} threads not byte-identical"
        snapshots[threads] = runs[0]

    across = {t: _strip_config(s) for t, s in snapshots.items()}
    set_diffs = [
        f"{t} threads: only at 1 {sorted(across[1].keys() - across[t].keys())}, "
        f"only at {t} {sorted(across[t].keys() - across[1].keys())}"
        for t in (4, 8)
        if across[t].keys() != across[1].keys()
    ]
    ok_rerun = not set_diffs and all(
        across[1][rel] == across[t][rel] for t in (4, 8) for rel in across[1]
    )
    detail = "re-runs byte-identical at 1/4/8 threads; results identical across thread counts"
    if set_diffs:
        detail = "output file sets differ across thread counts: " + "; ".join(set_diffs)
    report(11, "CLI determinism", detail, ok_rerun)
