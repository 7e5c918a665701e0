"""The benchmark's workloads: seeded inputs, the CLI chain, and output checks.

Each workload is a chain of real ``hdpaired`` CLI commands.  Inputs are a
pure function of the seed and the size ("full" for measurement, "tiny" for
warm-up and the self-tests); the program only ever sees the generated files.
Checks read the outputs with plain numpy and never call into ``hdpaired``,
so a wrong result cannot vouch for itself.
"""

from __future__ import annotations

import json
import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# A check is (name, passed, detail).
Check = tuple[str, bool, str]
Chain = list[tuple[str, list[str]]]

# Significance level at which a planted dependence counts as detected.
ALPHA = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[Path, int, str], None]
    chain: Callable[[Path, Path, int, str], Chain]
    check: Callable[[Path, Path, str], list[Check]]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _cli(*args) -> list[str]:
    return [str(a) for a in args]


def read_bin(path: Path) -> tuple[np.ndarray, list[str]]:
    """Reads the binary matrix format independently of the package."""
    blob = Path(path).read_bytes()
    if blob[:6] != b"HDPR1\x00":
        raise ValueError(f"{path}: bad magic")
    n, d = struct.unpack_from("<QQ", blob, 6)
    off = 22
    data = np.frombuffer(blob, dtype="<f8", count=n * d, offset=off).reshape(n, d)
    off += n * d * 8
    (id_len,) = struct.unpack_from("<Q", blob, off)
    ids = blob[off + 8 : off + 8 + id_len].decode("utf-8").split("\n")
    return data, ids


def read_id_csv(path: Path) -> tuple[np.ndarray, list[str]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()[1:]
    ids = [line.split(",", 1)[0] for line in lines]
    data = np.array([[float(v) for v in line.split(",")[1:]] for line in lines])
    return data, ids


def _write_csv(path: Path, header: list[str], rows: np.ndarray, ids=None) -> None:
    # Eight significant digits: formatting shortest-repr floats would make
    # input generation dominate set-up time.
    fmt = ",".join(["%.8g"] * rows.shape[1])
    lines = [",".join(header)]
    for i, row in enumerate(rows.tolist()):
        cells = fmt % tuple(row)
        lines.append(cells if ids is None else f"{ids[i]},{cells}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _json(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _corr(a: np.ndarray, b: np.ndarray) -> float:
    a = a - a.mean()
    b = b - b.mean()
    return float(a @ b / math.sqrt(float(a @ a) * float(b @ b)))


# ---------------------------------------------------------------------------
# report checks shared by report-desk and report-wide
# ---------------------------------------------------------------------------


def _report_checks(report_json: Path, b: int) -> list[Check]:
    rows = {r["method"]: r for r in _json(report_json)["results"]["rows"]}
    perm, dcor, sub = rows["permutation"], rows["dcor_ttest"], rows["subsampling"]
    # p_value_smoothed = (1 + count) / (1 + b) recovers the exceedance count.
    count = round(perm["result_smoothed"] * (1 + b)) - 1
    lower, upper = sub["result"]
    return [
        ("perm_p_is_count_over_b", perm["result"] == count / b and 0 <= count <= b,
         f"p={perm['result']!r} count={count} b={b}"),
        ("perm_detects_dependence", perm["result"] <= ALPHA, f"p={perm['result']!r}"),
        ("dcor_detects_dependence", dcor["result"] <= ALPHA, f"p={dcor['result']!r}"),
        ("subsample_ci_ordered", math.isfinite(lower) and lower <= upper
         and math.isfinite(upper), f"ci=[{lower!r}, {upper!r}]"),
    ]


# ---------------------------------------------------------------------------
# report-desk: ROI time series -> fcg -> report
# ---------------------------------------------------------------------------

DESK = {
    "full": dict(n=150, t=240, rois=40, regressors=6, q=300, b=10_000),
    "tiny": dict(n=80, t=120, rois=8, regressors=3, q=30, b=200),
}
# ROIs whose in-band coupling grows with the subject's latent.
DESK_COUPLED = 0.5
DESK_STRENGTH = 0.8


def _desk_inputs(root: Path, seed: int, size: str) -> None:
    cfg = DESK[size]
    n, t, rois, regs = cfg["n"], cfg["t"], cfg["rois"], cfg["regressors"]
    rng = _rng(seed, 1)
    latent = rng.standard_normal(n)
    coupled = max(2, int(rois * DESK_COUPLED))
    ts_dir = root / "ts"
    ts_dir.mkdir(parents=True, exist_ok=True)
    ids = [f"s{i:04d}" for i in range(n)]
    for i, sid in enumerate(ids):
        nuisance = rng.standard_normal((t, regs))
        data = rng.standard_normal((t, rois)) + nuisance @ rng.standard_normal((regs, rois))
        data[:, :coupled] += math.exp(0.75 * latent[i]) * rng.standard_normal(t)[:, None]
        data += rng.uniform(-5.0, 5.0, rois)
        _write_csv(ts_dir / f"{sid}.csv", [f"roi{j}" for j in range(rois)], data)
        _write_csv(ts_dir / f"{sid}.nuisance.csv", [f"nu{j}" for j in range(regs)], nuisance)
    direction = rng.standard_normal(cfg["q"])
    direction /= np.linalg.norm(direction)
    y = DESK_STRENGTH * np.outer(latent, direction) + math.sqrt(
        1.0 - DESK_STRENGTH**2
    ) * rng.standard_normal((n, cfg["q"]))
    # Rows in shuffled order: the CLI must align subjects by id.
    order = rng.permutation(n)
    _write_csv(root / "y.csv", ["id"] + [f"y{j}" for j in range(cfg["q"])], y[order],
               ids=[ids[i] for i in order])


def _desk_chain(inputs: Path, out: Path, seed: int, size: str) -> Chain:
    # `dist` is left out of the chain: it writes numpy scalar reprs such as
    # "np.float64(0.5)" into distances.csv under numpy >= 2, so no run could
    # pass its checks.  `dist_checks` below keeps them, and the self-tests
    # run them against `dist` as an expected failure until the CLI is fixed.
    fcg, y = out / "fcg" / "fcg.bin", inputs / "y.csv"
    return [
        ("fcg", _cli("fcg", "--input", inputs / "ts", "--out", out / "fcg")),
        ("report", _cli("report", "--x", fcg, "--y", y, "--b", DESK[size]["b"],
                        "--ratio", 0.25, "--seed", seed, "--threads", 1,
                        "--out", out / "report")),
    ]


def _desk_pair(inputs: Path, out: Path) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """The fcg features and the y rows aligned to them, with the subject ids."""
    x, x_ids = read_bin(out / "fcg" / "fcg.bin")
    y_raw, y_ids = read_id_csv(inputs / "y.csv")
    pos = {sid: i for i, sid in enumerate(y_ids)}
    return x, y_raw[[pos[s] for s in x_ids]], x_ids


def _desk_distances(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper triangles (i < j, row-major) of the report's two default metrics:
    scaled Euclidean on x, Pearson correlation distance on y."""
    tx = np.concatenate([np.linalg.norm(x[i + 1 :] - x[i], axis=1)
                         for i in range(x.shape[0] - 1)]) / x.shape[1]
    yc = y - y.mean(axis=1, keepdims=True)
    yc /= np.linalg.norm(yc, axis=1, keepdims=True)
    return tx, 1.0 - (yc @ yc.T)[np.triu_indices(y.shape[0], 1)]


def _desk_check(inputs: Path, out: Path, size: str) -> list[Check]:
    cfg = DESK[size]
    x, y, _ = _desk_pair(inputs, out)
    width = cfg["rois"] * (cfg["rois"] - 1) // 2
    # The report's observed statistic is the pair correlation of the two
    # distance triangles, so it checks both distance builds against numpy.
    tx, ty = _desk_distances(x, y)
    want = _corr(tx, ty)
    got = next(r["correlation"] for r in _json(out / "report" / "inference_report.json")
               ["results"]["rows"] if r["method"] == "permutation")
    err = abs(got - want) / max(abs(want), 1e-300)
    return [
        ("fcg_shape", x.shape == (cfg["n"], width), f"shape={x.shape}"),
        ("observed_matches_numpy", err <= 1e-9, f"report={got!r} numpy={want!r} rel_err={err:.1e}"),
    ] + _report_checks(out / "report" / "inference_report.json", cfg["b"])


def dist_checks(inputs: Path, out: Path, size: str) -> list[Check]:
    """Checks of `dist --x <out>/fcg/fcg.bin --y <inputs>/y.csv --out <out>/dist`:
    a handful of distances.csv rows against numpy, and that they are plain
    numbers."""
    cfg = DESK[size]
    x, y, x_ids = _desk_pair(inputs, out)
    lines = (out / "dist" / "distances.csv").read_text(encoding="utf-8").splitlines()[1:]
    npairs = cfg["n"] * (cfg["n"] - 1) // 2
    errors, unparsable = [], []
    for k in np.linspace(0, 2 * npairs - 1, 8).astype(int):
        tag, a, b, cell = lines[k].split(",")
        i, j = x_ids.index(a), x_ids.index(b)
        if tag == "x":
            want = float(np.linalg.norm(x[i] - x[j])) / x.shape[1]
        else:
            want = 1.0 - _corr(y[i], y[j])
        try:
            value = float(cell)
        except ValueError:
            unparsable.append(cell)
            # The value is still compared when it sits inside a numpy
            # scalar repr such as "np.float64(0.5)"; the format defect is
            # reported by its own check.
            inner = re.fullmatch(r"np\.float64\((.*)\)", cell)
            value = float(inner.group(1)) if inner else math.nan
        errors.append(abs(value - want) / max(abs(want), 1e-300))
    return [
        ("distances_csv_plain_numbers", not unparsable,
         f"{len(unparsable)} of 8 sampled cells are not plain numbers, e.g. "
         f"{unparsable[:1]}" if unparsable else "8 sampled cells parse"),
        ("distances_match_numpy", len(lines) == 2 * npairs and all(e <= 1e-9 for e in errors),
         f"rows={len(lines)} max_rel_err={max(errors):.1e}"),
    ]


# ---------------------------------------------------------------------------
# report-wide: large-n binary inputs from `synth latent` -> report
# ---------------------------------------------------------------------------

WIDE = {
    "full": dict(n=2000, p=200, q=200, b=100, strength=0.85),
    "tiny": dict(n=150, p=20, q=20, b=50, strength=0.8),
}


def _wide_inputs(root: Path, seed: int, size: str) -> None:
    from hdpaired.cli import main

    cfg = WIDE[size]
    rc = main(_cli("synth", "latent", "--n", cfg["n"], "--p", cfg["p"], "--q", cfg["q"],
                   "--strength", cfg["strength"], "--seed", seed, "--out", root))
    if rc != 0:
        raise RuntimeError("synth latent failed")


def _wide_chain(inputs: Path, out: Path, seed: int, size: str) -> Chain:
    return [
        ("report", _cli("report", "--x", inputs / "x.bin", "--y", inputs / "y.bin",
                        "--b", WIDE[size]["b"], "--ratio", 0.135, "--seed", seed,
                        "--threads", 1, "--out", out / "report")),
    ]


def _wide_check(inputs: Path, out: Path, size: str) -> list[Check]:
    return _report_checks(out / "report" / "inference_report.json", WIDE[size]["b"])


# ---------------------------------------------------------------------------
# scca-cv: planted sparse pair -> scca cv -> subcluster -> scca fit -> subcluster
# ---------------------------------------------------------------------------

# Each CV fit is capped at four alternations: fits run to tol 1e-6 take a
# seed-dependent number of them, which moved the solver work by +-30%
# between seeds; capped, it moves by +-4% and the support is still found.
SCCA = {
    "full": dict(n=150, p=500, q=500, s=10, folds=5, max_iters=4, dense_c=12, k=5),
    "tiny": dict(n=90, p=20, q=20, s=3, folds=2, max_iters=10, dense_c=3, k=3),
}
SCCA_RHO = 0.9


def _scca_grid(size: str) -> list[float]:
    # The criterion-6 diagonal grid, capped at sqrt(s): the l1 budget of a
    # unit-l2 s-sparse vector.  The tiny grid only warms up the code paths.
    top = math.sqrt(SCCA[size]["s"])
    return [1.0, 1.4, 1.9, 2.5, top] if size == "full" else [top]


def _scca_inputs(root: Path, seed: int, size: str) -> None:
    from hdpaired.cli import main

    cfg = SCCA[size]
    rc = main(_cli("synth", "planted", "--n", cfg["n"], "--p", cfg["p"], "--q", cfg["q"],
                   "--su", cfg["s"], "--sv", cfg["s"], "--rho", SCCA_RHO, "--seed", seed,
                   "--out", root))
    if rc != 0:
        raise RuntimeError("synth planted failed")
    cells = "".join(f"{c!r},{c!r}\n" for c in _scca_grid(size))
    (root / "grid.csv").write_text("c1,c2\n" + cells, encoding="utf-8")


def _scca_chain(inputs: Path, out: Path, seed: int, size: str) -> Chain:
    cfg = SCCA[size]
    xy = ["--x", inputs / "x.bin", "--y", inputs / "y.bin"]
    return [
        ("scca_cv", _cli("scca", "cv", *xy, "--grid-file", inputs / "grid.csv",
                         "--k", cfg["folds"], "--max-iters", cfg["max_iters"], "--tol", 1e-6,
                         "--seed", seed,
                         "--threads", 1, "--out", out / "cv")),
        ("subcluster", _cli("subcluster", *xy, "--model", out / "cv" / "model.json",
                            "--k", cfg["k"], "--top", 3, "--out", out / "sub_cv")),
        ("scca_fit", _cli("scca", "fit", *xy, "--c1", cfg["dense_c"], "--c2", cfg["dense_c"],
                          "--seed", seed, "--out", out / "fit")),
        ("subcluster", _cli("subcluster", *xy, "--model", out / "fit" / "model.json",
                            "--k", cfg["k"], "--top", 3, "--out", out / "sub_fit")),
    ]


def _dense(block: dict) -> np.ndarray:
    w = np.zeros(int(block["dim"]))
    w[np.asarray(block["support"], dtype=int)] = block["values"]
    return w


def _f1(selected: np.ndarray, true: np.ndarray) -> float:
    tp = len(set(selected.tolist()) & set(true.tolist()))
    return 2 * tp / (selected.size + true.size) if tp else 0.0


def _subcluster_checks(tag: str, out: Path, k: int) -> list[Check]:
    labels = []
    for side in ("x", "y"):
        lines = (out / f"clusters_{side}.csv").read_text(encoding="utf-8").splitlines()[1:]
        labels += [int(line.split(",")[0]) for line in lines]
    pairs = _json(out / "subcluster_report.json")["results"]["pairs"]
    keys = [(-p["canonical_correlation"], p["x_cluster"], p["y_cluster"]) for p in pairs]
    return [
        (f"{tag}_labels_in_1_to_k", bool(labels) and all(1 <= l <= k for l in labels),
         f"labels={sorted(set(labels))} k={k}"),
        (f"{tag}_pairs_sorted", bool(pairs) and keys == sorted(keys), f"pairs={len(pairs)}"),
    ]


def _scca_check(inputs: Path, out: Path, size: str) -> list[Check]:
    cfg = SCCA[size]
    x, ids = read_bin(inputs / "x.bin")
    y, _ = read_bin(inputs / "y.bin")
    truth = _json(inputs / "truth.json")["results"]
    u_star = np.zeros(cfg["p"])
    u_star[truth["support_u"]] = truth["u_star_values"]
    v_star = np.zeros(cfg["q"])
    v_star[truth["support_v"]] = truth["v_star_values"]
    model = _json(out / "cv" / "model.json")
    cv = _json(out / "cv" / "cv_report.json")["results"]
    u, v = _dense(model["u"]), _dense(model["v"])
    kept_x = np.asarray(model["x_standardizer"]["kept"], dtype=int)
    kept_y = np.asarray(model["y_standardizer"]["kept"], dtype=int)
    f1 = min(_f1(kept_x[np.flatnonzero(u)], np.asarray(truth["support_u"])),
             _f1(kept_y[np.flatnonzero(v)], np.asarray(truth["support_v"])))
    pos = {sid: i for i, sid in enumerate(ids)}
    test = [pos[s] for s in cv["test_ids"]]
    train = [pos[s] for s in model["train_ids"]]
    oracle = _corr(x[test] @ u_star, y[test] @ v_star)
    gap = abs(cv["test_correlation"] - oracle)

    def scores_norm(data, block, scale, w):
        kept = np.asarray(block["kept"], dtype=int)
        std = (data[train][:, kept] - np.asarray(block["mean"])) / np.asarray(block["sd"])
        return float(np.linalg.norm(std * scale @ w))

    params = model["params"]
    violation = max(
        float(np.abs(u).sum()) - params["c1"], float(np.abs(v).sum()) - params["c2"],
        float(np.linalg.norm(u)) - params["d1"], float(np.linalg.norm(v)) - params["d2"],
        scores_norm(x, model["x_standardizer"], model["scale_x"], u) - 1.0,
        scores_norm(y, model["y_standardizer"], model["scale_y"], v) - 1.0,
    )
    return [
        ("scca_support_f1", f1 >= 0.8, f"min F1={f1:.3f} (need >= 0.8)"),
        ("scca_test_vs_oracle", gap <= 0.1, f"|test - oracle|={gap:.3f} (need <= 0.1)"),
        ("scca_constraints", violation <= 1e-8, f"max violation={violation:.1e}"),
    ] + _subcluster_checks("subcluster_cv", out / "sub_cv", cfg["k"]) \
      + _subcluster_checks("subcluster_fit", out / "sub_fit", cfg["k"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "report-desk",
            "n=150 ROI time-series CSVs -> fcg -> report --b 10000: ingest and "
            "per-replicate overhead dominate; the distance build is under 2% of the run",
            _desk_inputs, _desk_chain, _desk_check,
        ),
        Workload(
            "report-wide",
            "n=2000, p=q=200 binary inputs -> report --b 100: six n x n distance builds "
            "and 2M-entry replicate gathers dominate time and peak memory",
            _wide_inputs, _wide_chain, _wide_check,
        ),
        Workload(
            "scca-cv",
            "planted 150x500x500 -> 5-cell x 5-fold scca cv (4 alternations per fit) -> "
            "subcluster -> dense scca fit -> subcluster: the SCCA projection dominates",
            _scca_inputs, _scca_chain, _scca_check,
        ),
    )
}
