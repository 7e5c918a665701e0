"""Command-line interface: the full pipeline as subcommands.

Subcommands: synth, fcg, dist, infer {perm,dcor,subsample,bootstrap},
scca {fit,cv,eval}, subcluster, report.

Every emitted report embeds the tool version, the fully resolved
configuration (CLI flags > config file > defaults), the seed and sha256
digests of the input files, and contains no timestamps, so re-running with
the same configuration reproduces outputs byte-for-byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np
import yaml

import hdpaired
from hdpaired.distances import METRICS, distance_matrix, upper_triangle
from hdpaired.fcg import BandpassSpec, NuisanceMatrix, RoiTimeSeries, fcg_from_timeseries
from hdpaired.inference import (
    bootstrap_distribution,
    dcor_ttest,
    permutation_test,
    rank_correlations,
    subsample_ci,
)
from hdpaired.matrixio import (
    ColumnStandardizer,
    FeatureMatrix,
    load_matrix_auto,
    pair,
    save_matrix,
)
from hdpaired.model_selection import (
    FittedSccaModel,
    cv_grid_search,
    default_grid,
    evaluate_test,
    spectral_scale,
    train_test_split,
)
from hdpaired.scca import AlignmentPair, SccaParams, fit_scca, project
from hdpaired.subcluster import complete_linkage, feature_distance_matrix, subcluster_cca
from hdpaired.synthgen import gen_null, gen_shared_latent, gen_sparse_canonical_pair


class CliError(ValueError):
    pass


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True, indent=2, default=_json_default)
        f.write("\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_csv_cell(v) for v in row) + "\n")


def _csv_cell(v) -> str:
    # repr(float(v)): np.float64 subclasses float, but its own repr is
    # "np.float64(...)" under numpy 2.
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


def _report(command: str, config: dict, inputs: dict[str, str], results: dict) -> dict:
    return {
        "tool": "hdpaired",
        "version": hdpaired.__version__,
        "command": command,
        "config": config,
        "input_digests": {k: _sha256(v) for k, v in sorted(inputs.items())},
        "results": results,
    }


def _summary(values: np.ndarray) -> dict:
    valid = values[~np.isnan(values)]
    return {
        "count": int(values.size),
        "valid": int(valid.size),
        "mean": float(valid.mean()) if valid.size else None,
        "sd": float(valid.std(ddof=1)) if valid.size > 1 else None,
        "min": float(valid.min()) if valid.size else None,
        "max": float(valid.max()) if valid.size else None,
    }


# ---------------------------------------------------------------------------
# config resolution: CLI flags beat the config file beat defaults
# ---------------------------------------------------------------------------


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    file_cfg = {}
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        with open(cfg_path, "r", encoding="utf-8") as f:
            file_cfg = yaml.safe_load(f) or {}
        if not isinstance(file_cfg, dict):
            raise CliError(f"config file {cfg_path} must be a key-value mapping")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for key, default in defaults.items():
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            resolved[key] = cli_val
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = default
    missing = [k for k, v in resolved.items() if v is None and defaults[k] is None]
    required = [k for k in missing if k in _REQUIRED.get(args.command_path, ())]
    if required:
        raise CliError(f"missing required options for {args.command_path}: {sorted(required)}")
    return resolved


_REQUIRED = {
    "fcg": ("input", "out"),
    "dist": ("x", "y", "out"),
    "infer perm": ("x", "y", "out"),
    "infer dcor": ("x", "y", "out"),
    "infer subsample": ("x", "y", "out"),
    "infer bootstrap": ("x", "y", "out"),
    "scca fit": ("x", "y", "c1", "c2", "out"),
    "scca cv": ("x", "y", "out"),
    "scca eval": ("x", "y", "model", "out"),
    "subcluster": ("x", "y", "model", "out"),
    "synth": ("out",),
    "report": ("x", "y", "out"),
}


def _load_pair(cfg: dict) -> tuple[FeatureMatrix, FeatureMatrix]:
    x = load_matrix_auto(cfg["x"], "X")
    y = load_matrix_auto(cfg["y"], "Y")
    ds = pair(x, y)
    return ds.x, ds.y


# ---------------------------------------------------------------------------
# model (alignment + column manifests) serialization
# ---------------------------------------------------------------------------


def _model_to_json(model: FittedSccaModel, params: SccaParams, train_ids: list[str]) -> dict:
    fit = model.fit
    return {
        "params": {
            "c1": params.c1,
            "c2": params.c2,
            "d1": params.d1,
            "d2": params.d2,
            "max_iters": params.max_iters,
            "tol": params.tol,
        },
        "objective": fit.objective,
        "iterations": fit.iterations,
        "converged": fit.converged,
        "u": {"support": fit.support_u.tolist(), "values": fit.u[fit.support_u].tolist(), "dim": int(fit.u.size)},
        "v": {"support": fit.support_v.tolist(), "values": fit.v[fit.support_v].tolist(), "dim": int(fit.v.size)},
        "x_standardizer": {
            "mean": model.x_standardizer.mean.tolist(),
            "sd": model.x_standardizer.sd.tolist(),
            "kept": model.x_standardizer.kept.tolist(),
            "n_columns": model.x_standardizer.n_columns,
        },
        "y_standardizer": {
            "mean": model.y_standardizer.mean.tolist(),
            "sd": model.y_standardizer.sd.tolist(),
            "kept": model.y_standardizer.kept.tolist(),
            "n_columns": model.y_standardizer.n_columns,
        },
        "scale_x": model.scale_x,
        "scale_y": model.scale_y,
        "train_ids": list(train_ids),
    }


def _model_from_json(blob: dict) -> tuple[FittedSccaModel, SccaParams, list[str]]:
    def vec(block: dict) -> np.ndarray:
        out = np.zeros(int(block["dim"]))
        out[np.asarray(block["support"], dtype=int)] = np.asarray(block["values"], dtype=float)
        return out

    def std(block: dict) -> ColumnStandardizer:
        return ColumnStandardizer(
            mean=np.asarray(block["mean"], dtype=float),
            sd=np.asarray(block["sd"], dtype=float),
            kept=np.asarray(block["kept"], dtype=int),
            n_columns=int(block["n_columns"]),
        )

    u = vec(blob["u"])
    v = vec(blob["v"])
    fit = AlignmentPair(
        u=u,
        v=v,
        objective=float(blob["objective"]),
        support_u=np.flatnonzero(u),
        support_v=np.flatnonzero(v),
        iterations=int(blob["iterations"]),
        converged=bool(blob["converged"]),
        objective_trace=np.array([float(blob["objective"])]),
    )
    model = FittedSccaModel(
        fit=fit,
        x_standardizer=std(blob["x_standardizer"]),
        y_standardizer=std(blob["y_standardizer"]),
        scale_x=float(blob["scale_x"]),
        scale_y=float(blob["scale_y"]),
    )
    p = blob["params"]
    params = SccaParams(
        c1=float(p["c1"]), c2=float(p["c2"]), d1=float(p["d1"]), d2=float(p["d2"]),
        max_iters=int(p["max_iters"]), tol=float(p["tol"]),
    )
    return model, params, list(blob["train_ids"])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_synth(args) -> None:
    defaults = {
        "kind": None, "n": 100, "p": 200, "q": 200, "strength": 0.8,
        "rho": 0.9, "su": 10, "sv": 10, "seed": 0, "out": None,
    }
    cfg = _resolve(args, defaults)
    kind = cfg["kind"]
    os.makedirs(cfg["out"], exist_ok=True)
    truth_payload: dict = {"kind": kind, "seed": cfg["seed"]}
    if kind == "null":
        ds = gen_null(cfg["n"], cfg["p"], cfg["q"], cfg["seed"])
    elif kind == "latent":
        ds, truth = gen_shared_latent(cfg["n"], cfg["p"], cfg["q"], cfg["strength"], cfg["seed"])
        truth_payload["latent_correlation"] = truth.latent_correlation
    elif kind == "planted":
        ds, truth = gen_sparse_canonical_pair(
            cfg["n"], cfg["p"], cfg["q"], cfg["su"], cfg["sv"], cfg["rho"], cfg["seed"]
        )
        truth_payload.update(
            latent_correlation=truth.latent_correlation,
            support_u=truth.support_u.tolist(),
            support_v=truth.support_v.tolist(),
            u_star_values=truth.u_star[truth.support_u].tolist(),
            v_star_values=truth.v_star[truth.support_v].tolist(),
        )
    else:
        raise CliError(f"unknown synth kind {kind!r}; expected null|latent|planted")
    x_path = os.path.join(cfg["out"], "x.bin")
    y_path = os.path.join(cfg["out"], "y.bin")
    save_matrix(ds.x, x_path, "bin")
    save_matrix(ds.y, y_path, "bin")
    _write_json(
        os.path.join(cfg["out"], "truth.json"),
        _report("synth", cfg, {}, truth_payload),
    )


def _cmd_fcg(args) -> None:
    defaults = {
        "input": None, "out": None, "fs": 1.0, "low": 0.08, "high": 0.15,
        "order": 1, "no_zero_phase": False, "nuisance_suffix": ".nuisance.csv",
        "no_nuisance": False, "out_format": "bin",
    }
    cfg = _resolve(args, defaults)
    spec = BandpassSpec(cfg["low"], cfg["high"], cfg["order"])
    suffix = cfg["nuisance_suffix"]
    entries = sorted(os.listdir(cfg["input"]))
    subjects = [
        e[:-4] for e in entries if e.endswith(".csv") and not e.endswith(suffix)
    ]
    if not subjects:
        raise CliError(f"no time-series CSVs found in {cfg['input']}")
    inputs: dict[str, str] = {}
    rows = []
    width = None
    for sid in subjects:
        ts_path = os.path.join(cfg["input"], sid + ".csv")
        ts = RoiTimeSeries(_read_plain_csv(ts_path), cfg["fs"])
        inputs[sid + ".csv"] = ts_path
        if cfg["no_nuisance"]:
            nuis = None
        else:
            nu_path = os.path.join(cfg["input"], sid + suffix)
            if not os.path.exists(nu_path):
                raise CliError(f"missing nuisance file for subject {sid!r}: {nu_path}")
            inputs[sid + suffix] = nu_path
            nuis = NuisanceMatrix(_read_plain_csv(nu_path))
        vec = fcg_from_timeseries(ts, nuis, spec, zero_phase=not cfg["no_zero_phase"])
        if width is None:
            width = vec.size
        elif vec.size != width:
            raise CliError(f"subject {sid!r} yields {vec.size} features, expected {width}")
        rows.append(vec)
    fm = FeatureMatrix(np.vstack(rows), tuple(subjects), "FCG")
    os.makedirs(cfg["out"], exist_ok=True)
    out_path = os.path.join(cfg["out"], "fcg." + ("csv" if cfg["out_format"] == "csv" else "bin"))
    save_matrix(fm, out_path, cfg["out_format"])
    _write_json(
        os.path.join(cfg["out"], "fcg_report.json"),
        _report("fcg", cfg, inputs, {"n_subjects": fm.n_subjects, "n_features": fm.n_features,
                                     "subjects": list(subjects), "output": out_path}),
    )


def _read_plain_csv(path: str) -> np.ndarray:
    """Numeric CSV with one header row (column labels are ignored)."""
    data = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    if np.isnan(data).any():
        raise CliError(f"{path}: non-numeric or missing entries")
    return data


def _cmd_dist(args) -> None:
    defaults = {
        "x": None, "y": None, "out": None, "bins": 50,
        "metric_x": "scaled_euclidean", "metric_y": "pearson_correlation_distance",
    }
    cfg = _resolve(args, defaults)
    for key in ("metric_x", "metric_y"):
        if cfg[key] not in METRICS:
            raise CliError(f"{key} must be one of {METRICS}")
    x, y = _load_pair(cfg)
    dx = distance_matrix(x, cfg["metric_x"])
    dy = distance_matrix(y, cfg["metric_y"])
    ids = x.subject_ids
    iu, ju = np.triu_indices(x.n_subjects, 1)
    dist_rows = []
    for tag, d in (("x", dx), ("y", dy)):
        tri = upper_triangle(d)
        dist_rows.extend(
            (tag, ids[i], ids[j], v) for i, j, v in zip(iu, ju, tri)
        )
    _write_csv(os.path.join(cfg["out"], "distances.csv"),
               ["modality", "id_i", "id_j", "distance"], dist_rows)
    hist_rows = []
    summary = {}
    for tag, d in (("x", dx), ("y", dy)):
        tri = upper_triangle(d)
        counts, edges = np.histogram(tri, bins=int(cfg["bins"]))
        hist_rows.extend(
            (tag, k, edges[k], edges[k + 1], int(c)) for k, c in enumerate(counts)
        )
        summary[tag] = {
            "metric": d.metric_tag,
            "n_pairs": int(tri.size),
            "bin_total": int(counts.sum()),
            "mean": float(tri.mean()),
            "min": float(tri.min()),
            "max": float(tri.max()),
        }
    _write_csv(os.path.join(cfg["out"], "histogram.csv"),
               ["modality", "bin_index", "bin_left", "bin_right", "count"], hist_rows)
    _write_json(os.path.join(cfg["out"], "dist_report.json"),
                _report("dist", cfg, {"x": cfg["x"], "y": cfg["y"]}, summary))


def _infer_defaults() -> dict:
    return {
        "x": None, "y": None, "out": None, "b": 10_000, "seed": 0, "ratio": 0.135,
        "level": 0.95, "method": "root", "threads": 1,
        "metric_x": "scaled_euclidean", "metric_y": "pearson_correlation_distance",
    }


def _cmd_infer(args) -> None:
    cfg = _resolve(args, {**_infer_defaults(), "dump_replicates": False})
    if cfg["b"] < 1:
        raise CliError(f"--b must be >= 1, got {cfg['b']}")
    mode = args.mode
    x, y = _load_pair(cfg)
    inputs = {"x": cfg["x"], "y": cfg["y"]}
    os.makedirs(cfg["out"], exist_ok=True)
    if mode != "dcor":
        dx = distance_matrix(x, cfg["metric_x"])
        dy = distance_matrix(y, cfg["metric_y"])
    if mode == "perm":
        res = permutation_test(dx, dy, cfg["b"], cfg["seed"], threads=cfg["threads"])
        rho, tau = rank_correlations(dx, dy)
        results = {
            "observed": res.observed,
            "p_value": res.p_value,
            "p_value_smoothed": res.p_value_smoothed,
            "n_permutations": res.n_permutations,
            "spearman_rho": rho,
            "kendall_tau": tau,
            "replicate_summary": _summary(res.null_samples),
        }
        reps = res.null_samples
    elif mode == "dcor":
        res = dcor_ttest(x, y)
        results = {
            "bias_corrected_r": res.bias_corrected_r,
            "t_statistic": res.t_statistic,
            "degrees_of_freedom": res.degrees_of_freedom,
            "p_value": res.p_value,
        }
        reps = None
    elif mode == "subsample":
        ci = subsample_ci(dx, dy, cfg["ratio"], cfg["b"], cfg["level"], cfg["seed"],
                          cfg["method"], cfg["threads"])
        results = {
            "observed": ci.point_estimate,
            "ci": {"lower": ci.lower, "upper": ci.upper, "level": ci.level},
            "method": ci.method,
            "subsample_ratio": ci.subsample_ratio,
            "n_subsamples": ci.n_subsamples,
            "n_degenerate": ci.n_degenerate,
        }
        reps = None
    elif mode == "bootstrap":
        boot = bootstrap_distribution(dx, dy, cfg["b"], cfg["seed"], cfg["threads"])
        results = {
            "observed": boot.observed,
            "n_missing": boot.n_missing,
            "replicate_summary": _summary(boot.replicates),
        }
        reps = boot.replicates
    else:
        raise CliError(f"unknown infer mode {mode!r}")
    _write_json(os.path.join(cfg["out"], f"infer_{mode}.json"),
                _report(f"infer {mode}", cfg, inputs, results))
    if cfg["dump_replicates"] and reps is not None:
        _write_csv(os.path.join(cfg["out"], f"replicates_{mode}.csv"),
                   ["replicate", "value"], list(enumerate(reps)))


def _cmd_report(args) -> None:
    cfg = _resolve(args, _infer_defaults())
    x, y = _load_pair(cfg)
    dx = distance_matrix(x, cfg["metric_x"])
    dy = distance_matrix(y, cfg["metric_y"])
    perm = permutation_test(dx, dy, cfg["b"], cfg["seed"], threads=cfg["threads"])
    dcor = dcor_ttest(x, y)
    ci = subsample_ci(dx, dy, cfg["ratio"], cfg["b"], cfg["level"], cfg["seed"],
                      cfg["method"], cfg["threads"])
    rows = [
        {
            "method": "permutation",
            "correlation": perm.observed,
            "result_type": "p_value",
            "result": perm.p_value,
            "result_smoothed": perm.p_value_smoothed,
        },
        {
            "method": "dcor_ttest",
            "correlation": dcor.bias_corrected_r,
            "result_type": "p_value",
            "result": dcor.p_value,
        },
        {
            "method": "subsampling",
            "correlation": ci.point_estimate,
            "result_type": f"{int(round(cfg['level'] * 100))}% confidence interval",
            "result": [ci.lower, ci.upper],
        },
    ]
    _write_json(os.path.join(cfg["out"], "inference_report.json"),
                _report("report", cfg, {"x": cfg["x"], "y": cfg["y"]}, {"rows": rows}))


def _grid_from_cfg(cfg: dict, p: int, q: int) -> list[SccaParams]:
    if cfg.get("grid_file"):
        cells = []
        with open(cfg["grid_file"], "r", encoding="utf-8") as f:
            header = f.readline().strip().split(",")
            if header[:2] != ["c1", "c2"]:
                raise CliError(f"grid file must have header 'c1,c2', got {header}")
            for line in f:
                if not line.strip():
                    continue
                c1, c2 = line.strip().split(",")[:2]
                cells.append(SccaParams(float(c1), float(c2),
                                        max_iters=cfg["max_iters"], tol=cfg["tol"]))
        if not cells:
            raise CliError("grid file contains no cells")
        return cells
    return default_grid(p, q, cells=cfg["cells"], max_iters=cfg["max_iters"], tol=cfg["tol"])


def _cmd_scca(args) -> None:
    mode = args.mode
    if mode == "fit":
        defaults = {
            "x": None, "y": None, "out": None, "c1": None, "c2": None, "d1": 1.0,
            "d2": 1.0, "tol": 1e-6, "max_iters": 500, "init": "svd", "seed": 0,
        }
        cfg = _resolve(args, defaults)
        x, y = _load_pair(cfg)
        params = SccaParams(cfg["c1"], cfg["c2"], cfg["d1"], cfg["d2"],
                            cfg["max_iters"], cfg["tol"])
        sx = ColumnStandardizer.fit(x.data)
        sy = ColumnStandardizer.fit(y.data)
        scale_x = spectral_scale(sx.apply(x.data))
        scale_y = spectral_scale(sy.apply(y.data))
        fit = fit_scca(sx.apply(x.data) * scale_x, sy.apply(y.data) * scale_y, params,
                       init=cfg["init"], seed=cfg["seed"])
        model = FittedSccaModel(fit=fit, x_standardizer=sx, y_standardizer=sy,
                                scale_x=scale_x, scale_y=scale_y)
        os.makedirs(cfg["out"], exist_ok=True)
        _write_json(os.path.join(cfg["out"], "model.json"),
                    _model_to_json(model, params, list(x.subject_ids)))
        _write_json(
            os.path.join(cfg["out"], "scca_fit.json"),
            _report("scca fit", cfg, {"x": cfg["x"], "y": cfg["y"]}, {
                "objective": fit.objective,
                "converged": fit.converged,
                "iterations": fit.iterations,
                "support_u_size": int(fit.support_u.size),
                "support_v_size": int(fit.support_v.size),
            }),
        )
        return

    if mode == "cv":
        defaults = {
            "x": None, "y": None, "out": None, "grid_file": None, "cells": 8,
            "k": 5, "seed": 0, "tol": 1e-5, "max_iters": 200, "init": "svd",
            "threads": 1,
        }
        cfg = _resolve(args, defaults)
        x, y = _load_pair(cfg)
        inputs = {"x": cfg["x"], "y": cfg["y"]}
        if cfg["grid_file"]:
            inputs["grid_file"] = cfg["grid_file"]
        train_idx, test_idx = train_test_split(x.n_subjects, cfg["seed"])
        grid = _grid_from_cfg(cfg, x.n_features, y.n_features)
        report = cv_grid_search(
            x.data[train_idx], y.data[train_idx], grid, k=cfg["k"], seed=cfg["seed"],
            x_test=x.data[test_idx], y_test=y.data[test_idx],
            init=cfg["init"], threads=cfg["threads"],
        )
        os.makedirs(cfg["out"], exist_ok=True)
        train_ids = [x.subject_ids[i] for i in train_idx]
        test_ids = [x.subject_ids[i] for i in test_idx]
        _write_json(os.path.join(cfg["out"], "model.json"),
                    _model_to_json(report.model, grid[report.selected_index], train_ids))
        _write_csv(
            os.path.join(cfg["out"], "cv_surface.csv"),
            ["c1", "c2", "mean_validation"],
            [(c1, c2, report.mean_validation[i]) for i, (c1, c2) in enumerate(report.grid)],
        )
        su, sv = report.model.scores(x.data[train_idx], y.data[train_idx])
        tu, tv = report.model.scores(x.data[test_idx], y.data[test_idx])
        _write_csv(
            os.path.join(cfg["out"], "projections.csv"),
            ["set", "id", "score_x", "score_y"],
            [("train", sid, a, b) for sid, a, b in zip(train_ids, su, sv)]
            + [("test", sid, a, b) for sid, a, b in zip(test_ids, tu, tv)],
        )
        _write_json(
            os.path.join(cfg["out"], "cv_report.json"),
            _report("scca cv", cfg, inputs, {
                "selected": {"c1": report.selected[0], "c2": report.selected[1]},
                "train_correlation": report.train_correlation,
                "test_correlation": report.test_correlation,
                "mean_validation": report.mean_validation,
                "fold_correlations": report.fold_correlations,
                "fold_iterations": report.fold_iterations,
                "fold_converged": report.fold_converged,
                "refit_iterations": report.model.fit.iterations,
                "refit_converged": report.model.fit.converged,
                "grid": [list(cell) for cell in report.grid],
                "n_train": int(train_idx.size),
                "n_test": int(test_idx.size),
                "train_ids": train_ids,
                "test_ids": test_ids,
                "support_u_size": int(report.model.fit.support_u.size),
                "support_v_size": int(report.model.fit.support_v.size),
            }),
        )
        return

    if mode == "eval":
        defaults = {"x": None, "y": None, "model": None, "out": None}
        cfg = _resolve(args, defaults)
        x, y = _load_pair(cfg)
        with open(cfg["model"], "r", encoding="utf-8") as f:
            model, params, _ = _model_from_json(json.load(f))
        corr = evaluate_test(model, x.data, y.data)
        _write_json(
            os.path.join(cfg["out"], "scca_eval.json"),
            _report("scca eval", cfg,
                    {"x": cfg["x"], "y": cfg["y"], "model": cfg["model"]},
                    {"test_correlation": corr, "n_subjects": x.n_subjects}),
        )
        return
    raise CliError(f"unknown scca mode {mode!r}")


def _cmd_subcluster(args) -> None:
    defaults = {
        "x": None, "y": None, "model": None, "out": None, "k": 5, "top": 3,
        "metric_x": "scaled_euclidean", "metric_y": "pearson_correlation_distance",
    }
    cfg = _resolve(args, defaults)
    x, y = _load_pair(cfg)
    with open(cfg["model"], "r", encoding="utf-8") as f:
        blob = json.load(f)
    model, _, train_ids = _model_from_json(blob)
    train = set(train_ids)
    rows = [i for i, sid in enumerate(x.subject_ids) if sid in train]
    if not rows:
        raise CliError("none of the model's training subjects found in the input matrices")
    sel_u = model.support_u
    sel_v = model.support_v
    if sel_u.size < 2 or sel_v.size < 2:
        raise CliError(
            f"need at least 2 selected features per side, got {sel_u.size} and {sel_v.size}"
        )
    xd = x.data[rows]
    yd = y.data[rows]
    k = int(cfg["k"])
    cx = complete_linkage(feature_distance_matrix(xd, sel_u, cfg["metric_x"]), k)
    cy = complete_linkage(feature_distance_matrix(yd, sel_v, cfg["metric_y"]), k)
    ranking = subcluster_cca(xd[:, sel_u], yd[:, sel_v], cx, cy, top_k=int(cfg["top"]))
    os.makedirs(cfg["out"], exist_ok=True)
    for tag, clustering in (("x", cx), ("y", cy)):
        _write_csv(
            os.path.join(cfg["out"], f"clusters_{tag}.csv"),
            ["cluster", "feature_index"],
            [(int(l), int(fi)) for l, fi in zip(clustering.labels, clustering.feature_indices)],
        )
    _write_json(
        os.path.join(cfg["out"], "subcluster_report.json"),
        _report("subcluster", cfg,
                {"x": cfg["x"], "y": cfg["y"], "model": cfg["model"]}, {
                    "k": k,
                    "pairs": [
                        {"x_cluster": a, "y_cluster": b, "canonical_correlation": c}
                        for a, b, c in ranking.pairs
                    ],
                    "top": [
                        {"x_cluster": a, "y_cluster": b, "canonical_correlation": c}
                        for a, b, c in ranking.top
                    ],
                    "skipped": [list(s) for s in ranking.skipped],
                }),
    )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sp, *names):
    flags = {
        "x": lambda: sp.add_argument("--x", help="first-modality matrix (.csv or binary)"),
        "y": lambda: sp.add_argument("--y", help="second-modality matrix (.csv or binary)"),
        "out": lambda: sp.add_argument("--out", help="output directory"),
        "seed": lambda: sp.add_argument("--seed", type=int),
        "threads": lambda: sp.add_argument("--threads", type=int),
        "config": lambda: sp.add_argument("--config", help="YAML key-value config file"),
        "metrics": lambda: (
            sp.add_argument("--metric-x", dest="metric_x", choices=METRICS),
            sp.add_argument("--metric-y", dest="metric_y", choices=METRICS),
        ),
    }
    for name in names:
        flags[name]()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdpaired",
        description="Distance-based correlation inference and sparse CCA for "
                    "paired high-dimensional feature matrices.",
    )
    parser.add_argument("--version", action="version", version=hdpaired.__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate synthetic paired datasets")
    sp.add_argument("kind", choices=["null", "latent", "planted"])
    sp.add_argument("--n", type=int)
    sp.add_argument("--p", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--strength", type=float)
    sp.add_argument("--rho", type=float)
    sp.add_argument("--su", type=int)
    sp.add_argument("--sv", type=int)
    _add_common(sp, "out", "seed", "config")
    sp.set_defaults(func=_cmd_synth, command_path="synth")

    sp = sub.add_parser("fcg", help="time series -> functional-connectivity features")
    sp.add_argument("--input", help="directory of <subject>.csv time series")
    sp.add_argument("--fs", type=float)
    sp.add_argument("--low", type=float)
    sp.add_argument("--high", type=float)
    sp.add_argument("--order", type=int)
    sp.add_argument("--no-zero-phase", dest="no_zero_phase", action="store_const", const=True)
    sp.add_argument("--nuisance-suffix", dest="nuisance_suffix")
    sp.add_argument("--no-nuisance", dest="no_nuisance", action="store_const", const=True)
    sp.add_argument("--out-format", dest="out_format", choices=["bin", "csv"])
    _add_common(sp, "out", "config")
    sp.set_defaults(func=_cmd_fcg, command_path="fcg")

    sp = sub.add_parser("dist", help="pairwise distance report for both modalities")
    sp.add_argument("--bins", type=int)
    _add_common(sp, "x", "y", "out", "config", "metrics")
    sp.set_defaults(func=_cmd_dist, command_path="dist")

    sp = sub.add_parser("infer", help="statistical inference on distance correlations")
    sp.add_argument("mode", choices=["perm", "dcor", "subsample", "bootstrap"])
    sp.add_argument("--b", type=int, help="permutations / resamples")
    sp.add_argument("--ratio", type=float, help="subsampling ratio")
    sp.add_argument("--level", type=float, help="confidence level")
    sp.add_argument("--method", choices=["root", "percentile"])
    sp.add_argument("--dump-replicates", dest="dump_replicates", action="store_const", const=True)
    _add_common(sp, "x", "y", "out", "seed", "threads", "config", "metrics")
    sp.set_defaults(func=_cmd_infer, command_path=None)

    sp = sub.add_parser("scca", help="sparse CCA: fit, cross-validate, evaluate")
    sp.add_argument("mode", choices=["fit", "cv", "eval"])
    sp.add_argument("--c1", type=float)
    sp.add_argument("--c2", type=float)
    sp.add_argument("--d1", type=float)
    sp.add_argument("--d2", type=float)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--max-iters", dest="max_iters", type=int)
    sp.add_argument("--init", choices=["svd", "seeded-random"])
    sp.add_argument("--grid-file", dest="grid_file", help="CSV with header c1,c2")
    sp.add_argument("--cells", type=int, help="default-grid resolution per axis")
    sp.add_argument("--k", type=int, help="number of folds")
    sp.add_argument("--model", help="model JSON from scca fit/cv")
    _add_common(sp, "x", "y", "out", "seed", "threads", "config")
    sp.set_defaults(func=_cmd_scca, command_path=None)

    sp = sub.add_parser("subcluster", help="cluster selected features, rank cluster pairs")
    sp.add_argument("--model", help="model JSON from scca fit/cv")
    sp.add_argument("--k", type=int)
    sp.add_argument("--top", type=int)
    _add_common(sp, "x", "y", "out", "config", "metrics")
    sp.set_defaults(func=_cmd_subcluster, command_path="subcluster")

    sp = sub.add_parser("report", help="permutation + dcor + subsampling summary table")
    sp.add_argument("--b", type=int)
    sp.add_argument("--ratio", type=float)
    sp.add_argument("--level", type=float)
    sp.add_argument("--method", choices=["root", "percentile"])
    _add_common(sp, "x", "y", "out", "seed", "threads", "config", "metrics")
    sp.set_defaults(func=_cmd_report, command_path="report")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command_path is None:
        args.command_path = f"{args.command} {args.mode}"
    try:
        args.func(args)
    except Exception as exc:  # structured error contract: JSON on stderr, exit 1
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
