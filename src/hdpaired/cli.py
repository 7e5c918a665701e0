"""Command-line interface: the full pipeline as subcommands.

Subcommands: synth {null,latent,planted}, fcg, dist,
infer {perm,dcor,subsample,bootstrap}, scca {fit,cv,eval}, subcluster,
report.  Every synth mode reads --n --p --q --seed --out; latent adds
--strength, planted --su --sv --rho.

Each option is declared once, in _FLAGS (its argparse keywords), and each
command once, in _COMMANDS (handler, report file name, help, required keys
and defaults).  The parser and the config resolution are both built from
these two tables, so a command accepts exactly the keys it reads, as flags
and as config-file keys alike, and a config-file value is checked against
its flag's type and choices.  An integer option below its floor in
_FLOORS (such as --top below 0 or --cells below 1) fails before any input
is read.

A handler is `handler(cfg, inputs) -> results`: it writes its own data
files under --out and returns the results of its report; a handler that
reads files other than the file options adds them to `inputs`.  `main`
resolves the config, seeds `inputs` with the file options that are set,
and writes the report, which embeds the tool version, the fully resolved
configuration (CLI flags > config file > defaults), the seed and sha256
digests of the input files.  It contains no timestamps, so re-running with
the same configuration reproduces outputs byte-for-byte.  Nothing creates
--out but the writing of a file, so a run that fails before it writes
anything leaves no --out directory.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
from decimal import Decimal
from typing import Callable, NamedTuple

import numpy as np
import yaml

import hdpaired
from hdpaired.distances import METRICS, distance_matrix, upper_triangle
from hdpaired.fcg import BandpassSpec, NuisanceMatrix, RoiTimeSeries, fcg_from_many
from hdpaired.inference import (
    bootstrap_distribution,
    dcor_ttest,
    permutation_test,
    rank_correlations,
    report,
    subsample_ci,
)
from hdpaired.matrixio import (
    FeatureMatrix,
    load_matrix,
    pair,
    read_csv,
    save_matrix,
    write_csv,
)
from hdpaired.model_selection import (FittedSccaModel, default_grid, evaluate_test, fit_model,
                                      scca_cv)
from hdpaired.scca import SccaParams
from hdpaired.subcluster import subcluster_model
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
# option table and config resolution: CLI flags beat the config file beat
# defaults
# ---------------------------------------------------------------------------

# argparse keywords of every option.  Its flag is --<key> with "-" for "_".
# An option without a type takes a string; a store_const one is a switch (a
# boolean in a config file).
_FLAGS = {
    **{key: dict(type=int) for key in (
        "seed", "threads", "n", "p", "q", "su", "sv", "order", "bins", "max_iters", "top")},
    **{key: dict(type=float) for key in (
        "strength", "rho", "fs", "low", "high", "c1", "c2", "d1", "d2", "tol")},
    **{key: dict(action="store_const", const=True) for key in (
        "no_zero_phase", "no_nuisance", "dump_replicates")},
    "x": dict(help="first-modality matrix (.csv or binary)"),
    "y": dict(help="second-modality matrix (.csv or binary)"),
    "out": dict(help="output directory"),
    "config": dict(help="YAML key-value config file"),
    "metric_x": dict(choices=METRICS),
    "metric_y": dict(choices=METRICS),
    "input": dict(help="directory of <subject>.csv time series"),
    "nuisance_suffix": dict(),
    "out_format": dict(choices=("bin", "csv")),
    "b": dict(type=int, help="permutations / resamples"),
    "ratio": dict(type=float, help="subsampling ratio"),
    "level": dict(type=float, help="confidence level"),
    "method": dict(choices=("root", "percentile")),
    "init": dict(choices=("svd", "seeded-random")),
    "grid_file": dict(help="CSV with header c1,c2"),
    "cells": dict(type=int, help="default-grid resolution per axis"),
    "k": dict(type=int, help="folds (scca cv) or clusters (subcluster)"),
    "model": dict(help="model JSON from scca fit/cv"),
}


# The smallest accepted value of each integer option that has one; a
# (command, key) entry overrides the key's own: scca cv reads k as folds.
_FLOORS = {"seed": 0, "threads": 1, "bins": 1, "b": 1, "top": 0, "cells": 1, "max_iters": 1,
           "k": 1, ("scca cv", "k"): 2}
# The file options; the report digests each one that is set.
_INPUT_FILES = ("x", "y", "model", "grid_file")


class _Command(NamedTuple):
    handler: Callable[[dict, dict[str, str]], dict]
    report: str  # file name of the command's report under --out
    help: str
    required: tuple[str, ...]
    # Every key the command reads, in the order its flags are listed.
    defaults: dict


def _check_config_value(key: str, value) -> None:
    flag = _FLAGS[key]
    kind = flag.get("type", bool if "const" in flag else str)
    # A float option also takes a YAML int; no numeric option takes a bool.
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise CliError(f"config key {key!r} must be {kind.__name__}, got {value!r}")
    if "choices" in flag and value not in flag["choices"]:
        raise CliError(f"config key {key!r} must be one of {list(flag['choices'])}, got {value!r}")


class _ConfigLoader(yaml.SafeLoader):
    """SafeLoader plus YAML 1.2 exponent floats (1e-6), which YAML 1.1 reads as strings."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float", re.compile(r"^[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def _resolve(args: argparse.Namespace, command: _Command) -> dict:
    file_cfg = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            file_cfg = yaml.load(f, Loader=_ConfigLoader) or {}
        if not isinstance(file_cfg, dict):
            raise CliError(f"config file {args.config} must be a key-value mapping")
        unknown = set(file_cfg) - set(command.defaults)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown, key=str)}")
        for key, value in file_cfg.items():
            _check_config_value(key, value)
    resolved = {}
    for key, default in command.defaults.items():
        cli_val = getattr(args, key)
        if cli_val is not None:
            resolved[key] = cli_val
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = default
    missing = [k for k in command.required if resolved[k] is None]
    if missing:
        raise CliError(f"missing required options for {args.command_path}: {sorted(missing)}")
    for key, value in resolved.items():
        floor = _FLOORS.get((args.command_path, key), _FLOORS.get(key))
        if floor is not None and value < floor:
            raise CliError(f"{key} must be >= {floor}, got {value}")
    return resolved


def _load_pair(cfg: dict) -> tuple[FeatureMatrix, FeatureMatrix]:
    x = load_matrix(cfg["x"])
    y = load_matrix(cfg["y"])
    ds = pair(x, y)
    return ds.x, ds.y


def _load_model(path: str, x: FeatureMatrix,
                y: FeatureMatrix) -> tuple[FittedSccaModel, list[str]]:
    """The model at path and its training ids, once its column counts are
    checked against the input matrices."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            blob = json.load(f)
        except json.JSONDecodeError as exc:
            raise CliError(f"model {path}: not valid JSON at line {exc.lineno}, "
                           f"column {exc.colno} ({exc.msg})") from None
    model, _, train_ids = FittedSccaModel.from_json(blob)
    fit_widths = (model.x_standardizer.n_columns, model.y_standardizer.n_columns)
    if fit_widths != (x.n_features, y.n_features):
        raise CliError(f"model {path} was fit on {fit_widths[0]} x and {fit_widths[1]} y "
                       f"columns, but the inputs have {x.n_features} and {y.n_features}")
    return model, train_ids


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_synth(cfg: dict, inputs: dict[str, str], kind: str) -> dict:
    truth_payload: dict = {"kind": kind, "seed": cfg["seed"]}
    if kind == "null":
        ds = gen_null(cfg["n"], cfg["p"], cfg["q"], cfg["seed"])
    elif kind == "latent":
        ds, truth = gen_shared_latent(cfg["n"], cfg["p"], cfg["q"], cfg["strength"], cfg["seed"])
        truth_payload["latent_correlation"] = truth.latent_correlation
    else:  # planted
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
    for tag, matrix in (("x", ds.x), ("y", ds.y)):
        save_matrix(matrix, os.path.join(cfg["out"], f"{tag}.bin"))
    return truth_payload


def _fcg_inputs(cfg: dict, subjects: list[str], inputs: dict[str, str]):
    """Each subject's (series, nuisance regressors or None), read in order;
    the files read are recorded in `inputs`."""
    for sid in subjects:
        ts_path = os.path.join(cfg["input"], sid + ".csv")
        series = _read_plain_csv(ts_path)
        inputs[sid + ".csv"] = ts_path
        if cfg["no_nuisance"]:
            regressors = None
        else:
            nu_path = os.path.join(cfg["input"], sid + cfg["nuisance_suffix"])
            if not os.path.exists(nu_path):
                raise CliError(f"missing nuisance file for subject {sid!r}: {nu_path}")
            inputs[sid + cfg["nuisance_suffix"]] = nu_path
            regressors = _read_plain_csv(nu_path)
        yield (RoiTimeSeries(series),
               None if regressors is None else NuisanceMatrix(regressors))


def _cmd_fcg(cfg: dict, inputs: dict[str, str]) -> dict:
    # Every filter option is checked here, before any subject is read.
    spec = BandpassSpec(cfg["low"], cfg["high"], cfg["order"], cfg["fs"])
    suffix = cfg["nuisance_suffix"]
    entries = sorted(os.listdir(cfg["input"]))
    subjects = [
        e[:-4] for e in entries if e.endswith(".csv") and not e.endswith(suffix)
    ]
    if not subjects:
        raise CliError(f"no time-series CSVs found in {cfg['input']}")
    rows = []
    width = None
    # The k-th vector, or the k-th failure, is subject k's (see fcg_from_many).
    vectors = fcg_from_many(_fcg_inputs(cfg, subjects, inputs), spec,
                            zero_phase=not cfg["no_zero_phase"])
    for sid in subjects:
        # A read error names its own file; any other failure is this subject's.
        try:
            vec = next(vectors)
        except CliError:
            raise
        except ValueError as exc:
            raise CliError(f"{os.path.join(cfg['input'], sid + '.csv')}: {exc}") from None
        if width is None:
            width = vec.size
        elif vec.size != width:
            raise CliError(f"subject {sid!r} yields {vec.size} features, expected {width}")
        rows.append(vec)
    fm = FeatureMatrix(np.vstack(rows), tuple(subjects))
    out_path = os.path.join(cfg["out"], "fcg." + cfg["out_format"])
    save_matrix(fm, out_path)
    return {"n_subjects": fm.n_subjects, "n_features": fm.n_features,
            "subjects": list(subjects), "output": out_path}


def _read_plain_csv(path: str) -> np.ndarray:
    """Numeric CSV with one header row (column labels are ignored).  A
    parse error is a CliError that names the file."""
    try:
        return read_csv(path, labels=False)[2]
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _cmd_dist(cfg: dict, inputs: dict[str, str]) -> dict:
    x, y = _load_pair(cfg)
    if x.n_subjects < 2:
        raise CliError(f"dist needs at least 2 subjects, got {x.n_subjects}")
    dx = distance_matrix(x, cfg["metric_x"])
    dy = distance_matrix(y, cfg["metric_y"])
    ids = x.subject_ids
    iu, ju = np.triu_indices(x.n_subjects, 1)
    dist_rows = []
    hist_rows = []
    summary = {}
    for tag, d in (("x", dx), ("y", dy)):
        tri = upper_triangle(d)
        dist_rows.extend((tag, ids[i], ids[j], v) for i, j, v in zip(iu, ju, tri))
        counts, edges = np.histogram(tri, bins=cfg["bins"])
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
    write_csv(os.path.join(cfg["out"], "distances.csv"),
              ["modality", "id_i", "id_j", "distance"], dist_rows)
    write_csv(os.path.join(cfg["out"], "histogram.csv"),
              ["modality", "bin_index", "bin_left", "bin_right", "count"], hist_rows)
    return summary


def _cmd_infer(cfg: dict, inputs: dict[str, str], mode: str) -> dict:
    x, y = _load_pair(cfg)
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
        reps = ci.replicates
    else:  # bootstrap
        boot = bootstrap_distribution(dx, dy, cfg["b"], cfg["seed"], cfg["threads"])
        results = {
            "observed": boot.observed,
            "n_degenerate": boot.n_degenerate,
            "replicate_summary": _summary(boot.replicates),
        }
        reps = boot.replicates
    if cfg.get("dump_replicates"):
        write_csv(os.path.join(cfg["out"], f"replicates_{mode}.csv"),
                  ["replicate", "value"], list(enumerate(reps)))
    return results


def _cmd_report(cfg: dict, inputs: dict[str, str]) -> dict:
    x, y = _load_pair(cfg)
    dcor, perm, ci = report(x, y, cfg["metric_x"], cfg["metric_y"], cfg["b"], cfg["seed"],
                            cfg["threads"], cfg["ratio"], cfg["level"], cfg["method"])
    percent = (Decimal(repr(ci.level)) * 100).normalize()  # exact: 0.975 gives 97.5
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
            "result_type": f"{percent:f}% confidence interval",
            "result": [ci.lower, ci.upper],
        },
    ]
    return {"rows": rows}


def _grid_from_cfg(cfg: dict, p: int, q: int) -> list[SccaParams]:
    path = cfg["grid_file"]
    if not path:
        return default_grid(p, q, cells=cfg["cells"], max_iters=cfg["max_iters"], tol=cfg["tol"])
    try:
        header, _, data = read_csv(path, labels=False)
    except ValueError as exc:
        raise CliError(f"grid file {exc}") from None
    if header[:2] != ["c1", "c2"]:
        raise CliError(f"grid file must have header 'c1,c2', got {header}")
    cells = []
    for k, (c1, c2) in enumerate(data[:, :2].tolist(), start=1):
        try:
            cells.append(SccaParams(c1, c2, max_iters=cfg["max_iters"], tol=cfg["tol"]))
        except ValueError as exc:
            raise CliError(f"grid file {path}, row {k}: {exc}") from None
    return cells


def _cmd_scca_fit(cfg: dict, inputs: dict[str, str]) -> dict:
    # The bounds are checked here, before any input is read.
    params = SccaParams(cfg["c1"], cfg["c2"], cfg["d1"], cfg["d2"],
                        cfg["max_iters"], cfg["tol"])
    x, y = _load_pair(cfg)
    model = fit_model(x.data, y.data, params, init=cfg["init"], seed=cfg["seed"])
    fit = model.fit
    _write_json(os.path.join(cfg["out"], "model.json"),
                model.to_json(params, list(x.subject_ids)))
    return {
        "objective": fit.objective,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "support_u_size": int(fit.support_u.size),
        "support_v_size": int(fit.support_v.size),
    }


def _cmd_scca_cv(cfg: dict, inputs: dict[str, str]) -> dict:
    x, y = _load_pair(cfg)
    grid = _grid_from_cfg(cfg, x.n_features, y.n_features)
    report, test_correlation, train_idx, test_idx = scca_cv(
        x, y, grid, cfg["k"], cfg["seed"], cfg["init"], cfg["threads"])
    train_ids = [x.subject_ids[i] for i in train_idx]
    test_ids = [x.subject_ids[i] for i in test_idx]
    _write_json(os.path.join(cfg["out"], "model.json"),
                report.model.to_json(grid[report.selected_index], train_ids))
    write_csv(
        os.path.join(cfg["out"], "cv_surface.csv"),
        ["c1", "c2", "mean_validation"],
        [(c1, c2, report.mean_validation[i]) for i, (c1, c2) in enumerate(report.grid)],
    )
    su, sv = report.model.scores(x.data[train_idx], y.data[train_idx])
    tu, tv = report.model.scores(x.data[test_idx], y.data[test_idx])
    write_csv(
        os.path.join(cfg["out"], "projections.csv"),
        ["set", "id", "score_x", "score_y"],
        [("train", sid, a, b) for sid, a, b in zip(train_ids, su, sv)]
        + [("test", sid, a, b) for sid, a, b in zip(test_ids, tu, tv)],
    )
    return {
        "selected": {"c1": report.selected[0], "c2": report.selected[1]},
        "train_correlation": report.train_correlation,
        "test_correlation": test_correlation,
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
    }


def _cmd_scca_eval(cfg: dict, inputs: dict[str, str]) -> dict:
    x, y = _load_pair(cfg)
    model, _ = _load_model(cfg["model"], x, y)
    corr = evaluate_test(model, x.data, y.data)
    return {"test_correlation": corr, "n_subjects": x.n_subjects}


def _cmd_subcluster(cfg: dict, inputs: dict[str, str]) -> dict:
    x, y = _load_pair(cfg)
    model, train_ids = _load_model(cfg["model"], x, y)
    train = set(train_ids)
    rows = [i for i, sid in enumerate(x.subject_ids) if sid in train]
    if len(rows) < len(train):
        missing = sorted(train - set(x.subject_ids))
        raise CliError(f"{len(missing)} of the model's {len(train)} training subjects "
                       f"missing from the input matrices, e.g. {missing[:5]}")
    cx, cy, ranking = subcluster_model(x.data[rows], y.data[rows], model, cfg["k"],
                                       cfg["metric_x"], cfg["metric_y"])

    def pair_rows(triples):
        return [{"x_cluster": a, "y_cluster": b, "canonical_correlation": c}
                for a, b, c in triples]

    for tag, clustering, support in (("x", cx, model.support_u), ("y", cy, model.support_v)):
        write_csv(
            os.path.join(cfg["out"], f"clusters_{tag}.csv"),
            ["cluster", "feature_index"],
            [(int(l), int(fi)) for l, fi in zip(clustering.labels, support)],
        )
    return {
        "k": cfg["k"],
        "pairs": pair_rows(ranking.pairs),
        "top": pair_rows(ranking.pairs[:cfg["top"]]),
        "skipped": [list(s) for s in ranking.skipped],
    }


# ---------------------------------------------------------------------------
# command table and parser
# ---------------------------------------------------------------------------

# Defaults that several commands share, each declared once.
_PAIR = {"x": None, "y": None, "out": None}
_METRIC_PAIR = {"metric_x": "scaled_euclidean", "metric_y": "pearson_correlation_distance"}
# The keys of every command that draws replicates from distance matrices.
_DRAWS = {**_PAIR, "b": 10_000, "seed": 0, "threads": 1, **_METRIC_PAIR}
_DUMP = {**_DRAWS, "dump_replicates": False}  # infer perm, infer bootstrap
_INTERVAL = {**_DRAWS, "ratio": 0.135, "level": 0.95, "method": "root"}  # report
_SYNTH = {"n": 100, "p": 200, "q": 200, "seed": 0, "out": None}

_COMMANDS = {
    **{f"synth {kind}": _Command(
        functools.partial(_cmd_synth, kind=kind), "truth.json", text, ("out",), defaults,
    ) for kind, text, defaults in (
        ("null", "independent Gaussian modalities", _SYNTH),
        ("latent", "modalities sharing one latent factor", {**_SYNTH, "strength": 0.8}),
        ("planted", "planted sparse canonical pair",
         {**_SYNTH, "su": 10, "sv": 10, "rho": 0.9}),
    )},
    "fcg": _Command(
        _cmd_fcg, "fcg_report.json",
        "time series -> functional-connectivity features", ("input", "out"),
        {"input": None, "out": None, "fs": 1.0, "low": 0.08, "high": 0.15,
         "order": 1, "no_zero_phase": False, "nuisance_suffix": ".nuisance.csv",
         "no_nuisance": False, "out_format": "bin"},
    ),
    "dist": _Command(
        _cmd_dist, "dist_report.json",
        "pairwise distance report for both modalities", ("x", "y", "out"),
        {**_PAIR, "bins": 50, **_METRIC_PAIR},
    ),
    **{f"infer {mode}": _Command(
        functools.partial(_cmd_infer, mode=mode), f"infer_{mode}.json", text,
        ("x", "y", "out"), defaults,
    ) for mode, text, defaults in (
        ("perm", "permutation test of the distance-pair correlation", _DUMP),
        # dcor_ttest always uses Euclidean distances and draws no replicates.
        ("dcor", "bias-corrected distance-correlation t-test", _PAIR),
        ("subsample", "subsampling confidence interval", {**_INTERVAL, "dump_replicates": False}),
        ("bootstrap", "bootstrap distribution of the distance-pair correlation", _DUMP),
    )},
    "scca fit": _Command(
        _cmd_scca_fit, "scca_fit.json",
        "fit sparse CCA at given l1 bounds", ("x", "y", "c1", "c2", "out"),
        {**_PAIR, "c1": None, "c2": None, "d1": 1.0, "d2": 1.0, "tol": 1e-6,
         "max_iters": 500, "init": "svd", "seed": 0},
    ),
    "scca cv": _Command(
        _cmd_scca_cv, "cv_report.json",
        "cross-validated grid search, refit, held-out test", ("x", "y", "out"),
        {**_PAIR, "grid_file": None, "cells": 8, "k": 5, "seed": 0, "tol": 1e-5,
         "max_iters": 200, "init": "svd", "threads": 1},
    ),
    "scca eval": _Command(
        _cmd_scca_eval, "scca_eval.json",
        "held-out correlation of a saved model", ("x", "y", "model", "out"),
        {**_PAIR, "model": None},
    ),
    "subcluster": _Command(
        _cmd_subcluster, "subcluster_report.json",
        "cluster selected features, rank cluster pairs", ("x", "y", "model", "out"),
        {**_PAIR, "model": None, "k": 5, "top": 3, **_METRIC_PAIR},
    ),
    "report": _Command(
        _cmd_report, "inference_report.json",
        "permutation + dcor + subsampling summary table", ("x", "y", "out"),
        _INTERVAL,
    ),
}


def build_parser(command_path: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command.  Each command is registered, but only
    the one named by command_path (every one, if it is None) gets its
    options: argparse reads the options of the named command alone."""
    parser = argparse.ArgumentParser(
        prog="hdpaired",
        description="Distance-based correlation inference and sparse CCA for "
                    "paired high-dimensional feature matrices.",
    )
    parser.add_argument("--version", action="version", version=hdpaired.__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    group_help = {"synth": "generate synthetic paired datasets",
                  "infer": "statistical inference on distance correlations",
                  "scca": "sparse CCA: fit, cross-validate, evaluate"}
    modes = {}
    for path, command in _COMMANDS.items():
        name, _, mode = path.partition(" ")
        if not mode:
            sp = sub.add_parser(name, help=command.help)
        else:
            if name not in modes:
                modes[name] = sub.add_parser(name, help=group_help[name]).add_subparsers(
                    dest="mode", required=True)
            sp = modes[name].add_parser(mode, help=command.help)
        if command_path in (None, path):
            for key in (*command.defaults, "config"):
                sp.add_argument("--" + key.replace("_", "-"), **_FLAGS[key])
        sp.set_defaults(command_path=path)
    return parser


def _named_command(argv: list[str]) -> str | None:
    """The command that argv's first two tokens, or its first one, name;
    None if neither does."""
    for path in (" ".join(argv[:2]), " ".join(argv[:1])):
        if path in _COMMANDS:
            return path
    return None


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(_named_command(argv)).parse_args(argv)
    command = _COMMANDS[args.command_path]
    try:
        cfg = _resolve(args, command)
        inputs = {key: cfg[key] for key in _INPUT_FILES if cfg.get(key)}
        results = command.handler(cfg, inputs)
        _write_json(os.path.join(cfg["out"], command.report),
                    _report(args.command_path, cfg, inputs, results))
    except Exception as exc:  # structured error contract: JSON on stderr, exit 1
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
