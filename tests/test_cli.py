import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hdpaired as hp
from hdpaired.cli import (
    _COMMANDS,
    _named_command,
    _read_plain_csv,
    _resolve,
    build_parser,
    main,
)
from hdpaired.distances import distance_matrix
from hdpaired.fcg import NuisanceMatrix, RoiTimeSeries, fcg_from_timeseries
from hdpaired.inference import subsample_ci
from hdpaired.matrixio import FeatureMatrix, load_matrix, save_matrix
from hdpaired.scca import SccaSolver

from test_acceptance import _child_env


def run(args):
    return main([str(a) for a in args])


def read_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture()
def latent_pair(tmp_path):
    out = tmp_path / "synth"
    assert run(["synth", "latent", "--n", 30, "--p", 8, "--q", 8,
                "--strength", "0.8", "--seed", 5, "--out", out]) == 0
    return str(out / "x.bin"), str(out / "y.bin")


class TestSynth:
    def test_null_outputs(self, tmp_path):
        out = tmp_path / "s"
        assert run(["synth", "null", "--n", 10, "--p", 4, "--q", 5,
                    "--seed", 1, "--out", out]) == 0
        x = load_matrix(str(out / "x.bin"))
        y = load_matrix(str(out / "y.bin"))
        assert x.data.shape == (10, 4) and y.data.shape == (10, 5)
        truth = read_json(out / "truth.json")
        assert truth["results"]["kind"] == "null"
        assert truth["command"] == "synth null"
        assert set(truth["config"]) == {"n", "p", "q", "seed", "out"}
        assert truth["version"]

    def test_planted_truth_recorded(self, tmp_path):
        out = tmp_path / "s"
        assert run(["synth", "planted", "--n", 12, "--p", 20, "--q", 20,
                    "--su", 3, "--sv", 4, "--rho", "0.7", "--seed", 2,
                    "--out", out]) == 0
        truth = read_json(out / "truth.json")["results"]
        assert len(truth["support_u"]) == 3
        assert len(truth["support_v"]) == 4

    def test_deterministic_files(self, tmp_path):
        out = tmp_path / "a"
        blobs = []
        for _ in range(2):
            assert run(["synth", "latent", "--n", 8, "--p", 5, "--q", 5,
                        "--strength", "0.5", "--seed", 9, "--out", out]) == 0
            blobs.append(((out / "x.bin").read_bytes(), (out / "truth.json").read_bytes()))
        assert blobs[0] == blobs[1]


class TestDist:
    def test_three_subjects_three_distances(self, tmp_path):
        rng = np.random.default_rng(3)
        ids = ("a", "b", "c")
        synth = tmp_path / "s"
        synth.mkdir()
        x = FeatureMatrix(rng.standard_normal((3, 4)), ids)
        y = FeatureMatrix(rng.standard_normal((3, 5)), ids)
        save_matrix(x, str(synth / "x.bin"))
        save_matrix(y, str(synth / "y.bin"))
        out = tmp_path / "d"
        assert run(["dist", "--x", synth / "x.bin", "--y", synth / "y.bin",
                    "--bins", 4, "--out", out]) == 0
        lines = (out / "distances.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 3  # header + 3 pairs per modality
        expected = {"x": distance_matrix(x, "scaled_euclidean").data,
                    "y": distance_matrix(y, "pearson_correlation_distance").data}
        for line in lines[1:]:
            tag, a, b, cell = line.split(",")
            assert float(cell) == expected[tag][ids.index(a), ids.index(b)], line
        report = read_json(out / "dist_report.json")
        assert report["results"]["x"]["n_pairs"] == 3
        assert report["results"]["x"]["bin_total"] == 3

    def test_ids_with_commas_and_quotes_quoted(self, tmp_path):
        rng = np.random.default_rng(4)
        ids = ("sub,01", 'x"y', "c")
        for tag in ("x", "y"):
            m = FeatureMatrix(rng.standard_normal((3, 4)), ids)
            save_matrix(m, str(tmp_path / f"{tag}.bin"))
        out = tmp_path / "d"
        assert run(["dist", "--x", tmp_path / "x.bin", "--y", tmp_path / "y.bin",
                    "--out", out]) == 0
        with open(out / "distances.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        assert [r[:3] for r in rows[:3]] == [["x", "sub,01", 'x"y'], ["x", "sub,01", "c"],
                                             ["x", 'x"y', "c"]]

    def test_histogram_bins_sum_to_pair_count(self, tmp_path, latent_pair):
        x, y = latent_pair
        out = tmp_path / "d"
        assert run(["dist", "--x", x, "--y", y, "--bins", 7, "--out", out]) == 0
        report = read_json(out / "dist_report.json")
        n = 30
        for tag in ("x", "y"):
            assert report["results"][tag]["bin_total"] == n * (n - 1) // 2

    def test_reads_the_csv_that_save_matrix_wrote(self, tmp_path):
        # A ".csv" name makes save_matrix write CSV and dist read it; the
        # CSV's shortest-repr cells give the binary file's distances.
        rng = np.random.default_rng(5)
        for tag, width in (("x", 4), ("y", 6)):
            m = FeatureMatrix(rng.standard_normal((5, width)), tuple("abcde"))
            for ext in ("csv", "bin"):
                save_matrix(m, tmp_path / f"{tag}.{ext}")
        assert (tmp_path / "x.csv").read_text().startswith("id,f1,f2,f3,f4\na,")
        written = []
        for ext in ("csv", "bin"):
            out = tmp_path / ext
            assert run(["dist", "--x", tmp_path / f"x.{ext}", "--y", tmp_path / f"y.{ext}",
                        "--out", out]) == 0
            written.append((out / "distances.csv").read_bytes())
        assert written[0] == written[1]

    def test_file_not_utf8_named(self, tmp_path, capsys):
        (tmp_path / "x.csv").write_bytes("id,f1\nJosé,1.0\nb,2.0\n".encode("latin-1"))
        (tmp_path / "y.csv").write_text("id,f1\nJosé,1.0\nb,2.0\n", encoding="utf-8")
        assert run(["dist", "--x", tmp_path / "x.csv", "--y", tmp_path / "y.csv",
                    "--out", tmp_path / "d"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        message = f"{tmp_path / 'x.csv'}: not UTF-8 text (invalid continuation byte)"
        assert err == {"error": "ValueError", "message": message}

    def test_one_subject_rejected_before_any_distance(self, tmp_path, capsys):
        for tag in ("x", "y"):
            (tmp_path / f"{tag}.csv").write_text("id,a,b\ns1,1.0,2.0\n")
        out = tmp_path / "d"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["dist", "--x", tmp_path / "x.csv", "--y", tmp_path / "y.csv",
                        "--out", out]) == 1
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert [json.loads(line) for line in err] == [
            {"error": "CliError", "message": "dist needs at least 2 subjects, got 1"}]
        assert not out.exists()


class TestInfer:
    def test_perm_report_schema(self, tmp_path, latent_pair):
        x, y = latent_pair
        out = tmp_path / "i"
        assert run(["infer", "perm", "--x", x, "--y", y, "--b", 99,
                    "--seed", 7, "--out", out]) == 0
        rep = read_json(out / "infer_perm.json")
        res = rep["results"]
        assert set(res) >= {"observed", "p_value", "p_value_smoothed",
                            "spearman_rho", "kendall_tau", "replicate_summary"}
        assert rep["config"]["seed"] == 7
        assert rep["input_digests"]

    def test_b_zero_is_validation_error(self, tmp_path, latent_pair, capsys):
        x, y = latent_pair
        rc = run(["infer", "perm", "--x", x, "--y", y, "--b", 0,
                  "--out", tmp_path / "i"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "CliError", "message": "b must be >= 1, got 0"}

    def test_dcor(self, tmp_path, latent_pair):
        x, y = latent_pair
        out = tmp_path / "i"
        assert run(["infer", "dcor", "--x", x, "--y", y, "--out", out]) == 0
        res = read_json(out / "infer_dcor.json")["results"]
        assert res["degrees_of_freedom"] == 30 * 27 // 2 - 1

    def test_subsample(self, tmp_path, latent_pair):
        x, y = latent_pair
        out = tmp_path / "i"
        assert run(["infer", "subsample", "--x", x, "--y", y, "--b", 60,
                    "--ratio", "0.5", "--seed", 3, "--out", out]) == 0
        res = read_json(out / "infer_subsample.json")["results"]
        assert res["ci"]["lower"] <= res["ci"]["upper"]
        assert res["method"] == "root"

    def test_bootstrap_with_replicate_dump(self, tmp_path, latent_pair):
        x, y = latent_pair
        out = tmp_path / "i"
        assert run(["infer", "bootstrap", "--x", x, "--y", y, "--b", 40,
                    "--seed", 4, "--dump-replicates", "--out", out]) == 0
        lines = (out / "replicates_bootstrap.csv").read_text().strip().splitlines()
        assert len(lines) == 41

    def test_subsample_replicate_dump(self, tmp_path):
        # Subjects 2.. share one x row, so a draw of 4 without subject 0 or 1
        # has a constant x triangle: a degenerate replicate, written as nan.
        ids = tuple(f"s{i}" for i in range(20))
        xdata = np.zeros((20, 2))
        xdata[0, 0] = xdata[1, 1] = 1.0
        x = FeatureMatrix(xdata, ids)
        y = FeatureMatrix(np.random.default_rng(11).standard_normal((20, 4)), ids)
        save_matrix(x, str(tmp_path / "x.bin"))
        save_matrix(y, str(tmp_path / "y.bin"))
        dumps = []
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            assert run(["infer", "subsample", "--x", tmp_path / "x.bin", "--y", tmp_path / "y.bin",
                        "--b", 50, "--ratio", "0.2", "--seed", 3, "--threads", threads,
                        "--dump-replicates", "--out", out]) == 0
            dumps.append((out / "replicates_subsample.csv").read_bytes())
        assert dumps[0] == dumps[1]
        rows = list(csv.reader(dumps[0].decode().splitlines()))
        assert rows[0] == ["replicate", "value"]
        assert [int(i) for i, _ in rows[1:]] == list(range(50))
        ci = subsample_ci(distance_matrix(x, "scaled_euclidean"),
                          distance_matrix(y, "pearson_correlation_distance"), 0.2, 50, seed=3)
        assert 0 < ci.n_degenerate < 50
        np.testing.assert_array_equal([float(v) for _, v in rows[1:]], ci.replicates)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--x", "x", "--y", "y", "--out", "o",
                                       "--dump-replicates"])

    def test_missing_file_errors(self, tmp_path, capsys):
        rc = run(["infer", "dcor", "--x", tmp_path / "nope.bin",
                  "--y", tmp_path / "nope.bin", "--out", tmp_path])
        assert rc == 1


class TestReport:
    def test_three_rows(self, tmp_path, latent_pair):
        x, y = latent_pair
        out = tmp_path / "r"
        assert run(["report", "--x", x, "--y", y, "--b", 99, "--ratio", "0.5",
                    "--seed", 1, "--out", out]) == 0
        rows = read_json(out / "inference_report.json")["results"]["rows"]
        assert [r["method"] for r in rows] == ["permutation", "dcor_ttest", "subsampling"]
        assert rows[0]["result_type"] == "p_value"
        assert rows[2]["result_type"] == "95% confidence interval"
        assert len(rows[2]["result"]) == 2

    @pytest.mark.parametrize("level, label", [("0.975", "97.5%"), ("0.999", "99.9%")])
    def test_interval_label_is_the_exact_level(self, tmp_path, latent_pair, level, label):
        x, y = latent_pair
        out = tmp_path / "r"
        assert run(["report", "--x", x, "--y", y, "--b", 20, "--ratio", "0.5",
                    "--level", level, "--out", out]) == 0
        rows = read_json(out / "inference_report.json")["results"]["rows"]
        assert rows[2]["result_type"] == f"{label} confidence interval"

    def test_rows_are_the_library_report(self, tmp_path, latent_pair):
        x, y = latent_pair
        out = tmp_path / "r"
        assert run(["report", "--x", x, "--y", y, "--b", 99, "--ratio", "0.5", "--seed", 3,
                    "--threads", 2, "--metric-x", "euclidean", "--out", out]) == 0
        rows = read_json(out / "inference_report.json")["results"]["rows"]
        pair = hp.pair(load_matrix(x), load_matrix(y))
        dcor, perm, ci = hp.report(pair.x, pair.y, "euclidean", "pearson_correlation_distance",
                                   b=99, seed=3, threads=2, ratio=0.5)
        assert [(r["correlation"], r["result"]) for r in rows] == [
            (perm.observed, perm.p_value), (dcor.bias_corrected_r, dcor.p_value),
            (ci.point_estimate, [ci.lower, ci.upper])]
        assert rows[0]["result_smoothed"] == perm.p_value_smoothed

    @pytest.mark.parametrize("command", [["infer", "subsample"], ["report"]])
    @pytest.mark.parametrize("flags, message", [
        (["--ratio", "2"], "subsample size 60 exceeds n = 30"),
        (["--ratio", "0.5", "--level", "1.5"], "level must be in (0, 1), got 1.5"),
        (["--ratio", "nan"], "subsample ratio must be finite, got nan"),
        (["--ratio", "inf"], "subsample ratio must be finite, got inf"),
    ])
    def test_interval_arguments_checked_before_any_draw(self, tmp_path, latent_pair, capsys,
                                                        monkeypatch, command, flags, message):
        x, y = latent_pair
        self._forbid_work_before_checks(monkeypatch, command)
        rc = run([*command, "--x", x, "--y", y, "--b", 200000, *flags, "--out", tmp_path / "o"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError", "message": message}

    def test_report_on_three_subjects_fails_on_the_interval_first(self, tmp_path, capsys,
                                                                  monkeypatch):
        # The dCor t-test would fail too (it needs n >= 4); the interval
        # message comes first.
        rng = np.random.default_rng(3)
        paths = []
        for name in ("x", "y"):
            paths.append(str(tmp_path / f"{name}.bin"))
            save_matrix(FeatureMatrix(rng.standard_normal((3, 4)), ("a", "b", "c")), paths[-1])
        self._forbid_work_before_checks(monkeypatch, ["report"])
        assert run(["report", "--x", paths[0], "--y", paths[1], "--out", tmp_path / "o"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError",
                       "message": "subsample size round(0.135 * 3) = 0 < 4"}

    @staticmethod
    def _forbid_work_before_checks(monkeypatch, command):
        """Make every replicate draw fail the test, and for `report` also the
        dCor t-test and every distance build."""
        import hdpaired.inference as inference

        def forbidden(*args, **kwargs):
            raise AssertionError("work done before the interval arguments were checked")

        monkeypatch.setattr(inference, "_replicates", forbidden)
        if command == ["report"]:
            monkeypatch.setattr(inference, "dcor_ttest", forbidden)
            monkeypatch.setattr(inference, "distance_matrix", forbidden)


@pytest.fixture()
def planted_pair(tmp_path):
    out = tmp_path / "planted"
    assert run(["synth", "planted", "--n", 60, "--p", 30, "--q", 30,
                "--su", 4, "--sv", 4, "--rho", "0.9", "--seed", 6,
                "--out", out]) == 0
    return str(out / "x.bin"), str(out / "y.bin")


class TestScca:
    def test_fit_writes_model(self, tmp_path, planted_pair):
        x, y = planted_pair
        out = tmp_path / "f"
        assert run(["scca", "fit", "--x", x, "--y", y, "--c1", "1.8",
                    "--c2", "1.8", "--out", out]) == 0
        model = read_json(out / "model.json")
        assert model["u"]["dim"] == 30
        assert len(model["u"]["support"]) == len(model["u"]["values"])
        assert model["params"]["c1"] == 1.8
        fitrep = read_json(out / "scca_fit.json")["results"]
        assert fitrep["converged"] in (True, False)

    def test_cv_eval_subcluster_round_trip(self, tmp_path, planted_pair):
        x, y = planted_pair
        out = tmp_path / "cv"
        grid = tmp_path / "grid.csv"
        grid.write_text("c1,c2\n1.4,1.4\n2.0,2.0\n")
        assert run(["scca", "cv", "--x", x, "--y", y, "--grid-file", grid,
                    "--k", 3, "--seed", 2, "--out", out]) == 0
        rep = read_json(out / "cv_report.json")["results"]
        assert rep["selected"]["c1"] in (1.4, 2.0)
        assert len(rep["grid"]) == 2
        surface = (out / "cv_surface.csv").read_text().strip().splitlines()
        assert len(surface) == 3
        proj = (out / "projections.csv").read_text().strip().splitlines()
        assert len(proj) == 1 + 60
        assert rep["test_correlation"] is not None

        ev = tmp_path / "ev"
        assert run(["scca", "eval", "--x", x, "--y", y,
                    "--model", out / "model.json", "--out", ev]) == 0
        res = read_json(ev / "scca_eval.json")["results"]
        assert -1.0 <= res["test_correlation"] <= 1.0

        sc = tmp_path / "sc"
        assert run(["subcluster", "--x", x, "--y", y, "--model", out / "model.json",
                    "--k", 2, "--top", 2, "--out", sc]) == 0
        srep = read_json(sc / "subcluster_report.json")["results"]
        assert srep["k"] == 2
        assert len(srep["top"]) <= 2
        clusters = (sc / "clusters_x.csv").read_text().strip().splitlines()
        assert len(clusters) >= 3  # header + >= 2 selected features

    def test_cv_report_records_solver_health(self, tmp_path, planted_pair):
        x, y = planted_pair
        out = tmp_path / "cvh"
        grid = tmp_path / "grid.csv"
        grid.write_text("c1,c2\n1.4,1.4\n2.0,2.0\n")
        assert run(["scca", "cv", "--x", x, "--y", y, "--grid-file", grid, "--k", 3,
                    "--max-iters", 3, "--tol", "1e-9", "--seed", 2, "--out", out]) == 0
        rep = read_json(out / "cv_report.json")["results"]
        iterations = np.array(rep["fold_iterations"])
        converged = np.array(rep["fold_converged"])
        assert iterations.shape == converged.shape == np.shape(rep["fold_correlations"]) == (2, 3)
        assert iterations.dtype.kind == "i" and converged.dtype == bool
        assert np.all((iterations >= 1) & (iterations <= 3))
        # a fit stops before max_iters only once its objective stalls
        assert np.all(converged[iterations < 3])
        assert 1 <= rep["refit_iterations"] <= 3
        assert isinstance(rep["refit_converged"], bool)

        # the same numbers the library reports
        pair = hp.pair(load_matrix(x), load_matrix(y))
        lib, _, _, _ = hp.scca_cv(pair.x, pair.y,
                                  [hp.SccaParams(c, c, max_iters=3, tol=1e-9) for c in (1.4, 2.0)],
                                  k=3, seed=2)
        assert iterations.tolist() == lib.fold_iterations.tolist()
        assert converged.tolist() == lib.fold_converged.tolist()
        assert rep["refit_iterations"] == lib.model.fit.iterations
        assert rep["refit_converged"] == lib.model.fit.converged

    def test_cv_files_are_the_library_scca_cv(self, tmp_path, planted_pair):
        x, y = planted_pair
        out = tmp_path / "cv"
        grid = tmp_path / "grid.csv"
        grid.write_text("c1,c2\n1.4,1.4\n2.0,2.0\n")
        assert run(["scca", "cv", "--x", x, "--y", y, "--grid-file", grid, "--k", 3,
                    "--seed", 2, "--threads", 2, "--out", out]) == 0
        rep = read_json(out / "cv_report.json")["results"]
        pair = hp.pair(load_matrix(x), load_matrix(y))
        lib, test_corr, train, test = hp.scca_cv(
            pair.x, pair.y, [hp.SccaParams(c, c, max_iters=200, tol=1e-5) for c in (1.4, 2.0)],
            k=3, seed=2, threads=2)
        assert (rep["selected"], rep["train_correlation"], rep["test_correlation"]) == (
            {"c1": lib.selected[0], "c2": lib.selected[1]}, lib.train_correlation, test_corr)
        assert rep["mean_validation"] == lib.mean_validation.tolist()
        assert rep["fold_correlations"] == lib.fold_correlations.tolist()
        ids = pair.x.subject_ids
        assert rep["train_ids"] == [ids[i] for i in train]
        assert rep["test_ids"] == [ids[i] for i in test]
        with open(out / "projections.csv", newline="") as f:
            written = [(r["set"], r["id"], float(r["score_x"]), float(r["score_y"]))
                       for r in csv.DictReader(f)]
        expected = []
        for tag, rows in (("train", train), ("test", test)):
            sx, sy = lib.model.scores(pair.x.data[rows], pair.y.data[rows])
            expected += [(tag, ids[i], a, b) for i, a, b in zip(rows, sx, sy)]
        assert written == expected

    def test_subcluster_files_are_the_library_subcluster_model(self, tmp_path, planted_pair):
        x, y = planted_pair
        cv = tmp_path / "cv"
        assert run(["scca", "cv", "--x", x, "--y", y, "--cells", 2, "--k", 3, "--seed", 2,
                    "--out", cv]) == 0
        sc = tmp_path / "sc"
        assert run(["subcluster", "--x", x, "--y", y, "--model", cv / "model.json", "--k", 2,
                    "--top", 2, "--metric-x", "euclidean", "--out", sc]) == 0
        rep = read_json(sc / "subcluster_report.json")["results"]
        model, _, train_ids = hp.FittedSccaModel.from_json(read_json(cv / "model.json"))
        pair = hp.pair(load_matrix(x), load_matrix(y))
        rows = [pair.x.subject_ids.index(sid) for sid in train_ids]
        cx, cy, ranking = hp.subcluster_model(pair.x.data[rows], pair.y.data[rows], model, 2,
                                              "euclidean", "pearson_correlation_distance", 2)
        for key, triples in (("pairs", ranking.pairs), ("top", ranking.top)):
            assert [(p["x_cluster"], p["y_cluster"], p["canonical_correlation"])
                    for p in rep[key]] == list(triples)
        assert rep["skipped"] == [list(t) for t in ranking.skipped]
        for tag, clustering in (("x", cx), ("y", cy)):
            with open(sc / f"clusters_{tag}.csv", newline="") as f:
                written = [(int(r["cluster"]), int(r["feature_index"])) for r in csv.DictReader(f)]
            assert written == list(zip(clustering.labels.tolist(),
                                       clustering.feature_indices.tolist()))

    def test_zero_cross_covariance_fails_only_the_svd_start(self, tmp_path, capsys):
        # Hadamard columns: x's three are orthogonal to y's one, and every
        # product of x with a multiple of y is exactly 0.  The svd start has
        # no direction to follow; a seeded-random start needs none, builds no
        # svd start, and fits objective 0.
        h = np.array([[1.0]])
        for _ in range(3):
            h = np.block([[h, h], [h, -h]])
        for tag, cols in (("x", [1, 2, 3]), ("y", [4])):
            header = ",".join(["id"] + [f"{tag}{j}" for j in cols])
            rows = [",".join([f"s{i}"] + [f"{h[i, j]:g}" for j in cols]) for i in range(8)]
            (tmp_path / f"{tag}.csv").write_text("\n".join([header] + rows) + "\n")
        xy = ["--x", tmp_path / "x.csv", "--y", tmp_path / "y.csv", "--c1", 1, "--c2", 1]
        assert run(["scca", "fit", *xy, "--out", tmp_path / "svd"]) == 1
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "ValueError", "message": "zero cross-covariance; alignment direction undefined"}
        assert run(["scca", "fit", *xy, "--init", "seeded-random",
                    "--out", tmp_path / "random"]) == 0
        assert abs(read_json(tmp_path / "random" / "scca_fit.json")["results"]["objective"]) < 1e-12

    @pytest.mark.parametrize("text, where, detail", [
        ("c1,c2\n1.4,1.4\n1.4\n", ":3", "expected 2 fields, got 1"),
        ("c1,c2\n1.4,abc\n", ":2", "cannot parse value 'abc' in column 'c2'"),
        ("c1,c2\n2.0,2.0\n1.4,inf\n", ":3", "non-finite value 'inf' in column 'c2'"),
        ("c1,c2,note\n2.0,2.0,0\n1.4,1.4,x\n", ":3", "cannot parse value 'x' in column 'note'"),
        ("c1,c2\n2.0,2.0\n\n1.4,-2\n", ", row 2", "l1 bounds must be positive, got (1.4, -2.0)"),
    ], ids=["field-count", "bad-cell", "non-finite", "extra-column", "bad-bound"])
    def test_grid_file_error_names_file_and_line(self, tmp_path, planted_pair, capsys,
                                                 text, where, detail):
        # The grid file is read as every other table: the reader names a bad
        # line, and a bad (c1, c2) pair is named by its data row.
        x, y = planted_pair
        grid = tmp_path / "grid.csv"
        grid.write_text(text)
        out = tmp_path / "cv"
        assert run(["scca", "cv", "--x", x, "--y", y, "--grid-file", grid,
                    "--out", out]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "CliError", "message": f"grid file {grid}{where}: {detail}"}
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1.5,1.5\n", "grid file must have header 'c1,c2', got ['a', 'b']"),
        ("c1,c2\n", "grid file {grid}: no data rows"),
    ], ids=["header", "no-cells"])
    def test_grid_file_rejected_whole(self, tmp_path, planted_pair, capsys, text, message):
        x, y = planted_pair
        grid = tmp_path / "grid.csv"
        grid.write_text(text)
        out = tmp_path / "cv"
        assert run(["scca", "cv", "--x", x, "--y", y, "--grid-file", grid,
                    "--out", out]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "CliError", "message": message.format(grid=grid)}
        assert not out.exists()

    def test_grid_file_read_as_any_csv(self, tmp_path, planted_pair):
        # Quoted header cells and CRLF line ends, as a spreadsheet writes
        # them, and a numeric column after c1,c2 that is ignored.
        x, y = planted_pair
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        plain.write_text("c1,c2\n1.4,1.4\n2.0,2.0\n")
        quoted.write_bytes(b'"c1","c2","w"\r\n1.4,1.4,7\r\n\r\n"2.0",2.0,8\r\n')
        for grid in (plain, quoted):
            assert run(["scca", "cv", "--x", x, "--y", y, "--grid-file", grid, "--k", 3,
                        "--out", tmp_path / grid.stem]) == 0
        reports = [read_json(tmp_path / name / "cv_report.json")["results"]
                   for name in ("plain", "quoted")]
        assert reports[1]["grid"] == [[1.4, 1.4], [2.0, 2.0]]
        for key in ("grid", "selected", "mean_validation", "test_correlation"):
            assert reports[1][key] == reports[0][key]

    def test_subcluster_names_missing_training_subjects(self, tmp_path, planted_pair, capsys):
        x, y = planted_pair
        fit_dir = tmp_path / "f"
        assert run(["scca", "fit", "--x", x, "--y", y, "--c1", "1.8", "--c2", "1.8",
                    "--out", fit_dir]) == 0
        part = tmp_path / "part"
        part.mkdir()
        for tag, path in (("x", x), ("y", y)):
            m = load_matrix(path)
            save_matrix(FeatureMatrix(m.data[7:], m.subject_ids[7:]), str(part / f"{tag}.bin"))
        assert run(["subcluster", "--x", part / "x.bin", "--y", part / "y.bin",
                    "--model", fit_dir / "model.json", "--out", tmp_path / "sc"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        first = list(load_matrix(x).subject_ids[:5])
        assert err == {"error": "CliError", "message": (
            "7 of the model's 60 training subjects missing from the input matrices, "
            f"e.g. {first}")}
        assert not (tmp_path / "sc").exists()

    @pytest.mark.parametrize("command", [["scca", "eval"], ["subcluster"]])
    def test_model_of_another_width_rejected(self, tmp_path, planted_pair, capsys, command):
        x, y = planted_pair
        fit_dir = tmp_path / "f"
        assert run(["scca", "fit", "--x", x, "--y", y, "--c1", "1.8", "--c2", "1.8",
                    "--out", fit_dir]) == 0
        narrow = tmp_path / "narrow"
        narrow.mkdir()
        for tag, path, width in (("x", x, 10), ("y", y, 12)):
            m = load_matrix(path)
            save_matrix(FeatureMatrix(m.data[:, :width], m.subject_ids),
                        str(narrow / f"{tag}.bin"))
        model = fit_dir / "model.json"
        assert run([*command, "--x", narrow / "x.bin", "--y", narrow / "y.bin",
                    "--model", model, "--out", tmp_path / "o"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "CliError", "message": (
            f"model {model} was fit on 30 x and 30 y columns, but the inputs have 10 and 12")}
        assert not (tmp_path / "o").exists()

    def test_malformed_model_named_with_line_and_column(self, tmp_path, latent_pair, capsys):
        x, y = latent_pair
        model = tmp_path / "model.json"
        model.write_text('{"params": {},\n  "u": [1.0,, 2.0]}\n', encoding="utf-8")
        out = tmp_path / "ev"
        assert run(["scca", "eval", "--x", x, "--y", y, "--model", model, "--out", out]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "CliError", "message": (
            f"model {model}: not valid JSON at line 2, column 13 (Expecting value)")}
        assert not out.exists()

    def test_l2_bound_above_one_fails_before_any_input(self, tmp_path, capsys):
        # Neither input exists, so a failure that came after reading one
        # would name its file.
        out = tmp_path / "f"
        assert run(["scca", "fit", "--x", tmp_path / "x.bin", "--y", tmp_path / "y.bin",
                    "--c1", "1.8", "--c2", "1.8", "--d1", 2, "--out", out]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError",
                       "message": "l2 bounds must lie in (0, 1], got (2.0, 1.0)"}
        assert not out.exists()

    def test_model_with_l2_bound_above_one_rejected(self, tmp_path, planted_pair, capsys):
        x, y = planted_pair
        fit_dir = tmp_path / "f"
        assert run(["scca", "fit", "--x", x, "--y", y, "--c1", "1.8", "--c2", "1.8",
                    "--out", fit_dir]) == 0
        model = read_json(fit_dir / "model.json")
        model["params"]["d1"] = 2.0
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(model))
        out = tmp_path / "ev"
        assert run(["scca", "eval", "--x", x, "--y", y, "--model", edited, "--out", out]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError",
                       "message": "l2 bounds must lie in (0, 1], got (2.0, 1.0)"}
        assert not out.exists()

    def test_subcluster_rejects_negative_top(self, tmp_path, planted_pair, capsys):
        x, y = planted_pair
        fit_dir = tmp_path / "f"
        assert run(["scca", "fit", "--x", x, "--y", y, "--c1", "1.8", "--c2", "1.8",
                    "--out", fit_dir]) == 0
        assert run(["subcluster", "--x", x, "--y", y, "--model", fit_dir / "model.json",
                    "--k", 2, "--top", -1, "--out", tmp_path / "sc"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "CliError", "message": "top must be >= 0, got -1"}
        assert not (tmp_path / "sc").exists()

    @pytest.mark.parametrize("command, key, value, floor", [
        (["subcluster", "--model", "missing.json"], "top", -1, 0),
        (["scca", "cv"], "cells", 0, 1),
        (["scca", "cv"], "max_iters", 0, 1),
        (["scca", "fit", "--c1", "1.5", "--c2", "1.5"], "max_iters", 0, 1),
        (["scca", "cv"], "k", 1, 2),
        (["subcluster", "--model", "missing.json"], "k", 0, 1),
    ], ids=["top", "cells", "cv-max_iters", "fit-max_iters", "cv-k", "subcluster-k"])
    def test_floor_checked_before_any_input_is_read(self, tmp_path, capsys, command, key,
                                                     value, floor):
        missing = tmp_path / "missing.bin"
        assert run([*command, "--x", missing, "--y", missing, "--" + key.replace("_", "-"), value,
                    "--out", tmp_path / "o"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "CliError", "message": f"{key} must be >= {floor}, got {value}"}

    def test_cv_default_grid(self, tmp_path, planted_pair):
        x, y = planted_pair
        out = tmp_path / "cvd"
        assert run(["scca", "cv", "--x", x, "--y", y, "--cells", 2, "--k", 3,
                    "--seed", 2, "--out", out]) == 0
        rep = read_json(out / "cv_report.json")["results"]
        assert len(rep["grid"]) == 4


def test_cv_checks_held_out_rows_before_any_fit(tmp_path, capsys, monkeypatch):
    # 17 subjects leave 2 held-out rows, 18 leave 3.
    fit = SccaSolver.fit
    calls = []
    monkeypatch.setattr(SccaSolver, "fit",
                        lambda self, *a, **kw: calls.append(1) or fit(self, *a, **kw))
    for n in (17, 18):
        data = tmp_path / f"d{n}"
        assert run(["synth", "planted", "--n", n, "--p", 12, "--q", 12, "--su", 3, "--sv", 3,
                    "--seed", 1, "--out", data]) == 0
        rc = run(["scca", "cv", "--x", data / "x.bin", "--y", data / "y.bin", "--cells", 2,
                  "--k", 3, "--out", tmp_path / f"cv{n}"])
        if n == 17:
            assert rc == 1 and calls == []
            err = json.loads(capsys.readouterr().err.strip())
            assert err["message"] == "held-out test set has 2 rows; at least 3 are needed"
        else:
            assert rc == 0 and calls


class TestFcg:
    def write_subject(self, d, name, t=120, m=3, seed=0, nuisance=True):
        rng = np.random.default_rng(seed)
        ts = rng.standard_normal((t, m))
        header = ",".join(f"roi{j}" for j in range(m))
        lines = [header] + [",".join(repr(float(v)) for v in row) for row in ts]
        (d / f"{name}.csv").write_text("\n".join(lines) + "\n")
        if nuisance:
            nu = rng.standard_normal((t, 2))
            lines = ["n0,n1"] + [",".join(repr(float(v)) for v in row) for row in nu]
            (d / f"{name}.nuisance.csv").write_text("\n".join(lines) + "\n")

    def test_two_subject_directory(self, tmp_path):
        src = tmp_path / "ts"
        src.mkdir()
        self.write_subject(src, "alpha", seed=1)
        self.write_subject(src, "beta", seed=2)
        out = tmp_path / "fcg"
        assert run(["fcg", "--input", src, "--fs", "1.0", "--out", out]) == 0
        fm = load_matrix(str(out / "fcg.bin"))
        assert fm.data.shape == (2, 3)  # m(m-1)/2 = 3
        assert fm.subject_ids == ("alpha", "beta")

    def test_missing_nuisance_names_subject(self, tmp_path, capsys):
        src = tmp_path / "ts"
        src.mkdir()
        self.write_subject(src, "alpha", seed=1)
        self.write_subject(src, "beta", seed=2, nuisance=False)
        rc = run(["fcg", "--input", src, "--fs", "1.0", "--out", tmp_path / "o"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "beta" in err["message"]

    @pytest.mark.parametrize("suffix, line", [
        (".csv", "1.0,inf,2.0"),
        (".csv", "1.0,2.0"),
        (".nuisance.csv", "0.5,-inf"),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, capsys, suffix, line):
        src = tmp_path / "ts"
        src.mkdir()
        self.write_subject(src, "alpha", seed=1)
        self.write_subject(src, "beta", seed=2)
        path = src / f"beta{suffix}"
        lines = path.read_text().splitlines()
        lines[5] = line
        path.write_text("\n".join(lines) + "\n")
        rc = run(["fcg", "--input", src, "--fs", "1.0", "--out", tmp_path / "o"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"].startswith(f"{path}:6: ")

    def test_series_not_utf8_named(self, tmp_path, capsys):
        src = tmp_path / "ts"
        src.mkdir()
        self.write_subject(src, "alpha", seed=1)
        self.write_subject(src, "beta", seed=2)
        path = src / "beta.csv"
        path.write_bytes(path.read_bytes().replace(b"roi0", "roi_é".encode("latin-1")))
        assert run(["fcg", "--input", src, "--out", tmp_path / "o"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "CliError",
                       "message": f"{path}: not UTF-8 text (invalid continuation byte)"}

    def test_constant_roi_names_subject_file_and_index(self, tmp_path, capsys):
        src = tmp_path / "ts"
        src.mkdir()
        self.write_subject(src, "alpha", t=60, m=4, seed=1, nuisance=False)
        data = np.random.default_rng(2).standard_normal((60, 4))
        data[:, 2] = 0.25
        path = src / "beta.csv"
        path.write_text("r0,r1,r2,r3\n"
                        + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in data))
        rc = run(["fcg", "--input", src, "--no-nuisance", "--out", tmp_path / "o"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == f"{path}: zero-variance ROI columns: indices [2]"

    def test_nuisance_row_mismatch_names_subject_file(self, tmp_path, capsys):
        src = tmp_path / "ts"
        src.mkdir()
        self.write_subject(src, "alpha", t=60, seed=1)
        self.write_subject(src, "beta", t=60, seed=2)
        nuisance = src / "beta.nuisance.csv"
        nuisance.write_text("\n".join(nuisance.read_text().splitlines()[:-1]) + "\n")
        rc = run(["fcg", "--input", src, "--out", tmp_path / "o"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == f"{src / 'beta.csv'}: nuisance rows (59) != time points (60)"

    @pytest.mark.parametrize("option, message", [
        (["--fs", 0], "sampling frequency must be positive, got 0.0"),
        (["--fs", "inf"], "sampling frequency must be finite, got inf"),
        (["--fs", 0.2], "band edge 0.15 Hz at or beyond Nyquist (0.1 Hz)"),
        (["--high", 0.6], "band edge 0.6 Hz at or beyond Nyquist (0.5 Hz)"),
    ], ids=["fs-0", "fs-inf", "fs-0.2", "high-0.6"])
    def test_bad_filter_option_fails_before_any_subject(self, tmp_path, capsys, option,
                                                        message):
        # The first subject cannot be read, so any failure that came after
        # reading it would be that file's.
        src = tmp_path / "ts"
        src.mkdir()
        (src / "alpha.csv").write_text("r0,r1\n1.0\n")
        self.write_subject(src, "beta", seed=2)
        out = tmp_path / "o"
        assert run(["fcg", "--input", src, *option, "--out", out]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError", "message": message}
        assert not out.exists()

    def test_directory_without_series_rejected(self, tmp_path, capsys):
        src = tmp_path / "ts"
        src.mkdir()
        out = tmp_path / "o"
        assert run(["fcg", "--input", src, "--out", out]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "CliError", "message": f"no time-series CSVs found in {src}"}
        assert not out.exists()

    def test_subjects_of_different_roi_counts_rejected(self, tmp_path, capsys):
        src = tmp_path / "ts"
        src.mkdir()
        self.write_subject(src, "a", t=60, m=4, seed=1, nuisance=False)
        self.write_subject(src, "b", t=60, m=3, seed=2, nuisance=False)
        out = tmp_path / "o"
        assert run(["fcg", "--input", src, "--no-nuisance", "--out", out]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "CliError",
                       "message": "subject 'b' yields 3 features, expected 6"}
        assert not out.exists()

    def test_design_wider_than_series_rejected(self, tmp_path, capsys):
        src = tmp_path / "ts"
        src.mkdir()
        self.write_subject(src, "a", t=3, m=3, seed=1, nuisance=False)
        nuisance = np.random.default_rng(2).standard_normal((3, 3))
        (src / "a.nuisance.csv").write_text(
            "n0,n1,n2\n" + "".join(",".join(repr(float(v)) for v in row) + "\n"
                                   for row in nuisance))
        out = tmp_path / "o"
        assert run(["fcg", "--input", src, "--out", out]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "CliError", "message": (
            f"{src / 'a.csv'}: design has more columns (4) than rows (3)")}
        assert not out.exists()

    def test_one_row_table_is_not_transposed(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1.0,2.0\n")
        assert _read_plain_csv(str(path)).shape == (1, 2)

    def test_rerun_bit_identical(self, tmp_path):
        src = tmp_path / "ts"
        src.mkdir()
        self.write_subject(src, "alpha", seed=3)
        self.write_subject(src, "beta", seed=4)
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert run(["fcg", "--input", src, "--fs", "1.0", "--out", out]) == 0
            outs.append((out / "fcg.bin").read_bytes())
        assert outs[0] == outs[1]


class TestFcgBlocks:
    """`fcg` filters consecutive subjects with the same T as one block of at
    most fcg._BLOCK_BYTES; no output bit and no error depends on that."""

    # Two runs of T = 60 around one of T = 80, so blocks also split on T.
    LENGTHS = (60, 60, 60, 80, 80, 60)
    BUDGETS = pytest.mark.parametrize("budget", [1, 1 << 40],
                                      ids=["one-subject-blocks", "one-block"])

    def write_dir(self, tmp_path):
        src = tmp_path / "ts"
        src.mkdir()
        for i, t in enumerate(self.LENGTHS):
            TestFcg().write_subject(src, f"s{i}", t=t, m=4, seed=20 + i)
        return src

    @BUDGETS
    def test_output_bytes_do_not_depend_on_blocks(self, tmp_path, monkeypatch, budget):
        src = self.write_dir(tmp_path)
        out = tmp_path / "o"
        assert run(["fcg", "--input", src, "--out", out]) == 0
        want = [(out / name).read_bytes() for name in ("fcg.bin", "fcg_report.json")]
        monkeypatch.setattr("hdpaired.fcg._BLOCK_BYTES", budget)
        assert run(["fcg", "--input", src, "--out", out]) == 0
        assert [(out / name).read_bytes() for name in ("fcg.bin", "fcg_report.json")] == want
        # ... and the rows are those of the per-subject pipeline.
        rows = load_matrix(str(out / "fcg.bin")).data
        for i in range(len(self.LENGTHS)):
            series = RoiTimeSeries(_read_plain_csv(str(src / f"s{i}.csv")))
            nuis = NuisanceMatrix(_read_plain_csv(str(src / f"s{i}.nuisance.csv")))
            assert rows[i].tobytes() == fcg_from_timeseries(series, nuis).tobytes()

    @BUDGETS
    @pytest.mark.parametrize("scale, message", [
        (1e-200, "zero-variance ROI columns: indices [1]"),
        (5e307, "time series contains non-finite entries"),
    ], ids=["underflow", "overflow"])
    @pytest.mark.parametrize("later", ["unparseable", "directory"])
    def test_mid_block_failure_comes_before_a_later_one(self, tmp_path, monkeypatch, capsys,
                                                        budget, scale, message, later):
        # ROI 1 of s1 is not constant and its residual is finite.  At a
        # scale of 1e-200 its squares underflow, so it has zero variance
        # once filtered; at 5e307 the order-3 filter overflows.  s1 sits
        # mid-block (T = 60 for s0..s2) and s3 cannot be read: s1 fails
        # first, under its own name, whatever the blocks.
        src = self.write_dir(tmp_path)
        path = src / "s1.csv"
        data = _read_plain_csv(str(path))
        data[:, 1] *= scale
        path.write_text("r0,r1,r2,r3\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in data))
        if later == "unparseable":
            (src / "s3.csv").write_text("r0,r1,r2,r3\n1.0,2.0\n")
        else:
            (src / "s3.csv").unlink()
            (src / "s3.csv").mkdir()
        monkeypatch.setattr("hdpaired.fcg._BLOCK_BYTES", budget)
        assert run(["fcg", "--input", src, "--order", 3, "--out", tmp_path / "o"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == f"{path}: {message}"

    @BUDGETS
    def test_filter_design_error_names_the_first_subject(self, tmp_path, monkeypatch, capsys,
                                                         budget):
        # The name is older than the rule it now checks: the filter is
        # designed with BandpassSpec, before any subject is read, so at any
        # block budget its error names no subject, not even s0.
        src = self.write_dir(tmp_path)
        (src / "s1.csv").write_text("r0,r1,r2,r3\n1.0,2.0\n")
        monkeypatch.setattr("hdpaired.fcg._BLOCK_BYTES", budget)
        out = tmp_path / "o"
        assert run(["fcg", "--input", src, "--high", 0.6, "--out", out]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError",
                       "message": "band edge 0.6 Hz at or beyond Nyquist (0.5 Hz)"}
        assert not out.exists()


class TestConfigPrecedence:
    @pytest.mark.parametrize("source, command, key, value, floor", [
        pytest.param("flag", ["infer", "perm", "--b", 5], "threads", -3, 1, id="flag"),
        pytest.param("config", ["infer", "perm", "--b", 5], "threads", 0, 1, id="config"),
        *(pytest.param(source, command, key, value, floor, id=f"{source}-{name}-{key}")
          for source in ("flag", "config")
          for name, command, key, value, floor in (
              ("report", ["report"], "seed", -1, 0),
              ("fit", ["scca", "fit", "--c1", 1.5, "--c2", 1.5], "seed", -1, 0),
              ("dist", ["dist"], "bins", 0, 1),
              ("subsample", ["infer", "subsample"], "b", 0, 1),
          )),
    ])
    def test_threads_below_one_rejected(self, tmp_path, latent_pair, capsys, source, command,
                                        key, value, floor):
        x, y = latent_pair
        args = [*command, "--x", x, "--y", y, "--out", tmp_path / "o"]
        if source == "flag":
            args += ["--" + key, value]
        else:
            (tmp_path / "c.yaml").write_text(f"{key}: {value}\n")
            args += ["--config", tmp_path / "c.yaml"]
        assert run(args) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "CliError", "message": f"{key} must be >= {floor}, got {value}"}
        assert not (tmp_path / "o").exists()

    def test_flag_beats_config_beats_default(self, tmp_path, latent_pair):
        x, y = latent_pair
        cfg = tmp_path / "conf.yaml"
        cfg.write_text(f"b: 55\nseed: 3\nx: {x}\ny: {y}\n")
        out = tmp_path / "i"
        assert run(["infer", "perm", "--config", cfg, "--b", 77, "--out", out]) == 0
        rep = read_json(out / "infer_perm.json")
        assert rep["config"]["b"] == 77      # flag wins
        assert rep["config"]["seed"] == 3    # config beats default
        assert rep["config"]["threads"] == 1  # default survives

    def test_unknown_config_key_rejected(self, tmp_path, latent_pair, capsys):
        x, y = latent_pair
        cfg = tmp_path / "conf.yaml"
        cfg.write_text("bogus_key: 1\n")
        rc = run(["infer", "perm", "--config", cfg, "--x", x, "--y", y,
                  "--out", tmp_path / "i"])
        assert rc == 1

    def test_unknown_config_keys_of_mixed_types_named(self, tmp_path, latent_pair, capsys):
        x, y = latent_pair
        cfg = tmp_path / "conf.yaml"
        cfg.write_text("1: 2\nbogus_key: 1\n")
        rc = run(["infer", "perm", "--config", cfg, "--x", x, "--y", y,
                  "--out", tmp_path / "i"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "CliError", "message": "unknown config keys: [1, 'bogus_key']"}


    @pytest.mark.parametrize("command, text, key", [
        (["infer", "perm"], "seed: 1.5\n", "seed"),
        (["infer", "perm"], "seed: true\n", "seed"),
        (["infer", "perm"], "b: '10'\n", "b"),
        (["infer", "subsample"], "ratio: false\n", "ratio"),
        (["infer", "subsample"], "method: median\n", "method"),
        (["infer", "perm"], "dump_replicates: 1\n", "dump_replicates"),
        (["infer", "perm"], "metric_x: cosine\n", "metric_x"),
        (["scca", "cv"], "grid_file: 3\n", "grid_file"),
        (["fcg", "--input", "no-such-dir"], "out_format: txt\n", "out_format"),
        (["infer", "perm"], "b: 1e3\n", "b"),
        (["infer", "subsample"], "ratio: '1e-1'\n", "ratio"),
    ])
    def test_config_value_checked_like_its_flag(self, tmp_path, latent_pair, capsys,
                                                command, text, key):
        x, y = latent_pair
        cfg = tmp_path / "conf.yaml"
        cfg.write_text(text)
        xy = [] if command[0] == "fcg" else ["--x", x, "--y", y]
        rc = run(command + xy + ["--config", cfg, "--out", tmp_path / "o"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "CliError"
        assert f"config key {key!r}" in err["message"]
        assert not (tmp_path / "o").exists()

    def test_config_that_is_not_a_mapping_rejected(self, tmp_path, latent_pair, capsys):
        x, y = latent_pair
        cfg = tmp_path / "conf.yaml"
        cfg.write_text("- 1\n- 2\n")
        out = tmp_path / "o"
        assert run(["report", "--x", x, "--y", y, "--config", cfg, "--out", out]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "CliError",
                       "message": f"config file {cfg} must be a key-value mapping"}
        assert not out.exists()

    def test_missing_required_option_named(self, tmp_path, latent_pair, capsys):
        _, y = latent_pair
        out = tmp_path / "o"
        assert run(["report", "--y", y, "--out", out]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "CliError",
                       "message": "missing required options for report: ['x']"}
        assert not out.exists()

    def test_config_reads_exponent_floats(self, tmp_path):
        cfg = tmp_path / "conf.yaml"
        cfg.write_text("tol: 1e-6\nd1: 5E-1\nd2: .25e+1\n")
        args = build_parser().parse_args(["scca", "fit", "--x", "x", "--y", "y", "--c1", "2",
                                          "--c2", "3", "--out", "o", "--config", str(cfg)])
        resolved = _resolve(args, _COMMANDS["scca fit"])
        assert (resolved["tol"], resolved["d1"], resolved["d2"]) == (1e-6, 0.5, 2.5)

    def test_float_option_takes_yaml_int(self, tmp_path, latent_pair):
        x, y = latent_pair
        cfg = tmp_path / "conf.yaml"
        cfg.write_text("ratio: 1\nlevel: 0.9\nb: 20\n")
        out = tmp_path / "i"
        assert run(["infer", "subsample", "--x", x, "--y", y, "--config", cfg,
                    "--out", out]) == 0
        assert read_json(out / "infer_subsample.json")["config"]["ratio"] == 1


class TestReportEnvelope:
    def test_digests_are_exactly_the_input_files(self, tmp_path, latent_pair, planted_pair):
        x, y = latent_pair
        px, py = planted_pair
        grid = tmp_path / "grid.csv"
        grid.write_text("c1,c2\n1.4,1.4\n2.0,2.0\n")
        src = tmp_path / "ts"
        src.mkdir()
        for seed, sid in enumerate(("alpha", "beta")):
            TestFcg().write_subject(src, sid, seed=seed)
        model = str(tmp_path / "out" / "scca_fit" / "model.json")
        latent = ["--x", x, "--y", y]
        planted = ["--x", px, "--y", py]
        # (command path, flags after the path, the input files the report digests)
        runs = [
            ("synth null", ["--n", 5, "--p", 2, "--q", 2], {}),
            ("synth latent", ["--n", 5, "--p", 2, "--q", 2], {}),
            ("synth planted", ["--n", 5, "--p", 2, "--q", 2, "--su", 1, "--sv", 1], {}),
            ("fcg", ["--input", src], {
                sid + suffix: str(src / (sid + suffix))
                for sid in ("alpha", "beta") for suffix in (".csv", ".nuisance.csv")}),
            ("dist", latent, {"x": x, "y": y}),
            ("infer perm", [*latent, "--b", 5], {"x": x, "y": y}),
            ("infer dcor", latent, {"x": x, "y": y}),
            ("infer subsample", [*latent, "--b", 5, "--ratio", "0.5"], {"x": x, "y": y}),
            ("infer bootstrap", [*latent, "--b", 5], {"x": x, "y": y}),
            ("report", [*latent, "--b", 5, "--ratio", "0.5"], {"x": x, "y": y}),
            ("scca fit", [*planted, "--c1", "1.8", "--c2", "1.8"], {"x": px, "y": py}),
            ("scca cv", [*planted, "--cells", 2, "--k", 2], {"x": px, "y": py}),
            ("scca cv", [*planted, "--grid-file", grid, "--k", 2],
             {"x": px, "y": py, "grid_file": str(grid)}),
            ("scca eval", [*planted, "--model", model], {"x": px, "y": py, "model": model}),
            ("subcluster", [*planted, "--model", model, "--k", 2, "--top", 1],
             {"x": px, "y": py, "model": model}),
        ]
        assert {path for path, _, _ in runs} == set(_COMMANDS)
        for path, flags, files in runs:
            out = tmp_path / "out" / path.replace(" ", "_")
            assert run([*path.split(), *flags, "--out", out]) == 0
            digests = read_json(out / _COMMANDS[path].report)["input_digests"]
            assert digests == {key: hashlib.sha256(Path(f).read_bytes()).hexdigest()
                               for key, f in files.items()}, path

    @pytest.mark.parametrize("command", [["synth", "null", "--n", 3],
                                         ["infer", "subsample", "--b", 1]],
                             ids=["synth", "infer"])
    def test_failed_command_leaves_no_out(self, tmp_path, latent_pair, command):
        x, y = latent_pair
        inputs = ["--x", x, "--y", y] if command[0] == "infer" else []
        assert run([*command, *inputs, "--out", tmp_path / "o"]) == 1
        assert not (tmp_path / "o").exists()


# Every key each command path reads, with its default, as the reports'
# config block records it when only the required flags are given.
RESOLVED_DEFAULTS = {
    "synth null": {"n": 100, "p": 200, "q": 200, "seed": 0, "out": "o"},
    "synth latent": {"n": 100, "p": 200, "q": 200, "seed": 0, "out": "o", "strength": 0.8},
    "synth planted": {"n": 100, "p": 200, "q": 200, "seed": 0, "out": "o", "su": 10, "sv": 10,
                      "rho": 0.9},
    "fcg": {"input": "i", "out": "o", "fs": 1.0, "low": 0.08, "high": 0.15, "order": 1,
            "no_zero_phase": False, "nuisance_suffix": ".nuisance.csv",
            "no_nuisance": False, "out_format": "bin"},
    "dist": {"x": "x", "y": "y", "out": "o", "bins": 50, "metric_x": "scaled_euclidean",
             "metric_y": "pearson_correlation_distance"},
    **{f"infer {mode}": {"x": "x", "y": "y", "out": "o", "b": 10_000, "seed": 0,
                         "threads": 1, "metric_x": "scaled_euclidean",
                         "metric_y": "pearson_correlation_distance",
                         "dump_replicates": False}
       for mode in ("perm", "bootstrap")},
    "infer dcor": {"x": "x", "y": "y", "out": "o"},
    "infer subsample": {"x": "x", "y": "y", "out": "o", "b": 10_000, "seed": 0,
                        "ratio": 0.135, "level": 0.95, "method": "root", "threads": 1,
                        "metric_x": "scaled_euclidean",
                        "metric_y": "pearson_correlation_distance",
                        "dump_replicates": False},
    "scca fit": {"x": "x", "y": "y", "out": "o", "c1": 2.0, "c2": 3.0, "d1": 1.0,
                 "d2": 1.0, "tol": 1e-6, "max_iters": 500, "init": "svd", "seed": 0},
    "scca cv": {"x": "x", "y": "y", "out": "o", "grid_file": None, "cells": 8, "k": 5,
                "seed": 0, "tol": 1e-5, "max_iters": 200, "init": "svd", "threads": 1},
    "scca eval": {"x": "x", "y": "y", "model": "m", "out": "o"},
    "subcluster": {"x": "x", "y": "y", "model": "m", "out": "o", "k": 5, "top": 3,
                   "metric_x": "scaled_euclidean",
                   "metric_y": "pearson_correlation_distance"},
    "report": {"x": "x", "y": "y", "out": "o", "b": 10_000, "seed": 0, "ratio": 0.135,
               "level": 0.95, "method": "root", "threads": 1,
               "metric_x": "scaled_euclidean", "metric_y": "pearson_correlation_distance"},
}

REQUIRED_ARGS = {"input": "i", "out": "o", "x": "x", "y": "y", "model": "m",
                 "c1": "2", "c2": "3"}

# Flags the scca parser accepted in every mode before each mode had its own.
SCCA_FLAGS = ("x", "y", "out", "seed", "threads", "config", "c1", "c2", "d1", "d2", "tol",
              "max-iters", "init", "grid-file", "cells", "k", "model")
SCCA_READS = {
    "fit": {"x", "y", "out", "c1", "c2", "d1", "d2", "tol", "max-iters", "init", "seed",
            "config"},
    "cv": {"x", "y", "out", "grid-file", "cells", "k", "seed", "tol", "max-iters", "init",
           "threads", "config"},
    "eval": {"x", "y", "model", "out", "config"},
}
# Flags the synth parser accepted in every mode before each mode had its own.
SYNTH_FLAGS = ("n", "p", "q", "seed", "out", "strength", "su", "sv", "rho", "config")
_SIZES = {"n", "p", "q", "seed", "out", "config"}
SYNTH_READS = {
    "null": _SIZES,
    "latent": _SIZES | {"strength"},
    "planted": _SIZES | {"su", "sv", "rho"},
}
# Flags the infer parser accepted in every mode before each mode had its own.
INFER_FLAGS = ("x", "y", "out", "b", "seed", "ratio", "level", "method", "threads",
               "metric-x", "metric-y", "dump-replicates", "config")
_DRAWS = {"x", "y", "out", "b", "seed", "threads", "metric-x", "metric-y", "config"}
INFER_READS = {
    "perm": _DRAWS | {"dump-replicates"},
    "dcor": {"x", "y", "out", "config"},
    "subsample": _DRAWS | {"ratio", "level", "method", "dump-replicates"},
    "bootstrap": _DRAWS | {"dump-replicates"},
}
# A value each flag accepts (default "3"); None marks a switch.
FLAG_VALUES = {"method": "root", "metric-x": "euclidean", "metric-y": "euclidean",
               "dump-replicates": None}


class TestOptionTable:
    def test_table_covers_every_command_path(self):
        assert set(_COMMANDS) == set(RESOLVED_DEFAULTS)

    @pytest.mark.parametrize("path", sorted(RESOLVED_DEFAULTS))
    def test_resolved_defaults_pin_the_config_block(self, path):
        argv = path.split()
        for key in _COMMANDS[path].required:
            argv += ["--" + key, REQUIRED_ARGS[key]]
        args = build_parser().parse_args(argv)
        assert _resolve(args, _COMMANDS[path]) == RESOLVED_DEFAULTS[path]

    @pytest.mark.parametrize("path", sorted(RESOLVED_DEFAULTS))
    def test_help_exits_zero(self, path, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(path.split() + ["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: hdpaired {path}")

    @pytest.mark.parametrize("mode, flag", [
        (mode, flag) for mode in SCCA_READS for flag in SCCA_FLAGS
    ])
    def test_scca_mode_accepts_only_the_flags_it_reads(self, mode, flag, capsys):
        value = "svd" if flag == "init" else "3"
        argv = ["scca", mode, "--" + flag, value]
        if flag in SCCA_READS[mode]:
            parsed = getattr(build_parser().parse_args(argv), flag.replace("-", "_"))
            assert str(parsed).removesuffix(".0") == value
        else:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: --{flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, flag", [
        (mode, flag) for mode in SYNTH_READS for flag in SYNTH_FLAGS
    ])
    def test_synth_mode_accepts_only_the_flags_it_reads(self, mode, flag, capsys):
        argv = ["synth", mode, "--" + flag, "3"]
        if flag in SYNTH_READS[mode]:
            parsed = getattr(build_parser().parse_args(argv), flag)
            assert str(parsed).removesuffix(".0") == "3"
        else:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: --{flag} 3" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, flag", [
        (mode, flag) for mode in INFER_READS for flag in INFER_FLAGS
    ])
    def test_infer_mode_accepts_only_the_flags_it_reads(self, mode, flag, capsys):
        value = FLAG_VALUES.get(flag, "3")
        given = ["--" + flag] + ([] if value is None else [value])
        argv = ["infer", mode] + given
        if flag in INFER_READS[mode]:
            parsed = getattr(build_parser().parse_args(argv), flag.replace("-", "_"))
            assert (parsed is True) if value is None else str(parsed).removesuffix(".0") == value
        else:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(given)}" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", sorted(INFER_READS))
    def test_infer_config_key_the_mode_does_not_read_rejected(self, mode, tmp_path, capsys):
        unread = sorted(key.replace("-", "_") for key in set(INFER_FLAGS) - INFER_READS[mode])
        # infer subsample reads every infer flag; dist's "bins" stands in there.
        key = unread[0] if unread else "bins"
        cfg = tmp_path / "conf.yaml"
        cfg.write_text(f"{key}: 1\n")
        assert run(["infer", mode, "--x", "x", "--y", "y", "--config", cfg,
                    "--out", tmp_path / "o"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "CliError", "message": f"unknown config keys: [{key!r}]"}
        assert not (tmp_path / "o").exists()

    def test_mode_flags_follow_the_mode(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["scca", "--x", "a.bin", "fit"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("path", sorted(RESOLVED_DEFAULTS))
    def test_parser_of_the_named_command_parses_as_the_full_one(self, path, capsys):
        # main adds options only to the command that argv names.
        argv = path.split()
        for key in _COMMANDS[path].required:
            argv += ["--" + key, REQUIRED_ARGS[key]]
        assert _named_command(argv) == path
        assert build_parser(path).parse_args(argv) == build_parser().parse_args(argv)
        helps = []
        for parser in (build_parser(path), build_parser()):
            with pytest.raises(SystemExit):
                parser.parse_args(path.split() + ["--help"])
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1]

    @pytest.mark.parametrize("argv", [[], ["--help"], ["--version"], ["scca"], ["fit"],
                                      ["scca", "--x", "a.bin", "fit"], ["bogus", "report"]])
    def test_argv_that_names_no_command_gets_the_full_parser(self, argv):
        assert _named_command(argv) is None


def test_import_skips_slow_scipy_modules():
    # scipy costs most of the CLI's start-up, so its one import sits in the
    # function that uses it, rank_correlations (infer perm): no other
    # command loads scipy at all.
    code = ("import sys, hdpaired.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), check=True)
    assert proc.stdout.strip() == "[]"


def test_dist_and_subcluster_load_no_scipy(tmp_path, planted_pair):
    # The distance builds use only numpy, so dist and subcluster (with the
    # scca fit it needs) run without importing scipy.
    x, y = planted_pair
    steps = [["dist", "--x", x, "--y", y, "--out", tmp_path / "d"],
             ["scca", "fit", "--x", x, "--y", y, "--c1", "1.8", "--c2", "1.8",
              "--out", tmp_path / "f"],
             ["subcluster", "--x", x, "--y", y, "--model", tmp_path / "f" / "model.json",
              "--k", 2, "--out", tmp_path / "s"]]
    code = ("import sys; from hdpaired.cli import main; "
            f"assert all(main(args) == 0 for args in {[[str(a) for a in s] for s in steps]!r}); "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), check=True)
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_fcg_loads_no_scipy_signal(tmp_path):
    # The residualization's QR, the bandpass filter and the dCor t-test's
    # Student-t tail are numpy, so fcg, then report and infer dcor on its
    # output, run in one process without importing any scipy module; so
    # does designing and applying the filter alone.
    src = tmp_path / "ts"
    src.mkdir()
    for i in range(8):
        TestFcg().write_subject(src, f"s{i}", seed=i)
    ids = tuple(f"s{i}" for i in range(8))
    y = tmp_path / "y.bin"
    save_matrix(FeatureMatrix(np.random.default_rng(8).standard_normal((8, 5)), ids), str(y))
    x = tmp_path / "o" / "fcg.bin"
    steps = [["fcg", "--input", src, "--out", tmp_path / "o"],
             ["report", "--x", x, "--y", y, "--b", 99, "--ratio", "0.5", "--out", tmp_path / "r"],
             ["infer", "dcor", "--x", x, "--y", y, "--out", tmp_path / "d"]]
    scipy_modules = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"
    code = ("import sys; from hdpaired.cli import main; "
            f"assert all(main(args) == 0 for args in {[[str(a) for a in s] for s in steps]!r}); "
            f"print({scipy_modules})")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), check=True)
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert 0.0 <= read_json(tmp_path / "d" / "infer_dcor.json")["results"]["p_value"] <= 1.0
    code = ("import sys; import numpy as np; "
            "from hdpaired.fcg import BandpassSpec, RoiTimeSeries, butterworth_bandpass, "
            "design_bandpass; design_bandpass(BandpassSpec(order=3, fs=1.0)); "
            "butterworth_bandpass(RoiTimeSeries(np.arange(40.0).reshape(20, 2) % 7)); "
            f"print({scipy_modules})")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), check=True)
    assert proc.stdout.strip().splitlines()[-1] == "[]"


class TestDeterminism:
    def test_infer_rerun_byte_identical_across_threads(self, tmp_path, latent_pair):
        x, y = latent_pair
        blobs = []
        for i, threads in enumerate((1, 4)):
            out = tmp_path / f"d{i}"
            assert run(["infer", "perm", "--x", x, "--y", y, "--b", 50,
                        "--seed", 11, "--threads", threads, "--out", out]) == 0
            # threads is part of the resolved config, so compare results only
            rep = read_json(out / "infer_perm.json")
            blobs.append(json.dumps(rep["results"], sort_keys=True))
        assert blobs[0] == blobs[1]

    @staticmethod
    def _outputs_at_each_blas_thread_count(steps, out):
        """Every file under `out`, by its path below it, after running `steps`
        at 1 and at 2 BLAS threads.  Every step writes under the same --out at
        both counts, because reports embed it."""
        outputs = []
        for blas in ("1", "2"):
            env = dict(_child_env(), OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas)
            if out.exists():
                shutil.rmtree(out)
            for args in steps:
                subprocess.run([sys.executable, "-m", "hdpaired.cli", *map(str, args)],
                               env=env, capture_output=True, check=True)
            outputs.append({str(path.relative_to(out)): path.read_bytes()
                            for path in sorted(out.rglob("*")) if path.is_file()})
        return outputs

    def test_same_bytes_at_any_blas_thread_count(self, tmp_path):
        # At 500 subjects and 1000 features OpenBLAS runs each Gram product
        # of the distance builds on both threads (it takes clearly less wall
        # time than on one), and every Pearson correlation over all subjects
        # has 124,750 pairs, far above the 10,000 entries beyond which it
        # splits one dot product across its threads.  The subsample size
        # round(0.3 * 500) = 150 gives 11,175 pairs, also above.
        synth = tmp_path / "synth"
        assert run(["synth", "latent", "--n", 500, "--p", 1000, "--q", 1000, "--strength", "0.5",
                    "--seed", 3, "--out", synth]) == 0
        pair = ["--x", synth / "x.bin", "--y", synth / "y.bin"]
        draws = [*pair, "--b", 100, "--seed", 1]
        out = tmp_path / "out"
        blobs = self._outputs_at_each_blas_thread_count(
            [["dist", *pair, "--out", out],
             ["infer", "perm", *draws, "--dump-replicates", "--out", out],
             ["infer", "subsample", *draws, "--ratio", "0.3", "--out", out],
             ["infer", "bootstrap", *draws, "--dump-replicates", "--out", out],
             ["report", *draws, "--ratio", "0.3", "--out", out]], out)
        assert {"distances.csv", "replicates_perm.csv", "infer_perm.json",
                "infer_subsample.json", "replicates_bootstrap.csv", "infer_bootstrap.json",
                "inference_report.json"} <= set(blobs[0])
        assert blobs[0] == blobs[1]

    def test_scca_cv_eval_and_fcg_same_bytes_at_any_blas_thread_count(self, tmp_path):
        # scca cv with its default grid, scca eval and subcluster of the
        # selected model, and the dense scca fit of the scca-cv benchmark, on
        # its planted 150 x 500 x 500 pair; fcg on subjects of the report-desk
        # benchmark's size (T = 240, 40 ROIs).  subcluster of the dense fit is
        # left out: its pair correlations differ in the last bits between 1
        # and 2 OpenBLAS threads (ROADMAP item 11).
        synth = tmp_path / "synth"
        assert run(["synth", "planted", "--n", 150, "--p", 500, "--q", 500, "--su", 10,
                    "--sv", 10, "--rho", "0.9", "--seed", 1, "--out", synth]) == 0
        src = tmp_path / "ts"
        src.mkdir()
        for i in range(3):
            TestFcg().write_subject(src, f"s{i}", t=240, m=40, seed=i)
        pair = ["--x", synth / "x.bin", "--y", synth / "y.bin"]
        out = tmp_path / "out"
        blobs = self._outputs_at_each_blas_thread_count(
            [["scca", "cv", *pair, "--seed", 1, "--out", out],
             ["scca", "eval", *pair, "--model", out / "model.json", "--out", out],
             ["subcluster", *pair, "--model", out / "model.json", "--out", out],
             ["scca", "fit", *pair, "--c1", 12, "--c2", 12, "--seed", 1, "--out", out / "fit"],
             ["fcg", "--input", src, "--out", out]], out)
        assert set(blobs[0]) == {"model.json", "cv_report.json", "cv_surface.csv",
                                 "projections.csv", "scca_eval.json", "clusters_x.csv",
                                 "clusters_y.csv", "subcluster_report.json",
                                 os.path.join("fit", "model.json"),
                                 os.path.join("fit", "scca_fit.json"), "fcg.bin",
                                 "fcg_report.json"}
        assert blobs[0] == blobs[1]
