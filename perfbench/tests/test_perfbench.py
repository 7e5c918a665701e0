"""Self-tests of the benchmark: tiny smoke runs of each workload, tracer
transparency, the self-time arithmetic and BENCHMARK.json consistency.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3


def tiny_run(name: str, tmp_path: Path) -> worker.Run:
    WORKLOADS[name].make_inputs(tmp_path / "tiny", SEED, "tiny")
    return worker.Run(WORKLOADS[name], SEED, tmp_path, tmp_path / "work", size="tiny")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run_has_zero_error_rate(name, tmp_path):
    r = tiny_run(name, tmp_path)
    assert r.rep() is not None and r.rep() is not None
    r.check_outputs()
    failed = [c for c in r.checks if not c[1]]
    assert r.steps == 2 * len(WORKLOADS[name].chain(tmp_path, tmp_path, SEED, "tiny"))
    assert r.steps_failed == 0 and not failed, failed


# `dist` writes numpy scalar reprs such as "np.float64(0.5)" into
# distances.csv under numpy >= 2, so it is not in the report-desk chain.
# When this starts to pass, put `dist` back between `fcg` and `report`.
@pytest.mark.xfail(strict=True, reason="dist writes np.float64(...) cells into distances.csv")
def test_dist_writes_plain_numbers_that_match_numpy(tmp_path):
    from hdpaired.cli import main

    r = tiny_run("report-desk", tmp_path)
    assert r.rep() is not None
    inputs = tmp_path / "tiny"
    assert main([str(a) for a in ("dist", "--x", r.out / "fcg" / "fcg.bin",
                                  "--y", inputs / "y.csv", "--out", r.out / "dist")]) == 0
    checks = workloads.dist_checks(inputs, r.out, "tiny")
    assert dict((name, ok) for name, ok, _ in checks)["distances_match_numpy"], checks
    failed = [c for c in checks if not c[1]]
    assert not failed, failed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_out_bytes_equal_untraced(name, tmp_path):
    import hdpaired.distances
    import hdpaired.inference

    r = tiny_run(name, tmp_path)
    assert r.rep() is not None
    tracer = tr.Tracer("test")
    with tr.instrument(tracer):
        assert r.rep(tracer) is not None
    assert [c[0] for c in r.checks] == ["traced_out_equals_untraced"]
    assert r.checks[0][1], "tracing changed the --out bytes"
    # Every original is back in place.
    assert hdpaired.inference.distance_matrix is hdpaired.distances.distance_matrix
    assert not hasattr(hdpaired.distances.distance_matrix, "__wrapped__")
    # Layer self times account for the traced chain.
    metrics = tr.layer_metrics(tracer)
    roots = sum(s.duration for s in tracer.spans if s.parent_id is None)
    assert sum(metrics[f"{layer}.self_s"] for layer in tr.LAYERS) == pytest.approx(roots)
    assert metrics["cli.self_s"] > 0


def span(tracer, sid, parent, name, start, end, **attrs):
    tracer.spans.append(tr.Span(sid, parent, name, tracer.run_id, start, end, attrs))


def test_self_time_arithmetic_on_hand_built_tree():
    t = tr.Tracer("hand")
    span(t, 0, None, "cli.report", 0.0, 10.0)
    span(t, 1, 0, "inference.subsample", 1.0, 8.0, replicates=4, valid=3)
    span(t, 2, 1, "distances.build", 2.0, 3.0, n=4)
    span(t, 3, 1, "distances.build", 3.0, 5.0, n=4)
    span(t, 4, 1, "inference.observed", 4.5, 6.0)  # overlaps span 3 by 0.5
    span(t, 5, 0, "matrixio.load", 9.0, 9.5, bytes=100)
    own = tr.self_times(t.spans)
    assert own == {0: 2.5, 1: 3.0, 2: 1.0, 3: 2.0, 4: 1.5, 5: 0.5}

    m = tr.layer_metrics(t)
    assert m["cli.report_s"] == 10.0 and m["cli.self_s"] == 2.5
    assert m["inference.subsample_s"] == 3.0
    assert m["inference.subsample_us_per_replicate"] == pytest.approx(3.0 / 4 * 1e6)
    assert m["inference.subsample_valid_ratio"] == 0.75
    assert m["inference.self_s"] == 4.5
    assert m["distances.builds"] == 2 and m["distances.pairs"] == 12
    assert m["distances.bytes_out"] == 2 * 8 * 16
    assert m["distances.ns_per_pair"] == pytest.approx(3.0 / 12 * 1e9)
    assert m["matrixio.bytes_read"] == 100
    assert m["fcg.subjects"] == 0 and m["scca.ms_per_fit"] == 0.0


def test_normalized_seconds_pairs_each_chain_with_the_kernels_around_it():
    ref = run.REF_KERNEL_S
    # The host runs at half speed around the second chain, whose wall time
    # doubles: rescaled, both chains read the same.
    assert run.normalized_seconds([4.0, 8.0], [ref, ref, 3 * ref]) == pytest.approx(4.0)
    assert run.normalized_seconds([4.0, 6.0, 9.0], [ref] * 4) == pytest.approx(6.0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tr.PER_LAYER
    assert set(tr.layer_metrics(tr.Tracer("empty"))) | {
        "inference.perm_threads_speedup", "trace.pipeline_s", "trace.overhead_s",
        "trace.accounted_ratio"} == set(tr.PER_LAYER)
