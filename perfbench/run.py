"""The hdpaired benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the package under ``src/`` of
that checkout.  NAME is one of the workloads in ``workloads.py``, or ``all``
to run each in turn.  For each workload the launcher

1. builds the inputs from the seed ``SETUP_REPEATS`` times, each in a fresh
   interpreter that also imports the package and warms up, and reports the
   median wall time, rescaled like ``pipeline_norm_s``, as ``setup_s`` (the
   copies must be byte-identical);
2. runs the workload's CLI chain in one more fresh interpreter, repeated
   for at least ``--seconds`` and at least twice, and checks the outputs.

With ``--trace 0`` it reports the end-to-end metrics: ``pipeline_norm_s``
(median wall time of one chain, rescaled to the reference host speed by a
fixed kernel timed between chains; see ``normalized_seconds``),
``peak_rss_mb`` (peak resident memory of the chain's process) and
``setup_s``; the plain median wall time ``pipeline_s`` is printed beside
them.  With ``--trace 1`` it alternates untraced and
traced chains and reports the per-layer metrics of ``tracer.PER_LAYER``.

Every child runs with BLAS pinned to one thread and the CLI at
``--threads 1``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are for people, and include ``error_rate`` (failed CLI steps plus
failed output checks, over the number attempted).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER
from worker import snapshot
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_REPEATS = 3
# A run must end within 180 s; leave room for clean-up.
DEADLINE_S = 170.0
END_TO_END = {"pipeline_norm_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# About the median seconds of one worker.reference_kernel pass on the host
# the baseline was measured on (perfbench/baseline.json); pipeline_norm_s
# and setup_s are in seconds at that host speed.
REF_KERNEL_S = 0.18


class RunFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def environment() -> dict:
    """What the timings depend on besides the code."""
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
    }


def call(args: list, deadline: float) -> float:
    """Runs one worker process to completion; returns its wall seconds."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *map(str, args)],
                              env=child_env(), cwd=ROOT, stdout=sys.stderr,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker {args[0]} ran past the deadline") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker {args[0]} exited with {proc.returncode}")
    return time.perf_counter() - start


def normalized_seconds(rep_s: list[float], kernel_s: list[float]) -> float:
    """Median chain time rescaled to the reference host speed: each chain's
    wall time times REF_KERNEL_S over the mean of the kernel passes on either
    side of it.  The shared host's speed drifts by tens of percent over
    minutes, which no run length averages away; the ratio cancels it."""
    return statistics.median(
        t * REF_KERNEL_S / ((a + b) / 2) for t, a, b in zip(rep_s, kernel_s, kernel_s[1:]))


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_work" / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        # Every set-up writes to the same path, because generated reports
        # embed their output path.
        inputs = work / "inputs"
        setup_s, setup_wall, trees = [], [], []
        work.mkdir(parents=True)
        kernel_file = work / "setup-kernel.json"
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(inputs, ignore_errors=True)
            wall = call(["setup", "--workload", name, "--seed", seed, "--dir", inputs,
                         "--kernel", kernel_file], deadline)
            kernel = json.loads(kernel_file.read_text(encoding="utf-8"))
            setup_wall.append(wall - kernel["elapsed"])
            setup_s.append(normalized_seconds(setup_wall[-1:], kernel["passes"]))
            trees.append(snapshot(inputs))
        same = all(tree == trees[0] for tree in trees)
        result_file = work / "result.json"
        call(["run", "--workload", name, "--seed", seed, "--seconds", seconds,
              "--trace", trace, "--inputs", inputs, "--work", work / "run",
              "--result", result_file,
              "--spans", ROOT / ".perfbench_out" / f"spans-{name}-s{seed}.jsonl"], deadline)
        result = json.loads(result_file.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not result["rep_seconds"] or (trace and "per_layer" not in result):
        raise RunFailed(f"{name}: no chain completed, so there is nothing to report")
    checks = [("inputs_repeat_for_seed", same, f"{SETUP_REPEATS} set-ups")] + [
        tuple(c) for c in result["checks"]]
    attempted = result["steps"] + len(checks)
    failed = result["steps_failed"] + sum(not ok for _, ok, _ in checks)
    if trace:
        values, units = result["per_layer"], {k: unit for k, (unit, _) in PER_LAYER.items()}
    else:
        values, units = {
            "pipeline_norm_s": normalized_seconds(result["rep_seconds"],
                                                  result["kernel_seconds"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setup_s),
        }, END_TO_END
    metrics = {k: (values[k], unit) for k, unit in units.items()}
    reps = ", ".join(f"{t:.3f}" for t in result["rep_seconds"])
    print(f"{name}: seed {seed}, untraced chains [{reps}] s, set-ups "
          f"[{', '.join(f'{t:.3f}' for t in setup_wall)}] s (wall, not rescaled)")
    print(f"  error_rate = {failed / attempted:.4f} ratio ({failed} of {attempted} failed)")
    print(f"  pipeline_s = {statistics.median(result['rep_seconds']):.6g} s (wall, not rescaled)")
    if not trace:
        print(f"  reference kernel = {statistics.median(result['kernel_seconds']):.4g} s "
              f"(median of {len(result['kernel_seconds'])} passes; {REF_KERNEL_S} s at baseline)")
    for check, ok, detail in checks:
        if not ok:
            print(f"  FAILED {check}: {detail}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps the
    # running worker and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "hdpaired" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'hdpaired'}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    print("environment: " + ", ".join(f"{k} {v}" for k, v in environment().items()))
    try:
        runs = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    prefix = len(names) > 1
    metrics = {
        (f"{n}/{key}" if prefix else key): {"value": value, "unit": unit}
        for n, r in runs.items()
        for key, (value, unit) in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in runs.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
