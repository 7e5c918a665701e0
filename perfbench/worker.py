"""One benchmark process: build a workload's inputs, or run its CLI chain.

    worker.py setup --workload W --seed N --dir D --kernel FILE
    worker.py run --workload W --seed N --seconds S --trace 0|1 \\
        --inputs D --work D --result FILE --spans FILE

``run.py`` starts each in a fresh interpreter with BLAS pinned to one
thread.  ``setup`` writes the full and tiny inputs and warms up; it is timed
from outside.  ``run`` warms up on the tiny inputs, repeats the chain on the
full ones, checks the outputs and writes its measurements to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracer import EXACT_COUNTS, LAYERS, Tracer, instrument, layer_metrics
from workloads import WORKLOADS

# Repetitions per run at least, so that re-runs can be compared byte for byte.
MIN_REPS = 2


def snapshot(root: Path) -> dict[str, str]:
    """Relative path -> sha256 of every file under root."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


def reference_kernel() -> float:
    """Seconds of one pass of fixed work that does not depend on the program:
    interpreter loops, small numpy operations, a gather and a BLAS product, in
    roughly the mix the workloads run.  Timed between chains in the chains'
    own process, it tracks how fast the shared host runs that process at that
    moment.  Its data is built anew each pass and is under 1 MB, so that it
    adds well under 1 MB to the process's peak memory."""
    import numpy as np

    rng = np.random.default_rng(0)
    line = ",".join(f"{v:.8g}" for v in rng.standard_normal(300))
    small = rng.standard_normal((150, 300))
    perms = [rng.permutation(150) for _ in range(64)]
    big = rng.standard_normal(32_768)
    index = rng.permutation(big.size)
    dense = rng.standard_normal((200, 100))
    start = time.perf_counter()
    acc = 0.0
    for _ in range(900):
        acc += sum(float(v) for v in line.split(","))
    for k in range(1500):
        rows = small[perms[k % 64]]
        acc += math.fsum(rows[:, 0]) + float(rows[:, 1] @ small[:, 1])
    for _ in range(400):
        acc += float(big[index][0])
    for _ in range(300):
        acc += float((dense.T @ dense)[0, 0])
    return time.perf_counter() - start if math.isfinite(acc) else math.nan


def run_chain(chain, tracer: Tracer | None = None) -> tuple[float, int, str | None]:
    """Runs the CLI steps in order; returns (seconds, steps run, failed step)."""
    from hdpaired.cli import main

    start = time.perf_counter()
    for steps, (name, argv) in enumerate(chain, start=1):
        with tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext():
            rc = main(argv)
        if rc != 0:
            return time.perf_counter() - start, steps, name
    return time.perf_counter() - start, len(chain), None


class Run:
    """One run's CLI steps, output checks and timings."""

    def __init__(self, workload, seed: int, inputs: Path, work: Path, size: str = "full"):
        self.workload, self.seed, self.size = workload, seed, size
        self.inputs, self.work = inputs, work
        self.out = work / "out"
        self.steps = self.steps_failed = 0
        self.checks: list[tuple[str, bool, str]] = []
        self.reference: dict[str, str] | None = None

    def warm_up(self) -> None:
        """The chain once on the tiny inputs, so that lazy set-up is not timed."""
        out = self.work / "warmup"
        run_chain(self.workload.chain(self.inputs / "tiny", out, self.seed, "tiny"))
        shutil.rmtree(out, ignore_errors=True)

    def rep(self, tracer: Tracer | None = None) -> float | None:
        """The chain once into a fresh --out tree; None if a step failed."""
        shutil.rmtree(self.out, ignore_errors=True)
        chain = self.workload.chain(self.inputs / self.size, self.out, self.seed, self.size)
        seconds, steps, failed = run_chain(chain, tracer)
        self.steps += steps
        if failed:
            self.steps_failed += 1
            print(f"{self.workload.name}: step {failed!r} exited non-zero", file=sys.stderr)
            return None
        tree = snapshot(self.out)
        if self.reference is None:
            self.reference = tree
        else:
            name = "traced_out_equals_untraced" if tracer else "out_identical_across_reps"
            self.checks.append((name, tree == self.reference, f"{len(tree)} files"))
        return seconds

    def check_outputs(self) -> None:
        try:
            self.checks += self.workload.check(self.inputs / self.size, self.out, self.size)
        except Exception as exc:  # an unreadable output is a failed check, not a crash
            self.checks.append(("outputs_readable", False, f"{type(exc).__name__}: {exc}"))


def measure(run: Run, seconds: float) -> dict:
    """Repeats the chain with the reference kernel before the first chain and
    after each one, so that chain i lies between kernel passes i and i + 1."""
    times: list[float] = []
    reference_kernel()
    kernel_s = [reference_kernel()]
    start = time.perf_counter()
    while len(times) < MIN_REPS or time.perf_counter() - start < seconds:
        t = run.rep()
        if t is None:
            return {"rep_seconds": times, "kernel_seconds": kernel_s}
        times.append(t)
        kernel_s.append(reference_kernel())
    run.check_outputs()
    return {"rep_seconds": times, "kernel_seconds": kernel_s}


def threads_speedup(tracer: Tracer, run: Run) -> float:
    """permutation_test replayed on the traced chain's own arguments at
    threads=1 and threads=nproc; 0 when the chain runs no permutation test."""
    if "inference.perm" not in tracer.first_call:
        return 0.0
    from hdpaired import inference

    args, kwargs = tracer.first_call["inference.perm"]
    bound = inspect.signature(inference.permutation_test).bind(*args, **kwargs)
    nproc = os.cpu_count() or 1
    nulls, times = [], []
    for threads in (1, nproc):
        bound.arguments["threads"] = threads
        start = time.perf_counter()
        nulls.append(inference.permutation_test(*bound.args, **bound.kwargs).null_samples)
        times.append(time.perf_counter() - start)
    run.checks.append(("perm_same_at_any_threads", nulls[0].tobytes() == nulls[1].tobytes(),
                       f"threads 1 vs {nproc}"))
    return times[0] / times[1]


def measure_traced(run: Run, seconds: float, spans_path: Path) -> dict:
    """Alternates untraced and traced chains.  Per-layer metrics are medians
    over the traced chains; the overhead is traced minus untraced time."""
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        t = run.rep()
        if t is None:
            return {"rep_seconds": untraced}
        untraced.append(t)
        tracer = Tracer(f"{run.workload.name}-s{run.seed}-p{os.getpid()}-r{len(traced)}")
        with instrument(tracer):
            t = run.rep(tracer)
        if t is None:
            return {"rep_seconds": untraced}
        traced.append(t)
        tracers.append(tracer)
    run.check_outputs()
    per_rep = [layer_metrics(tr) for tr in tracers]
    for name in EXACT_COUNTS:
        values = sorted({m[name] for m in per_rep})
        run.checks.append((f"count_repeats:{name}", len(values) == 1, f"values={values}"))
    metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
    metrics["trace.pipeline_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.accounted_ratio"] = statistics.median(
        sum(m[f"{layer}.self_s"] for layer in LAYERS) / t for m, t in zip(per_rep, traced))
    metrics["inference.perm_threads_speedup"] = threads_speedup(tracers[0], run)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as f:
        for tracer in tracers:
            tracer.dump(f)
    return {"rep_seconds": untraced, "per_layer": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("setup", "run"):
        sp = sub.add_parser(mode)
        sp.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
        sp.add_argument("--seed", type=int, required=True)
    sub.choices["setup"].add_argument("--dir", type=Path, required=True)
    sub.choices["setup"].add_argument("--kernel", type=Path, required=True)
    sp = sub.choices["run"]
    sp.add_argument("--seconds", type=float, required=True)
    sp.add_argument("--trace", type=int, choices=(0, 1), required=True)
    for flag in ("--inputs", "--work", "--result", "--spans"):
        sp.add_argument(flag, type=Path, required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.mode == "setup":
        # Reference kernel passes before and after the set-up; the launcher
        # takes their elapsed time out of the process's wall time.
        start = time.perf_counter()
        passes = [reference_kernel()]
        elapsed = time.perf_counter() - start
        for size in ("full", "tiny"):
            workload.make_inputs(args.dir / size, args.seed, size)
        Run(workload, args.seed, args.dir, args.dir).warm_up()
        start = time.perf_counter()
        passes.append(reference_kernel())
        elapsed += time.perf_counter() - start
        args.kernel.write_text(json.dumps({"passes": passes, "elapsed": elapsed}),
                               encoding="utf-8")
        return 0

    run = Run(workload, args.seed, args.inputs, args.work)
    run.warm_up()
    if args.trace:
        result = measure_traced(run, args.seconds, args.spans)
    else:
        result = measure(run, args.seconds)
    result.update(
        steps=run.steps,
        steps_failed=run.steps_failed,
        checks=run.checks,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
