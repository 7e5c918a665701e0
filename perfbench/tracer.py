"""Benchmark-side tracer: spans around the public functions of each layer.

A layer is one module of the package (``src/hdpaired/<layer>.py``).  The
tracer replaces each target function at every name it is bound to in the
loaded ``hdpaired`` modules (``hdpaired.cli.distance_matrix`` and
``hdpaired.inference.distance_matrix`` are one object), and methods on their
class, so a call is seen wherever its caller resolves it.  Nothing in the
package is edited, and ``instrument`` restores every original on exit.

Spans are kept in memory and written out by the caller at the end of a run.
Hot leaf functions (the Dykstra projections) are counted, not spanned, so
that tracing does not multiply the cost of the inner loop.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field

LAYERS = ("matrixio", "fcg", "distances", "inference", "scca", "model_selection",
          "subcluster", "cli")
CLI_COMMANDS = ("fcg", "report", "scca_cv", "scca_fit", "subcluster")


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    run_id: str
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans on one thread; every span carries ``run_id``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        # Arguments of the first call, by span name, for calls that are
        # replayed after the traced run.
        self.first_call: dict[str, tuple[tuple, dict]] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(len(self.spans), parent, name, self.run_id, time.perf_counter())
        self.spans.append(rec)
        self._stack.append(rec.span_id)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec.end = time.perf_counter()

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    rec.attrs.update(attrs(args, kwargs, result))
            self.first_call.setdefault(name, (args, kwargs))
            return result

        return traced

    def count(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, f) -> None:
        """Writes the spans, then the counts, one JSON object per line."""
        for s in self.spans:
            f.write(json.dumps(asdict(s), sort_keys=True) + "\n")
        f.write(json.dumps({"run_id": self.run_id, "counts": dict(self.counts)},
                           sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append(s)
    out = {}
    for s in spans:
        covered, edge = 0.0, s.start
        for c in sorted(children[s.span_id], key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
            edge = max(edge, hi)
        out[s.span_id] = s.duration - covered
    return out


def _path_arg(args, kwargs) -> str:
    return args[0] if args else kwargs["path"]


# (module, attribute, span name, attrs(args, kwargs, result) -> dict)
SPANS = (
    ("hdpaired.matrixio", "load_matrix", "matrixio.load",
     lambda a, k, r: {"bytes": os.path.getsize(_path_arg(a, k))}),
    ("hdpaired.matrixio", "ColumnStandardizer.fit", "matrixio.standardize", None),
    ("hdpaired.matrixio", "ColumnStandardizer.apply", "matrixio.standardize", None),
    ("hdpaired.fcg", "fcg_from_timeseries", "fcg.transform", None),
    ("hdpaired.fcg", "ols_residualize", "fcg.residualize", None),
    ("hdpaired.fcg", "butterworth_bandpass", "fcg.bandpass", None),
    ("hdpaired.fcg", "pearson_fcg", "fcg.pearson", None),
    ("hdpaired.distances", "distance_matrix", "distances.build",
     lambda a, k, r: {"n": r.n_subjects}),
    ("hdpaired.inference", "permutation_test", "inference.perm",
     lambda a, k, r: {"replicates": r.n_permutations}),
    ("hdpaired.inference", "subsample_ci", "inference.subsample",
     lambda a, k, r: {"replicates": r.n_subsamples, "valid": r.n_subsamples - r.n_degenerate}),
    ("hdpaired.inference", "dcor_ttest", "inference.dcor", None),
    ("hdpaired.inference", "distance_pair_correlation", "inference.observed", None),
    ("hdpaired.inference", "rank_correlations", "inference.rank", None),
    ("hdpaired.scca", "SccaSolver.__init__", "scca.solver_init", None),
    ("hdpaired.scca", "SccaSolver.fit", "scca.fit",
     lambda a, k, r: {"iterations": r.iterations, "converged": int(r.converged)}),
    ("hdpaired.model_selection", "spectral_scale", "model_selection.spectral_scale", None),
    ("hdpaired.model_selection", "cv_grid_search", "model_selection.cv",
     lambda a, k, r: {"cell_folds": int(r.fold_correlations.size)}),
    ("hdpaired.subcluster", "feature_distance_matrix", "subcluster.feature_dist",
     lambda a, k, r: {"features": r.n_subjects}),
    ("hdpaired.subcluster", "complete_linkage", "subcluster.linkage", None),
    ("hdpaired.subcluster", "subcluster_cca", "subcluster.pair_cca", None),
    ("hdpaired.cli", "_read_plain_csv", "cli.read_csv", None),
)
# One project_l2_ball call per Dykstra sweep.
COUNTERS = (
    ("hdpaired.scca", "project_l2_ball", "scca.dykstra_sweeps"),
    ("hdpaired.scca", "project_l1_ball", "scca.l1_projections"),
)


def _patch(modules: list, module_name: str, attribute: str, make, undo: list) -> None:
    owner = importlib.import_module(module_name)
    if "." in attribute:
        cls_name, method = attribute.split(".")
        cls = getattr(owner, cls_name)
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(make(raw.__func__)))
        else:
            setattr(cls, method, make(raw))
        undo.append((cls, method, raw))
        return
    original = getattr(owner, attribute)
    replacement = make(original)
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                undo.append((module, name, original))


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every target through ``tracer`` for the duration of the block."""
    importlib.import_module("hdpaired.cli")
    modules = [m for name, m in list(sys.modules.items())
               if name == "hdpaired" or name.startswith("hdpaired.")]
    undo: list = []
    try:
        for module_name, attribute, name, attrs in SPANS:
            _patch(modules, module_name, attribute,
                   lambda fn, name=name, attrs=attrs: tracer.wrap(name, fn, attrs), undo)
        for module_name, attribute, name in COUNTERS:
            _patch(modules, module_name, attribute,
                   lambda fn, name=name: tracer.count(name, fn), undo)
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


# Per-layer metrics: name -> (unit, better).  Times named after a function
# are the self time of its spans (nested traced calls excluded), except
# fcg.transform_s, model_selection.cv_s and cli.<command>_s, which are
# inclusive.  A layer a workload does not run reads 0.
PER_LAYER = {
    "inference.perm_s": ("s", "lower"),
    "inference.perm_replicates": ("count", "lower"),
    "inference.perm_us_per_replicate": ("us", "lower"),
    "inference.subsample_s": ("s", "lower"),
    "inference.subsample_us_per_replicate": ("us", "lower"),
    "inference.subsample_valid_ratio": ("ratio", "higher"),
    "inference.observed_s": ("s", "lower"),
    "inference.dcor_s": ("s", "lower"),
    "inference.rank_s": ("s", "lower"),
    "inference.perm_threads_speedup": ("ratio", "higher"),
    "inference.self_s": ("s", "lower"),
    "distances.builds": ("count", "lower"),
    "distances.build_s": ("s", "lower"),
    "distances.pairs": ("count", "lower"),
    "distances.ns_per_pair": ("ns", "lower"),
    "distances.bytes_out": ("B", "lower"),
    "distances.self_s": ("s", "lower"),
    "fcg.subjects": ("count", "lower"),
    "fcg.transform_s": ("s", "lower"),
    "fcg.residualize_s": ("s", "lower"),
    "fcg.bandpass_s": ("s", "lower"),
    "fcg.pearson_s": ("s", "lower"),
    "fcg.self_s": ("s", "lower"),
    "matrixio.load_s": ("s", "lower"),
    "matrixio.bytes_read": ("B", "lower"),
    "matrixio.standardize_s": ("s", "lower"),
    "matrixio.self_s": ("s", "lower"),
    "scca.solvers": ("count", "lower"),
    "scca.solver_init_s": ("s", "lower"),
    "scca.fits": ("count", "lower"),
    "scca.fit_s": ("s", "lower"),
    "scca.ms_per_fit": ("ms", "lower"),
    "scca.iterations": ("count", "lower"),
    "scca.converged_ratio": ("ratio", "higher"),
    "scca.dykstra_sweeps": ("count", "lower"),
    "scca.l1_projections": ("count", "lower"),
    "scca.self_s": ("s", "lower"),
    "model_selection.cv_s": ("s", "lower"),
    "model_selection.cell_folds": ("count", "lower"),
    "model_selection.s_per_cell_fold": ("s", "lower"),
    "model_selection.spectral_scale_s": ("s", "lower"),
    "model_selection.cv_self_s": ("s", "lower"),
    "model_selection.self_s": ("s", "lower"),
    "subcluster.features": ("count", "lower"),
    "subcluster.feature_pairs": ("count", "lower"),
    "subcluster.feature_dist_s": ("s", "lower"),
    "subcluster.linkage_s": ("s", "lower"),
    "subcluster.pair_cca_s": ("s", "lower"),
    "subcluster.self_s": ("s", "lower"),
    **{f"cli.{c}_s": ("s", "lower") for c in CLI_COMMANDS},
    "cli.read_csv_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.pipeline_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.accounted_ratio": ("ratio", "higher"),
}
# Counts that must repeat exactly between traced runs of one seed.
EXACT_COUNTS = ("inference.perm_replicates", "distances.builds", "fcg.subjects",
                "scca.solvers", "scca.fits", "scca.iterations", "scca.dykstra_sweeps",
                "scca.l1_projections", "model_selection.cell_folds", "subcluster.features")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced chain; the trace.* entries and
    inference.perm_threads_speedup are left to the caller."""
    own = self_times(tracer.spans)
    by_name = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)

    def incl(name):
        return sum(s.duration for s in by_name[name])

    def excl(name):
        return sum(own[s.span_id] for s in by_name[name])

    def attr(name, key):
        return sum(s.attrs[key] for s in by_name[name])

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    sizes = [s.attrs["n"] for s in by_name["distances.build"]]
    features = [s.attrs["features"] for s in by_name["subcluster.feature_dist"]]
    m = {
        "inference.perm_s": excl("inference.perm"),
        "inference.perm_replicates": attr("inference.perm", "replicates"),
        "inference.subsample_s": excl("inference.subsample"),
        "inference.observed_s": excl("inference.observed"),
        "inference.dcor_s": excl("inference.dcor"),
        "inference.rank_s": excl("inference.rank"),
        "distances.builds": len(sizes),
        "distances.build_s": excl("distances.build"),
        "distances.pairs": sum(n * (n - 1) // 2 for n in sizes),
        "distances.bytes_out": sum(8 * n * n for n in sizes),
        "fcg.subjects": len(by_name["fcg.transform"]),
        "fcg.transform_s": incl("fcg.transform"),
        "fcg.residualize_s": excl("fcg.residualize"),
        "fcg.bandpass_s": excl("fcg.bandpass"),
        "fcg.pearson_s": excl("fcg.pearson"),
        "matrixio.load_s": excl("matrixio.load"),
        "matrixio.bytes_read": attr("matrixio.load", "bytes"),
        "matrixio.standardize_s": excl("matrixio.standardize"),
        "scca.solvers": len(by_name["scca.solver_init"]),
        "scca.solver_init_s": excl("scca.solver_init"),
        "scca.fits": len(by_name["scca.fit"]),
        "scca.fit_s": excl("scca.fit"),
        "scca.iterations": attr("scca.fit", "iterations"),
        "scca.dykstra_sweeps": tracer.counts["scca.dykstra_sweeps"],
        "scca.l1_projections": tracer.counts["scca.l1_projections"],
        "model_selection.cv_s": incl("model_selection.cv"),
        "model_selection.cell_folds": attr("model_selection.cv", "cell_folds"),
        "model_selection.spectral_scale_s": excl("model_selection.spectral_scale"),
        "model_selection.cv_self_s": excl("model_selection.cv"),
        "subcluster.features": sum(features),
        "subcluster.feature_pairs": sum(f * (f - 1) // 2 for f in features),
        "subcluster.feature_dist_s": excl("subcluster.feature_dist"),
        "subcluster.linkage_s": excl("subcluster.linkage"),
        "subcluster.pair_cca_s": excl("subcluster.pair_cca"),
        "cli.read_csv_s": excl("cli.read_csv"),
    }
    m["inference.perm_us_per_replicate"] = per(m["inference.perm_s"],
                                               m["inference.perm_replicates"], 1e6)
    m["inference.subsample_us_per_replicate"] = per(
        m["inference.subsample_s"], attr("inference.subsample", "replicates"), 1e6)
    m["inference.subsample_valid_ratio"] = per(attr("inference.subsample", "valid"),
                                               attr("inference.subsample", "replicates"))
    m["distances.ns_per_pair"] = per(m["distances.build_s"], m["distances.pairs"], 1e9)
    m["scca.ms_per_fit"] = per(m["scca.fit_s"], m["scca.fits"], 1e3)
    m["scca.converged_ratio"] = per(attr("scca.fit", "converged"), m["scca.fits"])
    m["model_selection.s_per_cell_fold"] = per(m["model_selection.cv_s"],
                                               m["model_selection.cell_folds"])
    for c in CLI_COMMANDS:
        m[f"cli.{c}_s"] = incl(f"cli.{c}")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(own[s.span_id] for s in tracer.spans if s.layer == layer)
    return m
