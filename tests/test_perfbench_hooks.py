"""Guard for the benchmark's hooks: perfbench/tracer.py patches package
functions and methods that it names by string, so a rename in the package
would silently drop a span or a counter.  This loads the tracer by path,
checks that every named target exists and is patched inside `instrument`,
that a fit is seen through the patches, and that every original is back on
exit."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _resolve(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    if "." in attribute:
        cls_name, method = attribute.split(".")
        return getattr(owner, cls_name).__dict__[method]
    return getattr(owner, attribute)


def test_every_tracer_target_resolves_and_is_restored():
    tr = _load_tracer()
    targets = [(m, a) for m, a, *_ in tr.SPANS] + [(m, a) for m, a, _ in tr.COUNTERS]
    importlib.import_module("hdpaired.cli")
    originals = {t: _resolve(*t) for t in targets}

    from hdpaired import model_selection
    from hdpaired.scca import SccaParams, SccaSolver

    tracer = tr.Tracer("t")
    with tr.instrument(tracer):
        unpatched = [t for t in targets if _resolve(*t) is originals[t]]
        rng = np.random.default_rng(0)
        x = rng.standard_normal((12, 4))
        model_selection.fit_model(x, x + rng.standard_normal((12, 4)),
                                  SccaParams(1.5, 1.5, max_iters=5))
    assert unpatched == []
    names = {s.name for s in tracer.spans}
    assert {"matrixio.standardize", "model_selection.spectral_scale", "scca.solver_init",
            "scca.fit"} <= names
    assert [t for t in targets if _resolve(*t) is not originals[t]] == []
    assert SccaSolver.__dict__["fit"] is originals[("hdpaired.scca", "SccaSolver.fit")]
    assert model_selection.spectral_scale is originals[
        ("hdpaired.model_selection", "spectral_scale")]
