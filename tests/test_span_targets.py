"""The benchmark's span table names functions inside dicut; a rename that
leaves one of them dangling, or a call that bypasses one, fails here instead
of under a traced run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from dicut.generators import lower_bound_gadget, random_min_outdeg
from dicut.pipeline import RESTART_COUNT, PipelineConfig, run

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("module, attr", [t[:2] for t in _load_spans().TARGETS])
def test_span_target_resolves(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


@pytest.mark.parametrize(
    "build, sweeps",
    [
        (lambda: lower_bound_gadget(2, 20)[0], 1),
        (lambda: random_min_outdeg(20, 2, 0.5, 7), 1 + RESTART_COUNT),
    ],
    ids=["lower_bound-n45", "random-n20-restarts"],
)
def test_local_search_span_counts_every_sweep(build, sweeps):
    """The polish's sweep and each restart's go through the traced name."""
    spans = _load_spans()
    for module in {t[0] for t in spans.TARGETS}:
        importlib.import_module(module)
    graph = build()
    tracer = spans.Tracer()
    with spans.traced(tracer):
        run(graph, PipelineConfig(d=2, seed=1))
    assert spans.raw_metrics(tracer)["pipeline.local_search.calls"] == sweeps
