"""Tests of the benchmark's own machinery: spans, wrappers, recount, contract.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import bench
import checks
import spans
from conftest import BENCH_DIR, ROOT
from dicut import core, generators, harness, pipeline
from workloads import WORKLOADS, Spec, Workload, build_instances


def test_self_time_subtracts_direct_children_only():
    s = [
        spans.Span("root", 0, 100, None),
        spans.Span("child", 10, 40, 0),
        spans.Span("child", 50, 60, 0),
        spans.Span("grandchild", 52, 55, 2),
    ]
    times = spans.self_times(s)
    assert times["root"] == pytest.approx((60e-9, 1))
    assert times["child"] == pytest.approx((37e-9, 2))
    assert times["grandchild"] == pytest.approx((3e-9, 1))


def test_tracer_records_parents_of_nested_spans():
    tracer = spans.Tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("c"):
                pass
        with tracer.span("d"):
            pass
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("a", None), ("b", 0), ("c", 1), ("d", 0)
    ]
    assert all(s.start <= s.end for s in tracer.spans)
    assert tracer.spans[0].end >= tracer.spans[3].end


@pytest.fixture
def solved(tmp_path):
    graph = generators.random_min_outdeg(40, 2, extra=0.5, seed=3)
    path = str(tmp_path / "g.el")
    core.write_edge_list(graph, path)
    result = pipeline.run(graph, pipeline.PipelineConfig(d=2, seed=3))
    part = "".join(str(s) for s in result.partition.side)
    return checks.read_edge_list(path), part, result.stats


def test_recount_agrees_with_the_pipeline(solved):
    edges, part, stats = solved
    assert checks.recount(edges, part) == (stats.e12, stats.e21)


def test_recount_flags_a_flipped_vertex_and_swapped_sides(solved):
    edges, part, stats = solved
    flipped = ("2" if part[0] == "1" else "1") + part[1:]
    assert checks.recount(edges, flipped) != (stats.e12, stats.e21)
    swapped = part.translate(str.maketrans("12", "21"))
    assert stats.e12 != stats.e21
    assert checks.recount(edges, swapped) == (stats.e21, stats.e12)


def test_recount_rejects_partitions_of_the_wrong_shape(solved):
    edges, part, _ = solved
    for bad in (part[:-1], "?" + part[1:]):
        with pytest.raises(ValueError, match="per vertex"):
            checks.recount(edges, bad)


def test_partition_file_round_trips(tmp_path, solved):
    edges, part, _ = solved
    path = str(tmp_path / "p.txt")
    core.write_partition(core.Bipartition(tuple(int(c) for c in part)), path)
    assert checks.read_partition(path, edges.n) == part


def _attribute_snapshot():
    snap = {}
    for mod in spans._dicut_modules():
        for key, value in vars(mod).items():
            snap[(mod.__name__, key)] = value
            if isinstance(value, type):
                for k, v in vars(value).items():
                    snap[(mod.__name__, key, k)] = v
    return snap


def test_wrappers_cover_every_namespace_and_are_restored():
    before = _attribute_snapshot()
    original = core.cut_stats
    tracer = spans.Tracer()
    with pytest.raises(KeyError):
        with spans.traced(tracer):
            for mod in (core, pipeline, harness, sys.modules["dicut.samplers"]):
                assert hasattr(mod.cut_stats, spans.WRAPPED_MARK)
            assert hasattr(core.Digraph.__init__, spans.WRAPPED_MARK)
            assert "dicut.core.cut_stats" in spans.wrapped_names()
            raise KeyError("leave the traced block by an exception")
    assert core.cut_stats is original
    assert spans.wrapped_names() == []
    spans.assert_unwrapped()
    assert _attribute_snapshot() == before


def test_untraced_calls_after_a_traced_pass_record_nothing():
    graph, _ = generators.lower_bound_gadget(2, 20)
    config = pipeline.PipelineConfig(d=2, seed=1)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        result = pipeline.run(graph, config)
    recorded = len(tracer.spans)
    assert recorded > 0
    assert "bisection" in [rec["step"] for rec in result.branch_trace]
    metrics = spans.raw_metrics(tracer)
    assert metrics["decomposition.maximum_matching.calls"] == 2
    assert metrics["decomposition.stars"] > 0
    assert metrics["core.edge_visits"] > metrics["core.cut_stats.calls"]
    pipeline.run(graph, config)
    core.cut_stats(graph, result.partition)
    assert len(tracer.spans) == recorded


def test_middle_mean_drops_a_stall():
    assert bench._middle_mean([1.0, 1.0, 1.2, 50.0]) == pytest.approx(1.1)
    assert bench._middle_mean([2.0, 4.0]) == pytest.approx(3.0)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.PER_LAYER
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


TINY = Workload(
    "tiny", "test only",
    (Spec("random-d2-n16", 2,
          lambda seed: generators.random_min_outdeg(16, 2, 0.5, seed)),
     Spec("lower_bound-d3-k2", 3, lambda seed: generators.lower_bound_gadget(3, 2)[0])),
    setup_reps=2, with_oracle=True,
)


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    run = bench.Bench(ROOT, TINY, 5, str(tmp_path))
    metrics, samples = run.untraced_run(0.001)
    assert set(metrics) == set(bench.END_TO_END)
    assert run.failures == []
    assert metrics["pass_rate"] == 1.0
    assert run.attempted == 2 * 4  # run, oracle, CLI partition, CLI oracle
    assert [len(v) for v in samples["setup_s"].values()] == [2, 2]
    assert metrics["peak_rss_mb"] > 1
    assert set(run.fingerprints) == {"random-d2-n16", "lower_bound-d3-k2"}


def test_traced_run_reports_every_layer_and_leaves_no_wrapper(tmp_path):
    run = bench.Bench(ROOT, TINY, 5, str(tmp_path))
    metrics, _ = run.traced_run(0.001)
    assert set(metrics) == set(bench.PER_LAYER)
    assert run.failures == []
    assert metrics["oracle.exact_judicious.self_s"] > 0
    assert metrics["harness.build_report.self_s"] > 0
    assert metrics["core.parse_edge_list.self_s"] > 0
    assert metrics["oracle.evaluated"] == 2 * (2**15 + 2**16)
    spans.assert_unwrapped()


def test_a_wrong_cli_report_counts_as_a_failure(tmp_path):
    run = bench.Bench(ROOT, TINY, 5, str(tmp_path))
    inst = build_instances(TINY, 5, str(tmp_path))[0]
    run.edges = {inst.key: checks.read_edge_list(inst.path)}
    part = str(tmp_path / "p.txt")
    core.write_partition(core.Bipartition((1,) * 8 + (2,) * 8), part)
    e12, e21 = checks.recount(run.edges[inst.key], "1" * 8 + "2" * 8)
    report = {"partition": "1" * 8 + "2" * 8, "e12": e12, "e21": e21 + 1,
              "meets_guarantee": True}
    assert "recount" in run._check_report(inst, 0, json.dumps(report), part)
    report["e21"] = e21
    assert run._check_report(inst, 0, json.dumps(report), part) is None
    assert run._check_report(inst, 1, "boom", part) == "exit code 1: boom"


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_time_metrics_are_scaled_to_the_reference_speed(tmp_path, monkeypatch):
    # a machine on which the reference loop takes twice PACE_REFERENCE_S
    # reports every time at half its raw value
    monkeypatch.setattr(bench, "_pace", lambda: 2 * bench.PACE_REFERENCE_S)
    run = bench.Bench(ROOT, TINY, 5, str(tmp_path))
    metrics, samples = run.untraced_run(0.001)
    assert samples["scale"] == pytest.approx(0.5)
    for name in ("setup_s", "solve_s", "cli_s"):
        raw = sum(bench._middle_mean(v) for v in samples[name].values())
        assert metrics[name] == pytest.approx(raw / 2)


def test_a_run_whose_solves_all_fail_still_ends_and_counts_them(tmp_path, monkeypatch):
    def broken(graph, config):
        raise RuntimeError("broken pipeline")

    monkeypatch.setattr(pipeline, "run", broken)
    run = bench.Bench(ROOT, TINY, 5, str(tmp_path))
    metrics, samples = run.untraced_run(0.5)
    assert samples["solve_s"] == {}
    assert metrics["pass_rate"] < 1
    assert any("broken pipeline" in f for f in run.failures)
