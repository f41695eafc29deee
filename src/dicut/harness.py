"""Machine-readable run reports and the benchmark suites behind the CLI."""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

from .core import Bipartition, Digraph, cut_stats
from .generators import GadgetSpec

if TYPE_CHECKING:  # imported by the calls that run the pipeline
    from .pipeline import PartitionResult, PipelineConfig

SCHEMA_VERSION = 1

@dataclass(frozen=True)
class RunReport:
    """One pipeline run in a stable schema; `to_json` writes it.

    Timings are wall-clock diagnostics and are excluded from the canonical
    form used for determinism comparisons.
    """

    instance: dict[str, Any]
    config: dict[str, Any]
    n: int
    m: int
    partition: str  # one character per vertex, '1' or '2'
    e12: int
    e21: int
    min_cut: int
    guarantee: float
    achieved_ratio: float
    meets_guarantee: bool
    removed_a_edges: int
    branch_trace: tuple[dict[str, Any], ...]
    oracle: dict[str, Any] | None = None
    timings_ms: dict[str, float] | None = None
    schema_version: int = SCHEMA_VERSION

    def to_dict(self, include_timings: bool = True) -> dict[str, Any]:
        out = asdict(self)
        out["branch_trace"] = list(out["branch_trace"])
        if not include_timings:
            del out["timings_ms"]
        return out

    def to_json(self, include_timings: bool = True) -> str:
        return json.dumps(
            self.to_dict(include_timings), sort_keys=True, separators=(",", ":")
        )


def file_instance_descriptor(path: str, text: str) -> dict[str, Any]:
    import hashlib  # loads OpenSSL; only `partition` children need it

    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return {"path": path, "sha256": digest}


def build_report(
    instance: dict[str, Any],
    digraph: Digraph,
    config: PipelineConfig,
    result: PartitionResult,
    timings_ms: dict[str, float] | None = None,
    with_oracle: bool = False,
) -> RunReport:
    oracle_info = None
    if with_oracle:
        from .oracle import MAX_ORACLE_N, exact_judicious
    if with_oracle and digraph.n <= MAX_ORACLE_N:
        t0 = time.perf_counter()
        best = exact_judicious(digraph)
        oracle_ms = (time.perf_counter() - t0) * 1000.0
        oracle_info = {
            "optimum": best.optimum,
            "ratio_vs_oracle": (
                result.stats.min_cut / best.optimum if best.optimum else None
            ),
        }
        if timings_ms is not None:
            timings_ms["oracle"] = round(oracle_ms, 3)
    return RunReport(
        instance=instance,
        config=asdict(config),
        n=digraph.n,
        m=digraph.m,
        partition="".join(str(s) for s in result.partition.side),
        e12=result.stats.e12,
        e21=result.stats.e21,
        min_cut=result.stats.min_cut,
        guarantee=result.guarantee,
        achieved_ratio=result.achieved_ratio,
        meets_guarantee=result.meets_guarantee,
        removed_a_edges=result.removed_a_edges,
        branch_trace=result.branch_trace,
        oracle=oracle_info,
        timings_ms=timings_ms,
    )


@dataclass(frozen=True)
class BenchTask:
    """One suite entry: a generator spec plus the pipeline's d and seed."""

    key: str
    spec: GadgetSpec
    d: int
    seed: int = 1
    with_oracle: bool = False


def _random_task(
    key: str, n: int, d: int, extra: float, seed: int, with_oracle: bool = False
) -> BenchTask:
    spec = GadgetSpec(
        "random_min_outdeg", {"n": n, "d": d, "extra": extra, "seed": seed}
    )
    return BenchTask(key, spec, d, seed, with_oracle)


def _gadget_tasks() -> list[BenchTask]:
    tasks: list[BenchTask] = []
    for d in (2, 3):
        for k in (0, 1, 5, 50):
            spec = GadgetSpec("lower_bound", {"d": d, "k": k})
            tasks.append(BenchTask(f"lower_bound-d{d}-k{k}", spec, d))
    for q in (5, 7, 9):
        spec = GadgetSpec("eulerian_complete", {"q": q})
        tasks.append(BenchTask(f"eulerian-q{q}-d2", spec, 2))
        if q >= 7:
            tasks.append(BenchTask(f"eulerian-q{q}-d3", spec, 3))
    for family, n in (
        ("k33_oriented", 1003),
        ("k33_plus_3regular", 1003),
        ("k55_mixed", 1005),
    ):
        spec = GadgetSpec(family, {"n": n, "patched": True})
        tasks.append(BenchTask(f"{family}-n{n}", spec, 3))
    return tasks


def _random_tasks(d: int) -> list[BenchTask]:
    return [
        _random_task(f"random-d{d}-n{n}-x{int(extra)}-s{seed}", n, d, extra, seed)
        for n in (100, 500, 2000)
        for extra in (0.0, 1.0)
        for seed in (1, 2)
    ]


def _oracle_small_tasks() -> list[BenchTask]:
    tasks = [
        BenchTask(key, GadgetSpec(family, params), d, with_oracle=True)
        for key, family, params, d in (
            ("lower_bound-d2-k0-oracle", "lower_bound", {"d": 2, "k": 0}, 2),
            ("lower_bound-d2-k1-oracle", "lower_bound", {"d": 2, "k": 1}, 2),
            ("lower_bound-d3-k0-oracle", "lower_bound", {"d": 3, "k": 0}, 3),
            ("eulerian-q5-oracle", "eulerian_complete", {"q": 5}, 2),
            ("eulerian-q7-oracle", "eulerian_complete", {"q": 7}, 3),
        )
    ]
    tasks.extend(
        _random_task(f"random-oracle-d{d}-n{n}-s{seed}", n, d, 0.5, seed, True)
        for d in (2, 3)
        for n in (10, 12, 14, 16)
        for seed in (1, 2)
    )
    return tasks


SUITE_TASKS: dict[str, Callable[[], list[BenchTask]]] = {
    "gadgets": _gadget_tasks,
    "random-d2": partial(_random_tasks, 2),
    "random-d3": partial(_random_tasks, 3),
    "oracle-small": _oracle_small_tasks,
}
SUITES = tuple(SUITE_TASKS)


def suite_tasks(name: str) -> list[BenchTask]:
    if name not in SUITE_TASKS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return sorted(SUITE_TASKS[name](), key=lambda t: t.key)


def run_bench_task(task: BenchTask) -> RunReport:
    from .pipeline import PipelineConfig, run

    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    digraph = task.spec.build()
    timings["build"] = round((time.perf_counter() - t0) * 1000.0, 3)
    config = PipelineConfig(d=task.d, seed=task.seed)
    t0 = time.perf_counter()
    result = run(digraph, config)
    timings["partition"] = round((time.perf_counter() - t0) * 1000.0, 3)
    instance = {"family": task.spec.family, "params": task.spec.params, "key": task.key}
    return build_report(
        instance, digraph, config, result, timings, with_oracle=task.with_oracle
    )


def run_suite(name: str, jobs: int = 1) -> list[RunReport]:
    """Run a named suite; reports come back in task-key order regardless of
    scheduling, so fixed seeds give identical output for any job count."""
    tasks = suite_tasks(name)
    if jobs <= 1:
        return [run_bench_task(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    # the pool starts every worker at the first submit: no more than tasks
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        futures = [pool.submit(run_bench_task, t) for t in tasks]
        return [f.result() for f in futures]


def verify_partition(digraph: Digraph, partition: Bipartition) -> dict[str, Any]:
    """Recompute cut statistics from scratch; trusts nothing cached."""
    stats = cut_stats(digraph, partition)
    return {
        "n": digraph.n,
        "m": digraph.m,
        "e12": stats.e12,
        "e21": stats.e21,
        "min_cut": stats.min_cut,
    }
