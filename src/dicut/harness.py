"""Machine-readable run reports and the benchmark suites behind the CLI."""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING, Any

from .core import Bipartition, Digraph, cut_stats
from .generators import GadgetSpec

if TYPE_CHECKING:  # imported by the calls that run the pipeline
    from .pipeline import PartitionResult, PipelineConfig

SCHEMA_VERSION = 1

SUITES = ("gadgets", "random-d2", "random-d3", "oracle-small")


@dataclass(frozen=True)
class RunReport:
    """One pipeline run in a stable, round-trippable schema.

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

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunReport":
        kwargs = {f.name: data[f.name] for f in fields(cls) if f.name in data}
        kwargs["branch_trace"] = tuple(kwargs["branch_trace"])
        return cls(**kwargs)

    def bipartition(self) -> Bipartition:
        return Bipartition(tuple(int(c) for c in self.partition))


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
    """One suite entry: a generator spec plus the pipeline configuration."""

    key: str
    spec: GadgetSpec
    d: int
    epsilon: float = 0.05
    seed: int = 1
    with_oracle: bool = False

    def config(self, max_attempts: int) -> PipelineConfig:
        from .pipeline import PipelineConfig

        return PipelineConfig(
            d=self.d, epsilon=self.epsilon, seed=self.seed, max_attempts=max_attempts
        )


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
    tasks = []
    for n in (100, 500, 2000):
        for extra in (0.0, 1.0):
            for seed in (1, 2):
                spec = GadgetSpec(
                    "random_min_outdeg",
                    {"n": n, "d": d, "extra": extra, "seed": seed},
                )
                tasks.append(
                    BenchTask(
                        f"random-d{d}-n{n}-x{int(extra)}-s{seed}", spec, d, seed=seed
                    )
                )
    return tasks


def _oracle_small_tasks() -> list[BenchTask]:
    tasks = [
        BenchTask(
            "lower_bound-d2-k0-oracle",
            GadgetSpec("lower_bound", {"d": 2, "k": 0}),
            2,
            with_oracle=True,
        ),
        BenchTask(
            "lower_bound-d2-k1-oracle",
            GadgetSpec("lower_bound", {"d": 2, "k": 1}),
            2,
            with_oracle=True,
        ),
        BenchTask(
            "lower_bound-d3-k0-oracle",
            GadgetSpec("lower_bound", {"d": 3, "k": 0}),
            3,
            with_oracle=True,
        ),
        BenchTask(
            "eulerian-q5-oracle", GadgetSpec("eulerian_complete", {"q": 5}), 2,
            with_oracle=True,
        ),
        BenchTask(
            "eulerian-q7-oracle", GadgetSpec("eulerian_complete", {"q": 7}), 3,
            with_oracle=True,
        ),
    ]
    for d in (2, 3):
        for n in (10, 12, 14, 16):
            for seed in (1, 2):
                spec = GadgetSpec(
                    "random_min_outdeg", {"n": n, "d": d, "extra": 0.5, "seed": seed}
                )
                tasks.append(
                    BenchTask(
                        f"random-oracle-d{d}-n{n}-s{seed}",
                        spec,
                        d,
                        seed=seed,
                        with_oracle=True,
                    )
                )
    return tasks


def suite_tasks(name: str) -> list[BenchTask]:
    if name == "gadgets":
        tasks = _gadget_tasks()
    elif name == "random-d2":
        tasks = _random_tasks(2)
    elif name == "random-d3":
        tasks = _random_tasks(3)
    elif name == "oracle-small":
        tasks = _oracle_small_tasks()
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return sorted(tasks, key=lambda t: t.key)


def run_bench_task(task: BenchTask, max_attempts: int = 200) -> RunReport:
    from .pipeline import run

    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    digraph = task.spec.build()
    timings["build"] = round((time.perf_counter() - t0) * 1000.0, 3)
    config = task.config(max_attempts)
    t0 = time.perf_counter()
    result = run(digraph, config)
    timings["partition"] = round((time.perf_counter() - t0) * 1000.0, 3)
    instance = {"family": task.spec.family, "params": task.spec.params, "key": task.key}
    return build_report(
        instance, digraph, config, result, timings, with_oracle=task.with_oracle
    )


def run_suite(name: str, jobs: int = 1, max_attempts: int = 200) -> list[RunReport]:
    """Run a named suite; reports come back in task-key order regardless of
    scheduling, so fixed seeds give identical output for any job count."""
    tasks = suite_tasks(name)
    if jobs <= 1:
        return [run_bench_task(t, max_attempts) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(run_bench_task, t, max_attempts) for t in tasks]
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
