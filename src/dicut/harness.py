"""Machine-readable run reports and the benchmark suites behind the CLI."""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable

from .core import Bipartition, Digraph, cut_stats

if TYPE_CHECKING:  # imported by the calls that run the pipeline
    from .pipeline import PartitionResult, PipelineConfig

SCHEMA_VERSION = 3

@dataclass(frozen=True)
class RunReport:
    """One pipeline run in a stable schema; `to_json` writes it.

    `timings_ms` holds wall-clock diagnostics; every other field is
    deterministic, so determinism checks compare the report without it.
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
    timings_ms: dict[str, float]
    oracle: dict[str, Any] | None = None
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict[str, Any]:
        out = asdict(self)
        out["branch_trace"] = list(out["branch_trace"])
        return out

    def to_json(self) -> str:
        return json.dumps(
            self.to_dict(),
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
        )


_HASH_CHUNK = 1 << 20  # bytes per read while a file is hashed


def file_instance_descriptor(path: str) -> dict[str, Any]:
    """The path and the sha256 of the file's bytes, read in binary chunks:
    the digest of what is on disk, not of the text read with universal
    newlines, so a CRLF file and its LF twin differ."""
    import hashlib  # loads OpenSSL; only `partition` children need it

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK):
            digest.update(chunk)
    return {"path": path, "sha256": digest.hexdigest()}


def build_report(
    instance: dict[str, Any],
    digraph: Digraph,
    config: PipelineConfig,
    result: PartitionResult,
    timings_ms: dict[str, float],
    oracle: int | None = None,
) -> RunReport:
    """Format one run; `oracle` is the exhaustive optimum where it was found."""
    return RunReport(
        instance=instance,
        config=asdict(config),
        n=digraph.n,
        m=digraph.m,
        partition=result.partition.side_string(),
        e12=result.stats.e12,
        e21=result.stats.e21,
        min_cut=result.stats.min_cut,
        guarantee=result.guarantee,
        achieved_ratio=result.achieved_ratio,
        meets_guarantee=result.meets_guarantee,
        removed_a_edges=result.removed_a_edges,
        branch_trace=result.branch_trace,
        oracle=None if oracle is None else {
            "optimum": oracle,
            "ratio_vs_oracle": result.stats.min_cut / oracle if oracle else None,
        },
        timings_ms=timings_ms,
    )


@dataclass(frozen=True)
class BenchTask:
    """One suite entry: a generator family and its params, the pipeline's d
    and seed, and whether to check the run against the exhaustive oracle."""

    key: str
    family: str
    params: dict[str, Any]
    d: int
    seed: int = 1
    with_oracle: bool = False


SUITE_TASKS: dict[str, tuple[BenchTask, ...]] = {
    "gadgets": (
        *(BenchTask(f"lower_bound-d{d}-k{k}", "lower_bound", {"d": d, "k": k}, d)
          for d in (2, 3) for k in (0, 1, 5, 50)),
        *(BenchTask(f"eulerian-q{q}-d{d}", "eulerian_complete", {"q": q}, d)
          for q, d in ((5, 2), (7, 2), (7, 3), (9, 2), (9, 3))),
        *(BenchTask(f"{family}-n{n}", family, {"n": n, "patched": True}, 3)
          for family, n in (("k33_oriented", 1003), ("k33_plus_3regular", 1003),
                            ("k55_mixed", 1005))),
    ),
    **{f"random-d{d}": tuple(
        BenchTask(f"random-d{d}-n{n}-x{int(extra)}-s{seed}", "random_min_outdeg",
                  {"n": n, "d": d, "extra": extra, "seed": seed}, d, seed)
        for n in (100, 500, 2000) for extra in (0.0, 1.0) for seed in (1, 2)
    ) for d in (2, 3)},
    "oracle-small": (
        *(BenchTask(f"lower_bound-d{d}-k{k}-oracle", "lower_bound", {"d": d, "k": k},
                    d, with_oracle=True) for d, k in ((2, 0), (2, 1), (3, 0))),
        *(BenchTask(f"eulerian-q{q}-oracle", "eulerian_complete", {"q": q}, d,
                    with_oracle=True) for q, d in ((5, 2), (7, 3))),
        *(BenchTask(f"random-oracle-d{d}-n{n}-s{seed}", "random_min_outdeg",
                    {"n": n, "d": d, "extra": 0.5, "seed": seed}, d, seed,
                    with_oracle=True)
          for d in (2, 3) for n in (10, 12, 14, 16) for seed in (1, 2)),
    ),
}
SUITES = tuple(SUITE_TASKS)


def suite_tasks(name: str) -> list[BenchTask]:
    if name not in SUITE_TASKS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return sorted(SUITE_TASKS[name], key=lambda t: t.key)


def _timed(
    timings_ms: dict[str, float], name: str, fn: Callable[..., Any], *args: Any
) -> Any:
    t0 = time.perf_counter()
    out = fn(*args)
    timings_ms[name] = round((time.perf_counter() - t0) * 1000.0, 3)
    return out


def run_bench_task(task: BenchTask) -> RunReport:
    """Build the task's graph, partition it and, where the task asks and
    n <= MAX_ORACLE_N, find the exhaustive optimum; each step is timed."""
    from .generators import GadgetSpec
    from .pipeline import PipelineConfig, run

    timings: dict[str, float] = {}
    digraph = _timed(timings, "build", GadgetSpec(task.family, task.params).build)
    config = PipelineConfig(d=task.d, seed=task.seed)
    result = _timed(timings, "partition", run, digraph, config)
    optimum = None
    if task.with_oracle:
        from .oracle import MAX_ORACLE_N, exact_judicious

        if digraph.n <= MAX_ORACLE_N:
            optimum = _timed(timings, "oracle", exact_judicious, digraph).optimum
    # a copy: the report must not share the suite table's params
    instance = {"family": task.family, "params": dict(task.params), "key": task.key}
    return build_report(instance, digraph, config, result, timings, optimum)


def run_suite(name: str, jobs: int = 1) -> list[RunReport]:
    """Run a named suite; reports come back in task-key order regardless of
    scheduling, so fixed seeds give identical output for any job count;
    jobs below 1 raise ValueError."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = suite_tasks(name)
    if jobs == 1:
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
