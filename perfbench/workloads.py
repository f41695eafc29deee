"""The benchmark's workloads: which instances each one builds, and why.

Generators are called through their module attribute (``generators.X``)
rather than a name bound at import time, so the traced pass sees the wrappers
``spans.traced`` installs there.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable

from dicut import core, generators


@dataclass(frozen=True)
class Spec:
    """One instance of a workload: a file stem, the pipeline's d, a builder."""

    key: str
    d: int
    build: Callable[[int], core.Digraph]  # workload seed -> digraph


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    specs: tuple[Spec, ...]
    setup_reps: int  # set-up runs per benchmark run
    with_oracle: bool = False  # follow each run with the exhaustive oracle


@dataclass
class Instance:
    key: str
    d: int
    graph: core.Digraph
    path: str  # the edge-list file written during set-up
    setup_s: float  # wall time of generating the graph and writing the file


def _family(family: str, **params) -> Callable[[int], core.Digraph]:
    return lambda seed: generators.GadgetSpec(family, params).build()


def _random(n: int, d: int, extra: float) -> Callable[[int], core.Digraph]:
    return lambda seed: generators.GadgetSpec(
        "random_min_outdeg", {"n": n, "d": d, "extra": extra, "seed": seed}
    ).build()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "structural",
            "lower_bound gadgets take the structural branch: star_decompose and "
            "its quadratic blossom matching dominate, no other workload reaches them",
            (
                Spec("lower_bound-d2-k1600", 2, _family("lower_bound", d=2, k=1600)),
                Spec("lower_bound-d3-k800", 3, _family("lower_bound", d=3, k=800)),
            ),
            setup_reps=15,
        ),
        Workload(
            "sparse",
            "many vertices, few edges each: the O(n^2) random generator, split_large, "
            "the gap and surplus layers, second-moment sampling and local search",
            (
                Spec("random-d2-n10000", 2, _random(10000, 2, 1.0)),
                Spec("random-d3-n10000", 3, _random(10000, 3, 1.0)),
                Spec("k33_oriented-n20003", 3,
                     _family("k33_oriented", n=20003, patched=True)),
                Spec("k33_plus_3regular-n20003", 3,
                     _family("k33_plus_3regular", n=20003, patched=True)),
                Spec("k55_mixed-n20005", 3,
                     _family("k55_mixed", n=20005, patched=True)),
            ),
            setup_reps=3,
        ),
        Workload(
            "dense",
            "one graph with 1.34M edges takes the dense shortcut: Digraph build, "
            "edge-list parsing and full-edge cut_stats/edge_profile passes dominate",
            (
                Spec("complete_antiparallel-n1160", 2,
                     lambda seed: generators.complete_antiparallel(1160)),
            ),
            setup_reps=3,
        ),
        Workload(
            "exact_small",
            "n <= 22 instances checked by the exhaustive oracle; the only workload "
            "where oracle time and CLI start-up dominate",
            tuple(
                Spec(f"random-d{d}-n{n}", d, _random(n, d, 0.5))
                for n in (18, 20, 22)
                for d in (2, 3)
            ),
            setup_reps=60,  # a set-up takes milliseconds; stalls are common
            with_oracle=True,
        ),
    )
}


def build_instances(workload: Workload, seed: int, workdir: str) -> list[Instance]:
    """Generate every instance of the workload and write its edge-list file,
    timing each instance on its own."""
    out = []
    for spec in workload.specs:
        t0 = time.perf_counter()
        graph = spec.build(seed)
        path = os.path.join(workdir, f"{spec.key}.el")
        core.write_edge_list(graph, path)
        out.append(Instance(spec.key, spec.d, graph, path, time.perf_counter() - t0))
    return out
