"""Shared helpers: seeded random graph builders used across the suite, and
plain references for graph operations the library no longer carries.

An undirected simple graph is given as its rows, as the decomposition takes
it: rows[v] is the sorted tuple of v's neighbours, and u is in rows[v]
exactly when v is in rows[u]."""

from __future__ import annotations

import random
from typing import Iterable, Sequence

import dicut.pipeline as pipeline
from dicut.core import Digraph, GraphInputError, cut_stats
from dicut.decomposition import free_neighbor_edges
from dicut.generators import lower_bound_gadget

# the published dense cutoffs, read before any test patches them
PUBLISHED_DENSE_THRESHOLD = dict(pipeline.DENSE_THRESHOLD)


def lower_dense_cutoff(monkeypatch) -> None:
    """Divide the dense shortcut's cutoff by 100 for one test, so that
    inputs of a feasible size take the shortcut."""
    for d, cutoff in PUBLISHED_DENSE_THRESHOLD.items():
        monkeypatch.setitem(pipeline.DENSE_THRESHOLD, d, cutoff / 100)


def no_polish(monkeypatch) -> None:
    """Turn run()'s local search off for one test: the polish returns the
    sampled partition unchanged, with its cuts recounted."""

    def unpolished(digraph, partition, start, two, seed):
        return partition, cut_stats(digraph, partition)

    monkeypatch.setattr(pipeline, "_polish", unpolished)


def untimed(report) -> dict:
    """A run report's dict without its wall-clock timings, the form that
    determinism checks compare."""
    data = report.to_dict()
    del data["timings_ms"]
    return data


def reference_digraph(n: int, pairs: Iterable[tuple[int, int]]):
    """(n, m, out-lists, in-lists) of the digraph, built edge by edge with
    the range and loop checks per edge, then the duplicate check."""
    if n < 0:
        raise GraphInputError(f"vertex count must be nonnegative, got {n}")
    if not isinstance(pairs, Sequence):
        pairs = list(pairs)
    out: list[list[int]] = [[] for _ in range(n)]
    in_: list[list[int]] = [[] for _ in range(n)]
    for pos, (u, v) in enumerate(pairs):
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(
                f"edge #{pos} ({u},{v}): vertex id out of range [0,{n})"
            )
        if u == v:
            raise GraphInputError(f"edge #{pos} ({u},{v}): loops are not allowed")
        out[u].append(v)
        in_[v].append(u)
    seen: set[tuple[int, int]] = set()
    for pos, (u, v) in enumerate(pairs):
        if (u, v) in seen:
            raise GraphInputError(f"edge #{pos} ({u},{v}): duplicate directed edge")
        seen.add((u, v))
    return (
        n,
        len(pairs),
        tuple(tuple(sorted(a)) for a in out),
        tuple(tuple(sorted(a)) for a in in_),
    )


def from_edge_list(
    pairs: Iterable[tuple[int, int]], n: int | None = None
) -> Digraph:
    """Digraph(n, pairs), with n defaulting to the largest id + 1."""
    pairs = list(pairs)  # read twice: once for n, once to build
    if n is None:
        n = max((max(u, v) for u, v in pairs), default=-1) + 1
    return Digraph(n, pairs)


Rows = tuple[tuple[int, ...], ...]


def undirected(n: int, edges: Iterable[tuple[int, int]]) -> Rows:
    """The rows of the simple graph on 0..n-1 with these edges; a repeated
    edge, in either orientation, is kept once.  Raises for a loop or an id
    outside [0, n)."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise GraphInputError(f"loop edge ({u},{v}) in undirected graph")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge ({u},{v}): vertex id out of range")
        adj[u].add(v)
        adj[v].add(u)
    return tuple(tuple(sorted(a)) for a in adj)


def edges_of(rows: Rows) -> tuple[tuple[int, int], ...]:
    """Every edge as (u, v) with u < v, sorted."""
    return tuple((u, v) for u, a in enumerate(rows) for v in a if u < v)


def induced_rows(rows: Rows, vertices: Iterable[int]) -> tuple[Rows, tuple[int, ...]]:
    """The subgraph induced by `vertices`, relabelled 0..k-1 in id order, and
    the original id of each new vertex."""
    keep = tuple(sorted(set(vertices)))
    index = {v: i for i, v in enumerate(keep)}
    return tuple(
        tuple(sorted(index[u] for u in rows[v] if u in index)) for v in keep
    ), keep


def random_undirected(rng: random.Random, n: int, p: float) -> Rows:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return undirected(n, edges)


def random_digraph(rng: random.Random, n: int, p: float) -> Digraph:
    pairs = [
        (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p
    ]
    return Digraph(n, pairs)


def chained_lower_bound_gadget(d: int, k: int, seed: int = 0) -> Digraph:
    """lower_bound_gadget(d, k) with its k copies chained into one component:
    one edge from a seeded random vertex of each copy to a seeded random
    vertex of the next copy."""
    g, _ = lower_bound_gadget(d, k)
    rng = random.Random(seed)
    size = 2 * d - 1
    starts = range(2 * d + 1, g.n, size)
    chain = [
        (a + rng.randrange(size), b + rng.randrange(size))
        for a, b in zip(starts, starts[1:])
    ]
    return Digraph(g.n, [*g.edges, *chain])


def triangle_graph() -> Rows:
    return undirected(3, [(0, 1), (1, 2), (0, 2)])


def induced(digraph: Digraph, vertices: Iterable[int]) -> tuple[Digraph, tuple[int, ...]]:
    """The subgraph induced by `vertices`, relabelled 0..k-1 in id order, and
    the original id of each new vertex."""
    keep = tuple(sorted(set(vertices)))
    index = {v: i for i, v in enumerate(keep)}
    pairs = [(index[u], index[v]) for u, v in digraph.edges if u in index and v in index]
    return Digraph(len(keep), pairs), keep


def underlying(digraph: Digraph) -> Rows:
    """Forget orientation; antiparallel pairs collapse to one edge."""
    return undirected(digraph.n, digraph.edges)


def antiparallel_pairs(digraph: Digraph) -> int:
    """Unordered pairs {u, v} with both (u, v) and (v, u) present."""
    return sum(1 for u, v in digraph.edges if u < v and digraph.has_edge(v, u))


def matching_size(partner: list[int]) -> int:
    """Number of matched pairs in a partner list."""
    return (len(partner) - partner.count(-1)) // 2


def free_vertex_count(rows: Rows, partner: list[int]) -> int:
    """Leftover vertices of the partner list that have a free neighbour."""
    return sum(
        1 for w, p in enumerate(partner)
        if p == -1 and free_neighbor_edges(rows, partner, w)
    )
