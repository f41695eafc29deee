"""Extremal and stress instance generators, with built-in self-checks of the
closed-form properties each family is constructed to satisfy."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from .core import Digraph

CONCLUDING_FAMILIES = ("k33_oriented", "k33_plus_3regular", "k55_mixed")

# family -> the GadgetSpec params its builder reads
FAMILIES: dict[str, tuple[str, ...]] = {
    "d1_star_triangle": ("n",),
    "eulerian_complete": ("q",),
    "lower_bound": ("d", "k"),
    **{family: ("n", "patched") for family in CONCLUDING_FAMILIES},
    "random_min_outdeg": ("n", "d", "extra", "seed"),
}


def _self_check(ok: bool, family: str, prop: str) -> None:
    """Raise when a built instance lacks a property its family guarantees."""
    if not ok:
        raise RuntimeError(f"{family} generator self-check failed: {prop}")


def eulerian_complete(q: int) -> Digraph:
    """Orient the complete graph K_q (q odd) along an Eulerian circuit.

    Every vertex gets d+ = d- = (q-1)/2, hence every bipartition has exactly
    as many edges crossing in each direction.
    """
    if q < 3 or q % 2 == 0:
        raise ValueError(f"q must be an odd integer >= 3, got {q}")
    # Hierholzer on K_q; all degrees are even so a single circuit exists.
    remaining = [set(range(q)) - {v} for v in range(q)]
    circuit: list[int] = []
    stack = [0]
    while stack:
        v = stack[-1]
        if remaining[v]:
            w = min(remaining[v])
            remaining[v].discard(w)
            remaining[w].discard(v)
            stack.append(w)
        else:
            circuit.append(stack.pop())
    pairs = [(circuit[i], circuit[i + 1]) for i in range(len(circuit) - 1)]
    graph = Digraph(q, pairs)
    _self_check(graph.m == q * (q - 1) // 2, "eulerian_complete", "m = q(q-1)/2")
    _self_check(
        all(graph.out_degree(v) == (q - 1) // 2 for v in range(q)),
        "eulerian_complete",
        "every outdegree is (q-1)/2",
    )
    return graph


def lower_bound_gadget(d: int, k: int) -> tuple[Digraph, int]:
    """k disjoint Eulerian K_{2d-1} copies plus one Eulerian K_{2d+1}, with
    every copy vertex made an in-neighbor of a fixed K_{2d+1} vertex v0.

    Returns (digraph, v0).  n = k(2d-1) + (2d+1), m = kd(2d-1) + d(2d+1),
    minimum outdegree exactly d.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    pairs: list[tuple[int, int]] = []
    core = eulerian_complete(2 * d + 1)
    pairs.extend(core.edges)
    v0 = 0
    offset = 2 * d + 1
    copy_edges = eulerian_complete(2 * d - 1).edges
    for _ in range(k):
        pairs.extend((offset + u, offset + v) for u, v in copy_edges)
        pairs.extend((offset + u, v0) for u in range(2 * d - 1))
        offset += 2 * d - 1
    graph = Digraph(k * (2 * d - 1) + (2 * d + 1), pairs)
    _self_check(
        graph.m == k * d * (2 * d - 1) + d * (2 * d + 1),
        "lower_bound",
        "m = kd(2d-1) + d(2d+1)",
    )
    _self_check(graph.min_out_degree() == d, "lower_bound", "minimum outdegree is d")
    return graph, v0


def d1_gadget(n: int) -> Digraph:
    """Star K_{1,n-1} plus one edge inside the leaf set, oriented so the
    minimum outdegree is 1 yet every bipartition has min cut at most 1.

    Vertex 0 is the star center c; {c, 1, 2} carry a cyclically oriented
    triangle and every other leaf points into c.
    """
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    pairs = [(0, 1), (1, 2), (2, 0)]
    pairs.extend((v, 0) for v in range(3, n))
    graph = Digraph(n, pairs)
    _self_check(
        graph.min_out_degree() == 1, "d1_star_triangle", "minimum outdegree is 1"
    )
    return graph


def _patch_out_degree(n: int, pairs: list[tuple[int, int]], deficient: list[int],
                      targets: list[int], want: int) -> None:
    """Give each deficient vertex `want` out-edges to distinct targets.

    Added edges may form antiparallel pairs with existing ones; duplicates
    are skipped by construction (targets are distinct per vertex).
    """
    have = {p: 0 for p in deficient}
    for u, _ in pairs:
        if u in have:
            have[u] += 1
    existing = set(pairs)
    for v in deficient:
        for t in targets:
            if have[v] >= want:
                break
            if t != v and (v, t) not in existing:
                pairs.append((v, t))
                existing.add((v, t))
                have[v] += 1


def concluding_gadgets(variant: str, n: int, patched: bool = False) -> Digraph:
    """Stress families built around oriented complete bipartite graphs.

    k33_oriented: K_{3,n-3} with all edges from the part of size n-3 into the
    size-3 part.  k33_plus_3regular: the same plus a circulant 3-out-regular
    digraph inside the large part, so m = 6(n-3).  k55_mixed: K_{5,n-5} where
    vertex 0 has outdegree n-5 and vertices 1..4 have indegree n-5.

    These families leave the small-part vertices with outdegree 0; passing
    patched=True adds a constant number of out-edges into the large part so
    the minimum outdegree reaches 3 without changing the asymptotics.
    """
    if variant not in CONCLUDING_FAMILIES:
        raise ValueError(f"unknown variant {variant!r}")
    if variant in ("k33_oriented", "k33_plus_3regular"):
        if n < 9:
            raise ValueError(f"{variant} needs n >= 9, got {n}")
        small = list(range(3))
        big = list(range(3, n))
        pairs = [(b, s) for b in big for s in small]
        if variant == "k33_plus_3regular":
            size = len(big)
            for i in range(size):
                for off in (1, 2, 3):
                    pairs.append((big[i], big[(i + off) % size]))
        if patched:
            _patch_out_degree(n, pairs, small, big[:6], 3)
        graph = Digraph(n, pairs)
        if variant == "k33_plus_3regular" and not patched:
            _self_check(graph.m == 6 * (n - 3), variant, "m = 6(n-3)")
        return graph
    # k55_mixed
    if n < 11:
        raise ValueError(f"k55_mixed needs n >= 11, got {n}")
    small = list(range(5))
    big = list(range(5, n))
    pairs = [(0, b) for b in big]
    pairs.extend((b, s) for b in big for s in small[1:])
    if patched:
        _patch_out_degree(n, pairs, small[1:], big[:6], 3)
    graph = Digraph(n, pairs)
    _self_check(graph.out_degree(0) == n - 5, variant, "vertex 0 has outdegree n-5")
    _self_check(
        all(graph.in_degree(v) == n - 5 for v in small[1:]),
        variant,
        "vertices 1..4 have indegree n-5",
    )
    return graph


def random_min_outdeg(n: int, d: int, extra: float = 0.0, seed: int = 0) -> Digraph:
    """Random digraph where every vertex gets d distinct uniform out-neighbors,
    then about extra*n additional random edges (duplicates rejected).

    Deterministic per (n, d, extra, seed).
    """
    if d >= n:
        raise ValueError(f"need d < n, got d={d}, n={n}")
    if d < 0 or extra < 0:
        raise ValueError("d and extra must be nonnegative")
    rng = random.Random(seed)
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for v in range(n):
        for j in rng.sample(range(n - 1), d):
            w = j if j < v else j + 1  # the j-th id other than v
            pairs.append((v, w))
            seen.add((v, w))
    attempts = round(extra * n)
    for _ in range(attempts):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and (u, v) not in seen:
            pairs.append((u, v))
            seen.add((u, v))
    graph = Digraph(n, pairs)
    _self_check(
        graph.min_out_degree() >= d, "random_min_outdeg", "minimum outdegree >= d"
    )
    return graph


def complete_antiparallel(n: int) -> Digraph:
    """Digraph with both directed edges between every vertex pair."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return Digraph(n, pairs)


@dataclass(frozen=True)
class GadgetSpec:
    """Descriptor for one generator instance; builds deterministically."""

    family: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")

    def build(self) -> Digraph:
        p = self.params
        if self.family == "d1_star_triangle":
            return d1_gadget(p["n"])
        if self.family == "eulerian_complete":
            return eulerian_complete(p["q"])
        if self.family == "lower_bound":
            return lower_bound_gadget(p["d"], p["k"])[0]
        if self.family in CONCLUDING_FAMILIES:
            return concluding_gadgets(self.family, p["n"], p.get("patched", False))
        return random_min_outdeg(
            p["n"], p["d"], p.get("extra", 0.0), p.get("seed", 0)
        )

    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner})"
