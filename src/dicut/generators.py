"""Extremal and stress instance generators, with built-in self-checks of the
closed-form properties each family is constructed to satisfy."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from . import CONCLUDING_FAMILIES, FAMILIES
from .core import Digraph, GraphInputError, _from_rows

# these keep the builder's default; FAMILIES' other params are required
OPTIONAL_PARAMS = ("patched", "extra", "seed")


def _self_check(ok: bool, family: str, prop: str) -> None:
    """Raise when a built instance lacks a property its family guarantees."""
    if not ok:
        raise RuntimeError(f"{family} generator self-check failed: {prop}")


def _build(rows: list[list[int]], family: str) -> Digraph:
    """The graph whose out-lists are `rows`, one distinct list per vertex;
    a row set the builder rejects is a bug in the family's generator."""
    graph = _from_rows(rows)
    _self_check(graph is not None, family, "rows in range, without loops or repeats")
    return graph


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
    rows: list[list[int]] = [[] for _ in range(q)]
    for u, v in zip(circuit, circuit[1:]):
        rows[u].append(v)
    graph = _build(rows, "eulerian_complete")
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
    v0 = 0
    n = k * (2 * d - 1) + (2 * d + 1)
    rows = list(map(list, eulerian_complete(2 * d + 1)._out))
    copy = eulerian_complete(2 * d - 1)._out
    # a copy's vertex u is offset + u, and every copy vertex points to v0
    for offset in range(2 * d + 1, n, 2 * d - 1):
        rows += ([*map(offset.__add__, a), v0] for a in copy)
    graph = _build(rows, "lower_bound")
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
    rows = [[1], [2], [0]] + [[0] for _ in range(3, n)]
    graph = _build(rows, "d1_star_triangle")
    _self_check(
        graph.min_out_degree() == 1, "d1_star_triangle", "minimum outdegree is 1"
    )
    return graph


def _patch_out_degree(rows: list[list[int]], deficient: list[int],
                      targets: list[int], want: int) -> None:
    """Give each deficient vertex `want` out-edges, appending to its row the
    first targets it does not point to yet.

    Added edges may form antiparallel pairs with existing ones; duplicates
    are skipped by construction (targets are distinct per vertex).
    """
    for v in deficient:
        row = rows[v]
        for t in targets:
            if len(row) >= want:
                break
            if t != v and t not in row:
                row.append(t)


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
        rows = [[] for _ in small] + [small[:] for _ in big]
        if variant == "k33_plus_3regular":
            # big[i] points to big[i + off], indices taken cyclically
            for off in (1, 2, 3):
                for row, t in zip(rows[3:], big[off:] + big[:off]):
                    row.append(t)
        if patched:
            _patch_out_degree(rows, small, big[:6], 3)
        graph = _build(rows, variant)
        if variant == "k33_plus_3regular" and not patched:
            _self_check(graph.m == 6 * (n - 3), variant, "m = 6(n-3)")
        return graph
    # k55_mixed
    if n < 11:
        raise ValueError(f"k55_mixed needs n >= 11, got {n}")
    small = list(range(5))
    big = list(range(5, n))
    rows = [big[:]] + [[] for _ in small[1:]] + [small[1:] for _ in big]
    if patched:
        _patch_out_degree(rows, small[1:], big[:6], 3)
    graph = _build(rows, variant)
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
    if not extra <= n - 1:  # also rejects nan
        raise ValueError(f"extra must be at most n - 1 = {n - 1}, got {extra}")
    rng = random.Random(seed)
    # j maps to the j-th id other than v
    rows = [
        [j if j < v else j + 1 for j in rng.sample(range(n - 1), d)]
        for v in range(n)
    ]
    for _ in range(round(extra * n)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and v not in rows[u]:
            rows[u].append(v)
    graph = _build(rows, "random_min_outdeg")
    _self_check(
        graph.min_out_degree() >= d, "random_min_outdeg", "minimum outdegree >= d"
    )
    return graph


def complete_antiparallel(n: int) -> Digraph:
    """Digraph with both directed edges between every vertex pair. Every row
    is cut from one list of the ids, so the graph holds n id ints in all."""
    if n < 0:
        raise GraphInputError(f"vertex count must be nonnegative, got {n}")
    ids = list(range(n))
    return _build([ids[:u] + ids[u + 1:] for u in ids], "complete_antiparallel")


@dataclass(frozen=True)
class GadgetSpec:
    """Descriptor for one generator instance; builds deterministically."""

    family: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        names = FAMILIES[self.family]
        for name in sorted(self.params):
            if name not in names:
                raise ValueError(f"{self.family} takes no param {name!r}")
        for name in names:
            if name not in self.params and name not in OPTIONAL_PARAMS:
                raise ValueError(f"{self.family} needs param {name!r}")

    def build(self) -> Digraph:
        # the params are checked against FAMILIES, whose names the builders take
        if self.family == "lower_bound":
            return lower_bound_gadget(**self.params)[0]
        if self.family in CONCLUDING_FAMILIES:
            return concluding_gadgets(self.family, **self.params)
        if self.family == "d1_star_triangle":
            return d1_gadget(**self.params)
        if self.family == "eulerian_complete":
            return eulerian_complete(**self.params)
        return random_min_outdeg(**self.params)

    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner})"
