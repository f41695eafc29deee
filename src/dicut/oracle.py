"""Exhaustive ground-truth computations on small instances.

Kept separate from the pipeline so production code can never accidentally
depend on an exponential routine.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .core import Bipartition, Digraph, UnderlyingGraph

MAX_ORACLE_N = 24
MAX_GAP_A = 15
MAX_MATCH_N = 12
MAX_PM_N = 10
_INNER_BITS = 10  # exact_judicious scores 2^10 inner bipartitions per big-int op


@dataclass(frozen=True)
class OracleResult:
    """Exhaustive max over bipartitions of the smaller directional cut."""

    optimum: int
    witness: Bipartition
    evaluated: int


def _pack(lanes: Iterable[int]) -> int:
    """One int holding each value in its own 16-bit lane."""
    return int.from_bytes(array("H", lanes).tobytes(), sys.byteorder)


def check_oracle_n(n: int) -> None:
    """Raise the ValueError exact_judicious raises for more than MAX_ORACLE_N
    vertices; callers may check a header's n before building the graph."""
    if n > MAX_ORACLE_N:
        raise ValueError(f"exact_judicious is capped at n <= {MAX_ORACLE_N}, got {n}")


def exact_judicious(digraph: Digraph) -> OracleResult:
    """Exhaustive maximum of min(e12, e21), with an optimal witness.

    Vertex 0 is pinned to side 1, which halves the space by label-swap
    symmetry.  The other vertices split into an inner block 1..L, with
    L = min(n - 1, 10), and the outer vertices L+1..n-1.  The two
    directional counts are each held in one int of 2^L 16-bit lanes: lane s
    is the count when the inner vertices on side 2 are the set bits of s
    (bit i is vertex i + 1).  Lanes cannot overflow, since
    m <= n(n - 1) < 2^15 for n <= 24.

    The lanes are first filled for all outer vertices on side 1.  Then the
    2^(n-1-L) outer configurations are walked in Gray-code order.  Moving
    an outer vertex u to side 2 adds to each lane of e12 (e21) u's in-degree
    (out-degree) less the number of u's out- and in-neighbors on side 2:
    a scalar for the outer neighbors and a precomputed lane vector for the
    inner ones.  Moving u back subtracts the same.  At each configuration
    the lane-wise minimum is taken with a borrow trick, and the lanes are
    decoded only when one of them reaches the best value so far.  Each step
    costs O(2^L / 64) word operations.

    Ties prefer the numerically smallest side-2 bitmask: within one outer
    configuration that is the first maximal lane, and across configurations
    the outer bits decide.  ``evaluated`` counts the 2^(n-1) bipartitions
    scored (1 for n = 0).
    """
    n = digraph.n
    check_oracle_n(n)
    if n == 0:
        return OracleResult(0, Bipartition(()), 1)
    out_mask = [0] * n
    in_mask = [0] * n
    for u, v in digraph.edges:
        out_mask[u] |= 1 << v
        in_mask[v] |= 1 << u
    outdeg = [digraph.out_degree(v) for v in range(n)]
    indeg = [digraph.in_degree(v) for v in range(n)]

    inner = min(n - 1, _INNER_BITS)
    lanes = 1 << inner
    # lane s: all outer vertices on side 1, inner vertex i + 1 on side 2 iff
    # bit i of s; each s extends s minus its lowest vertex by one flip
    e12 = [0] * lanes
    e21 = [0] * lanes
    for s in range(1, lanes):
        low = s & -s
        rest = s ^ low
        v = low.bit_length()
        o2 = (out_mask[v] & rest << 1).bit_count()
        i2 = (in_mask[v] & rest << 1).bit_count()
        e12[s] = e12[rest] + indeg[v] - i2 - o2
        e21[s] = e21[rest] + outdeg[v] - o2 - i2
    p12, p21 = _pack(e12), _pack(e21)
    ones = _pack([1] * lanes)
    high = ones << 15
    # lane s of on_side2[v] is 1 iff inner vertex v is on side 2
    on_side2 = {
        v: _pack([s >> v - 1 & 1 for s in range(lanes)]) for v in range(1, inner + 1)
    }
    outer = list(range(inner + 1, n))
    # lane s: how many of u's inner out- and in-neighbors are on side 2
    inner_nbrs = [
        sum(
            on_side2[v]
            for mask in (out_mask[u], in_mask[u])
            for v in on_side2
            if mask >> v & 1
        )
        for u in outer
    ]

    side2 = 0  # outer vertices on side 2, bit v <=> vertex v
    best = 0
    best_mask = 0  # bit v set <=> vertex v on side 2
    for code in range(1 << len(outer)):
        if code:
            j = (code & -code).bit_length() - 1
            u = outer[j]
            t = (out_mask[u] & side2).bit_count() + (in_mask[u] & side2).bit_count()
            d12 = (indeg[u] - t) * ones - inner_nbrs[j]
            d21 = (outdeg[u] - t) * ones - inner_nbrs[j]
            if side2 >> u & 1:
                p12 -= d12
                p21 -= d21
            else:
                p12 += d12
                p21 += d21
            side2 ^= 1 << u
        take21 = (((p12 | high) - p21) & high) >> 15  # lanes where e12 >= e21
        low_cut = p12 ^ ((p12 ^ p21) & take21 * 0xFFFF)
        # a lane reaches bar iff adding 2^15 - bar sets its top bit; a tie
        # with best only counts where the side-2 mask would be smaller
        bar = best if side2 < best_mask else best + 1
        if (low_cut + (0x8000 - bar) * ones) & high:
            values = array("H", low_cut.to_bytes(2 * lanes, sys.byteorder))
            best = max(values)
            best_mask = side2 | values.index(best) << 1
    witness = Bipartition(tuple(2 if best_mask >> v & 1 else 1 for v in range(n)))
    return OracleResult(best, witness, 1 << (n - 1))


def exact_min_gap(surpluses: Sequence[int]) -> int:
    """Exhaustive minimum of |sum(chosen) - sum(rest)| over sign choices."""
    if len(surpluses) > MAX_GAP_A:
        raise ValueError(f"exact_min_gap is capped at {MAX_GAP_A} values")
    values = [abs(s) for s in surpluses]
    best = sum(values)

    def rec(i: int, cur: int) -> None:
        nonlocal best
        if i == len(values):
            best = min(best, abs(cur))
            return
        rec(i + 1, cur + values[i])
        rec(i + 1, cur - values[i])

    rec(0, 0)
    return best


def _adj_masks(graph: UnderlyingGraph) -> list[int]:
    masks = [0] * graph.n
    for u, v in graph.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def exact_max_matching(graph: UnderlyingGraph) -> int:
    """Exhaustive maximum matching size (bitmask recursion with memo)."""
    if graph.n > MAX_MATCH_N:
        raise ValueError(f"exact_max_matching is capped at n <= {MAX_MATCH_N}")
    masks = _adj_masks(graph)

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if mask == 0:
            return 0
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        out = best(rest)  # leave v unmatched
        avail = masks[v] & rest
        while avail:
            u = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            out = max(out, 1 + best(rest & ~(1 << u)))
        return out

    return best((1 << graph.n) - 1)


def enumerate_perfect_matchings(
    graph: UnderlyingGraph,
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield every perfect matching as a sorted tuple of (u, v) edges."""
    if graph.n > MAX_PM_N:
        raise ValueError(f"enumerate_perfect_matchings is capped at n <= {MAX_PM_N}")
    masks = _adj_masks(graph)

    def rec(mask: int, acc: list[tuple[int, int]]) -> Iterator[tuple[tuple[int, int], ...]]:
        if mask == 0:
            yield tuple(acc)
            return
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        avail = masks[v] & rest
        while avail:
            u = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            acc.append((v, u) if v < u else (u, v))
            yield from rec(rest & ~(1 << u), acc)
            acc.pop()

    if graph.n % 2 == 0:
        yield from rec((1 << graph.n) - 1, [])


def brute_force_tight_check(graph: UnderlyingGraph) -> bool:
    """Definitional tight-component test by full enumeration; test oracle only.

    True iff for every vertex v the rest has a perfect matching and no such
    matching has an edge with exactly one endpoint adjacent to v.
    """
    if graph.n > MAX_PM_N - 1:
        raise ValueError(f"brute_force_tight_check is capped at n <= {MAX_PM_N - 1}")
    if len(graph.components()) != 1:
        raise ValueError("tight check expects a single connected component")
    for v in range(graph.n):
        rest = [u for u in range(graph.n) if u != v]
        sub = graph.induced(rest)
        orig = sub.orig_ids
        neighbors = set(graph.neighbors(v))
        found = False
        for pm in enumerate_perfect_matchings(sub):
            found = True
            for a, b in pm:
                if (orig[a] in neighbors) != (orig[b] in neighbors):
                    return False
        if not found:
            return False
    return True


def max_free_over_max_matchings(graph: UnderlyingGraph) -> int:
    """Exhaustive maximum of the free-vertex count over all maximum matchings.

    A vertex w outside the matching is free when some neighbor's matching
    edge has its other endpoint non-adjacent to w.  Test oracle only.
    """
    if graph.n > MAX_MATCH_N:
        raise ValueError(f"capped at n <= {MAX_MATCH_N}")
    masks = _adj_masks(graph)
    target = exact_max_matching(graph)
    full = (1 << graph.n) - 1
    best_free = -1

    def free_count(pairs: list[tuple[int, int]], unmatched: int) -> int:
        count = 0
        rem = unmatched
        while rem:
            w = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            for u, v in pairs:
                wu = masks[w] >> u & 1
                wv = masks[w] >> v & 1
                if wu != wv:
                    count += 1
                    break
        return count

    def rec(mask: int, acc: list[tuple[int, int]], size: int) -> None:
        nonlocal best_free
        # prune: even matching every remaining vertex cannot reach target
        if size + mask.bit_count() // 2 < target:
            return
        if size == target:
            matched = 0
            for u, v in acc:
                matched |= (1 << u) | (1 << v)
            best_free = max(best_free, free_count(acc, full & ~matched))
            return
        if mask == 0:
            return
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        avail = masks[v] & rest
        while avail:
            u = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            acc.append((v, u))
            rec(rest & ~(1 << u), acc, size + 1)
            acc.pop()
        rec(rest, acc, size)  # v stays unmatched

    rec((1 << graph.n) - 1, [], 0)
    return best_free
