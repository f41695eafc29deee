"""Exhaustive references for small instances: bipartition enumeration, the
minimum sign gap, maximum and perfect matchings, the tight-component test
and the free-vertex maximum.  Tests check the library against them; no
module of the library reads them.  The library's own exhaustive max-min cut
is ``dicut.oracle.exact_judicious``."""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from dicut.core import Bipartition, UnderlyingGraph

MAX_GAP_A = 15
MAX_MATCH_N = 12
MAX_PM_N = 10


def all_bipartitions(n: int, fixed_side1: int | None = 0) -> Iterator[Bipartition]:
    """Yield every bipartition, optionally with one vertex pinned to side 1.

    Pinning exploits label-swap symmetry and halves the enumeration.
    """
    free = [v for v in range(n) if v != fixed_side1]
    for mask in range(1 << len(free)):
        side = [1] * n
        for i, v in enumerate(free):
            if mask >> i & 1:
                side[v] = 2
        yield Bipartition(tuple(side))


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
