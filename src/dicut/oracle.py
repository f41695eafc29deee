"""Exhaustive maximum of the smaller directional cut on small instances.

Kept separate from the pipeline so production code can never accidentally
depend on an exponential routine.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass

from .core import Bipartition, Digraph

MAX_ORACLE_N = 24
_INNER_BITS = 10  # exact_judicious scores 2^10 inner bipartitions per big-int op


@dataclass(frozen=True)
class OracleResult:
    """Exhaustive max over bipartitions of the smaller directional cut."""

    optimum: int
    witness: Bipartition
    evaluated: int


def check_oracle_n(n: int) -> None:
    """Raise the ValueError exact_judicious raises for more than MAX_ORACLE_N
    vertices; callers may check a header's n before building the graph."""
    if n > MAX_ORACLE_N:
        raise ValueError(f"exact_judicious is capped at n <= {MAX_ORACLE_N}, got {n}")


def exact_judicious(digraph: Digraph) -> OracleResult:
    """Exhaustive maximum of min(e12, e21), with an optimal witness.

    Vertex 0 is pinned to side 1, which halves the space by label-swap
    symmetry.  The other vertices split into an inner block 1..L, with
    L = min(n - 1, 10), and the outer vertices L+1..n-1.  e12 is held in
    one int of 2^L w-bit lanes: lane s is the count when the inner
    vertices on side 2 are the set bits of s (bit i is vertex i + 1).

    e21 needs no lanes of its own.  Every edge inside side 2 counts once in
    the in-degrees and once in the out-degrees of side 2, so
    e12 - e21 = sum over side 2 of d-(v) - d+(v), the signed surplus, and
    min(e12, e21) = e12 - max(e12 - e21, 0).  The surplus sum is a fixed
    inner lane vector plus one scalar, ``lift``: the outer vertices'
    surplus summed over side 2.  So the lanes of max(e12 - e21, 0) are made
    once per distinct ``lift``, by a saturating subtract on lanes of
    2^(w-1) + (e12 - e21), and cached for the call.  The e12 lanes carry
    2^(w-1) - bar, where bar is the value a lane must reach to replace the
    best so far, so a lane reaches bar iff the top bit of
    2^(w-1) + min(e12, e21) - bar is set.  bar moves only when best rises
    or the walk crosses the best side-2 mask, a few times per call.

    The lane width follows m.  Every lane holds 2^(w-1) + x, and is exact
    with a true top bit iff -2^(w-1) <= x < 2^(w-1).  Since
    0 <= e12 <= m and 1 <= bar <= best + 1 <= m + 1, x = e12 - bar and
    x = min(e12, e21) - bar lie in [-(m + 1), m], and x = e12 - e21 lies in
    [-m, m], reaching m when every edge goes from side 1 to side 2.  So
    x < 2^(w-1) needs m <= 2^(w-1) - 1, and then x >= -(m + 1) >= -2^(w-1)
    holds too.  For m <= 127, w = 8 (offset 2^7); otherwise w = 16 (offset
    2^15), which fits m <= n(n - 1) = 552 for n <= 24.  At m = 128 an
    8-bit gap lane would reach 2^8 and carry into its neighbour.

    The lanes are first filled for all outer vertices on side 1, from one
    side-2 indicator lane vector per inner vertex.  Then the 2^(n-1-L)
    outer configurations are walked in Gray-code order.  Moving an outer
    vertex u to side 2 adds to e12 u's in-degree less the number of u's
    out- and in-neighbors on side 2: a precomputed lane vector for the
    inner neighbors, less a multiple of the all-ones lanes for the outer
    ones.  Moving u back subtracts the same.  The lanes are decoded only
    when one of them reaches bar.  Each step costs four big-int operations
    on 2^L * w bits: O(2^L / 8) words with 8-bit lanes, O(2^L / 4) with
    16-bit ones.

    Ties prefer the numerically smallest side-2 bitmask: within one outer
    configuration that is the first maximal lane, and across configurations
    the outer bits decide.  ``evaluated`` counts the 2^(n-1) bipartitions
    scored (1 for n = 0).
    """
    n = digraph.n
    check_oracle_n(n)
    if n == 0:
        return OracleResult(0, Bipartition(()), 1)
    out_mask = [sum(map((1).__lshift__, row)) for row in digraph._out]
    in_mask = [sum(map((1).__lshift__, row)) for row in digraph._in]
    indeg = list(map(len, digraph._in))
    surplus = [d - len(row) for d, row in zip(indeg, digraph._out)]

    inner = min(n - 1, _INNER_BITS)
    lanes = 1 << inner
    # lanes of w = 8 or 16 bits, top_bit = w - 1 (the docstring derives 127)
    typecode, top_bit = ("B", 7) if digraph.m <= 127 else ("H", 15)
    offset = 1 << top_bit
    one = array(typecode, [1]).tobytes()
    ones = int.from_bytes(one * lanes, sys.byteorder)
    high = ones << top_bit
    # lane s of on_side2[v] is 1 iff inner vertex v is on side 2: runs of
    # 2^(v-1) zero lanes and 2^(v-1) one lanes
    on_side2 = [0] + [
        int.from_bytes((bytes(len(one) << i) + one * (1 << i)) * (lanes >> i + 1),
                       sys.byteorder)
        for i in range(inner)
    ]
    best = 0
    best_mask = 0  # bit v set <=> vertex v on side 2
    bar = 1  # a lane must reach bar to replace best
    # lanes of 2^(w-1) + e12 - bar with every outer vertex on side 1, e12
    # being d- summed over side 2 less the edges inside side 2 (lanes of 0/1
    # indicators multiply by &), and of 2^(w-1) + (e12 - e21)
    e12 = (offset - bar) * ones
    gap = offset * ones
    for v in range(1, inner + 1):
        e12 += indeg[v] * on_side2[v]
        gap += surplus[v] * on_side2[v]
        for w in range(1, inner + 1):
            if out_mask[v] >> w & 1:
                e12 -= on_side2[v] & on_side2[w]
    outer = list(range(inner + 1, n))
    # lane s: what moving outer vertex u to side 2 adds to e12, less u's
    # outer neighbors on side 2: u's in-degree less its inner out- and
    # in-neighbors on side 2
    steps = [
        indeg[u] * ones
        - sum(
            ((out_mask[u] >> v & 1) + (in_mask[u] >> v & 1)) * on_side2[v]
            for v in range(1, inner + 1)
        )
        for u in outer
    ]
    del on_side2  # freed before the excess cache fills
    # t * ones for each count t of outer neighbors a vertex can have
    most = max(
        ((out_mask[u] >> inner + 1).bit_count() + (in_mask[u] >> inner + 1).bit_count()
         for u in outer),
        default=0,
    )
    scaled = [t * ones for t in range(most + 1)]

    side2 = 0  # outer vertices on side 2, bit v <=> vertex v
    lift = 0  # outer vertices' surplus summed over side 2
    excess: dict[int, int] = {}  # lift -> lanes of max(e12 - e21, 0)
    for code in range(1 << len(outer)):
        if code:
            j = (code & -code).bit_length() - 1
            u = outer[j]
            t = (out_mask[u] & side2).bit_count() + (in_mask[u] & side2).bit_count()
            if side2 >> u & 1:
                e12 -= steps[j] - scaled[t]
                lift -= surplus[u]
            else:
                e12 += steps[j] - scaled[t]
                lift += surplus[u]
            side2 ^= 1 << u
        over = excess.get(lift)
        if over is None:
            # keep the lanes of 2^(w-1) + (e12 - e21) whose top bit is set,
            # less that bit
            x = gap + lift * ones
            over = excess[lift] = x & ((x & high) >> top_bit) * (offset - 1)
        # a tie with best only counts where the side-2 mask would be smaller
        want = best if side2 < best_mask else best + 1
        if want != bar:
            e12 += (bar - want) * ones
            bar = want
        # lanes of 2^(w-1) + min(e12, e21) - bar: the top bit is set where
        # a lane reaches bar
        test = e12 - over
        if test & high:
            values = array(typecode, test.to_bytes(len(one) * lanes, sys.byteorder))
            top = max(values)
            best = top - offset + bar
            best_mask = side2 | values.index(top) << 1
    witness = Bipartition(tuple(2 if best_mask >> v & 1 else 1 for v in range(n)))
    return OracleResult(best, witness, 1 << (n - 1))
