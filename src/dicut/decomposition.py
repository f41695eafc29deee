"""Matching machinery on the underlying simple graph: maximum matching,
free-vertex maximization, tight-component identification, and the induced
star decomposition used by the bisection sampler.

A vertex w left out of a matching is *free* when some neighbor's matching
edge has its other endpoint non-adjacent to w; that neighbor (and its edge)
is a free neighbor of w.  A *tight component* is a connected component T in
which, for every vertex v, T minus v has a perfect matching and no such
perfect matching contains an edge with exactly one endpoint adjacent to v.
Tight components are exactly the components whose leftover vertex can never
be made free, and there is one per non-free leftover vertex once the
matching maximizes the number of free vertices.

The graph is `adj`, its neighbour rows: adj[v] lists v's neighbours in
increasing order, and u is in adj[v] exactly when v is in adj[u].  A matching
is a partner list: partner[v] is v's mate, or -1 when v is a leftover vertex.
Tight components are sorted vertex tuples.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .core import Digraph, _components, _sorted_contains


class MatchingError(ValueError):
    """A matching handed to a decomposition routine violates its precondition."""


def _augment(adj: Sequence[Sequence[int]], match: list[int], root: int) -> bool:
    """Search an augmenting path from an exposed root, contracting blossoms.

    Classic alternating-tree search for general graphs; flips the path into
    `match` and returns True when one is found.  State is kept only for the
    vertices the tree reaches, so a search costs what it touches, not O(n).
    """
    parent: dict[int, int] = {}
    # blossom bases as a forest: each base that a contraction absorbed points
    # at the base of the blossom it joined; a vertex with no entry is a base
    base: dict[int, int] = {}
    used = {root}
    queue = deque([root])

    def find(v: int) -> int:
        while v in base:
            v = base[v]
        return v

    def lca(a: int, b: int) -> int:
        seen = set()
        while True:
            a = find(a)
            seen.add(a)
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = find(b)
            if b in seen:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: set[int]) -> None:
        while find(v) != b:
            blossom.add(find(v))
            blossom.add(find(match[v]))
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if find(v) == find(to) or match[v] == to:
                continue
            if to == root or (match[to] != -1 and match[to] in parent):
                # odd cycle: contract the blossom to its base; a vertex never
                # queued is its own base, and those in it are queued in id order
                cur = lca(v, to)
                blossom: set[int] = set()
                mark_path(v, cur, to, blossom)
                mark_path(to, cur, v, blossom)
                blossom.discard(cur)  # an entry of its own would loop find
                base.update(dict.fromkeys(blossom, cur))
                for i in sorted(blossom - used):
                    used.add(i)
                    queue.append(i)
            elif to not in parent:
                parent[to] = v
                if match[to] == -1:
                    # flip the alternating path back to the root
                    u = to
                    while u != -1:
                        pv = parent[u]
                        ppv = match[pv]
                        match[u] = pv
                        match[pv] = u
                        u = ppv
                    return True
                used.add(match[to])
                queue.append(match[to])
    return False


def maximum_matching(
    adj: Sequence[Sequence[int]], components: Iterable[Sequence[int]]
) -> list[int]:
    """Maximum-cardinality matching (not merely maximal) of a general graph,
    as a partner list: a greedy matching, then an augmenting-path search from
    each exposed vertex in increasing order.  The rows need not be sorted;
    their order picks which maximum matching comes out.

    `components` are adj's connected components, as core._components walks
    them.  An augmenting path never leaves its root's component, so
    components with fewer than two exposed vertices are skipped.
    """
    n = len(adj)
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    for comp in components:
        if list(map(match.__getitem__, comp)).count(-1) < 2:
            continue
        for v in comp:
            if match[v] == -1:
                _augment(adj, match, v)
    return match


def _perfect_matching(
    adj: Sequence[Sequence[int]], vertices: Iterable[int]
) -> dict[int, int] | None:
    """A perfect matching of the subgraph induced by the distinct `vertices`
    as a map from each vertex to its mate, or None when there is none."""
    keep = sorted(vertices)
    index = {v: i for i, v in enumerate(keep)}
    # the relabelling keeps id order, so each filtered row stays sorted
    rows = [tuple(j for j in map(index.get, adj[u]) if j is not None) for u in keep]
    partner = maximum_matching(rows, _components(rows))
    if -1 in partner:
        return None
    return {v: keep[p] for v, p in zip(keep, partner)}


def free_neighbor_edges(
    adj: Sequence[Sequence[int]], partner: Sequence[int], w: int
) -> list[int]:
    """Matched neighbors v of w whose partner is not adjacent to w."""
    out = []
    row = adj[w]
    for v in row:
        p = partner[v]
        if p == -1:
            raise MatchingError(
                f"vertices {w} and {v} are adjacent and both unmatched; "
                "matching is not even maximal"
            )
        if not _sorted_contains(row, p):
            out.append(v)
    return out


def _grow(
    adj: Sequence[Sequence[int]], partner: list[int], w: int
) -> tuple[int, ...] | None:
    """Grow the pair-absorption set of the non-free leftover vertex w.

    Every absorbed vertex stays reachable from w along an even alternating
    path, kept as a chain of anchors back to w, so a leftover vertex or a
    neighborhood mismatch met during growth certifies that the matching is
    improvable: either a larger matching exists (error) or a same-size
    matching with one more free vertex, which is applied to `partner`.
    Returns None after such an exchange; otherwise the set ends as w's whole
    connected component, which is checked against the tight-component
    definition directly and returned sorted.  `_settle` has already settled
    the odd cliques it can, so growth meets only the other components and
    the partner lists that fail its clique test.
    """
    # the absorbed set: w maps to itself, every other absorbed vertex to the
    # absorbed vertex adjacent to both ends of its pair when the pair joined
    anchor = {w: w}
    while True:
        boundary = sorted({x for t in anchor for x in adj[t]} - anchor.keys())
        if not boundary:
            break
        for x in boundary:
            if partner[x] == -1:
                raise MatchingError(
                    f"leftover vertex {x} is reachable from leftover vertex "
                    f"{w} by an alternating path; matching is not maximum"
                )
        # the smallest boundary vertex is absorbed with its partner or
        # triggers the exchange; growth then restarts from the new set
        v1 = boundary[0]
        v2 = partner[v1]
        if v2 in anchor:
            raise MatchingError(
                f"matched pair ({v1},{v2}) split by the absorption set "
                f"of leftover vertex {w}"
            )
        n1 = {t for t in adj[v1] if t in anchor}
        n2 = {t for t in adj[v2] if t in anchor}
        for w2 in adj[v2]:
            if w2 not in anchor and partner[w2] == -1 and w2 != v1:
                raise MatchingError(
                    f"leftover vertex {w2} adjacent to the partner of a "
                    "boundary vertex; matching is not maximum"
                )
        if n1 != n2:
            # match the pair vertex adjacent to `target` to it and expose the
            # other, free; walking the anchor chain back from `target`, each
            # pair shifts one place so that w gets matched inside the set
            target = min(n1 ^ n2)
            keep, drop = (v1, v2) if target in n1 else (v2, v1)
            partner[keep], partner[drop] = target, -1
            x, mate = target, keep
            while x != w:
                y, a = partner[x], anchor[x]
                partner[x], partner[y] = mate, a
                x, mate = a, y
            partner[w] = mate
            return None
        a = min(n1)
        anchor[v1] = a
        anchor[v2] = a
    component = tuple(sorted(anchor))
    violation = _tight_violation(adj, component)
    if violation is None:
        return component
    u, x, y, mates = violation
    # perfect matching of T minus {u,x,y} plus the edge xy exposes u free
    for v, p in mates.items():
        partner[v] = p
    partner[x] = y
    partner[y] = x
    partner[u] = -1
    return None


def _tight_violation(adj: Sequence[Sequence[int]], component: Sequence[int]):
    """Search for (u, x, y) with x ~ u, y in N(x) outside N[u], and the rest of
    the component perfectly matchable; returns (u, x, y, mates) with `mates`
    a perfect matching of the rest, or None when the component is tight.

    Factor-criticality of a fully absorbed component is automatic, so this
    exhausts the remaining half of the tight-component definition.
    """
    comp = set(component)
    for u in component:
        nu = set(adj[u])
        for x in sorted(nu):
            for y in adj[x]:
                if y == u or y in nu:
                    continue
                mates = _perfect_matching(adj, comp - {u, x, y})
                if mates is not None:
                    return u, x, y, mates
    return None


def _settle(
    adj: Sequence[Sequence[int]], partner: list[int], components: list[tuple[int, ...]]
) -> tuple[tuple[tuple[int, ...], ...], dict[int, list[int]]]:
    """Run the free-vertex fixpoint in place on `partner`; return the tight
    component of every non-free leftover vertex, in leftover-vertex order,
    and the free-neighbour lists that its last pass computed, by vertex.

    `components` are adj's connected components, as core._components walks
    them.  An odd one of k vertices whose rows all have length k - 1 is a
    clique; if only its vertex w is exposed and each other one's mate lies
    in it and names it back, it settles at once as w's tight component, as
    growth would absorb it pair by pair with no exchange and find it tight.
    Any other partner list goes to the per-vertex fixpoint, which names its fault.

    Each exchange keeps the cardinality and frees one more vertex, so the
    loop ends.  A settled component is a whole connected component whose only
    leftover vertex is w, and later exchanges stay inside their own
    component, so w stays settled and its component stays as grown.
    """
    settled: dict[int, tuple[int, ...]] = {}
    for comp in components:
        k = len(comp)
        mates = [partner[v] for v in comp] if k % 2 else ()
        if mates.count(-1) != 1:
            continue
        for v, p in zip(comp, mates):
            if len(adj[v]) != k - 1 or p != -1 and (p not in comp or partner[p] != v):
                break
        else:
            settled[comp[mates.index(-1)]] = comp
    while True:
        frees: dict[int, list[int]] = {}
        for w in range(len(adj)):
            if partner[w] != -1 or w in settled:
                continue
            frees[w] = free_neighbor_edges(adj, partner, w)
            if frees[w]:
                continue
            component = _grow(adj, partner, w)
            if component is None:
                break
            settled[w] = component
        else:
            return tuple(settled[w] for w in sorted(settled)), frees


def _check_partner(adj: Sequence[Sequence[int]], partner: Sequence[int]) -> None:
    """Reject a partner list that is not a matching of the graph."""
    if len(partner) != len(adj):
        raise MatchingError(f"{len(partner)} partners for {len(adj)} vertices")
    for v, p in enumerate(partner):
        if p == -1:
            continue
        if not _sorted_contains(adj[v], p):
            raise MatchingError(f"matched pair ({v},{p}) is not an edge")
        if partner[p] != v:
            raise MatchingError(f"{v} is matched to {p} but {p} to {partner[p]}")


def maximize_free_vertices(
    adj: Sequence[Sequence[int]], partner: Sequence[int]
) -> list[int]:
    """Re-match, at equal cardinality, until no single exchange of the two
    kinds (re-matching a grown component after stealing one matched edge, or
    re-seating a component near-matching) increases the free-vertex count.

    The fixpoint provably maximizes the number of free vertices: every
    non-free leftover vertex then sits in its own tight component.  Returns
    a new partner list.
    """
    _check_partner(adj, partner)
    components = _components(adj)
    if partner.count(-1) != maximum_matching(adj, components).count(-1):
        raise MatchingError("matching is not maximum")
    out = list(partner)
    _settle(adj, out, components)
    return out


def tight_components(
    adj: Sequence[Sequence[int]], partner: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """One tight component per non-free leftover vertex, recovered by growing
    the pair-absorption set until the component disconnects.

    Requires a maximum matching that already maximizes free vertices; a
    matching that the free-vertex fixpoint would change is rejected.
    """
    _check_partner(adj, partner)
    settled = list(partner)
    tight, _ = _settle(adj, settled, _components(adj))
    if settled != list(partner):
        raise MatchingError(
            "an exchange at equal cardinality frees a vertex; matching does "
            "not maximize free vertices"
        )
    return tight


@dataclass(frozen=True)
class Star:
    """Induced star: seed matching edge, apex, and leaves hanging off the apex."""

    apex: int
    seed: tuple[int, int]
    leaves: tuple[int, ...]

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted((*self.seed, *self.leaves)))

    def __len__(self) -> int:
        return 2 + len(self.leaves)


@dataclass(frozen=True)
class StarDecomposition:
    """Partition of a vertex set into induced stars plus an independent
    leftover set, with the component counts the bisection sampler needs.

    tight holds the tight components as sorted vertex tuples.  tau counts
    odd components, tau_prime counts tight components minus the 3-vertex
    ones that were seeded on an edge lifting to an antiparallel pair (sigma
    of them).
    """

    stars: tuple[Star, ...]
    leftover: tuple[int, ...]
    tau: int
    tight: tuple[tuple[int, ...], ...]
    sigma: int
    tau_prime: int
    degree_cap: float
    seeded_antiparallel: bool

    @property
    def bisection_tau(self) -> int:
        """The component count the bisection bounds use: tau_prime when the
        seeds were re-seated on antiparallel edges, tau otherwise."""
        return self.tau_prime if self.seeded_antiparallel else self.tau

    def star_edge_count(self) -> int:
        return sum(len(s) - 1 for s in self.stars)

    def covered(self) -> set[int]:
        out = set(self.leftover)
        for s in self.stars:
            out.update(s.seed)
            out.update(s.leaves)
        return out


def degree_cap(digraph: Digraph, epsilon: float) -> float:
    """2*(m/n)/epsilon: a leftover vertex of larger degree joins no star."""
    mean_degree = 2 * digraph.m / digraph.n if digraph.n else 0.0
    return mean_degree / epsilon


def star_decompose(
    digraph: Digraph,
    b_vertices: Iterable[int],
    *,
    epsilon: float,
    prefer_antiparallel: bool = False,
) -> StarDecomposition:
    """Decompose the underlying graph of D[B] into induced stars plus an
    independent leftover set U.

    U collects the non-free leftover vertices of a free-maximized maximum
    matching plus any leftover vertex whose degree in the *full* digraph
    exceeds degree_cap = 2*(m/n)/epsilon.  Every other leftover vertex
    joins the star of its minimum-index free-neighbor edge.  With
    prefer_antiparallel, each 3-vertex tight component whose triangle lifts
    to an antiparallel pair gets its seed edge re-seated onto such an edge.
    """
    if not 0 < epsilon < float("inf"):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    cap = degree_cap(digraph, epsilon)
    adj, orig = digraph.induced_underlying(b_vertices)

    components = _components(adj)
    partner = maximum_matching(adj, components)
    tight, free_lists = _settle(adj, partner, components)

    sigma = 0
    if prefer_antiparallel:
        for comp in tight:
            if len(comp) != 3:
                continue
            # comp is sorted, so the first antiparallel pair met is the smallest
            for a, b in combinations(comp, 2):
                u, v = orig[a], orig[b]
                if digraph.has_edge(u, v) and digraph.has_edge(v, u):
                    break
            else:
                continue
            sigma += 1
            if partner[a] != b:  # the spare stays leftover: it has no free list
                spare = next(v for v in comp if v not in (a, b))
                partner[a] = b
                partner[b] = a
                partner[spare] = -1

    # each seed edge is keyed by its smaller end, the order the seeds sort in
    seeds = [(v, p) for v, p in enumerate(partner) if v < p]
    leaves_of: dict[int, list[int]] = {a: [] for a, _ in seeds}
    attach_at: dict[int, int] = {}
    leftover = []
    for w in range(len(adj)):
        if partner[w] != -1:
            continue
        frees = free_lists.get(w)
        if not frees or digraph.degree(orig[w]) > cap:
            leftover.append(w)
            continue
        a, v = min((min(v, partner[v]), v) for v in frees)
        leaves_of[a].append(w)
        if a in attach_at and attach_at[a] != v:
            raise MatchingError(
                f"two leaves of seed edge ({orig[a]},{orig[partner[a]]}) attach at "
                f"different endpoints {orig[attach_at[a]]} and {orig[v]} (leaf "
                f"{orig[w]}); matching was not maximum"
            )
        attach_at[a] = v

    stars = [
        Star(
            apex=orig[attach_at.get(a, a)],
            seed=(orig[a], orig[b]),  # orig is increasing and a < b
            leaves=tuple(map(orig.__getitem__, leaves_of[a])),
        )
        for a, b in seeds
    ]

    return StarDecomposition(
        stars=tuple(stars),
        leftover=tuple(map(orig.__getitem__, leftover)),
        tau=sum(len(comp) % 2 for comp in components),
        tight=tuple(tuple(map(orig.__getitem__, comp)) for comp in tight),
        sigma=sigma,
        tau_prime=len(tight) - sigma,
        degree_cap=cap,
        seeded_antiparallel=prefer_antiparallel,
    )
