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

A matching is a partner list: partner[v] is v's mate, or -1 when v is a
leftover vertex.  Tight components are sorted vertex tuples.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Digraph, UnderlyingGraph, _components


class MatchingError(ValueError):
    """A matching handed to a decomposition routine violates its precondition."""


def _augment(adj: Sequence[Sequence[int]], match: list[int], root: int) -> bool:
    """Search an augmenting path from an exposed root, contracting blossoms.

    Classic alternating-tree search for general graphs; flips the path into
    `match` and returns True when one is found.
    """
    n = len(adj)
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n
    used[root] = True
    queue = deque([root])

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                # odd cycle: contract the blossom to its base
                cur = lca(v, to)
                blossom = [False] * n
                mark_path(v, cur, to, blossom)
                mark_path(to, cur, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = cur
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif parent[to] == -1:
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
                used[match[to]] = True
                queue.append(match[to])
    return False


def _max_matching_partner(adj: Sequence[Sequence[int]]) -> list[int]:
    """Greedy matching, then augmenting-path search one connected component
    at a time.

    An augmenting path never leaves its root's component, so each component
    is relabelled monotonically (sorted ids -> 0..size-1) and searched on its
    own: a root costs O(component) instead of O(n), and roots are still tried
    in increasing order, which keeps the result equal to the whole-graph loop.
    Components with fewer than two exposed vertices hold no augmenting path.
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
    for comp in _components(adj):
        if sum(1 for v in comp if match[v] == -1) < 2:
            continue
        # a component holds every neighbour of its vertices: no membership test
        local = {v: i for i, v in enumerate(comp)}
        sub_adj = [[local[u] for u in adj[v]] for v in comp]
        sub_match = [local[match[v]] if match[v] != -1 else -1 for v in comp]
        for i in range(len(comp)):
            if sub_match[i] == -1:
                _augment(sub_adj, sub_match, i)
        for v, p in zip(comp, sub_match):
            match[v] = comp[p] if p != -1 else -1
    return match


def maximum_matching(graph: UnderlyingGraph) -> list[int]:
    """Maximum-cardinality matching (not merely maximal) of a general graph,
    as a partner list."""
    return _max_matching_partner(graph._adj)


def _perfect_matching(
    graph: UnderlyingGraph, vertices: Iterable[int]
) -> dict[int, int] | None:
    """A perfect matching of the subgraph induced by `vertices` as a map from
    each vertex to its mate, or None when there is none."""
    sub = graph.induced(vertices)
    partner = _max_matching_partner(sub._adj)
    if -1 in partner:
        return None
    orig = sub.orig_ids
    return {v: orig[p] for v, p in zip(orig, partner)}


def free_neighbor_edges(
    graph: UnderlyingGraph, partner: Sequence[int], w: int
) -> list[int]:
    """Matched neighbors v of w whose partner is not adjacent to w."""
    out = []
    for v in graph.neighbors(w):
        p = partner[v]
        if p == -1:
            raise MatchingError(
                f"vertices {w} and {v} are adjacent and both unmatched; "
                "matching is not even maximal"
            )
        if not graph.has_edge(w, p):
            out.append(v)
    return out


class _Grower:
    """Grows the pair-absorption set of one non-free leftover vertex.

    Every absorbed vertex stays reachable from w along an even alternating
    path, so a leftover vertex or a neighborhood mismatch met during growth
    certifies that the matching is improvable: either a larger matching
    exists (error) or a same-size matching with one more free vertex, which
    is applied to `partner`.  A fully absorbed component is then checked
    against the tight-component definition directly.
    """

    def __init__(self, graph: UnderlyingGraph, partner: list[int], w: int) -> None:
        self.graph = graph
        self.partner = partner
        self.w = w
        self.in_t: set[int] = {w}
        self.anchor: dict[int, int] = {}

    def _even_path(self, x: int) -> list[int]:
        segs = []
        while x != self.w:
            segs.append((self.partner[x], x))
            x = self.anchor[x]
        path = [self.w]
        for y, z in reversed(segs):
            path.append(y)
            path.append(z)
        return path

    def _flip_to_expose(self, target: int) -> None:
        path = self._even_path(target)
        for i in range(0, len(path) - 1, 2):
            a, b = path[i], path[i + 1]
            self.partner[a] = b
            self.partner[b] = a
        self.partner[target] = -1

    def _swap(self, v1: int, v2: int, anchor_of_v1: bool, target: int) -> None:
        # Re-match so that the pair vertex not adjacent to `target` becomes
        # exposed and free, while w gets matched inside the grown set.
        self._flip_to_expose(target)
        keep, drop = (v1, v2) if anchor_of_v1 else (v2, v1)
        self.partner[keep] = target
        self.partner[target] = keep
        self.partner[drop] = -1

    def run(self) -> bool:
        """Returns True when the matching was improved; otherwise `in_t` ends
        as w's whole connected component, which is then tight."""
        graph, partner = self.graph, self.partner
        while True:
            boundary = sorted(
                {x for t in self.in_t for x in graph.neighbors(t)} - self.in_t
            )
            if not boundary:
                return self._finish_component()
            for x in boundary:
                if partner[x] == -1:
                    raise MatchingError(
                        f"leftover vertex {x} is reachable from leftover vertex "
                        f"{self.w} by an alternating path; matching is not maximum"
                    )
            # the smallest boundary vertex is absorbed with its partner or
            # triggers the exchange; growth then restarts from the new set
            v1 = boundary[0]
            v2 = partner[v1]
            if v2 in self.in_t:
                raise MatchingError(
                    f"matched pair ({v1},{v2}) split by the absorption set "
                    f"of leftover vertex {self.w}"
                )
            n1 = {t for t in graph.neighbors(v1) if t in self.in_t}
            n2 = {t for t in graph.neighbors(v2) if t in self.in_t}
            for w2 in graph.neighbors(v2):
                if w2 not in self.in_t and partner[w2] == -1 and w2 != v1:
                    raise MatchingError(
                        f"leftover vertex {w2} adjacent to the partner of a "
                        "boundary vertex; matching is not maximum"
                    )
            if n1 != n2:
                target = min(n1 ^ n2)
                self._swap(v1, v2, anchor_of_v1=target in n1, target=target)
                return True
            a = min(n1)
            self.in_t.update((v1, v2))
            self.anchor[v1] = a
            self.anchor[v2] = a

    def _finish_component(self) -> bool:
        violation = _tight_violation(self.graph, sorted(self.in_t))
        if violation is None:
            return False
        u, x, y, mates = violation
        # perfect matching of T minus {u,x,y} plus the edge xy exposes u free
        for v, p in mates.items():
            self.partner[v] = p
        self.partner[x] = y
        self.partner[y] = x
        self.partner[u] = -1
        return True


def _tight_violation(graph: UnderlyingGraph, component: Sequence[int]):
    """Search for (u, x, y) with x ~ u, y in N(x) outside N[u], and the rest of
    the component perfectly matchable; returns (u, x, y, mates) with `mates`
    a perfect matching of the rest, or None when the component is tight.

    Factor-criticality of a fully absorbed component is automatic, so this
    exhausts the remaining half of the tight-component definition.
    """
    comp = set(component)
    size = len(comp)
    if all(graph.degree(v) == size - 1 for v in component):
        return None  # odd cliques carry no half-adjacent edges
    for u in component:
        nu = set(graph.neighbors(u))
        for x in sorted(nu):
            for y in graph.neighbors(x):
                if y == u or y in nu:
                    continue
                mates = _perfect_matching(graph, comp - {u, x, y})
                if mates is not None:
                    return u, x, y, mates
    return None


def _settle(
    graph: UnderlyingGraph, partner: list[int]
) -> tuple[tuple[tuple[int, ...], ...], dict[int, list[int]]]:
    """Run the free-vertex fixpoint in place on `partner`; return the tight
    component of every non-free leftover vertex, in leftover-vertex order,
    and the free-neighbour lists that its last pass computed, by vertex.

    Each exchange keeps the cardinality and frees one more vertex, so the
    loop ends.  A settled component is a whole connected component whose only
    leftover vertex is w, and later exchanges stay inside their own
    component, so w stays settled and its component stays as grown.
    """
    settled: dict[int, tuple[int, ...]] = {}
    improved = True
    while improved:
        improved = False
        frees: dict[int, list[int]] = {}
        for w in range(graph.n):
            if partner[w] != -1 or w in settled:
                continue
            frees[w] = free_neighbor_edges(graph, partner, w)
            if frees[w]:
                continue
            grower = _Grower(graph, partner, w)
            improved = grower.run()
            if improved:
                break
            settled[w] = tuple(sorted(grower.in_t))
    return tuple(settled[w] for w in sorted(settled)), frees


def _check_partner(graph: UnderlyingGraph, partner: Sequence[int]) -> None:
    """Reject a partner list that is not a matching of `graph`."""
    if len(partner) != graph.n:
        raise MatchingError(f"{len(partner)} partners for {graph.n} vertices")
    for v, p in enumerate(partner):
        if p == -1:
            continue
        if not graph.has_edge(v, p):
            raise MatchingError(f"matched pair ({v},{p}) is not an edge")
        if partner[p] != v:
            raise MatchingError(f"{v} is matched to {p} but {p} to {partner[p]}")


def maximize_free_vertices(graph: UnderlyingGraph, partner: Sequence[int]) -> list[int]:
    """Re-match, at equal cardinality, until no single exchange of the two
    kinds (re-matching a grown component after stealing one matched edge, or
    re-seating a component near-matching) increases the free-vertex count.

    The fixpoint provably maximizes the number of free vertices: every
    non-free leftover vertex then sits in its own tight component.  Returns
    a new partner list.
    """
    _check_partner(graph, partner)
    if partner.count(-1) != maximum_matching(graph).count(-1):
        raise MatchingError("matching is not maximum")
    out = list(partner)
    _settle(graph, out)
    return out


def tight_components(
    graph: UnderlyingGraph, partner: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """One tight component per non-free leftover vertex, recovered by growing
    the pair-absorption set until the component disconnects.

    Requires a maximum matching that already maximizes free vertices; a
    matching that the free-vertex fixpoint would change is rejected.
    """
    _check_partner(graph, partner)
    settled = list(partner)
    components, _ = _settle(graph, settled)
    if settled != list(partner):
        raise MatchingError(
            "an exchange at equal cardinality frees a vertex; matching does "
            "not maximize free vertices"
        )
    return components


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
            out.update(s.vertices)
        return out


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
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    mean_degree = 2 * digraph.m / digraph.n if digraph.n else 0.0
    degree_cap = mean_degree / epsilon
    graph, antiparallel = digraph.induced_underlying(b_vertices)
    orig = graph.orig_ids

    partner = maximum_matching(graph)
    tight, free_lists = _settle(graph, partner)

    sigma = 0
    if prefer_antiparallel:
        for comp in tight:
            if len(comp) != 3:
                continue
            options = sorted(
                (u, v) for u in comp for v in comp if u < v and (u, v) in antiparallel
            )
            if not options:
                continue
            sigma += 1
            a, b = options[0]
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
    for w in range(graph.n):
        if partner[w] != -1:
            continue
        frees = free_lists.get(w)
        if not frees or digraph.degree(orig[w]) > degree_cap:
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
            leaves=tuple(orig[w] for w in leaves_of[a]),
        )
        for a, b in seeds
    ]

    return StarDecomposition(
        stars=tuple(stars),
        leftover=tuple(orig[w] for w in leftover),
        tau=graph.odd_components(),
        tight=tuple(tuple(orig[v] for v in comp) for comp in tight),
        sigma=sigma,
        tau_prime=len(tight) - sigma,
        degree_cap=degree_cap,
        seeded_antiparallel=prefer_antiparallel,
    )
