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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .core import Digraph, UnderlyingGraph


class MatchingError(ValueError):
    """A matching handed to a decomposition routine violates its precondition."""


@dataclass(frozen=True)
class Matching:
    """Set of pairwise-disjoint edges plus the uncovered vertex set W."""

    edges: frozenset[tuple[int, int]]
    unmatched: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.edges)

    def partner_array(self, n: int) -> list[int]:
        partner = [-1] * n
        for u, v in self.edges:
            partner[u] = v
            partner[v] = u
        return partner


def _matching_from_partner(partner: Sequence[int]) -> Matching:
    edges = frozenset(
        (v, p) for v, p in enumerate(partner) if p != -1 and v < p
    )
    unmatched = frozenset(v for v, p in enumerate(partner) if p == -1)
    return Matching(edges, unmatched)


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


def _induced_adjacency(
    neighbors: Callable[[int], Iterable[int]], keep: Sequence[int]
) -> tuple[dict[int, int], list[list[int]]]:
    """Relabel the sorted vertex list `keep` to 0..len(keep)-1, keeping its
    order; returns that map and the adjacency restricted to `keep`."""
    pos = {v: i for i, v in enumerate(keep)}
    return pos, [[pos[u] for u in neighbors(v) if u in pos] for v in keep]


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
    seen = bytearray(n)
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = 1
        comp = [start]
        stack = [start]
        while stack:
            for u in adj[stack.pop()]:
                if not seen[u]:
                    seen[u] = 1
                    comp.append(u)
                    stack.append(u)
        if sum(1 for v in comp if match[v] == -1) < 2:
            continue
        comp.sort()
        local, sub_adj = _induced_adjacency(adj.__getitem__, comp)
        sub_match = [local[match[v]] if match[v] != -1 else -1 for v in comp]
        for i in range(len(comp)):
            if sub_match[i] == -1:
                _augment(sub_adj, sub_match, i)
        for v, p in zip(comp, sub_match):
            match[v] = comp[p] if p != -1 else -1
    return match


def maximum_matching(graph: UnderlyingGraph) -> Matching:
    """Maximum-cardinality matching (not merely maximal) of a general graph."""
    adj = [graph.neighbors(v) for v in range(graph.n)]
    return _matching_from_partner(_max_matching_partner(adj))


def _has_perfect_matching(graph: UnderlyingGraph, vertices: Iterable[int]) -> bool:
    keep = sorted(vertices)
    if len(keep) % 2 == 1:
        return False
    if not keep:
        return True
    _, adj = _induced_adjacency(graph.neighbors, keep)
    partner = _max_matching_partner(adj)
    return all(p != -1 for p in partner)


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


def _is_free(graph: UnderlyingGraph, partner: Sequence[int], w: int) -> bool:
    return bool(free_neighbor_edges(graph, partner, w))


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
        u, x, y, rest = violation
        # perfect matching of T minus {u,x,y} plus the edge xy exposes u free
        index = sorted(rest)
        _, adj = _induced_adjacency(self.graph.neighbors, index)
        sub = _max_matching_partner(adj)
        for i, p in enumerate(sub):
            self.partner[index[i]] = index[p]
        self.partner[x] = y
        self.partner[y] = x
        self.partner[u] = -1
        return True


def _tight_violation(graph: UnderlyingGraph, component: Sequence[int]):
    """Search for (u, x, y) with x ~ u, y in N(x) outside N[u], and the rest of
    the component perfectly matchable; None means the component is tight.

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
                rest = comp - {u, x, y}
                if _has_perfect_matching(graph, rest):
                    return u, x, y, rest
    return None


@dataclass(frozen=True)
class TightReport:
    """Tight components (vertex tuples) with per-component antiparallel flags."""

    components: tuple[tuple[int, ...], ...]
    has_antiparallel: tuple[bool, ...]

    def __len__(self) -> int:
        return len(self.components)


def _settle(
    graph: UnderlyingGraph,
    partner: list[int],
    antiparallel_edges: frozenset[tuple[int, int]] | None = None,
) -> TightReport:
    """Run the free-vertex fixpoint in place on `partner` and report the tight
    component of every non-free leftover vertex, in leftover-vertex order.

    Each exchange keeps the cardinality and frees one more vertex, so the
    loop ends.  A settled component is a whole connected component whose only
    leftover vertex is w, and later exchanges stay inside their own
    component, so w stays settled and its component stays as grown.
    """
    settled: dict[int, tuple[int, ...]] = {}
    improved = True
    while improved:
        improved = False
        for w in range(graph.n):
            if partner[w] != -1 or w in settled or _is_free(graph, partner, w):
                continue
            grower = _Grower(graph, partner, w)
            improved = grower.run()
            if improved:
                break
            settled[w] = tuple(sorted(grower.in_t))
    comps = [settled[w] for w in sorted(settled)]
    ap = antiparallel_edges or frozenset()
    # a component is closed under neighbors, so each u < v edge is inside it
    flags = [
        any((u, v) in ap for u in comp for v in graph.neighbors(u) if u < v)
        for comp in comps
    ]
    return TightReport(tuple(comps), tuple(flags))


def maximize_free_vertices(graph: UnderlyingGraph, matching: Matching) -> Matching:
    """Re-match, at equal cardinality, until no single exchange of the two
    kinds (re-matching a grown component after stealing one matched edge, or
    re-seating a component near-matching) increases the free-vertex count.

    The fixpoint provably maximizes the number of free vertices: every
    non-free leftover vertex then sits in its own tight component.
    """
    if matching.size != maximum_matching(graph).size:
        raise MatchingError("matching is not maximum")
    partner = matching.partner_array(graph.n)
    _settle(graph, partner)
    return _matching_from_partner(partner)


def free_vertex_count(graph: UnderlyingGraph, matching: Matching) -> int:
    partner = matching.partner_array(graph.n)
    return sum(
        1 for w in matching.unmatched if _is_free(graph, partner, w)
    )


def tight_components(
    graph: UnderlyingGraph,
    matching: Matching,
    antiparallel_edges: frozenset[tuple[int, int]] | None = None,
) -> TightReport:
    """One tight component per non-free leftover vertex, recovered by growing
    the pair-absorption set until the component disconnects.

    Requires a maximum matching that already maximizes free vertices; a
    matching that the free-vertex fixpoint would change is rejected.
    """
    partner = matching.partner_array(graph.n)
    report = _settle(graph, partner, antiparallel_edges)
    if partner != matching.partner_array(graph.n):
        raise MatchingError(
            "an exchange at equal cardinality frees a vertex; matching does "
            "not maximize free vertices"
        )
    return report


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

    tau counts odd components, tau_prime counts tight components minus the
    3-vertex ones that were seeded on an edge lifting to an antiparallel
    pair (sigma of them).
    """

    stars: tuple[Star, ...]
    leftover: tuple[int, ...]
    tau: int
    tight: TightReport
    sigma: int
    tau_prime: int
    degree_cap: float
    epsilon: float
    seeded_antiparallel: bool
    vertices: tuple[int, ...]

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
    b_list = sorted(set(b_vertices))
    mean_degree = 2 * digraph.m / digraph.n if digraph.n else 0.0
    degree_cap = mean_degree / epsilon
    graph, antiparallel = digraph.induced_underlying(b_list)
    orig = graph.orig_ids

    partner = maximum_matching(graph).partner_array(graph.n)
    tight = _settle(graph, partner, antiparallel)

    sigma = 0
    if prefer_antiparallel:
        for comp, flag in zip(tight.components, tight.has_antiparallel):
            if len(comp) != 3 or not flag:
                continue
            sigma += 1
            options = sorted(
                (u, v)
                for u in comp
                for v in comp
                if u < v and (u, v) in antiparallel
            )
            a, b = options[0]
            if partner[a] != b:
                spare = next(v for v in comp if v not in (a, b))
                partner[a] = b
                partner[b] = a
                partner[spare] = -1

    seeds = sorted((v, p) for v, p in enumerate(partner) if p != -1 and v < p)
    seed_index = {edge: i for i, edge in enumerate(seeds)}
    leaves_of: dict[int, list[int]] = {i: [] for i in range(len(seeds))}
    attach_at: dict[int, int] = {}
    leftover = []
    for w in range(graph.n):
        if partner[w] != -1:
            continue
        frees = free_neighbor_edges(graph, partner, w)
        if not frees or digraph.degree(orig[w]) > degree_cap:
            leftover.append(w)
            continue
        i, v = min(
            (seed_index[(min(v, partner[v]), max(v, partner[v]))], v)
            for v in frees
        )
        leaves_of[i].append(w)
        if i in attach_at and attach_at[i] != v:
            a, b = seeds[i]
            raise MatchingError(
                f"two leaves of seed edge ({orig[a]},{orig[b]}) attach at "
                f"different endpoints {orig[attach_at[i]]} and {orig[v]} (leaf "
                f"{orig[w]}); matching was not maximum"
            )
        attach_at[i] = v

    stars = []
    for i, (a, b) in enumerate(seeds):
        apex = attach_at.get(i, a)
        stars.append(
            Star(
                apex=orig[apex],
                seed=(orig[a], orig[b]) if orig[a] < orig[b] else (orig[b], orig[a]),
                leaves=tuple(orig[w] for w in leaves_of[i]),
            )
        )

    report = TightReport(
        tuple(tuple(orig[v] for v in comp) for comp in tight.components),
        tight.has_antiparallel,
    )
    return StarDecomposition(
        stars=tuple(stars),
        leftover=tuple(orig[w] for w in leftover),
        tau=graph.odd_components(),
        tight=report,
        sigma=sigma,
        tau_prime=len(report) - sigma,
        degree_cap=degree_cap,
        epsilon=epsilon,
        seeded_antiparallel=prefer_antiparallel,
        vertices=tuple(b_list),
    )
