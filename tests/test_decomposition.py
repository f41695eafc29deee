import functools
import hashlib
import random
import sys
import time
from collections import deque

import pytest

import dicut.decomposition as decomposition_mod
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dicut.core import Digraph, _components
from dicut.decomposition import (
    _augment,
    _grow,
    _perfect_matching,
    MatchingError,
    free_neighbor_edges,
    maximize_free_vertices,
    maximum_matching,
    star_decompose,
    tight_components,
)
from dicut.generators import lower_bound_gadget, random_min_outdeg
from dicut.pipeline import split_large

from .conftest import (
    Rows,
    chained_lower_bound_gadget,
    edges_of,
    free_vertex_count,
    from_edge_list,
    induced,
    induced_rows,
    matching_size,
    random_digraph,
    random_undirected,
    triangle_graph,
    underlying,
    undirected,
)
from .test_branch_fuzz import odd_components
from .exhaustive import (
    MAX_PM_N,
    brute_force_tight_check,
    enumerate_perfect_matchings,
    exact_max_matching,
    max_free_over_max_matchings,
)


def k_graph(n: int) -> Rows:
    return undirected(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def disjoint_union(*parts: Rows) -> Rows:
    """The parts side by side, each part's ids shifted past the ones before."""
    rows: list[tuple[int, ...]] = []
    for part in parts:
        start = len(rows)
        rows += (tuple(start + u for u in row) for row in part)
    return tuple(rows)


def two_triangles() -> Rows:
    return undirected(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def bowtie() -> Rows:
    return undirected(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])


def fan_with_chord() -> Rows:
    """Vertex 2 and the edge (3,4), both joined to the edge (0,1).  Under the
    matching {(0,1),(3,4)} every pair absorbs, so vertex 2 is freed only by
    the tight-violation exchange (u, x, y) = (2, 0, 3)."""
    return undirected(
        5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (3, 4)]
    )


def chorded_c5() -> Rows:
    return undirected(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = (
        draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
        if pool
        else []
    )
    return undirected(n, edges)


@st.composite
def multi_component_graphs(
    draw, max_n=80, kinds=("isolated", "odd_cycle", "flower", "random")
):
    """Disjoint blocks (isolated vertices, odd cycles, flowers, random
    pieces, and with "nested" in `kinds` odd cycles of odd cycles), a few
    bridges that may merge them, and a random relabelling so the
    components' vertex ids interleave."""
    edges: list[tuple[int, int]] = []
    n = 0
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=14)):
        if kind == "isolated":
            size, local = 1, []
        elif kind == "odd_cycle":
            size = draw(st.sampled_from((3, 5, 7, 9)))
            local = [(i, (i + 1) % size) for i in range(size)]
        elif kind == "flower":
            # an odd cycle with a stem: the search must contract the blossom
            cycle = draw(st.sampled_from((3, 5, 7)))
            size = cycle + draw(st.integers(min_value=1, max_value=4))
            local = [(i, (i + 1) % cycle) for i in range(cycle)]
            local += [(max(i - 1, 0), i) for i in range(cycle, size)]
        elif kind == "nested":
            # an odd cycle of odd cycles, the next one entered one place on,
            # with a stem: a blossom whose vertices are blossoms themselves
            outer, inner = draw(st.sampled_from(((3, 3), (3, 5), (5, 3), (5, 5))))
            ring = outer * inner
            size = ring + draw(st.integers(min_value=1, max_value=3))
            local = [(c * inner + i, c * inner + (i + 1) % inner)
                     for c in range(outer) for i in range(inner)]
            local += [(c * inner, (c + 1) % outer * inner + 1) for c in range(outer)]
            local += [(max(i - 1, 0), i) for i in range(ring, size)]
        else:
            size = draw(st.integers(min_value=2, max_value=10))
            pool = [(u, v) for u in range(size) for v in range(u + 1, size)]
            local = draw(st.lists(st.sampled_from(pool), unique=True))
        if n + size > max_n:
            break
        edges += [(n + u, n + v) for u, v in local]
        n += size
    ids = st.integers(min_value=0, max_value=n - 1)
    bridges = draw(st.lists(st.tuples(ids, ids), max_size=3))
    edges += [(u, v) for u, v in bridges if u != v]
    perm = draw(st.permutations(range(n)))
    return undirected(n, [(perm[u], perm[v]) for u, v in edges])


def greedy_partner(adj):
    """The greedy pass that starts every maximum matching: each exposed
    vertex, in id order, takes its first exposed neighbour."""
    match = [-1] * len(adj)
    for v in range(len(adj)):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    return match


def whole_graph_partner(adj):
    """Reference: greedy pass, then one augmenting search over the whole
    graph from every exposed vertex in id order."""
    match = greedy_partner(adj)
    for v in range(len(adj)):
        if match[v] == -1:
            _augment(adj, match, v)
    return match


class TestMaximumMatching:
    @given(multi_component_graphs(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_per_component_search_equals_whole_graph(self, g, reverse):
        adj = [list(row) for row in g]
        if reverse:  # neighbour order steers the search; keep it arbitrary
            adj = [a[::-1] for a in adj]
        assert maximum_matching(adj, _components(adj)) == whole_graph_partner(adj)

    def test_size_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(41)
        for n in (150, 300, 500):
            for avg_degree in (1.5, 3.0):
                g = random_undirected(rng, n, avg_degree / (n - 1))
                ref = nx.Graph()
                ref.add_nodes_from(range(n))
                ref.add_edges_from(edges_of(g))
                expected = len(nx.max_weight_matching(ref, maxcardinality=True))
                partner = maximum_matching(g, _components(g))
                assert matching_size(partner) == expected, (n, avg_degree)

    def test_path_four(self):
        p4 = undirected(4, [(0, 1), (1, 2), (2, 3)])
        m = maximum_matching(p4, _components(p4))
        assert matching_size(m) == 2 and -1 not in m

    def test_triangle(self):
        g = triangle_graph()
        m = maximum_matching(g, _components(g))
        assert matching_size(m) == 1 and m.count(-1) == 1

    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_matches_exhaustive_maximum(self, g):
        assert matching_size(maximum_matching(g, _components(g))) == exact_max_matching(g)

    def test_matches_exhaustive_maximum_seeded(self):
        rng = random.Random(9)
        for _ in range(80):
            g = random_undirected(rng, rng.randint(1, 12), rng.uniform(0.1, 0.7))
            partner = maximum_matching(g, _components(g))
            assert matching_size(partner) == exact_max_matching(g)

    def test_blossom_heavy_cases(self):
        # odd cycles force blossom contraction
        for n in (5, 7, 9, 11):
            cyc = undirected(n, [(i, (i + 1) % n) for i in range(n)])
            assert matching_size(maximum_matching(cyc, _components(cyc))) == n // 2

    def test_petersen_graph(self):
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        g = undirected(10, outer + inner + spokes)
        assert matching_size(maximum_matching(g, _components(g))) == 5


class TestPerfectMatching:
    def test_matches_exhaustive_on_induced_subsets(self):
        """_perfect_matching filters the induced rows itself: None exactly
        when the induced subgraph has no perfect matching, else a perfect
        matching of it in original ids, whatever order the subset comes in."""
        rng = random.Random(31)
        matched = 0
        for _ in range(400):
            n = rng.randint(1, 12)
            g = random_undirected(rng, n, rng.uniform(0.15, 0.8))
            vertices = rng.sample(range(n), rng.randint(0, min(n, MAX_PM_N)))
            mates = _perfect_matching(g, vertices)
            sub, _ = induced_rows(g, vertices)
            if next(enumerate_perfect_matchings(sub), None) is None:
                assert mates is None, (g, vertices)
                continue
            matched += 1
            assert mates is not None and sorted(mates) == sorted(vertices)
            assert all(mates[p] == v and p in g[v] for v, p in mates.items())
        assert matched > 100


def chained_b(d: int, k: int) -> Rows:
    """The underlying graph of B that the bisection branch decomposes on the
    chained gadget: one connected component of k copies."""
    _, rest, stripped, _ = split_large(chained_lower_bound_gadget(d, k))
    rows, _ = stripped.induced_underlying(rest)
    return rows


@functools.cache
def random_min_outdeg_rows(n: int) -> Rows:
    """The underlying graph of random_min_outdeg(n, 3, 1.0, 7), whole."""
    rows, _ = random_min_outdeg(n, 3, 1.0, 7).induced_underlying(range(n))
    return rows


PINNED_MATCHINGS = {
    # name: (graph builder, sha256 of the partner list with neighbours in
    # sorted order, the same with each neighbour list reversed)
    "random-n60-s1": (
        lambda: random_undirected(random.Random(1), 60, 2.5 / 59),
        "cf5834ae01f0a9ffe4015f7ae3d566286d3820abb77c0ea604175faa66834c7f",
        "16730328322d009cc58557461b25870b7351f000e0a7917bbffebf66bb523e67",
    ),
    "random-n120-s2": (
        lambda: random_undirected(random.Random(2), 120, 3.0 / 119),
        "f60230691433e4fa3c735d92d279b31302d74dd05c2e71eb7dabd339f498ceac",
        "80feeabb8520658a601ce853bd3d559c4bff5ecef89f0d6a43b5220dd69cd99f",
    ),
    "random-n200-s3": (
        lambda: random_undirected(random.Random(3), 200, 2.0 / 199),
        "156d63fd82c782cde0918710743eccfe28d740cdd10b2d22779f907ecb382835",
        "70913e48c14f470391b48b93722bcd7d149606e02a0fd1617c5d7a8d0b6cee3b",
    ),
    "random-n40-s4-dense": (
        lambda: random_undirected(random.Random(4), 40, 0.3),
        "03ba978119ba40a745820630de74019cfb0197a013a73813c34561edc2f75509",
        "79016428281d4cebf6827fe1b05c9452bfcd375e9ef5abe7e1b51aabb5468294",
    ),
    "chained-d2-k400": (
        lambda: chained_b(2, 400),
        "5fc93d25a1e172d4995423e5c640ad8650e39aaf9b16c236343b95005a08d591",
        "1c7a047184cf0ee9a92fc967e2de32241d7fe91ee8b6078e7aaf3c479f88f863",
    ),
    "chained-d3-k200": (
        lambda: chained_b(3, 200),
        "751c893e330c000533e9fa3df2c6155bdbcc89e174fb5fc28df73c4465d08a2d",
        "e92913885ced82a8c838dfef4187e39127c51b799a956278037e5b413dcbd882",
    ),
    "random-min-outdeg-n20000": (
        lambda: random_min_outdeg_rows(20000),
        "949239a1d9277f6e66b1925cb067a9958e6faf859059c507d40c360623305b71",
        "2cdbabbfe24af1158be9b749f0c39c4e2c0a787f9fd4d8f9ea2135ac4f28221d",
    ),
}


class TestPinnedMatchings:
    """Which maximum matching the search returns, not only its size: the
    star decomposition and so every partition downstream depend on it."""

    @pytest.mark.parametrize("reverse", [False, True], ids=["sorted", "reversed"])
    @pytest.mark.parametrize("name", sorted(PINNED_MATCHINGS))
    def test_partner_list_pinned(self, name, reverse):
        build, sorted_sha, reversed_sha = PINNED_MATCHINGS[name]
        adj = [list(row) for row in build()]
        if reverse:
            adj = [a[::-1] for a in adj]
        greedy = greedy_partner(adj)
        # the augmenting search runs: some component keeps two exposed vertices
        assert any(
            sum(greedy[v] == -1 for v in comp) >= 2 for comp in _components(adj)
        )
        partner = maximum_matching(adj, _components(adj))
        assert matching_size(partner) > matching_size(greedy)
        digest = hashlib.sha256(",".join(map(str, partner)).encode()).hexdigest()
        assert digest == (reversed_sha if reverse else sorted_sha)


def tree_scan_augment(adj, match, root):
    """Reference for `_augment`: the same search, but each contraction
    re-bases every tree vertex whose base lies in the blossom, found by a
    scan of the whole tree, so one contraction costs the tree's size."""

    class OwnBase(dict):
        def __missing__(self, v):
            return v

    parent = {}
    base = OwnBase()
    used = {root}
    queue = deque([root])

    def lca(a, b):
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            b = parent[match[b]]

    def mark_path(v, b, child, blossom):
        while base[v] != b:
            blossom.add(base[v])
            blossom.add(base[match[v]])
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and match[to] in parent):
                cur = lca(v, to)
                blossom = set()
                mark_path(v, cur, to, blossom)
                mark_path(to, cur, v, blossom)
                for i in sorted(i for i in used.union(parent) if base[i] in blossom):
                    base[i] = cur
                    if i not in used:
                        used.add(i)
                        queue.append(i)
            elif to not in parent:
                parent[to] = v
                if match[to] == -1:
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


class TestBlossomForest:
    """The blossom bases kept as a forest: a contraction touches only the
    blossom, and the matching is the one the tree scan finds."""

    @given(
        multi_component_graphs(
            kinds=("isolated", "odd_cycle", "flower", "nested", "random")
        ),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_tree_scan(self, g, reverse):
        adj = [list(row)[::-1] if reverse else list(row) for row in g]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decomposition_mod, "_augment", tree_scan_augment)
            expected = maximum_matching(adj, _components(adj))
        assert maximum_matching(adj, _components(adj)) == expected

    def test_scales_with_one_component_walk(self):
        """A contraction that scanned the whole tree made the search
        quadratic on these rows: about 1,600 walks' worth, against 10."""
        rows = random_min_outdeg_rows(20000)

        def best_of_3(fn):
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                fn(rows)
                times.append(time.perf_counter() - t0)
            return min(times)

        def matching(rows):
            return maximum_matching(rows, _components(rows))

        assert best_of_3(matching) < 100 * best_of_3(_components)


class TestPinnedExchanges:
    """Which matching the free-vertex fixpoint settles on, and the tight
    components it reports: an exchange that frees a different vertex, or
    re-matches the even path to it differently, changes the hash."""

    def test_corpus_pinned(self):
        rng = random.Random(2023)
        digest = hashlib.sha256()
        rematched = 0
        for _ in range(3000):
            n = rng.randint(1, 40)
            g = random_undirected(rng, n, rng.uniform(0.5, 3.0) / max(n - 1, 1))
            partner = maximum_matching(g, _components(g))
            settled = maximize_free_vertices(g, partner)
            rematched += settled != partner
            digest.update(repr((partner, settled, tight_components(g, settled))).encode())
        assert rematched >= 20
        assert digest.hexdigest() == (
            "dd166e7f7e060f7ec5f499eb4e22e06d10f30b8cb9ddaaa0acba128adda88c88"
        )


class TestMaximizeFreeVertices:
    def test_triangle_unchanged(self):
        g = triangle_graph()
        m = maximize_free_vertices(g, maximum_matching(g, _components(g)))
        assert matching_size(m) == 1
        assert free_vertex_count(g, m) == 0

    def test_star_leaves_already_free(self):
        star = undirected(4, [(0, 1), (0, 2), (0, 3)])
        m = maximize_free_vertices(star, maximum_matching(star, _components(star)))
        assert free_vertex_count(star, m) == 2

    def test_rejects_non_maximum(self):
        g = undirected(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(MatchingError, match="not maximum"):
            maximize_free_vertices(g, [-1, 2, 1, -1])

    def test_chorded_cycle_swap(self):
        # matching {(0,2),(3,4)} leaves vertex 1 non-free, but the component
        # is not tight: maximization must free it
        g = chorded_c5()
        start = [2, -1, 0, 4, 3]
        out = maximize_free_vertices(g, start)
        assert matching_size(out) == 2
        assert free_vertex_count(g, out) == 1
        assert start == [2, -1, 0, 4, 3]  # the result is a new list

    def test_tight_violation_exchange(self):
        g = fan_with_chord()
        start = [1, 0, -1, 4, 3]
        assert free_vertex_count(g, start) == 0
        out = maximize_free_vertices(g, start)
        assert out == [3, 4, -1, 0, 1]
        assert free_vertex_count(g, out) == 1 == max_free_over_max_matchings(g)

    def test_reaches_exhaustive_optimum(self):
        rng = random.Random(17)
        for _ in range(60):
            g = random_undirected(rng, rng.randint(1, 10), rng.uniform(0.15, 0.7))
            partner = maximum_matching(g, _components(g))
            got = free_vertex_count(g, maximize_free_vertices(g, partner))
            assert got == max_free_over_max_matchings(g)


class TestTightComponents:
    def test_two_triangles(self):
        g = two_triangles()
        m = maximize_free_vertices(g, maximum_matching(g, _components(g)))
        assert tight_components(g, m) == ((0, 1, 2), (3, 4, 5))

    def test_isolated_vertex(self):
        g = undirected(1, [])
        assert tight_components(g, [-1]) == ((0,),)

    def test_even_path_has_none(self):
        g = undirected(4, [(0, 1), (1, 2), (2, 3)])
        m = maximum_matching(g, _components(g))
        assert len(tight_components(g, m)) == 0

    def test_rejects_improvable_matching(self):
        g = chorded_c5()
        with pytest.raises(MatchingError, match="does not maximize free vertices"):
            tight_components(g, [2, -1, 0, 4, 3])

    def test_rejects_matching_freed_by_the_tight_violation_exchange(self):
        with pytest.raises(MatchingError, match="does not maximize free vertices"):
            tight_components(fan_with_chord(), [1, 0, -1, 4, 3])

    def test_pair_split_by_absorption_set_named(self):
        # partner array claims 1 is matched to the leftover vertex 0 itself
        g = undirected(3, [(0, 1), (1, 2)])
        with pytest.raises(MatchingError, match=r"pair \(1,0\) split .* vertex 0"):
            _grow(g, [-1, 0, -1], 0)

    @pytest.mark.parametrize(
        "edges, partner, message",
        [
            ([(0, 1), (0, 2), (1, 2), (2, 3)], [-1, 2, 1, -1], "adjacent to the partner"),
            (
                [(0, 1), (0, 2), (1, 2), (1, 3)],
                [-1, 2, 1, -1],
                "reachable from leftover vertex 0",
            ),
            ([(0, 1)], [-1, -1], "not even maximal"),
        ],
        ids=["partner-of-boundary", "alternating-path", "not-maximal"],
    )
    def test_rejects_non_maximum_matching_named(self, edges, partner, message):
        g = undirected(len(partner), edges)
        with pytest.raises(MatchingError, match=message):
            tight_components(g, partner)

    def test_all_reported_components_are_odd(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_undirected(rng, rng.randint(1, 14), rng.uniform(0.1, 0.5))
            m = maximize_free_vertices(g, maximum_matching(g, _components(g)))
            for comp in tight_components(g, m):
                assert len(comp) % 2 == 1


@pytest.mark.parametrize("step", [maximize_free_vertices, tight_components])
class TestPartnerListValidation:
    """Both public steps take a caller's partner list and reject one that is
    not a matching of the graph before reading it."""

    def test_rejects_wrong_length(self, step):
        with pytest.raises(MatchingError, match="3 partners for 4 vertices"):
            step(undirected(4, [(0, 1), (2, 3)]), [1, 0, -1])

    def test_rejects_one_sided_pair(self, step):
        with pytest.raises(MatchingError, match="0 is matched to 1 but 1 to 2"):
            step(triangle_graph(), [1, 2, 1])

    def test_rejects_pair_that_is_not_an_edge(self, step):
        with pytest.raises(MatchingError, match=r"pair \(0,2\) is not an edge"):
            step(undirected(4, [(0, 1), (2, 3)]), [2, -1, 0, -1])

    @pytest.mark.parametrize("bad", [4, -2, 10**9])
    def test_rejects_out_of_range_partner(self, step, bad):
        # -2 would otherwise index the list from its end
        with pytest.raises(MatchingError, match=rf"pair \(0,{bad}\) is not an edge"):
            step(undirected(4, [(0, 1), (2, 3)]), [bad, -1, -1, -1])


class TestBruteForceTight:
    def test_small_cases(self):
        assert brute_force_tight_check(undirected(1, []))
        assert brute_force_tight_check(triangle_graph())
        assert brute_force_tight_check(k_graph(5))
        assert not brute_force_tight_check(undirected(2, [(0, 1)]))
        assert not brute_force_tight_check(undirected(3, [(0, 1), (1, 2)]))

    def test_bowtie_is_tight(self):
        assert brute_force_tight_check(bowtie())

    def test_cycles_are_not_tight(self):
        c5 = undirected(5, [(i, (i + 1) % 5) for i in range(5)])
        assert not brute_force_tight_check(c5)
        assert not brute_force_tight_check(chorded_c5())

    def test_requires_connected(self):
        with pytest.raises(ValueError):
            brute_force_tight_check(undirected(2, []))


def odd_clique_corpus(count: int, seed: int):
    """Random graphs on at most 8 vertices, drawn three ways in turn: G(n, p);
    an odd clique with each vertex pair toggled with probability 1/8; and a
    K5 on 7 or 8 vertices that trades one inside edge (a, b) for an edge from
    a and one from b to the outside, which keeps every degree in the clique,
    with the outside vertices joined at random.  Each graph is relabelled at
    random."""
    rng = random.Random(seed)
    for i in range(count):
        kind = i % 3
        n = rng.randint(7, 8) if kind == 2 else rng.randint(1, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        if kind == 0:
            p = rng.uniform(0.2, 0.9)
            edges = {e for e in pairs if rng.random() < p}
        elif kind == 1:
            k = rng.choice([c for c in (1, 3, 5, 7) if c <= n])
            edges = {(u, v) for u, v in pairs if v < k}
            edges ^= {e for e in pairs if rng.random() < 1 / 8}
        else:
            edges = {(u, v) for u, v in pairs if v < 5} - {(0, 1)}
            edges |= {(0, rng.randrange(5, n)), (1, rng.randrange(5, n))}
            edges |= {(u, v) for u, v in pairs if u >= 5 and rng.random() < 0.5}
        perm = rng.sample(range(n), n)
        yield undirected(n, [(perm[u], perm[v]) for u, v in edges])


def check_against_exhaustive(g: Rows) -> None:
    """From the maximum matchings of the sorted and of the reversed rows,
    maximize_free_vertices reaches the exhaustive free-vertex maximum and
    tight_components reports exactly the connected components that the
    definitional test finds tight."""
    comps = _components(g)
    subs = [induced_rows(g, comp)[0] for comp in comps]
    tight = sorted(c for c, sub in zip(comps, subs) if brute_force_tight_check(sub))
    most_free = sum(map(max_free_over_max_matchings, subs))
    for rows in (g, tuple(row[::-1] for row in g)):
        settled = maximize_free_vertices(g, maximum_matching(rows, _components(rows)))
        assert free_vertex_count(g, settled) == most_free, (g, rows)
        assert sorted(tight_components(g, settled)) == tight, (g, rows)


class TestOddCliqueShortcut:
    """An odd clique that is a whole component, with one exposed vertex and
    the rest paired inside it, is settled from the component walk, with no
    free-neighbour list and no growth; every other component grows as
    before."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_gadget_b_never_checks_tightness(self, d, monkeypatch):
        g, _ = lower_bound_gadget(d, 50)
        _, rest, stripped, _ = split_large(g)
        calls = {"grow": 0, "tight_violation": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(decomposition_mod, "_grow", counted("grow", _grow))
        monkeypatch.setattr(
            decomposition_mod, "_tight_violation",
            counted("tight_violation", decomposition_mod._tight_violation),
        )
        dec = star_decompose(stripped, rest, epsilon=0.0125)
        # one K_{2d-1} per copy, each a whole component of B
        assert len(dec.tight) == 50
        b = set(rest)
        for comp in dec.tight:
            assert len(comp) == 2 * d - 1
            for v in comp:
                row = {*stripped.out_neighbors(v), *stripped.in_neighbors(v)}
                assert row & b == set(comp) - {v}
        assert calls == {"grow": 0, "tight_violation": 0}

    def test_disjoint_odd_cliques(self):
        # K1, K3, K5, K7, K9 with their vertex ids interleaved
        perm = random.Random(5).sample(range(25), 25)
        edges, start = [], 0
        for k in (1, 3, 5, 7, 9):
            edges += [(perm[start + u], perm[start + v])
                      for u in range(k) for v in range(u + 1, k)]
            start += k
        g = undirected(25, edges)
        check_against_exhaustive(g)
        assert len(tight_components(g, maximum_matching(g, _components(g)))) == 5

    def test_k5_less_an_edge_still_grows(self):
        # from the reversed rows' matching {04, 13}, leftover vertex 2 sees
        # the other four, paired inside its neighbourhood; only their rows
        # show the missing edge 34, and the graph is not tight
        g = undirected(5, [(u, v) for u in range(5) for v in range(u + 1, 5)
                           if (u, v) != (3, 4)])
        check_against_exhaustive(g)
        partner = maximize_free_vertices(g, maximum_matching(g, _components(g)))
        assert tight_components(g, partner) == ()

    def test_random_graphs_agree_with_exhaustive(self):
        for g in odd_clique_corpus(1500, 27):
            check_against_exhaustive(g)

    @pytest.mark.parametrize("clique", [1, 3, 5, 7])
    @pytest.mark.parametrize(
        "grown",
        [
            fan_with_chord,
            lambda: undirected(5, [(u, v) for u in range(5) for v in range(u + 1, 5)
                                   if (u, v) != (3, 4)]),
        ],
        ids=["fan-with-chord", "k5-less-an-edge"],
    )
    def test_exchange_before_an_odd_clique(self, grown, clique, monkeypatch):
        """A grown component whose exchange restarts the fixpoint comes first
        in id order; the odd clique after it is settled from the walk, before
        and after the restart, and never grown."""
        part = grown()
        g = disjoint_union(part, k_graph(clique))
        grows = []

        def counted(adj, partner, w):
            component = _grow(adj, partner, w)
            grows.append((w, component))
            return component

        monkeypatch.setattr(decomposition_mod, "_grow", counted)
        check_against_exhaustive(g)
        assert any(component is None for _, component in grows)
        assert all(w < len(part) for w, _ in grows)

    @pytest.mark.parametrize(
        "partner, message",
        [
            # 0 is leftover, yet 1 names it as its mate
            ([-1, 0, 3, 2, -1], "leftover vertex 4 is reachable from leftover "
             "vertex 0 by an alternating path; matching is not maximum"),
            # 1 and 2 are mates, and 3 names 1 as well
            ([-1, 2, 1, 1, 3], "matched pair (3,1) split by the absorption set "
             "of leftover vertex 0"),
        ],
        ids=["mate-is-leftover", "mate-named-twice"],
    )
    def test_k5_with_invalid_partner_list_still_grows(self, partner, message):
        """Only a list that pairs w's neighbours inside the clique skips
        growth, so growth names the fault in any other list."""
        with pytest.raises(MatchingError) as caught:
            _grow(k_graph(5), partner, 0)
        assert str(caught.value) == message

    def test_non_maximal_matching_on_a_clique_named(self):
        with pytest.raises(MatchingError, match="vertices 0 and 1 are adjacent "
                           "and both unmatched; matching is not even maximal"):
            tight_components(k_graph(5), [-1, -1, 3, 2, -1])


def directed_triangles(count: int, antiparallel_on=()) -> Digraph:
    pairs = []
    for t in range(count):
        a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
        pairs += [(a, b), (b, c), (c, a)]
        if t in antiparallel_on:
            pairs.append((b, a))
    return Digraph(3 * count, pairs)


class TestStarDecompose:
    def test_leaves_at_both_seed_ends_rejected(self, monkeypatch):
        # B = {1, 2, 3, 4} is the path 1-2-3-4; the maximal matching {2, 3}
        # is not maximum, and its two leaves attach at different ends
        g = Digraph(5, [(1, 2), (2, 3), (3, 4)])
        monkeypatch.setattr(
            decomposition_mod, "maximum_matching",
            lambda adj, components: [-1, 2, 1, -1],
        )
        with pytest.raises(MatchingError) as err:
            star_decompose(g, range(1, 5), epsilon=0.25)
        assert str(err.value) == (
            "two leaves of seed edge (2,3) attach at different endpoints 2 and 3 "
            "(leaf 4); matching was not maximum"
        )

    def test_two_plain_triangles(self):
        d = directed_triangles(2)
        dec = star_decompose(d, range(6), epsilon=0.25)
        assert len(dec.stars) == 2
        assert all(not s.leaves for s in dec.stars)
        assert len(dec.leftover) == 2
        assert (dec.tau, dec.sigma, dec.tau_prime) == (2, 0, 2)

    def test_antiparallel_triangle_seeding(self):
        d = from_edge_list([(0, 1), (1, 0), (1, 2), (2, 0)])
        dec = star_decompose(d, range(3), epsilon=0.25, prefer_antiparallel=True)
        assert dec.stars[0].seed == (0, 1)
        assert dec.sigma == 1 and dec.tau_prime == 0

    def test_antiparallel_seeding_moves_seed(self):
        # antiparallel pair sits on an edge the plain matching does not pick
        d = from_edge_list([(0, 1), (1, 2), (2, 1), (2, 0)])
        plain = star_decompose(d, range(3), epsilon=0.25)
        seeded = star_decompose(d, range(3), epsilon=0.25, prefer_antiparallel=True)
        assert plain.stars[0].seed == (0, 1)
        assert seeded.stars[0].seed == (1, 2)
        assert seeded.sigma == 1
        assert len(plain.leftover) == len(seeded.leftover)

    def test_perfect_matching_digraph(self):
        d = from_edge_list([(0, 1), (2, 3), (4, 5)])
        dec = star_decompose(d, range(6), epsilon=0.25)
        assert len(dec.stars) == 3
        assert dec.leftover == ()
        assert all(len(s) == 2 for s in dec.stars)

    def test_star_edge_count_gains_sigma(self):
        d = directed_triangles(6, antiparallel_on=(0, 2, 4))
        plain = star_decompose(d, range(d.n), epsilon=0.25)
        seeded = star_decompose(d, range(d.n), epsilon=0.25, prefer_antiparallel=True)
        assert seeded.sigma == 3
        assert len(plain.leftover) == len(seeded.leftover)
        # same underlying star edges; sigma of them now carry two directed edges
        assert seeded.star_edge_count() == plain.star_edge_count()
        lifted = sum(
            2 if (d.has_edge(u, v) and d.has_edge(v, u)) else 1
            for s in seeded.stars
            for (u, v) in [s.seed]
        )
        assert lifted == plain.star_edge_count() + seeded.sigma

    def test_requires_cap_or_epsilon(self):
        with pytest.raises(TypeError):
            star_decompose(directed_triangles(1), range(3))
        for epsilon in (0, -1, float("inf")):
            with pytest.raises(ValueError):
                star_decompose(directed_triangles(1), range(3), epsilon=epsilon)

    def test_high_degree_leftover(self):
        # hub has a huge full-digraph degree; as an unmatched free vertex it
        # must be absorbed into the leftover set, not into a star
        pairs = [(0, 1), (1, 2)]
        hub = 3
        pairs += [(hub, v) for v in range(4, 24)] + [(v, hub) for v in range(4, 24)]
        pairs += [(1, hub)]
        d = Digraph(24, pairs)
        dec = star_decompose(d, [0, 1, 2, hub], epsilon=0.5)
        assert dec.degree_cap < d.degree(hub)
        assert hub in dec.leftover

    @staticmethod
    def check_invariants(d, b, dec, epsilon):
        bset = set(b)
        assert dec.covered() == bset
        sub, orig = induced(d, bset)
        und = underlying(sub)
        back = {o: i for i, o in enumerate(orig)}
        # stars induce stars: leaves pairwise non-adjacent, adjacent to apex only
        seen = set(dec.leftover)
        for star in dec.stars:
            assert not (set(star.vertices) & seen)
            seen.update(star.vertices)
            assert star.apex in star.seed
            others = [v for v in star.vertices if v != star.apex]
            for leaf in star.leaves:
                assert back[star.apex] in und[back[leaf]]
                for other in others:
                    if other != leaf:
                        assert back[other] not in und[back[leaf]]
            assert 2 <= len(star) <= max(map(len, und)) + 1
            high = [
                v for v in others if d.degree(v) > dec.degree_cap
            ]
            assert len(high) <= 1
        assert seen == bset
        # leftover set independent
        for u in dec.leftover:
            for v in dec.leftover:
                if u < v:
                    assert back[v] not in und[back[u]]
        assert len(dec.leftover) <= dec.tau + epsilon * d.n
        assert dec.tau_prime == len(dec.tight) - dec.sigma
        for comp in dec.tight:
            assert len(comp) % 2 == 1

    def test_invariants_random(self):
        rng = random.Random(77)
        for _ in range(25):
            n = rng.randint(2, 40)
            d = random_digraph(rng, n, rng.uniform(0.05, 0.3))
            for pref in (False, True):
                dec = star_decompose(d, range(n), epsilon=0.3, prefer_antiparallel=pref)
                self.check_invariants(d, range(n), dec, 0.3)

    def test_invariants_on_subset(self):
        rng = random.Random(78)
        for _ in range(10):
            n = rng.randint(6, 30)
            d = random_digraph(rng, n, 0.2)
            b = [v for v in range(n) if rng.random() < 0.8]
            dec = star_decompose(d, b, epsilon=0.5)
            self.check_invariants(d, b, dec, 0.5)


@st.composite
def digraphs_with_subsets(draw, max_n=12):
    """A random digraph whose antiparallel pairs are drawn on purpose, plus a
    random vertex subset B."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pool = [(u, v) for u in range(n) for v in range(n) if u != v]
    pairs = set(draw(st.lists(st.sampled_from(pool), unique=True)) if pool else [])
    if pairs:  # reverse some edges to make antiparallel pairs
        doubled = draw(st.lists(st.sampled_from(sorted(pairs)), unique=True))
        pairs.update((v, u) for u, v in doubled)
    b = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    return Digraph(n, sorted(pairs)), sorted(b)


def composed_decomposition(d, b, epsilon, prefer_antiparallel):
    """Reference star decomposition assembled from the public matching steps:
    maximum_matching, then maximize_free_vertices, then tight_components."""
    sub, orig = induced(d, b)
    g = underlying(sub)
    ap = frozenset((u, v) for u, v in sub.edges if u < v and sub.has_edge(v, u))
    partner = maximize_free_vertices(g, maximum_matching(g, _components(g)))
    tight = tight_components(g, partner)
    sigma = 0
    for comp in tight:
        inside = [(u, v) for u, v in ap if u in comp and v in comp]
        if prefer_antiparallel and len(comp) == 3 and inside:
            sigma += 1
            a, c = min(inside)
            if partner[a] != c:
                (spare,) = set(comp) - {a, c}
                partner[a], partner[c], partner[spare] = c, a, -1
    cap = 2 * d.m / d.n / epsilon
    leftover, leaves = [], {}
    for w in range(len(g)):
        if partner[w] != -1:
            continue
        frees = free_neighbor_edges(g, partner, w)
        if not frees or d.degree(orig[w]) > cap:
            leftover.append(w)
            continue
        seed, apex = min((tuple(sorted((v, partner[v]))), v) for v in frees)
        leaves.setdefault(seed, (apex, []))[1].append(w)
    stars = []
    for a, c in sorted((v, p) for v, p in enumerate(partner) if v < p):
        apex, ws = leaves.get((a, c), (a, []))
        stars.append((orig[apex], (orig[a], orig[c]), tuple(orig[w] for w in ws)))
    return {
        "tight": tuple(tuple(orig[v] for v in comp) for comp in tight),
        "stars": tuple(stars),
        "leftover": tuple(orig[w] for w in leftover),
        "tau": sum(len(comp) % 2 for comp in _components(g)),
        "sigma": sigma,
        "tau_prime": len(tight) - sigma,
    }


class TestOneFixpoint:
    @given(digraphs_with_subsets(), st.booleans(), st.sampled_from((0.1, 0.5, 2.0)))
    # an antiparallel triangle on ids 2..4, relabelled inside B, with the pair
    # 0 <-> 2 leaving B: its re-seated seed is (3, 4)
    @example((Digraph(5, [(0, 2), (1, 0), (2, 0), (2, 3), (3, 4), (4, 3), (4, 2)]),
              [2, 3, 4]), True, 0.5)
    @settings(max_examples=200, deadline=None)
    def test_star_decompose_equals_public_composition(self, drawn, prefer, epsilon):
        d, b = drawn
        dec = star_decompose(d, b, epsilon=epsilon, prefer_antiparallel=prefer)
        got = {
            "tight": dec.tight,
            "stars": tuple((s.apex, s.seed, s.leaves) for s in dec.stars),
            "leftover": dec.leftover,
            "tau": dec.tau,
            "sigma": dec.sigma,
            "tau_prime": dec.tau_prime,
        }
        assert got == composed_decomposition(d, b, epsilon, prefer)

    def test_one_matching_and_one_grow_per_leftover_vertex(self, monkeypatch):
        g, _ = lower_bound_gadget(2, 50)
        _, rest, stripped, _ = split_large(g)
        calls = {"maximum_matching": 0, "grow": 0, "free_neighbor_edges": 0}

        def counted_free(adj, partner, w):
            calls["free_neighbor_edges"] += 1
            return free_neighbor_edges(adj, partner, w)

        def counted_matching(adj, components):
            calls["maximum_matching"] += 1
            return maximum_matching(adj, components)

        def counted_grow(adj, partner, w):
            calls["grow"] += 1
            return _grow(adj, partner, w)

        monkeypatch.setattr(decomposition_mod, "maximum_matching", counted_matching)
        monkeypatch.setattr(decomposition_mod, "_grow", counted_grow)
        monkeypatch.setattr(decomposition_mod, "free_neighbor_edges", counted_free)
        dec = star_decompose(stripped, rest, epsilon=0.0125)
        assert len(dec.tight) == 50  # one per Eulerian triangle copy
        leftover_vertices = len(dec.leftover) + sum(len(s.leaves) for s in dec.stars)
        # each leftover vertex sits in a triangle that the component walk
        # settles, so none is grown or needs a free-neighbour list
        assert calls == {"maximum_matching": 1, "grow": 0, "free_neighbor_edges": 0}
        assert leftover_vertices == 50


class TestOneComponentWalk:
    """star_decompose walks B's rows once, and the matching, the free-vertex
    fixpoint and tau all read that walk."""

    @pytest.mark.parametrize("d, k", [(2, 50), (3, 30)])
    def test_one_walk_per_decomposition(self, d, k, monkeypatch):
        g, _ = lower_bound_gadget(d, k)
        _, rest, stripped, _ = split_large(g)
        walked = []

        def counted(adj):
            walked.append(len(adj))
            return _components(adj)

        modules = [
            module for name, module in sorted(sys.modules.items())
            if name.split(".")[0] == "dicut"
            and getattr(module, "_components", None) is _components
        ]
        assert decomposition_mod in modules
        for module in modules:
            monkeypatch.setattr(module, "_components", counted)
        dec = star_decompose(stripped, rest, epsilon=0.0125)
        assert walked == [len(rest)]
        assert dec.tau == odd_components(rest, stripped.edges) == k

    @given(digraphs_with_subsets(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_tau_counts_the_walk_the_matching_reads(self, drawn, prefer):
        d, b = drawn
        handed = []

        def recording(adj, components):
            handed.append(components)
            return maximum_matching(adj, components)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decomposition_mod, "maximum_matching", recording)
            dec = star_decompose(d, b, epsilon=0.5, prefer_antiparallel=prefer)
        # handed[0] is B's walk; a tightness check may match smaller rows later
        odd = sum(len(comp) % 2 for comp in handed[0])
        assert dec.tau == odd == odd_components(b, d.edges)
