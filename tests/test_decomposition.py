import hashlib
import random

import pytest

import dicut.decomposition as decomposition_mod
from hypothesis import given, settings
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
from dicut.generators import lower_bound_gadget
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
from .exhaustive import (
    MAX_PM_N,
    brute_force_tight_check,
    enumerate_perfect_matchings,
    exact_max_matching,
    max_free_over_max_matchings,
)


def k_graph(n: int) -> Rows:
    return undirected(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


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
def multi_component_graphs(draw, max_n=80):
    """Disjoint blocks (isolated vertices, odd cycles, flowers, random
    pieces), a few bridges that may merge them, and a random relabelling so
    the components' vertex ids interleave."""
    edges: list[tuple[int, int]] = []
    n = 0
    kinds = ("isolated", "odd_cycle", "flower", "random")
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
        assert maximum_matching(adj) == whole_graph_partner(adj)

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
                assert matching_size(maximum_matching(g)) == expected, (n, avg_degree)

    def test_path_four(self):
        p4 = undirected(4, [(0, 1), (1, 2), (2, 3)])
        m = maximum_matching(p4)
        assert matching_size(m) == 2 and -1 not in m

    def test_triangle(self):
        m = maximum_matching(triangle_graph())
        assert matching_size(m) == 1 and m.count(-1) == 1

    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_matches_exhaustive_maximum(self, g):
        assert matching_size(maximum_matching(g)) == exact_max_matching(g)

    def test_matches_exhaustive_maximum_seeded(self):
        rng = random.Random(9)
        for _ in range(80):
            g = random_undirected(rng, rng.randint(1, 12), rng.uniform(0.1, 0.7))
            assert matching_size(maximum_matching(g)) == exact_max_matching(g)

    def test_blossom_heavy_cases(self):
        # odd cycles force blossom contraction
        for n in (5, 7, 9, 11):
            cyc = undirected(n, [(i, (i + 1) % n) for i in range(n)])
            assert matching_size(maximum_matching(cyc)) == n // 2

    def test_petersen_graph(self):
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        g = undirected(10, outer + inner + spokes)
        assert matching_size(maximum_matching(g)) == 5


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
    rows, _, _ = stripped.induced_underlying(rest)
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
        partner = maximum_matching(adj)
        assert matching_size(partner) > matching_size(greedy)
        digest = hashlib.sha256(",".join(map(str, partner)).encode()).hexdigest()
        assert digest == (reversed_sha if reverse else sorted_sha)


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
            partner = maximum_matching(g)
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
        m = maximize_free_vertices(g, maximum_matching(g))
        assert matching_size(m) == 1
        assert free_vertex_count(g, m) == 0

    def test_star_leaves_already_free(self):
        star = undirected(4, [(0, 1), (0, 2), (0, 3)])
        m = maximize_free_vertices(star, maximum_matching(star))
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
            got = free_vertex_count(g, maximize_free_vertices(g, maximum_matching(g)))
            assert got == max_free_over_max_matchings(g)


class TestTightComponents:
    def test_two_triangles(self):
        g = two_triangles()
        m = maximize_free_vertices(g, maximum_matching(g))
        assert tight_components(g, m) == ((0, 1, 2), (3, 4, 5))

    def test_isolated_vertex(self):
        g = undirected(1, [])
        assert tight_components(g, [-1]) == ((0,),)

    def test_even_path_has_none(self):
        g = undirected(4, [(0, 1), (1, 2), (2, 3)])
        m = maximum_matching(g)
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
            m = maximize_free_vertices(g, maximum_matching(g))
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


def directed_triangles(count: int, antiparallel_on=()) -> Digraph:
    pairs = []
    for t in range(count):
        a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
        pairs += [(a, b), (b, c), (c, a)]
        if t in antiparallel_on:
            pairs.append((b, a))
    return Digraph(3 * count, pairs)


class TestStarDecompose:
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
        for epsilon in (0, -1):
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
    partner = maximize_free_vertices(g, maximum_matching(g))
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

        def counted_matching(adj):
            calls["maximum_matching"] += 1
            return maximum_matching(adj)

        def counted_grow(adj, partner, w):
            calls["grow"] += 1
            return _grow(adj, partner, w)

        monkeypatch.setattr(decomposition_mod, "maximum_matching", counted_matching)
        monkeypatch.setattr(decomposition_mod, "_grow", counted_grow)
        monkeypatch.setattr(decomposition_mod, "free_neighbor_edges", counted_free)
        dec = star_decompose(stripped, rest, epsilon=0.0125)
        assert len(dec.tight) == 50  # one per Eulerian triangle copy
        leftover_vertices = len(dec.leftover) + sum(len(s.leaves) for s in dec.stars)
        assert calls == {
            "maximum_matching": 1,
            "grow": len(dec.tight),
            "free_neighbor_edges": leftover_vertices,
        }
        assert leftover_vertices == 50
