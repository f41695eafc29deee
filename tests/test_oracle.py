import random
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dicut.oracle as oracle_mod
from dicut.core import (
    Bipartition,
    Digraph,
    UnderlyingGraph,
    cut_stats,
)
from dicut.generators import (
    complete_antiparallel,
    eulerian_complete,
    lower_bound_gadget,
    random_min_outdeg,
)
from dicut.oracle import exact_judicious

from .conftest import (
    from_edge_list,
    random_digraph,
    random_undirected,
    triangle_graph,
)
from .exhaustive import (
    all_bipartitions,
    enumerate_perfect_matchings,
    exact_max_matching,
    exact_min_gap,
    max_free_over_max_matchings,
)


def reference_exact_judicious(digraph):
    """The plain Gray-code oracle: one vertex flips per step and the two
    directional counts are updated from per-vertex neighbor masks; vertex 0
    stays on side 1 and ties prefer the smallest side-2 bitmask."""
    n = digraph.n
    if n == 0:
        return 0, Bipartition(()), 1
    out_mask = [0] * n
    in_mask = [0] * n
    for u, v in digraph.edges:
        out_mask[u] |= 1 << v
        in_mask[v] |= 1 << u
    outdeg = [digraph.out_degree(v) for v in range(n)]
    indeg = [digraph.in_degree(v) for v in range(n)]
    side2 = e12 = e21 = 0
    best = best_mask = 0
    steps = 1 << (n - 1)
    for code in range(1, steps):
        v = (code & -code).bit_length()
        bit = 1 << v
        o2 = (out_mask[v] & side2).bit_count()
        i2 = (in_mask[v] & side2).bit_count()
        o1 = outdeg[v] - o2
        i1 = indeg[v] - i2
        if side2 & bit:  # side 2 -> side 1
            e12 += o2 - i1
            e21 += i2 - o1
            side2 &= ~bit
        else:  # side 1 -> side 2
            e12 += i1 - o2
            e21 += o1 - i2
            side2 |= bit
        value = e12 if e12 < e21 else e21
        if value > best or (value == best and side2 < best_mask):
            best = value
            best_mask = side2
    witness = Bipartition(tuple(2 if best_mask >> v & 1 else 1 for v in range(n)))
    return best, witness, steps


def _fields(result):
    return result.optimum, result.witness, result.evaluated


INNER = oracle_mod._INNER_BITS


@st.composite
def oracle_digraphs(draw):
    """Digraphs on 0..16 vertices, weighted toward n = L-1..L+2 around the
    inner block of L vertices, in shapes with many tied optima; the
    transitive tournament gives every vertex a distinct surplus, so the
    outer surplus sum takes many values.  The "width" shape draws m on
    either side of 127, where the lanes widen from 8 to 16 bits."""
    shape = draw(st.sampled_from(["random", "edgeless", "complete", "antiparallel",
                                  "copies", "transitive", "width"]))
    if shape == "width":
        n = draw(st.integers(13, 16))
    else:
        n = draw(st.one_of(st.sampled_from(range(INNER - 1, INNER + 3)),
                           st.integers(0, 16)))
    rng = draw(st.randoms(use_true_random=False))
    p = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9]))
    pairs = []
    if shape == "random":
        pairs = [(u, v) for u in range(n) for v in range(n)
                 if u != v and rng.random() < p]
    elif shape == "complete":
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    elif shape == "transitive":
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif shape == "width":
        pairs = rng.sample([(u, v) for u in range(n) for v in range(n) if u != v],
                           draw(st.integers(122, 133)))
    elif shape == "antiparallel":
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    pairs += [(u, v), (v, u)]
                elif rng.random() < p / 3:
                    pairs.append((u, v) if rng.random() < 0.5 else (v, u))
    elif shape == "copies":
        # disjoint copies of one small digraph: every relabelling of the
        # copies gives another optimum
        k = draw(st.integers(1, 4))
        base = [(u, v) for u in range(k) for v in range(k)
                if u != v and rng.random() < p]
        pairs = [(c + u, c + v) for c in range(0, n - k + 1, k) for u, v in base]
    return Digraph(n, pairs)


class TestExactJudicious:
    @settings(max_examples=150, deadline=None)
    @given(oracle_digraphs())
    def test_matches_gray_code_reference(self, g):
        assert _fields(exact_judicious(g)) == reference_exact_judicious(g)

    @pytest.mark.parametrize("inner", [1, 3])
    @settings(max_examples=40, deadline=None)
    @given(g=oracle_digraphs())
    def test_matches_reference_with_small_inner_block(self, inner, g):
        # a small block walks many outer configurations on small graphs
        with mock.patch.object(oracle_mod, "_INNER_BITS", inner):
            result = exact_judicious(g)
        assert _fields(result) == reference_exact_judicious(g)

    def test_matches_reference_at_n20(self):
        g = random_min_outdeg(20, 3, 1.0, seed=13)
        assert _fields(exact_judicious(g)) == reference_exact_judicious(g)

    @pytest.mark.parametrize(
        "g, optimum, witness",
        [
            # every split gives |V1||V2| edges each way: best at 12/12
            (complete_antiparallel(24), 144, "1" + "2" * 12 + "1" * 11),
            # every vertex is balanced, so every split is: best at 12/11
            (eulerian_complete(23), 66, "1" + "2" * 11 + "1" * 11),
        ],
        ids=["complete_antiparallel-24", "eulerian_complete-23"],
    )
    def test_closed_form_at_the_size_cap(self, g, optimum, witness):
        # the largest m (552) and 2^13 outer steps
        result = exact_judicious(g)
        assert result.optimum == optimum
        assert "".join(map(str, result.witness.side)) == witness
        assert result.evaluated == 1 << (g.n - 1)

    @pytest.mark.parametrize(
        "n, d, seed, optimum, witness",
        [
            (18, 2, 7, 17, "121222212222111111"),
            (18, 3, 7, 22, "111222212112212121"),
            (20, 2, 7, 19, "11212211111222221121"),
            (20, 3, 7, 24, "12111211122122112212"),
            (22, 2, 7, 20, "1121221111222212221121"),
            (22, 3, 7, 27, "1211122212122212121111"),
            (18, 2, 8, 17, "121221122212211221"),
            (18, 3, 8, 21, "112112222121212112"),
            (20, 2, 8, 20, "12122122212221211112"),
            (20, 3, 8, 25, "11212222122121121211"),
            (22, 2, 8, 21, "1212112221222121121111"),
            (22, 3, 8, 28, "1211211121122211221212"),
        ],
    )
    def test_pinned_benchmark_instances(self, n, d, seed, optimum, witness):
        # the exact_small benchmark graphs; the Gray-code reference takes
        # seconds at n = 22, so the results it gave are pinned
        result = exact_judicious(random_min_outdeg(n, d, 0.5, seed))
        assert (result.optimum, "".join(map(str, result.witness.side))) == (
            optimum, witness,
        )
        assert result.evaluated == 1 << (n - 1)

    @pytest.mark.parametrize("inner", [INNER, 1, 3])
    @pytest.mark.parametrize(
        "missing, typecode", [((), "H"), ((7, 23), "B")], ids=["m128", "m127"]
    )
    def test_lane_width_boundary(self, missing, typecode, inner):
        # K_{8,16} with every edge leaving the 8-side 0..7: m = 128 is the
        # least m that needs 16-bit lanes, as a split with every edge going
        # from side 1 to side 2 puts 2^7 + 128 in an 8-bit gap lane.  Less
        # one edge, m = 127 takes 8-bit lanes.  The optimum splits both
        # sides in half, 4 * 8 = 32 edges each way; the results are pinned
        # from the oracle with 16-bit lanes only.
        g = Digraph(24, [(u, v) for u in range(8) for v in range(8, 24)
                         if (u, v) != missing])
        assert g.m == (127 if missing else 128)
        with mock.patch.object(oracle_mod, "_INNER_BITS", inner), \
                mock.patch.object(oracle_mod, "array", wraps=array) as spy:
            result = exact_judicious(g)
        assert {call.args[0] for call in spy.call_args_list} == {typecode}
        assert _fields(result) == (
            32, Bipartition((1, 2, 2, 2, 2, 1, 1, 1) + (2,) * 8 + (1,) * 8), 1 << 23,
        )
        assert cut_stats(g, result.witness).min_cut == 32

    @pytest.mark.parametrize(
        "d, k", [(2, k) for k in range(7)] + [(3, k) for k in range(4)]
    )
    def test_lower_bound_gadget_reaches_its_cap(self, d, k):
        # the paper's constants are best possible: no bipartition of the
        # gadget beats k d(d-1)/2 + d(d+1)/2 in both directions
        g, _ = lower_bound_gadget(d, k)
        assert exact_judicious(g).optimum == k * d * (d - 1) // 2 + d * (d + 1) // 2

    def test_three_cycle(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 0)])
        result = exact_judicious(g)
        assert result.optimum == 1
        assert result.evaluated == 4

    def test_witness_achieves_optimum(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_digraph(rng, rng.randint(1, 9), 0.4)
            result = exact_judicious(g)
            assert cut_stats(g, result.witness).min_cut == result.optimum

    def test_relabel_invariance(self):
        rng = random.Random(5)
        for _ in range(15):
            n = rng.randint(2, 8)
            g = random_digraph(rng, n, 0.5)
            perm = list(range(n))
            rng.shuffle(perm)
            h = Digraph(n, [(perm[u], perm[v]) for u, v in g.edges])
            assert exact_judicious(g).optimum == exact_judicious(h).optimum

    def test_reversal_invariance(self):
        rng = random.Random(6)
        for _ in range(15):
            g = random_digraph(rng, rng.randint(2, 8), 0.5)
            rev = Digraph(g.n, [(v, u) for u, v in g.edges])
            assert exact_judicious(g).optimum == exact_judicious(rev).optimum

    def test_matches_naive_enumeration(self):
        # independent route: evaluate every bipartition from scratch
        rng = random.Random(77)
        for _ in range(30):
            g = random_digraph(rng, rng.randint(1, 9), rng.uniform(0.1, 0.7))
            naive = max(
                cut_stats(g, part).min_cut for part in all_bipartitions(g.n)
            )
            assert exact_judicious(g).optimum == naive

    def test_size_cap(self):
        with pytest.raises(ValueError):
            exact_judicious(Digraph(25, []))

    def test_empty_graph(self):
        assert exact_judicious(Digraph(0, [])).optimum == 0


class TestExactMinGap:
    def test_examples(self):
        assert exact_min_gap([4, 3, 3, 2]) == 0
        assert exact_min_gap([10, 1]) == 9
        assert exact_min_gap([]) == 0
        assert exact_min_gap([-4, 3, -3, 2]) == 0  # signs are immaterial

    def test_cap(self):
        with pytest.raises(ValueError):
            exact_min_gap([1] * 16)


class TestMatchingOracles:
    def test_k4_matching(self):
        k4 = UnderlyingGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert exact_max_matching(k4) == 2

    def test_k3_minus_vertex_has_unique_pm(self):
        tri = triangle_graph()
        for v in range(3):
            rest = tri.induced([u for u in range(3) if u != v])
            assert len(list(enumerate_perfect_matchings(rest))) == 1

    def test_path_pm(self):
        p4 = UnderlyingGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert list(enumerate_perfect_matchings(p4)) == [((0, 1), (2, 3))]

    def test_odd_order_has_no_pm(self):
        assert list(enumerate_perfect_matchings(triangle_graph())) == []

    def test_caps(self):
        with pytest.raises(ValueError):
            exact_max_matching(UnderlyingGraph(13, []))
        with pytest.raises(ValueError):
            list(enumerate_perfect_matchings(UnderlyingGraph(11, [])))


class TestMaxFreeOracle:
    def test_triangle_leftover_never_free(self):
        assert max_free_over_max_matchings(triangle_graph()) == 0

    def test_star_leaves_free(self):
        star = UnderlyingGraph(4, [(0, 1), (0, 2), (0, 3)])
        assert max_free_over_max_matchings(star) == 2

    def test_random_consistency(self):
        rng = random.Random(2)
        for _ in range(10):
            g = random_undirected(rng, rng.randint(1, 8), 0.4)
            free = max_free_over_max_matchings(g)
            unmatched = g.n - 2 * exact_max_matching(g)
            assert 0 <= free <= unmatched
