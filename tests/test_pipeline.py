import hashlib
import random
from dataclasses import astuple, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dicut.pipeline as pipeline_mod
import dicut.samplers as samplers_mod
from dicut.core import Bipartition, CutStats, Digraph, GraphInputError, cut_stats
from dicut.generators import (
    complete_antiparallel,
    concluding_gadgets,
    eulerian_complete,
    lower_bound_gadget,
    random_min_outdeg,
)
from dicut.oracle import exact_judicious
from dicut.pipeline import (
    GapPartition,
    PipelineConfig,
    StructuralDiagnostic,
    SurplusProfile,
    gap_partition,
    guarantee_target,
    local_search,
    min_gap,
    run,
    split_large,
    surplus_profile,
)
from dicut.samplers import edge_profile

from .conftest import (
    chained_lower_bound_gadget,
    from_edge_list,
    random_digraph,
    reference_digraph,
)
from .exhaustive import exact_min_gap


def greedy_gap(surpluses):
    """Process signed surpluses in order, always opposing the running sign;
    the final gap is at most the largest single magnitude."""
    running = 0
    forward = []
    for s in surpluses:
        mag = abs(s)
        # tie at zero: contribute positively
        go_forward = running <= 0
        running += mag if go_forward else -mag
        forward.append(go_forward and mag > 0)
    return pipeline_mod._assemble_gap(surpluses, forward, running)


class TestSplitLarge:
    def test_small_complete_is_all_large(self):
        g = eulerian_complete(7)  # all degrees 6 >= 7^0.75
        large, rest, stripped, removed = split_large(g)
        assert large == tuple(range(7)) and rest == ()
        assert stripped.m == 0 and removed == 21

    def test_sparse_random_has_no_large(self):
        g = random_min_outdeg(2000, 2, 0.5, seed=1)
        large, rest, stripped, removed = split_large(g)
        assert large == () and removed == 0
        assert stripped is g  # nothing stripped: the input is shared, not copied

    def test_gadget_hub_is_large(self):
        g, v0 = lower_bound_gadget(2, 200)
        large, rest, stripped, removed = split_large(g)
        assert large == (v0,)
        assert removed == 0 and stripped is g

    def test_removed_matches_independent_count(self):
        rng = random.Random(17)
        stripping = 0
        for _ in range(30):
            g = random_digraph(rng, rng.randint(2, 30), rng.uniform(0.05, 0.6))
            exponent = rng.choice((0.5, 0.6, 0.75))
            large, rest, stripped, removed = split_large(g, exponent)
            aset = set(large)
            inside = [(u, v) for u, v in g.edges if u in aset and v in aset]
            assert removed == len(inside)
            assert stripped.m == g.m - removed
            assert set(stripped.edges) == set(g.edges) - set(inside)
            kept = sorted(set(g.edges) - set(inside))
            assert (stripped._out, stripped._in) == reference_digraph(g.n, kept)[2:]
            assert sorted(large + rest) == list(range(g.n))
            if removed:
                stripping += 1
            else:
                assert stripped is g
        assert 0 < stripping < 30  # both outcomes were exercised


class TestGapOps:
    def test_greedy_trace(self):
        # contributions +5, -3, -2: cumulative 5, 2, 0
        gp = greedy_gap([5, 3, 2])
        assert gp.theta == 0
        assert gp.a1 == (0,) and gp.a2 == (1, 2)

    def test_greedy_single(self):
        assert greedy_gap([7]).theta == 7

    def test_greedy_empty(self):
        assert greedy_gap([]).theta == 0

    def test_min_gap_examples(self):
        assert min_gap([4, 3, 3, 2]).theta == 0
        assert min_gap([10, 1]).theta == 9
        assert min_gap([]).theta == 0

    @given(st.lists(st.integers(-50, 50), max_size=12))
    @settings(max_examples=120, deadline=None)
    def test_min_gap_matches_exhaustive(self, vals):
        assert min_gap(vals).theta == exact_min_gap(vals)

    @given(st.lists(st.integers(-10**5, 10**5), max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_min_gap_matches_exhaustive_at_large_magnitudes(self, vals):
        gp = min_gap(vals)
        assert gp.theta == exact_min_gap(vals)
        assert sum(vals[i] for i in gp.a1) - sum(vals[i] for i in gp.a2) == gp.theta

    @pytest.mark.parametrize(
        "vals",
        [
            [-19997] * 3,  # the large set of k33_oriented and k33_plus_3regular
            [20000] + [-19997] * 4,  # k55_mixed
            [-20000, -19999, -20001],
            [-19997] * 3 + [1, -2, 3],
        ],
    )
    def test_min_gap_k33_pattern(self, vals):
        gp = min_gap(vals)
        assert gp.theta == exact_min_gap(vals)
        assert sum(vals[i] for i in gp.a1) - sum(vals[i] for i in gp.a2) == gp.theta

    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=14))
    @settings(max_examples=100, deadline=None)
    def test_min_le_greedy_le_max(self, vals):
        lo = min_gap(vals).theta
        hi = greedy_gap(vals).theta
        assert lo <= hi <= max(abs(v) for v in vals)

    @given(st.lists(st.integers(-30, 30), max_size=14))
    @settings(max_examples=80, deadline=None)
    def test_partition_covers_and_normalized(self, vals):
        gp = min_gap(vals)
        assert sorted(gp.a1 + gp.a2) == list(range(len(vals)))
        assert gp.theta >= 0
        # theta is exactly the achieved signed imbalance of the assignment
        fwd = sum(vals[i] for i in gp.a1) - sum(vals[i] for i in gp.a2)
        assert fwd == gp.theta


class TestGapPartitionOnDigraph:
    def test_identities_on_gadget(self):
        g, v0 = lower_bound_gadget(2, 50)
        large, rest, stripped, _ = split_large(g)
        gp = gap_partition(stripped, large)
        assert gp.theta == 150
        assert gp.m_a_f - gp.m_a_b == gp.theta
        m_a = sum(stripped.degree(v) for v in large)
        assert gp.m_a_f + gp.m_a_b == m_a

    def test_requires_stripped(self):
        g = eulerian_complete(5)
        with pytest.raises(ValueError, match="induce no edges"):
            gap_partition(g, (0, 1, 2))

    @pytest.mark.parametrize("large", [(-1,), (0, 0), (5,)], ids=["neg", "dup", "n"])
    def test_rejects_bad_vertex_ids(self, large):
        g = from_edge_list([(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError, match=r"distinct vertex ids in \[0, 3\)"):
            gap_partition(g, large)

    @pytest.mark.parametrize(
        "pairs, crossing",
        [
            # min_gap puts 0 and 1 on one side: the edge (0, 1) lies inside it
            ([(0, 1), (0, 2), (1, 2)], False),
            # min_gap sets A1 = {0}, A2 = {1}: the edge (0, 1) crosses
            ([(0, 1), (0, 2), (1, 3), (1, 4)], True),
        ],
    )
    def test_rejects_each_edge_kind_inside_large_set(self, pairs, crossing):
        g = from_edge_list(pairs)
        large = (0, 1)
        raw = min_gap([g.out_degree(v) - g.in_degree(v) for v in large])
        a1 = tuple(large[i] for i in raw.a1)
        a2 = tuple(large[i] for i in raw.a2)
        prof = edge_profile(g, a1, a2)
        assert (prof.a1a2 + prof.a2a1 > 0) == crossing
        assert (sum(astuple(prof)) < g.m) != crossing
        with pytest.raises(ValueError, match="induce no edges"):
            gap_partition(g, large)


class TestSurplusProfile:
    def test_gadget_values(self):
        g, v0 = lower_bound_gadget(2, 200)
        large, rest, stripped, _ = split_large(g)
        gp = gap_partition(stripped, large)
        prof = surplus_profile(stripped, large, gp.theta)
        assert gp.theta == 600
        assert prof.vertices == (v0,)
        assert prof.signed_surplus == (-600,)  # 600 more in- than out-edges
        assert prof.huge == (v0,)
        assert prof.delta == 600
        assert prof.g == 0
        assert prof.b == 2  # the two balanced in/out pairs inside the core

    def test_pure_buffer(self):
        # hub with balanced in/out toward B: zero surplus, all buffer
        pairs = [(0, v) for v in range(1, 5)] + [(v, 0) for v in range(1, 5)]
        g = Digraph(5, pairs)
        prof = surplus_profile(g, [0], 0)
        assert prof.signed_surplus == (0,)
        assert prof.b == 4

    def test_empty_large_set(self):
        g = random_min_outdeg(10, 2, 0, seed=1)
        prof = surplus_profile(g, [], 0)
        assert prof.vertices == () and prof.b == 0 and prof.delta == 0


class TestLocalSearch:
    def test_fixpoint_unchanged(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 0)])
        part = Bipartition((1, 2, 2))
        assert local_search(g, part) == part  # min cut 1 is optimal here

    def test_escapes_trivial_partition(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 0)])
        out = local_search(g, Bipartition((1, 1, 1)))
        assert cut_stats(g, out).min_cut == 1

    def test_never_decreases(self):
        rng = random.Random(41)
        for _ in range(40):
            g = random_digraph(rng, 14, 0.25)
            part = Bipartition(tuple(rng.choice((1, 2)) for _ in range(14)))
            before = cut_stats(g, part).min_cut
            after = cut_stats(g, local_search(g, part)).min_cut
            assert after >= before


def _rescanning_sweep(
    digraph: Digraph, partition: Bipartition, stats, flips: list | None = None
) -> Bipartition:
    """Reference: local search that rescans each visited vertex's edges and
    visits every vertex on each pass.  Appends (pass, vertex, e12, e21) to
    `flips` after each flip, when given."""
    side = list(partition.side)
    e12, e21 = stats.e12, stats.e21
    improved = True
    passes = -1
    while improved:
        improved = False
        passes += 1
        for v in range(digraph.n):
            s = side[v]
            o_same = o_diff = i_same = i_diff = 0
            for t in digraph.out_neighbors(v):
                if side[t] == s:
                    o_same += 1
                else:
                    o_diff += 1
            for t in digraph.in_neighbors(v):
                if side[t] == s:
                    i_same += 1
                else:
                    i_diff += 1
            if s == 1:
                n12 = e12 + i_same - o_diff
                n21 = e21 + o_same - i_diff
            else:
                n12 = e12 + o_same - i_diff
                n21 = e21 + i_same - o_diff
            if (min(n12, n21), n12 + n21) > (min(e12, e21), e12 + e21):
                side[v] = 3 - s
                e12, e21 = n12, n21
                improved = True
                if flips is not None:
                    flips.append((passes, v, e12, e21))
    return Bipartition(tuple(side))


@st.composite
def _digraph_with_partition(draw):
    n = draw(st.integers(1, 40))
    vertex = st.integers(0, n - 1)
    edge = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    pairs = draw(st.sets(edge, max_size=5 * n))
    # reverse some edges too, so antiparallel pairs are common
    mirrored = draw(st.sets(st.sampled_from(sorted(pairs)))) if pairs else set()
    pairs |= {(v, u) for u, v in mirrored}
    side = draw(st.lists(st.sampled_from((1, 2)), min_size=n, max_size=n))
    return Digraph(n, sorted(pairs)), Bipartition(tuple(side))


@given(_digraph_with_partition())
@settings(max_examples=300, deadline=None)
def test_local_search_matches_rescanning_sweep(case):
    g, part = case
    expected = _rescanning_sweep(g, part, cut_stats(g, part))
    assert local_search(g, part) == expected
    start, result, stats = pipeline_mod._sweep(g, part)
    assert start == cut_stats(g, part)
    assert result == expected and stats == cut_stats(g, result)


@pytest.mark.parametrize("d", [2, 3])
def test_local_search_matches_rescanning_sweep_at_n2000(d):
    """From the sampler's partition and from random ones, over many passes."""
    g = random_min_outdeg(2000, d, 1.0, seed=d)
    config = PipelineConfig(d=d, seed=1, enable_local_search=False)
    rng = random.Random(d)
    starts = [run(g, config).partition]
    starts += [Bipartition(tuple(rng.choice((1, 2)) for _ in range(g.n)))
               for _ in range(2)]
    for part in starts:
        flips: list = []
        expected = _rescanning_sweep(g, part, cut_stats(g, part), flips)
        assert flips[-1][0] >= 2  # a flip in the third pass or later
        start, result, stats = pipeline_mod._sweep(g, part)
        assert start == cut_stats(g, part)
        assert result == expected and stats == cut_stats(g, result)


def test_local_search_follows_the_lower_cut_across_sides():
    """In the second pass, flipping vertex 0 makes e21 the lower cut; vertex 3
    then passes, though its flip lowers e12, so only up21 admits it."""
    g = Digraph(5, [(0, 2), (1, 2), (2, 4), (3, 2), (3, 4)])
    part = Bipartition((1, 2, 1, 1, 1))
    flips: list = []
    expected = _rescanning_sweep(g, part, cut_stats(g, part), flips)
    assert flips == [
        (0, 0, 0, 2), (0, 2, 1, 1), (1, 0, 2, 1), (1, 1, 3, 1), (1, 3, 2, 2)
    ]
    assert pipeline_mod._sweep(g, part) == (CutStats(0, 1), expected, CutStats(2, 2))


class TestGuaranteeTarget:
    def test_values(self):
        assert guarantee_target(2, 600, 0) == 100
        assert guarantee_target(3, 1000, 0.05) == 150
        assert guarantee_target(2, 16, 0) == Fraction(8, 3)  # exact, not a float

    def test_bad_d(self):
        with pytest.raises(ValueError):
            guarantee_target(4, 100, 0.1)


class TestInputChecks:
    @pytest.mark.parametrize("d", [1, 4])
    def test_config_rejects_d_outside_two_and_three(self, d):
        with pytest.raises(ValueError, match=f"d must be 2 or 3, got {d}"):
            PipelineConfig(d=d)

    @pytest.mark.parametrize("epsilon", [0, -0.1, 0.25, 0.5])
    def test_config_rejects_epsilon_outside_open_quarter(self, epsilon):
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1/4\)"):
            PipelineConfig(d=2, epsilon=epsilon)

    def test_run_rejects_empty_graph(self):
        with pytest.raises(GraphInputError, match="empty graph"):
            run(Digraph(0, []), PipelineConfig(d=2))


class TestRunD2:
    def test_rejects_low_outdegree(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 0)])
        with pytest.raises(GraphInputError, match="outdegree 1 at vertex 0"):
            run(g, PipelineConfig(d=2))

    def test_gadget_meets_guarantee(self):
        g, _ = lower_bound_gadget(2, 50)
        result = run(g, PipelineConfig(d=2, epsilon=0.05, seed=1))
        assert result.meets_guarantee
        assert result.stats == cut_stats(g, result.partition)
        steps = [rec["step"] for rec in result.branch_trace]
        assert "bisection" in steps  # the structural branch fired

    def test_eulerian_k5_reaches_oracle(self):
        g = eulerian_complete(5)
        result = run(g, PipelineConfig(d=2, epsilon=0.05, seed=2))
        assert result.stats.min_cut == exact_judicious(g).optimum == 3

    def test_without_local_search_reports_honestly(self):
        g = eulerian_complete(5)
        cfg = PipelineConfig(d=2, epsilon=0.05, seed=1, enable_local_search=False,
                             max_attempts=1)
        result = run(g, cfg)
        # everything is large here, so the one deterministic attempt gives
        # the empty cut and the report must say the target was missed
        assert result.stats.min_cut == 0
        assert not result.meets_guarantee

    def test_rejects_zero_max_attempts(self):
        with pytest.raises(ValueError, match="max_attempts must be at least 1"):
            PipelineConfig(d=2, max_attempts=0)

    def test_dense_branch_with_test_constants(self):
        g = random_min_outdeg(100, 2, extra=12, seed=3)
        assert g.m >= 1152 / 100 * g.n
        cfg = PipelineConfig(d=2, epsilon=0.05, seed=3, test_constants=True)
        result = run(g, cfg)
        assert result.branch_trace[0]["dense"] is True
        assert any(rec["step"] == "watermark" for rec in result.branch_trace)
        assert result.meets_guarantee

    def test_dense_antiparallel_all_large(self):
        # every vertex crosses the degree threshold, so stripping removes all
        # edges and the final cut comes entirely from the polish step
        g = complete_antiparallel(40)
        result = run(g, PipelineConfig(d=2, epsilon=0.05, seed=2))
        assert result.removed_a_edges == g.m
        assert result.meets_guarantee

    def test_determinism(self):
        g = random_min_outdeg(300, 2, 1.0, seed=5)
        cfg = PipelineConfig(d=2, epsilon=0.05, seed=9)
        assert run(g, cfg) == run(g, cfg)


@pytest.mark.parametrize(
    "d, k, partition_sha",
    [
        (2, 400, "3bffa9dfb920a303984b9499fcc4bca32d323d7fe8ba140615db5311964d6250"),
        (3, 200, "529b6e4bed65c7cfa5fb970ef4d293ec95580a98e6ae886bf297cfc171586ac8"),
    ],
)
def test_chained_gadget_takes_bisection(d, k, partition_sha):
    # the chain joins every copy into one component of B, so the blossom
    # search runs on one large component
    g = chained_lower_bound_gadget(d, k)
    result = run(g, PipelineConfig(d=d, epsilon=0.05, seed=1))
    assert "bisection" in [rec["step"] for rec in result.branch_trace]
    assert result.meets_guarantee
    side = "".join(map(str, result.partition.side))
    assert hashlib.sha256(side.encode("ascii")).hexdigest() == partition_sha


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("d, k", [(d, k) for d in (2, 3) for k in (5, 50, 1, 2, 200)])
def test_run_reaches_the_gadget_cap(d, k, seed):
    # k d(d-1)/2 + d(d+1)/2 is the gadget's exact optimum (pinned against
    # the oracle in test_oracle.py for n <= 23); from k = 5 on the hub's
    # surplus sends the run through the bisection branch
    g, _ = lower_bound_gadget(d, k)
    result = run(g, PipelineConfig(d=d, epsilon=0.05, seed=seed))
    assert result.stats.min_cut == k * d * (d - 1) // 2 + d * (d + 1) // 2
    steps = {rec["step"]: rec for rec in result.branch_trace}
    assert ("bisection" in steps) == (k >= 5)
    assert steps["sampler"]["kind"] == ("star_bisection" if k >= 5 else "second_moment")


class TestRunD3:
    def test_rejects_low_outdegree(self):
        with pytest.raises(GraphInputError, match="need at least 3"):
            run(eulerian_complete(5), PipelineConfig(d=3))

    def test_gadget_one_huge_branch(self):
        g, _ = lower_bound_gadget(3, 50)
        result = run(g, PipelineConfig(d=3, epsilon=0.05, seed=1))
        assert result.meets_guarantee
        bis = [r for r in result.branch_trace if r["step"] == "bisection"]
        assert bis and bis[0]["tau_prime"] == 50

    def test_eulerian_k7_reaches_oracle(self):
        g = eulerian_complete(7)
        result = run(g, PipelineConfig(d=3, epsilon=0.05, seed=2))
        assert result.stats.min_cut == exact_judicious(g).optimum == 6

    def test_three_huge_branch_on_k33(self):
        g = concluding_gadgets("k33_oriented", 403, patched=True)
        result = run(g, PipelineConfig(d=3, epsilon=0.05, seed=1))
        rec = [r for r in result.branch_trace if r["step"] == "three_huge"]
        assert rec and rec[0]["case"] == 2 and rec[0]["p"] == "3/5"
        assert rec[0]["means_reach_fifth"]
        assert result.meets_guarantee

    def test_three_huge_case_one(self):
        # one dominant out-surplus hub against two in-surplus hubs puts the
        # re-partition in the dominant case (X,Y)=(0,g) with p = 2/5
        n_b = 40
        h1, h2, h3 = 0, 1, 2
        bs = list(range(3, 3 + n_b))
        pairs = [(h1, b) for b in bs]
        pairs += [(b, h2) for b in bs]
        pairs += [(b, h3) for b in bs]
        pairs += [(bs[i], bs[(i + 1) % n_b]) for i in range(n_b)]
        pairs += [(h2, h1), (h2, bs[0]), (h2, bs[1])]
        pairs += [(h3, h1), (h3, bs[2]), (h3, bs[3])]
        g = Digraph(3 + n_b, pairs)
        assert g.min_out_degree() == 3
        result = run(g, PipelineConfig(d=3, epsilon=0.05, seed=5))
        rec = [r for r in result.branch_trace if r["step"] == "three_huge"]
        assert rec and rec[0]["case"] == 1 and rec[0]["p"] == "2/5"
        assert rec[0]["deltas"] == [40, 38, 38]
        assert rec[0]["means_reach_fifth"]
        assert result.meets_guarantee

    def test_antiparallel_tight_triangles_use_tau_prime(self):
        # hub fed by many complete-antiparallel triangles drives the one-huge
        # branch; every 3-vertex tight component lifts antiparallel edges
        k = 40
        pairs = []
        hub = 3 * k
        for t in range(k):
            a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
            pairs += [(a, b), (b, a), (b, c), (c, b), (c, a), (a, c)]
            pairs += [(a, hub), (b, hub), (c, hub)]
        pairs += [(hub, 0), (hub, 1), (hub, 2)]
        g = Digraph(hub + 1, pairs)
        assert g.min_out_degree() == 3
        result = run(g, PipelineConfig(d=3, epsilon=0.05, seed=4))
        bis = [r for r in result.branch_trace if r["step"] == "bisection"]
        assert bis
        assert bis[0]["sigma"] == k
        assert bis[0]["tau_prime"] == 0
        assert bis[0]["tau"] == k


class TestStructuralDiagnostics:
    def test_two_forward_vertices_rejected(self):
        profile = SurplusProfile(
            vertices=(0, 1),
            signed_surplus=(7, 4),
            theta=3,
            huge=(0, 1),
            delta_list=(7, 4),
            g=0,
            b=0,
        )
        gp = GapPartition((0, 1), (), 3, m_a_f=3, m_a_b=0)
        with pytest.raises(StructuralDiagnostic):
            pipeline_mod._check_d2_structure(profile, gp)

    def test_impossible_huge_count_d3(self, monkeypatch):
        g, _ = lower_bound_gadget(3, 30)

        real = pipeline_mod.surplus_profile

        def fake(stripped, large, theta):
            prof = real(stripped, large, theta)
            # pretend two huge vertices
            return replace(prof, huge=prof.huge * 2, delta_list=prof.delta_list * 2)

        monkeypatch.setattr(pipeline_mod, "surplus_profile", fake)
        with pytest.raises(StructuralDiagnostic, match="huge"):
            run(g, PipelineConfig(d=3, epsilon=0.05, seed=1))

    def test_gap_exceeding_delta_rejected(self, monkeypatch):
        g, _ = lower_bound_gadget(2, 30)

        real = pipeline_mod.gap_partition

        def fake(stripped, large):
            gp = real(stripped, large)
            return GapPartition(gp.a1, gp.a2, gp.theta + 10**6, gp.m_a_f, gp.m_a_b)

        monkeypatch.setattr(pipeline_mod, "gap_partition", fake)
        with pytest.raises(StructuralDiagnostic):
            run(g, PipelineConfig(d=2, epsilon=0.05, seed=1))


    def test_gap_identity_violation_rejected(self, monkeypatch):
        g, _ = lower_bound_gadget(2, 30)
        large, _, stripped, _ = split_large(g)
        honest = gap_partition(stripped, large)
        real = pipeline_mod.min_gap

        def wrong_theta(surpluses):
            raw = real(surpluses)
            return replace(raw, theta=raw.theta + 1)

        monkeypatch.setattr(pipeline_mod, "min_gap", wrong_theta)
        with pytest.raises(StructuralDiagnostic, match="gap identity") as err:
            gap_partition(stripped, large)
        assert err.value.payload == {
            "theta": honest.theta + 1,
            "m_a_f": honest.m_a_f,
            "m_a_b": honest.m_a_b,
        }

    def test_odd_buffer_count_rejected(self):
        class Inconsistent:  # degree disagrees with out- plus in-degree
            def out_degree(self, v):
                return 2

            def in_degree(self, v):
                return 0

            def degree(self, v):
                return 3

        with pytest.raises(StructuralDiagnostic, match="odd buffer") as err:
            surplus_profile(Inconsistent(), [5], 1)
        assert err.value.payload == {"two_b": 1, "large": [5]}


class TestCutCounting:
    """run() calls cut_stats once, on the final partition; the polish counts
    the sampled partition's cuts from its own gathers."""

    def _count(self, monkeypatch):
        calls = []
        real = pipeline_mod.cut_stats

        def counting(digraph, partition):
            calls.append(partition)
            return real(digraph, partition)

        monkeypatch.setattr(pipeline_mod, "cut_stats", counting)
        return calls

    def test_structural_branch(self, monkeypatch):
        g, _ = lower_bound_gadget(2, 20)
        calls = self._count(monkeypatch)
        result = run(g, PipelineConfig(d=2, seed=1))
        assert [r["branch"] for r in result.branch_trace if r["step"] == "gap"] == [
            "structural"
        ]
        assert result.removed_a_edges == 0
        assert calls == [result.partition]

    def test_stripped_graph_recounts_sample(self, monkeypatch):
        # a complete antiparallel K40 as the large set, and 200 vertices of
        # outdegree 3 feeding it, so the gap split puts K40 on both sides
        k, rest = 40, 200
        rows = [[v for v in range(k) if v != u] for u in range(k)]
        rows += [[j % k, (j + 1) % k, k + (j + 1) % rest] for j in range(rest)]
        g = Digraph(k + rest, [(u, v) for u, row in enumerate(rows) for v in row])
        calls = self._count(monkeypatch)
        result = run(g, PipelineConfig(d=2, seed=1))
        assert result.removed_a_edges == k * (k - 1)
        assert calls == [result.partition]
        # the sampler counted on the stripped copy; the polish's start, which
        # it counts itself, is the sampled partition's min cut on the input
        unpolished = run(g, PipelineConfig(d=2, seed=1, enable_local_search=False))
        sampled = result.branch_trace[-2]
        before = result.branch_trace[-1]["min_cut_before"]
        assert before == unpolished.stats.min_cut > min(sampled["e12"], sampled["e21"])

    def test_dense_branch_reuses_sampler_stats(self, monkeypatch):
        g = random_min_outdeg(100, 2, extra=12, seed=3)
        calls = self._count(monkeypatch)
        result = run(g, PipelineConfig(d=2, seed=3, test_constants=True))
        sampled = result.branch_trace[2]
        assert sampled["kind"] == "quarter"
        polish = result.branch_trace[-1]
        assert polish["min_cut_before"] == min(sampled["e12"], sampled["e21"])
        assert calls == [result.partition]


@pytest.mark.parametrize(
    "build, config, kind",
    [
        (lambda: random_min_outdeg(300, 2, 1.0, seed=5), PipelineConfig(d=2, seed=1),
         "second_moment"),
        (lambda: lower_bound_gadget(2, 20)[0], PipelineConfig(d=2, seed=1),
         "star_bisection"),
        (lambda: concluding_gadgets("k33_oriented", 403, patched=True),
         PipelineConfig(d=3, seed=1), "second_moment_biased"),
        (lambda: random_min_outdeg(100, 2, extra=12, seed=3),
         PipelineConfig(d=2, seed=3, test_constants=True), "quarter"),
    ],
    ids=["second_moment", "bisection", "three_huge", "quarter"],
)
def test_one_edge_classification_per_run(monkeypatch, build, config, kind):
    """Only the sampler classifies the edges at (A1, A2), once per run."""
    g = build()
    calls = []
    real = samplers_mod.edge_profile

    def counting(digraph, a1, a2):
        calls.append(digraph)
        return real(digraph, a1, a2)

    # any module that binds the name counts, so a second caller cannot hide
    for mod in (samplers_mod, pipeline_mod):
        monkeypatch.setattr(mod, "edge_profile", counting, raising=False)
    result = run(g, config)
    assert [r["kind"] for r in result.branch_trace if r["step"] == "sampler"] == [kind]
    assert len(calls) == 1


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "g, strips",
    [
        (eulerian_complete(9), True),
        (lower_bound_gadget(2, 40)[0], False),
        (random_min_outdeg(300, 2, 1.0, seed=5), False),
    ],
    ids=["k9-strips", "gadget", "random"],
)
def test_min_cut_before_is_unpolished_result(g, strips, seed):
    polished = run(g, PipelineConfig(d=2, seed=seed))
    plain = run(g, PipelineConfig(d=2, seed=seed, enable_local_search=False))
    assert (polished.removed_a_edges > 0) == strips
    assert polished.branch_trace[-1]["step"] == "local_search"
    assert polished.branch_trace[-1]["min_cut_before"] == plain.stats.min_cut


class TestResultInvariants:
    def test_oracle_upper_bounds_pipeline(self):
        rng = random.Random(55)
        for seed in range(8):
            g = random_min_outdeg(rng.randint(8, 14), 2, 0.5, seed=seed)
            result = run(g, PipelineConfig(d=2, epsilon=0.05, seed=seed))
            assert result.stats.min_cut <= exact_judicious(g).optimum

    def test_ratio_consistency(self):
        g, _ = lower_bound_gadget(2, 20)
        result = run(g, PipelineConfig(d=2, epsilon=0.05, seed=1))
        assert result.achieved_ratio == result.stats.min_cut / g.m
