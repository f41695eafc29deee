import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dicut.samplers as samplers_mod
from dicut.core import Digraph, cut_stats
from dicut.decomposition import star_decompose
from dicut.generators import (
    complete_antiparallel,
    eulerian_complete,
    lower_bound_gadget,
    random_min_outdeg,
)
from dicut.samplers import (
    EdgeProfile,
    SamplerConfig,
    edge_profile,
    exact_fraction,
    expected_cuts,
    quarter_partition,
    second_moment_partition,
    star_bisection,
)

def three_cycle() -> Digraph:
    return Digraph.from_edge_list([(0, 1), (1, 2), (2, 0)])


class TestExpectedCuts:
    def test_uniform_no_anchors(self):
        g = random_min_outdeg(20, 2, 0.5, seed=4)
        e12, e21 = expected_cuts(g, (), (), 0.5)
        assert e12 == e21 == g.m / 4

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.8, 1.0])
    def test_no_anchor_symmetry(self, p):
        g = random_min_outdeg(15, 2, 0.2, seed=6)
        e12, e21 = expected_cuts(g, (), (), p)
        assert e12 == e21 == pytest.approx(p * (1 - p) * g.m)

    def test_three_cycle_hand_value(self):
        assert expected_cuts(three_cycle(), [0], [], 0.5) == (0.75, 0.75)

    def test_degenerate_p(self):
        g = random_min_outdeg(12, 2, 0.5, seed=5)
        prof = edge_profile(g, {0, 1}, {2})
        for p in (0, 1):
            e12, e21 = expected_cuts(g, {0, 1}, {2}, p)
            # inside-B edges never cross when everything lands on one side
            assert e12 + e21 == pytest.approx(
                prof.a1a2 + prof.a2a1
                + (1 - p) * (prof.a1b + prof.ba1)
                + p * (prof.ba2 + prof.a2b)
            )

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            expected_cuts(three_cycle(), [0], [0], 0.5)

    def test_out_of_range_rejected(self):
        for a1 in ([3], [-1]):
            with pytest.raises(ValueError, match="vertex ids"):
                edge_profile(three_cycle(), a1, [])

    def test_empirical_mean_matches(self):
        g = random_min_outdeg(16, 2, 1.0, seed=9)
        a1, a2 = {0, 1}, {2}
        p = Fraction(1, 3)
        e12_expect, _ = expected_cuts(g, a1, a2, p)
        rng = random.Random(123)
        draws = 4000
        total = 0
        b = [v for v in range(g.n) if v not in a1 and v not in a2]
        for _ in range(draws):
            side = [0] * g.n
            for v in a1:
                side[v] = 1
            for v in a2:
                side[v] = 2
            for v in b:
                side[v] = 1 if rng.random() < 1 / 3 else 2
            e12 = sum(1 for u, v in g.edges if side[u] == 1 and side[v] == 2)
            total += e12
        mean = total / draws
        assert abs(mean - e12_expect) < 0.3  # ~5 sigma at this sample size


def full_scan_profile(digraph, a1, a2):
    """Reference: classify every edge of the digraph with the full if-chain."""
    s1, s2 = set(a1), set(a2)
    counts = dict(a1a2=0, a2a1=0, a1b=0, ba1=0, a2b=0, ba2=0, bb=0)
    for u, v in digraph.edges:
        cu = 1 if u in s1 else 2 if u in s2 else 0
        cv = 1 if v in s1 else 2 if v in s2 else 0
        if cu == 1 and cv == 2:
            counts["a1a2"] += 1
        elif cu == 2 and cv == 1:
            counts["a2a1"] += 1
        elif cu == 1 and cv == 0:
            counts["a1b"] += 1
        elif cu == 0 and cv == 1:
            counts["ba1"] += 1
        elif cu == 2 and cv == 0:
            counts["a2b"] += 1
        elif cu == 0 and cv == 2:
            counts["ba2"] += 1
        elif cu == 0 and cv == 0:
            counts["bb"] += 1
    return EdgeProfile(**counts)


@st.composite
def labelled_digraphs(draw, max_n=9):
    """(digraph, labels): label 0 is B, 1 is A1, 2 is A2; some antiparallel."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pool = [(u, v) for u in range(n) for v in range(n) if u < v]
    chosen = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    pairs = []
    for u, v in chosen:
        pairs += draw(st.sampled_from([[(u, v)], [(v, u)], [(u, v), (v, u)]]))
    labels = draw(st.lists(st.sampled_from((0, 1, 2)), min_size=n, max_size=n))
    return Digraph(n, pairs), labels


@given(labelled_digraphs(), st.booleans())
@settings(max_examples=300, deadline=None)
@example((Digraph(3, [(0, 1), (1, 2)]), [0, 0, 0]), False)  # A1 = A2 = {}
@example((Digraph(3, [(0, 1), (1, 0), (1, 2)]), [1, 1, 2]), False)  # inside A1
@example((Digraph(3, [(0, 1), (1, 0), (2, 0)]), [2, 2, 1]), False)  # inside A2
@example((Digraph(2, [(0, 1), (1, 0)]), [1, 2]), True)
def test_edge_profile_matches_full_scan(case, overlap):
    g, labels = case
    a1 = [v for v, c in enumerate(labels) if c == 1]
    a2 = [v for v, c in enumerate(labels) if c == 2]
    if overlap and a1:
        with pytest.raises(ValueError, match="overlap"):
            edge_profile(g, a1, a2 + a1[:1])
        return
    assert edge_profile(g, a1, a2) == full_scan_profile(g, a1, a2)


class TestSecondMoment:
    def test_empty_b_is_deterministic(self):
        g = three_cycle()
        cfg = SamplerConfig(seed=1, epsilon=0.2)
        out = second_moment_partition(g, [0], [1, 2], cfg)
        assert out.attempts_used == 1
        assert out.accepted
        assert (out.stats.e12, out.stats.e21) == (1, 1)

    def test_eulerian_k5_accepts(self):
        g = eulerian_complete(5)
        out = second_moment_partition(
            g, (), (), SamplerConfig(epsilon=0.2, seed=3, max_attempts=64)
        )
        assert out.accepted
        assert out.stats.e12 >= Fraction(10, 4) - Fraction(2, 10) * 10

    def test_same_seed_bit_identical(self):
        g = random_min_outdeg(30, 2, 1.0, seed=7)
        cfg = SamplerConfig(epsilon=0.05, seed=11)
        assert second_moment_partition(g, [0], [1], cfg) == second_moment_partition(
            g, [0], [1], cfg
        )

    def test_stats_recomputed_match_partition(self):
        g = random_min_outdeg(25, 2, 0.5, seed=2)
        out = second_moment_partition(g, (), (), SamplerConfig(epsilon=0.1, seed=5))
        assert cut_stats(g, out.partition) == out.stats
        if out.accepted:
            assert out.meets_targets()

    def test_degree_warning(self):
        # one dominating vertex breaks the degree hypothesis
        pairs = [(0, v) for v in range(1, 12)] + [(v, 0) for v in range(1, 12)]
        g = Digraph(12, pairs)
        out = second_moment_partition(
            g, (), (), SamplerConfig(epsilon=0.05, seed=1, max_attempts=4)
        )
        assert out.warning is not None

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            second_moment_partition(Digraph(0, []), (), (), SamplerConfig())

    def test_dense_instance_in_degree_regime(self):
        # max degree stays below eps^2*m/4, so the hypothesis holds and both
        # cuts clear (1/4 - eps)m
        g = random_min_outdeg(2000, 3, extra=30, seed=5)
        eps = 0.1
        assert max(g.degree(v) for v in range(g.n)) <= eps * eps * g.m / 4
        out = second_moment_partition(
            g, (), (), SamplerConfig(epsilon=eps, seed=5)
        )
        assert out.warning is None
        assert out.accepted
        assert out.stats.min_cut >= (0.25 - eps) * g.m

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(p=Fraction(3, 2))
        with pytest.raises(ValueError):
            SamplerConfig(epsilon=0)
        with pytest.raises(ValueError):
            SamplerConfig(max_attempts=0)


class TestQuarterPartition:
    def test_complete_antiparallel_forty(self):
        g = complete_antiparallel(40)
        assert g.m == 1560
        out = quarter_partition(g, 0.15, seed=2)
        assert out.stats.e12 >= 156 and out.stats.e21 >= 156

    def test_warning_when_out_of_regime(self):
        pairs = [(0, v) for v in range(1, 10)] + [(v, 0) for v in range(1, 10)]
        g = Digraph(10, pairs)
        out = quarter_partition(g, 0.1, seed=1, max_attempts=4)
        assert out.warning is not None

    def test_dense_regime_clears_warning(self):
        g = complete_antiparallel(30)  # m = 870 >= 8n/eps^2 with eps = 0.6
        out = quarter_partition(g, 0.6, seed=1, max_attempts=4)
        assert out.warning is None

    def test_determinism(self):
        g = complete_antiparallel(15)
        assert quarter_partition(g, 0.2, seed=9) == quarter_partition(g, 0.2, seed=9)


def antiparallel_triangles(count: int) -> Digraph:
    pairs = []
    for t in range(count):
        a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
        pairs += [(a, b), (b, a), (b, c), (c, a)]
    return Digraph(3 * count, pairs)


class TestStarBisection:
    def test_perfect_matching_cut_is_constant(self):
        g = Digraph.from_edge_list([(0, 1), (2, 3), (4, 5), (6, 7)])
        dec = star_decompose(g, range(8), epsilon=0.25)
        out = star_bisection(g, (), (), dec, 0.05, seed=3, max_attempts=8)
        # every matched edge crosses: the two directional cuts always sum to 4
        assert out.stats.e12 + out.stats.e21 == 4

    def test_tau_prime_shifts_thresholds(self):
        g = antiparallel_triangles(20)
        plain = star_decompose(g, range(g.n), epsilon=0.25)
        seeded = star_decompose(g, range(g.n), epsilon=0.25, prefer_antiparallel=True)
        assert plain.tau == 20 and seeded.tau_prime == 0
        out_plain = star_bisection(g, (), (), plain, 0.05, seed=1, max_attempts=4)
        out_seeded = star_bisection(g, (), (), seeded, 0.05, seed=1, max_attempts=4)
        diff = out_seeded.targets[0] - out_plain.targets[0]
        assert diff == Fraction(plain.tau - seeded.tau_prime, 8) == Fraction(20, 8)

    def test_accepted_outcome_verified(self):
        g, _ = lower_bound_gadget(2, 20)
        large = [0]
        rest = [v for v in range(g.n) if v != 0]
        dec = star_decompose(g, rest, epsilon=0.05)
        out = star_bisection(g, (), large, dec, 0.0125, seed=4)
        assert cut_stats(g, out.partition) == out.stats
        if out.accepted:
            assert out.meets_targets()

    def test_mismatched_decomposition_rejected(self):
        g = antiparallel_triangles(2)
        dec = star_decompose(g, range(3), epsilon=0.25)
        with pytest.raises(ValueError, match="cover"):
            star_bisection(g, (), (), dec, 0.05, seed=1)

    def test_zero_attempts_rejected(self, monkeypatch):
        g = antiparallel_triangles(2)
        dec = star_decompose(g, range(g.n), epsilon=0.25)
        calls = []
        monkeypatch.setattr(samplers_mod, "edge_profile", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="max_attempts must be at least 1"):
            star_bisection(g, (), (), dec, 0.05, seed=1, max_attempts=0)
        assert calls == []  # rejected before any edge is classified

    def test_determinism(self):
        g = antiparallel_triangles(5)
        dec = star_decompose(g, range(g.n), epsilon=0.25, prefer_antiparallel=True)
        a = star_bisection(g, (), (), dec, 0.05, seed=8)
        b = star_bisection(g, (), (), dec, 0.05, seed=8)
        assert a == b


def test_exact_fraction_reads_decimal():
    assert exact_fraction(0.05) == Fraction(1, 20)
    assert exact_fraction(Fraction(1, 12)) == Fraction(1, 12)
    assert exact_fraction(2) == 2
