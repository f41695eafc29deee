"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Every tolerance is pinned here; nothing is deferred.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from dicut.core import _components, cut_stats
from dicut.decomposition import (
    maximize_free_vertices,
    maximum_matching,
    star_decompose,
    tight_components,
)
from dicut.generators import (
    GadgetSpec,
    concluding_gadgets,
    d1_gadget,
    eulerian_complete,
    lower_bound_gadget,
    random_min_outdeg,
)
from dicut.harness import run_suite, suite_tasks
from dicut.oracle import exact_judicious
from dicut.pipeline import PipelineConfig, guarantee_target, min_gap, run
from dicut.samplers import edge_profile, expected_mean_cuts

from .conftest import (
    free_vertex_count,
    induced_rows,
    matching_size,
    random_digraph,
    random_undirected,
    underlying,
    untimed,
)
from .exhaustive import (
    all_bipartitions,
    brute_force_tight_check,
    exact_max_matching,
    exact_min_gap,
)


def _report(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_criterion_01_eulerian_balance():
    for q in (3, 5, 7, 9):
        g = eulerian_complete(q)
        count = 0
        for part in all_bipartitions(q, fixed_side1=None):
            stats = cut_stats(g, part)
            assert stats.e12 == stats.e21
            count += 1
        assert count == 2**q
    _report(1, "eulerian balance")


def test_criterion_02_gadget_arithmetic():
    for d in (2, 3):
        for k in range(6):
            g, _ = lower_bound_gadget(d, k)
            assert g.m == k * d * (2 * d - 1) + d * (2 * d + 1)
            assert g.n == k * (2 * d - 1) + (2 * d + 1)
            assert g.min_out_degree() == d
    _report(2, "gadget arithmetic")


def test_criterion_03_gadget_cut_cap():
    g, v0 = lower_bound_gadget(2, 1)
    assert g.n == 8
    cap = 1 * 2 * (2 - 1) // 2 + 2 * (2 + 1) // 2  # k*d(d-1)/2 + d(d+1)/2 = 4
    assert cap == 4
    for part in all_bipartitions(g.n, fixed_side1=v0):
        assert cut_stats(g, part).e12 <= cap
    _report(3, "gadget cut cap")


def test_criterion_04_d1_impossibility():
    for n in range(4, 15):
        assert exact_judicious(d1_gadget(n)).optimum <= 1
    _report(4, "d=1 impossibility")


def test_criterion_05_matching_oracle_equivalence():
    rng = random.Random(501)
    for _ in range(500):
        g = random_undirected(rng, rng.randint(1, 12), rng.uniform(0.05, 0.8))
        assert matching_size(maximum_matching(g, _components(g))) == exact_max_matching(g)

    rng = random.Random(502)
    checked_ground_truth = 0
    for _ in range(500):
        g = random_undirected(rng, rng.randint(1, 18), rng.uniform(0.05, 0.6))
        m = maximize_free_vertices(g, maximum_matching(g, _components(g)))
        report = tight_components(g, m)
        non_free = m.count(-1) - free_vertex_count(g, m)
        assert non_free == len(report)  # the free/tight bijection
        comps = _components(g)
        for comp in report:
            if len(comp) <= 9:
                assert brute_force_tight_check(induced_rows(g, comp)[0])
        if all(len(c) <= 9 for c in comps):
            truth = sum(
                1 for c in comps if brute_force_tight_check(induced_rows(g, c)[0])
            )
            assert truth == len(report)
            checked_ground_truth += 1
    assert checked_ground_truth >= 100  # the strong form ran on a real share
    _report(5, "matching oracle equivalence")


def test_criterion_06_star_decomposition_invariants():
    rng = random.Random(601)
    epsilon = 0.2
    for trial in range(1000):
        n = rng.randint(2, 200)
        if trial % 2:
            g = random_min_outdeg(
                n, rng.randint(1, min(3, n - 1)), rng.uniform(0, 1), seed=trial
            )
        else:
            g = random_digraph(rng, n, rng.uniform(0.005, min(1.0, 6.0 / n)))
        decs = {}
        for pref in (False, True):
            dec = star_decompose(
                g, range(n), epsilon=epsilon, prefer_antiparallel=pref
            )
            decs[pref] = dec
            und = underlying(g)
            delta = max(map(len, und), default=0)
            seen = set(dec.leftover)
            for star in dec.stars:
                vs = set(star.vertices)
                assert not (vs & seen)
                seen |= vs
                assert 2 <= len(star) <= delta + 1
                assert star.apex in star.seed
                others = [v for v in star.vertices if v != star.apex]
                for leaf in star.leaves:
                    assert star.apex in und[leaf]
                    for other in others:
                        if other != leaf:
                            assert other not in und[leaf]
                high = [v for v in others if g.degree(v) > dec.degree_cap]
                assert len(high) <= 1
            assert seen == set(range(n))
            leftover = list(dec.leftover)
            for i, u in enumerate(leftover):
                for v in leftover[i + 1 :]:
                    assert v not in und[u]
            assert len(dec.leftover) <= dec.tau + epsilon * n
            assert dec.tau_prime == len(dec.tight) - dec.sigma
            for comp in dec.tight:
                assert len(comp) % 2 == 1
        assert len(decs[True].leftover) == len(decs[False].leftover)
        lifted = {
            pref: sum(2 if (g.has_edge(u, v) and g.has_edge(v, u)) else 1
                      for u, v in (s.seed for s in dec.stars))
            for pref, dec in decs.items()
        }
        assert lifted[True] >= lifted[False]
        assert decs[True].star_edge_count() == decs[False].star_edge_count()
    _report(6, "star decomposition invariants")


def test_criterion_07_min_gap_exact():
    rng = random.Random(701)
    for _ in range(200):
        vals = [rng.randint(-60, 60) for _ in range(rng.randint(0, 15))]
        assert min_gap(vals).theta == exact_min_gap(vals)
    _report(7, "min gap exactness")


def test_criterion_08_sampler_expectation():
    rng = random.Random(801)
    draws = 10_000
    for fixture in range(20):
        n = rng.randint(8, 18)
        g = random_digraph(rng, n, rng.uniform(0.15, 0.4))
        vertices = list(range(n))
        rng.shuffle(vertices)
        if fixture == 0:
            a1, a2 = set(vertices[: n // 2]), set(vertices[n // 2 :])  # B empty
        else:
            a1 = set(vertices[: rng.randint(0, 2)])
            a2 = set(vertices[len(a1) : len(a1) + rng.randint(0, 2)])
        p = rng.choice([0.3, 0.5, 0.6, 0.25])
        expect, _ = expected_mean_cuts(edge_profile(g, a1, a2), Fraction(p))
        b = [v for v in range(n) if v not in a1 and v not in a2]
        draw_rng = random.Random(9000 + fixture)
        total = 0.0
        total_sq = 0.0
        side = [0] * n
        for v in a1:
            side[v] = 1
        for v in a2:
            side[v] = 2
        edges = g.edges
        for _ in range(draws):
            for v in b:
                side[v] = 1 if draw_rng.random() < p else 2
            e12 = 0
            for u, v in edges:
                if side[u] == 1 and side[v] == 2:
                    e12 += 1
            total += e12
            total_sq += e12 * e12
        mean = total / draws
        var = max(0.0, (total_sq - draws * mean * mean) / (draws - 1))
        se = math.sqrt(var / draws)
        if se == 0:
            assert mean == expect
        else:
            assert abs(mean - expect) <= 3 * se, (fixture, mean, expect, se)
    _report(8, "sampler expectation vs empirical mean")


def test_criterion_09_quarter_partition_regime():
    from dicut.samplers import quarter_partition

    eps = 0.15
    bound = Fraction(8) / (Fraction(str(eps)) ** 2)
    for i in range(20):
        n = 360 + i
        g = random_min_outdeg(n, n - 4, 0, seed=900 + i)
        assert g.m >= bound * n
        out = quarter_partition(g, eps, seed=900 + i)
        threshold = (Fraction(1, 4) - Fraction(str(eps))) * g.m
        assert out.stats.e12 >= threshold and out.stats.e21 >= threshold
        assert out.warning is None
    _report(9, "quarter partition regime")


def _run_and_check(g, d: int, seed: int, budget_s: float = 5.0) -> None:
    config = PipelineConfig(d=d, epsilon=0.05, seed=seed)
    t0 = time.perf_counter()
    result = run(g, config)
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"instance took {elapsed:.2f}s"
    assert result.meets_guarantee, (
        f"min_cut {result.stats.min_cut} below target {result.guarantee}"
    )


def test_criterion_10_end_to_end_d2():
    for k in (50, 200, 400):
        g, _ = lower_bound_gadget(2, k)
        _run_and_check(g, 2, seed=k)
    rng = random.Random(1001)
    for i in range(100):
        n = rng.randint(500, 5000)
        g = random_min_outdeg(n, 2, rng.uniform(0, 1), seed=10_000 + i)
        _run_and_check(g, 2, seed=i)
    _report(10, "end-to-end d=2")


def test_criterion_11_end_to_end_d3():
    for k in (50, 200, 300):
        g, _ = lower_bound_gadget(3, k)
        _run_and_check(g, 3, seed=k)
    for family in ("k33_oriented", "k33_plus_3regular", "k55_mixed"):
        g = concluding_gadgets(family, 1003, patched=True)
        _run_and_check(g, 3, seed=11)
    rng = random.Random(1101)
    for i in range(100):
        n = rng.randint(500, 5000)
        g = random_min_outdeg(n, 3, rng.uniform(0, 1), seed=20_000 + i)
        _run_and_check(g, 3, seed=i)
    _report(11, "end-to-end d=3")


def test_criterion_12_oracle_comparison():
    total = 0
    good = 0
    for suite in ("gadgets", "random-d2", "random-d3", "oracle-small"):
        for task in suite_tasks(suite):
            g = GadgetSpec(task.family, task.params).build()
            if g.n > 16:
                continue
            result = run(g, PipelineConfig(d=task.d, seed=task.seed))
            optimum = exact_judicious(g).optimum
            assert result.stats.min_cut <= optimum  # oracle upper-bounds everything
            total += 1
            if optimum == 0 or result.stats.min_cut >= 0.9 * optimum:
                good += 1
    assert total >= 20
    assert good / total >= 0.95, f"{good}/{total} within 0.9 of the optimum"
    _report(12, f"oracle comparison ({good}/{total} at >= 0.9)")


def test_sampler_alone_meets_the_target_where_nothing_is_stripped():
    """The census of the paper's path: on every bench task at its own seed
    where split_large strips no edge, the partition the sampler hands the
    polish already meets the target.  Where it strips edges the guarantee
    is asymptotic, so that rate is printed, not asserted."""
    unstripped = stripped = stripped_met = 0
    for suite in ("gadgets", "random-d2", "random-d3", "oracle-small"):
        for task in suite_tasks(suite):
            g = GadgetSpec(task.family, task.params).build()
            config = PipelineConfig(d=task.d, seed=task.seed)
            result = run(g, config)
            [polish] = [
                r for r in result.branch_trace if r["step"] == "local_search"
            ]
            target = guarantee_target(task.d, g.m, config.epsilon)
            met = polish["min_cut_before"] >= target
            if result.removed_a_edges == 0:
                assert met, (task.key, polish)
                unstripped += 1
            else:
                stripped += 1
                stripped_met += met
    assert unstripped > 0 and stripped > 0
    print(f"sampler alone: {unstripped}/{unstripped} unstripped runs meet the "
          f"target, {stripped_met}/{stripped} stripped ones")


def test_criterion_13_determinism():
    first = list(map(untimed, run_suite("oracle-small")))
    second = list(map(untimed, run_suite("oracle-small")))
    parallel = list(map(untimed, run_suite("oracle-small", jobs=8)))
    assert first == second == parallel
    _report(13, "determinism across runs and job counts")
