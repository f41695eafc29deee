import ast
import random
from pathlib import Path

import pytest

import dicut
import dicut.generators as gen_mod
from dicut.core import cut_stats
from dicut.generators import (
    GadgetSpec,
    concluding_gadgets,
    d1_gadget,
    eulerian_complete,
    lower_bound_gadget,
    random_min_outdeg,
)
from dicut.oracle import all_bipartitions, exact_judicious


class TestEulerianComplete:
    def test_q3_is_directed_triangle(self):
        g = eulerian_complete(3)
        assert g.m == 3
        assert all(
            (g.out_degree(v), g.in_degree(v), g.degree(v)) == (1, 1, 2)
            for v in range(3)
        )

    def test_q5_outdegrees(self):
        g = eulerian_complete(5)
        assert g.m == 10
        assert all(g.out_degree(v) == 2 for v in range(5))

    def test_q7_every_bipartition_balanced(self):
        g = eulerian_complete(7)
        for part in all_bipartitions(7):
            stats = cut_stats(g, part)
            assert stats.e12 == stats.e21

    @pytest.mark.parametrize("q", [1, 2, 4, -3])
    def test_invalid_q(self, q):
        with pytest.raises(ValueError):
            eulerian_complete(q)

    def test_deterministic(self):
        assert eulerian_complete(9).edges == eulerian_complete(9).edges


class TestLowerBoundGadget:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_closed_forms(self, d, k):
        g, v0 = lower_bound_gadget(d, k)
        assert g.n == k * (2 * d - 1) + (2 * d + 1)
        assert g.m == k * d * (2 * d - 1) + d * (2 * d + 1)
        assert g.min_out_degree() == d
        assert v0 == 0

    def test_k0_is_plain_eulerian(self):
        g, _ = lower_bound_gadget(2, 0)
        assert (g.n, g.m) == (5, 10)

    def test_cut_cap_with_v0_on_side_one(self):
        # exhaustive: e12 <= k*d(d-1)/2 + d(d+1)/2 = 4 for (d=2, k=1)
        g, v0 = lower_bound_gadget(2, 1)
        cap = max(cut_stats(g, p).e12 for p in all_bipartitions(g.n, fixed_side1=v0))
        assert cap == 4

    def test_invalid_d(self):
        with pytest.raises(ValueError):
            lower_bound_gadget(1, 3)


class TestD1Gadget:
    def test_n4_exact_edges(self):
        g = d1_gadget(4)
        assert g.edges == ((0, 1), (1, 2), (2, 0), (3, 0))

    @pytest.mark.parametrize("n", [4, 10])
    def test_min_cut_at_most_one(self, n):
        assert exact_judicious(d1_gadget(n)).optimum <= 1

    def test_too_small(self):
        with pytest.raises(ValueError):
            d1_gadget(3)


class TestConcludingGadgets:
    def test_k33_oriented_pinned(self):
        g = concluding_gadgets("k33_oriented", 103)
        assert g.m == 300
        assert all(g.out_degree(v) == 3 for v in range(3, 103))
        assert all(g.out_degree(v) == 0 for v in range(3))

    def test_k33_plus_3regular_edge_count(self):
        g = concluding_gadgets("k33_plus_3regular", 103)
        assert g.m == 6 * (103 - 3)

    def test_k55_mixed_degrees(self):
        g = concluding_gadgets("k55_mixed", 105)
        assert g.out_degree(0) == 100
        assert all(g.in_degree(v) == 100 for v in range(1, 5))

    @pytest.mark.parametrize(
        "family", ["k33_oriented", "k33_plus_3regular", "k55_mixed"]
    )
    def test_patched_reaches_min_outdegree_three(self, family):
        g = concluding_gadgets(family, 60, patched=True)
        assert g.min_out_degree() >= 3

    def test_bad_variant_and_size(self):
        with pytest.raises(ValueError):
            concluding_gadgets("k44", 50)
        with pytest.raises(ValueError):
            concluding_gadgets("k33_oriented", 5)


class TestRandomMinOutdeg:
    def test_deterministic_per_seed(self):
        a = random_min_outdeg(10, 2, 0, seed=7)
        b = random_min_outdeg(10, 2, 0, seed=7)
        assert a.edges == b.edges
        assert a.min_out_degree() >= 2

    def test_seed_changes_instance(self):
        a = random_min_outdeg(30, 2, 1.0, seed=1)
        b = random_min_outdeg(30, 2, 1.0, seed=2)
        assert a.edges != b.edges

    def test_edge_count_band(self):
        g = random_min_outdeg(1000, 3, extra=1.0, seed=1)
        assert 3000 <= g.m <= 4000
        assert g.min_out_degree() >= 3

    def test_d_too_large(self):
        with pytest.raises(ValueError):
            random_min_outdeg(5, 5, 0, seed=0)

    @pytest.mark.parametrize(
        "n, d, extra, seed",
        [(10, 2, 0.0, 0), (30, 3, 1.0, 5), (200, 2, 0.5, 11), (12, 11, 0.0, 3),
         (1500, 3, 0.2, 7)],
    )
    def test_matches_pool_sampler(self, n, d, extra, seed):
        """Same edges as sampling each vertex's targets from a list of the
        other ids (d = n - 1 included)."""
        rng = random.Random(seed)
        pairs: set[tuple[int, int]] = set()
        for v in range(n):
            pool = [w for w in range(n) if w != v]
            pairs.update((v, w) for w in rng.sample(pool, d))
        for _ in range(round(extra * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                pairs.add((u, v))
        assert random_min_outdeg(n, d, extra, seed).edges == tuple(sorted(pairs))


class TestGadgetSpec:
    def test_build_and_label(self):
        spec = GadgetSpec("eulerian_complete", {"q": 5})
        assert spec.build().m == 10
        assert spec.label() == "eulerian_complete(q=5)"

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            GadgetSpec("mystery", {})

    def test_every_family_buildable(self):
        specs = [
            GadgetSpec("d1_star_triangle", {"n": 6}),
            GadgetSpec("eulerian_complete", {"q": 7}),
            GadgetSpec("lower_bound", {"d": 2, "k": 2}),
            GadgetSpec("k33_oriented", {"n": 20}),
            GadgetSpec("k33_plus_3regular", {"n": 20, "patched": True}),
            GadgetSpec("k55_mixed", {"n": 20}),
            GadgetSpec("random_min_outdeg", {"n": 12, "d": 2, "seed": 3}),
        ]
        for spec in specs:
            g = spec.build()
            assert g.n > 0


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: eulerian_complete(5), "eulerian_complete .*: m = q\\(q-1\\)/2"),
        (lambda: d1_gadget(5), "d1_star_triangle .*: minimum outdegree is 1"),
        (
            lambda: concluding_gadgets("k33_plus_3regular", 9),
            "k33_plus_3regular .*: m = 6\\(n-3\\)",
        ),
        (
            lambda: concluding_gadgets("k55_mixed", 11),
            "k55_mixed .*: vertices 1..4 have indegree n-5",
        ),
        (
            lambda: random_min_outdeg(10, 2),
            "random_min_outdeg .*: minimum outdegree >= d",
        ),
    ],
)
def test_self_check_names_family_and_property(monkeypatch, build, message):
    real = gen_mod.Digraph
    # drop the last edge, so the built instance misses its family's property
    monkeypatch.setattr(gen_mod, "Digraph", lambda n, pairs: real(n, list(pairs)[:-1]))
    with pytest.raises(RuntimeError, match=message):
        build()


def test_no_assert_statements_in_src():
    # asserts vanish under python -O; checks in src/ must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(dicut.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
