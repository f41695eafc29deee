import ast
import random
import re
from pathlib import Path

import pytest

import dicut
import dicut.generators as gen_mod
from dicut.core import GraphInputError, cut_stats
from dicut.generators import (
    GadgetSpec,
    complete_antiparallel,
    concluding_gadgets,
    d1_gadget,
    eulerian_complete,
    lower_bound_gadget,
    random_min_outdeg,
)
from dicut.oracle import exact_judicious

from .conftest import reference_digraph
from .exhaustive import all_bipartitions


# Reference builders: each family as a list of (u, v) pairs, built the plain
# way, for reference_digraph to turn into adjacency lists.


def reference_eulerian(q):
    remaining = [set(range(q)) - {v} for v in range(q)]
    circuit = []
    stack = [0]
    while stack:
        v = stack[-1]
        if remaining[v]:
            w = min(remaining[v])
            remaining[v].discard(w)
            remaining[w].discard(v)
            stack.append(w)
        else:
            circuit.append(stack.pop())
    return q, [(circuit[i], circuit[i + 1]) for i in range(len(circuit) - 1)]


def reference_lower_bound(d, k):
    _, pairs = reference_eulerian(2 * d + 1)
    _, copy_edges = reference_eulerian(2 * d - 1)
    offset = 2 * d + 1
    for _ in range(k):
        pairs.extend((offset + u, offset + v) for u, v in copy_edges)
        pairs.extend((offset + u, 0) for u in range(2 * d - 1))
        offset += 2 * d - 1
    return offset, pairs


def reference_d1(n):
    return n, [(0, 1), (1, 2), (2, 0)] + [(v, 0) for v in range(3, n)]


def reference_patch(pairs, deficient, targets, want):
    have = {p: 0 for p in deficient}
    for u, _ in pairs:
        if u in have:
            have[u] += 1
    existing = set(pairs)
    for v in deficient:
        for t in targets:
            if have[v] >= want:
                break
            if t != v and (v, t) not in existing:
                pairs.append((v, t))
                existing.add((v, t))
                have[v] += 1


def reference_concluding(variant, n, patched):
    if variant == "k55_mixed":
        small, big = list(range(5)), list(range(5, n))
        pairs = [(0, b) for b in big]
        pairs.extend((b, s) for b in big for s in small[1:])
        if patched:
            reference_patch(pairs, small[1:], big[:6], 3)
        return n, pairs
    small, big = list(range(3)), list(range(3, n))
    pairs = [(b, s) for b in big for s in small]
    if variant == "k33_plus_3regular":
        for i in range(len(big)):
            for off in (1, 2, 3):
                pairs.append((big[i], big[(i + off) % len(big)]))
    if patched:
        reference_patch(pairs, small, big[:6], 3)
    return n, pairs


def reference_random(n, d, extra, seed):
    rng = random.Random(seed)
    pairs, seen = [], set()
    for v in range(n):
        for j in rng.sample(range(n - 1), d):
            w = j if j < v else j + 1
            pairs.append((v, w))
            seen.add((v, w))
    for _ in range(round(extra * n)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and (u, v) not in seen:
            pairs.append((u, v))
            seen.add((u, v))
    return n, pairs


def reference_complete(n):
    return n, [(u, v) for u in range(n) for v in range(n) if u != v]


def lower_bound_graph(d, k):
    return lower_bound_gadget(d, k)[0]


REFERENCE_GRID = (
    [(eulerian_complete, reference_eulerian, (q,)) for q in (3, 5, 7, 9)]
    + [
        (lower_bound_graph, reference_lower_bound, (d, k))
        for d in (2, 3)
        for k in (0, 1, 5, 50)
    ]
    + [(d1_gadget, reference_d1, (n,)) for n in (4, 5, 10, 101)]
    + [
        (concluding_gadgets, reference_concluding, (variant, n, patched))
        for variant, low in (
            ("k33_oriented", 9), ("k33_plus_3regular", 9), ("k55_mixed", 11)
        )
        for n in (low, 1003)
        for patched in (False, True)
    ]
    + [
        (random_min_outdeg, reference_random, args)
        for args in [(10, 2, 0.0, 0), (30, 3, 1.0, 5), (12, 11, 0.0, 3),
                     (12, 11, 2.0, 4), (1500, 3, 0.2, 7)]
    ]
    + [
        (complete_antiparallel, reference_complete, (n,))
        for n in (0, 1, 2, 3, 40)
    ]
)


@pytest.mark.parametrize(
    "build, reference, args",
    REFERENCE_GRID,
    ids=[f"{b.__name__}{args}" for b, _, args in REFERENCE_GRID],
)
def test_rows_match_pair_reference(build, reference, args):
    g = build(*args)
    assert (g.n, g.m, g._out, g._in) == reference_digraph(*reference(*args))


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


class TestCompleteAntiparallel:
    def test_rows_share_the_id_ints(self):
        g = complete_antiparallel(400)
        assert g.m == 400 * 399
        assert len({id(v) for a in g._out for v in a}) <= g.n

    def test_negative_n_rejected(self):
        with pytest.raises(
            GraphInputError, match="vertex count must be nonnegative, got -1"
        ):
            complete_antiparallel(-1)


class TestGadgetSpec:
    def test_build_and_label(self):
        spec = GadgetSpec("eulerian_complete", {"q": 5})
        assert spec.build().m == 10
        assert spec.label() == "eulerian_complete(q=5)"

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            GadgetSpec("mystery", {})

    @pytest.mark.parametrize("family, params, message", [
        ("lower_bound", {"d": 2, "k": 1, "n": 99}, "lower_bound takes no param 'n'"),
        ("eulerian_complete", {"q": 5, "seed": 3},
         "eulerian_complete takes no param 'seed'"),
        ("lower_bound", {"d": 2}, "lower_bound needs param 'k'"),
        ("random_min_outdeg", {"n": 12}, "random_min_outdeg needs param 'd'"),
    ])
    def test_params_checked_against_family(self, family, params, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            GadgetSpec(family, params)

    def test_optional_params_keep_builder_defaults(self):
        plain = GadgetSpec("random_min_outdeg", {"n": 12, "d": 2}).build()
        assert plain.edges == random_min_outdeg(12, 2).edges
        patched = GadgetSpec("k55_mixed", {"n": 20}).build()
        assert patched.edges == concluding_gadgets("k55_mixed", 20).edges

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
    real = gen_mod._from_rows

    def drop_last_edge(rows):
        # the built instance then misses its family's property
        next(row for row in reversed(rows) if row).pop()
        return real(rows)

    monkeypatch.setattr(gen_mod, "_from_rows", drop_last_edge)
    with pytest.raises(RuntimeError, match=message):
        build()


def test_rejected_rows_name_the_family(monkeypatch):
    monkeypatch.setattr(gen_mod, "_from_rows", lambda rows: None)
    with pytest.raises(RuntimeError, match="complete_antiparallel .*: rows in range"):
        complete_antiparallel(3)


def test_no_assert_statements_in_src():
    # asserts vanish under python -O; checks in src/ must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(dicut.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
