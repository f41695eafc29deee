"""Branch-directed fuzzing of the pipeline against the exhaustive oracle.

Plain random digraphs almost never reach the structural branches.  A few
hubs whose edges all point one way give the large set a big surplus, so at
n <= 22 the d=2 and d=3 bisections and the three-huge rounding all run, and
each result can be checked against exact_judicious.  The same draws check
the polish and the second-moment samplers' thresholds on their own.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest

import dicut.pipeline as pipeline
from dicut.core import Digraph, cut_stats
from dicut.decomposition import MatchingError
from dicut.generators import complete_antiparallel, random_min_outdeg
from dicut.oracle import exact_judicious
from dicut.pipeline import PipelineConfig, StructuralDiagnostic, run

from .conftest import lower_dense_cutoff

TARGET = {2: Fraction(1, 6), 3: Fraction(1, 5)}
EPSILON = 0.05
EXPONENTS = (0.5, 0.6, 0.75)


def hub_draw(rng: random.Random, d: int) -> Digraph:
    """1-3 hubs, each joined to a random share of the vertices by edges that
    all point into it or all point out of it; then random out-edges until
    every vertex has outdegree d."""
    n = rng.randint(2 * d + 2, 22)
    pairs = set()
    for hub in rng.sample(range(n), rng.randint(1, 3)):
        inward = rng.random() < 0.5
        share = rng.uniform(0.4, 1.0)
        for v in range(n):
            if v != hub and rng.random() < share:
                pairs.add((v, hub) if inward else (hub, v))
    outdeg = Counter(u for u, _ in pairs)
    for v in range(n):
        while outdeg[v] < d:
            w = rng.randrange(n)
            if w != v and (v, w) not in pairs:
                pairs.add((v, w))
                outdeg[v] += 1
    return Digraph(n, sorted(pairs))


def hub_runs(monkeypatch, seed: int):
    """(draw index, digraph, config) for one seed's 250 hub draws, each under
    every large-degree exponent, which is patched in before its run is
    yielded and stays in force until the next one."""
    rng = random.Random(seed)
    for i in range(250):
        d = rng.choice((2, 3))
        g = hub_draw(rng, d)
        for exponent in EXPONENTS:
            monkeypatch.setattr(pipeline, "LARGE_DEGREE_EXPONENT", exponent)
            yield i, g, PipelineConfig(d=d, epsilon=EPSILON, seed=i)


def structural_branch(trace) -> str | None:
    steps = {record["step"] for record in trace}
    for step in ("three_huge", "bisection"):
        if step in steps:
            return step
    return None


@pytest.mark.parametrize("seed", [7, 8])
def test_structural_branches_against_oracle(monkeypatch, seed):
    reached = Counter()
    optimum = {}
    for i, g, config in hub_runs(monkeypatch, seed):
        d, exponent = config.d, pipeline.LARGE_DEGREE_EXPONENT
        try:
            result = run(g, config)
        except (StructuralDiagnostic, MatchingError) as exc:
            pytest.fail(f"draw {i} (d={d}, exponent={exponent}): {exc!r}")
        stats = cut_stats(g, result.partition)
        target = (TARGET[d] - Fraction(str(EPSILON))) * g.m
        assert result.meets_guarantee == (stats.min_cut >= target)
        branch = structural_branch(result.branch_trace)
        if branch is None:
            continue
        reached[d, branch] += 1
        if i not in optimum:
            optimum[i] = exact_judicious(g).optimum
        assert stats.min_cut <= optimum[i], (i, d, exponent)
    assert reached[2, "bisection"] and reached[3, "bisection"]
    assert reached[3, "three_huge"]


def recorded(monkeypatch, name: str) -> list:
    """Wrap pipeline.<name>; each call appends (args, result) to the list."""
    calls, real = [], getattr(pipeline, name)

    def wrapper(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(pipeline, name, wrapper)
    return calls


@pytest.mark.parametrize("seed", [7, 8])
def test_polish_never_lowers_the_sampled_partition(monkeypatch, seed):
    """The polish ends at (min_cut, total) at least that of the sampled
    partition it starts from; both ends, and the cuts it reports for each,
    are recounted from scratch."""
    calls = recorded(monkeypatch, "_polish")
    for i, g, config in hub_runs(monkeypatch, seed):
        calls.clear()
        run(g, config)
        [((digraph, sampled, start, _, _), (polished, end))] = calls
        before, after = cut_stats(g, sampled), cut_stats(g, polished)
        assert digraph is g and start == before and end == after, i
        assert (after.min_cut, after.total) >= (before.min_cut, before.total), i


def expectation_targets(digraph, a1, a2, p, eps) -> list[str]:
    """The thresholds eps*m below E[e12] and E[e21] when a vertex is on side 1
    with probability P1 = 1 in A1, 0 in A2 and p elsewhere: an edge (u, v)
    crosses forward with probability P1(u)(1 - P1(v))."""
    p1 = [p] * digraph.n
    for v in a1:
        p1[v] = 1
    for v in a2:
        p1[v] = 0
    forward = sum(p1[u] * (1 - p1[v]) for u, v in digraph.edges)
    backward = sum((1 - p1[u]) * p1[v] for u, v in digraph.edges)
    return [str(forward - eps * digraph.m), str(backward - eps * digraph.m)]


# the dense shortcut's tolerance per d, and inputs that take it once its
# cutoff is lowered a hundredfold
DENSE_EPSILON = {2: Fraction(1, 12), 3: Fraction(1, 20)}
DENSE = ((random_min_outdeg(100, 2, extra=12, seed=3), 2),
         (complete_antiparallel(40), 2), (complete_antiparallel(40), 3))


@pytest.mark.parametrize("seed", [7, 8])
def test_second_moment_targets_match_the_expectation_formula(monkeypatch, seed):
    """Each second-moment and quarter sampler record's targets equal the
    expectation formula summed over the edges of the digraph the sampler
    saw, with p and eps as the pipeline must choose them."""
    drawn = recorded(monkeypatch, "second_moment_partition")
    dense = recorded(monkeypatch, "quarter_partition")
    dense_runs = [
        (-1, g, PipelineConfig(d=d, epsilon=EPSILON, seed=seed)) for g, d in DENSE
    ]
    kinds = set()
    for i, g, config in chain(hub_runs(monkeypatch, seed), dense_runs):
        if i == -1:
            lower_dense_cutoff(monkeypatch)
        drawn.clear()
        dense.clear()
        trace = run(g, config).branch_trace
        [record] = [r for r in trace if r["step"] == "sampler"]
        if record["kind"] == "star_bisection":
            continue
        p, eps = Fraction(1, 2), Fraction(str(config.epsilon / 2))
        if record["kind"] == "quarter":
            [((digraph, *_), _)] = dense
            a1 = a2 = ()
            eps = DENSE_EPSILON[config.d]
        else:
            [((digraph, a1, a2, *_), _)] = drawn
        if record["kind"] == "second_moment_biased":
            p = Fraction(next(r["p"] for r in trace if r["step"] == "three_huge"))
        assert record["targets"] == expectation_targets(digraph, a1, a2, p, eps), i
        kinds.add(record["kind"])
    assert kinds == {"second_moment", "second_moment_biased", "quarter"}


# the share of each edge's weight counted forward, by the classes of its
# tail and head: 1 in A1, 2 in A2, 0 in B; backward counts the mirror edge
BISECTION_WEIGHT = {
    (1, 2): 1, (1, 0): Fraction(1, 2), (0, 2): Fraction(1, 2), (0, 0): Fraction(1, 4)
}


def odd_components(vertices, edges) -> int:
    """Odd connected components of the underlying graph on `vertices`."""
    root = {v: v for v in vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in edges:
        if u in root and v in root:
            root[find(u)] = find(v)
    return sum(size % 2 for size in Counter(find(v) for v in root).values())


def bisection_targets(digraph, a1, a2, tau, eps) -> list[str]:
    """The thresholds e12 and e21 must reach under the star bisection: an
    edge from A1 to A2 counts fully, one with an end in B half, one inside B
    a quarter, plus (n - tau)/8 - eps*n, recounted from the edge list."""
    cls = [0] * digraph.n
    for v in a1:
        cls[v] = 1
    for v in a2:
        cls[v] = 2
    forward = sum(BISECTION_WEIGHT.get((cls[u], cls[v]), 0) for u, v in digraph.edges)
    backward = sum(BISECTION_WEIGHT.get((cls[v], cls[u]), 0) for u, v in digraph.edges)
    gain = Fraction(digraph.n - tau, 8) - eps * digraph.n
    return [str(forward + gain), str(backward + gain)]


@pytest.mark.parametrize("seed", [7, 8])
def test_star_bisection_targets_match_the_bisection_bound(monkeypatch, seed):
    """Each star-bisection record's targets equal the bisection bound
    recounted from the digraph the sampler saw.  For d=2 tau is the number of
    odd components of B's underlying graph, walked here; for d=3 it is the
    bisection_tau of the decomposition handed to the sampler."""
    drawn = recorded(monkeypatch, "star_bisection")
    reached = set()
    for i, g, config in hub_runs(monkeypatch, seed):
        drawn.clear()
        trace = run(g, config).branch_trace
        [record] = [r for r in trace if r["step"] == "sampler"]
        if record["kind"] != "star_bisection":
            continue
        [((digraph, a1, a2, decomposition, *_), _)] = drawn
        if config.d == 2:
            b = set(range(digraph.n)) - set(a1) - set(a2)
            tau = odd_components(b, digraph.edges)
        else:
            tau = decomposition.bisection_tau
        eps = Fraction(str(config.epsilon / 4))
        assert record["targets"] == bisection_targets(digraph, a1, a2, tau, eps), i
        reached.add(config.d)
    assert reached == {2, 3}
