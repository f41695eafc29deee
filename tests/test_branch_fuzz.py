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


def hub_runs(seed: int):
    """(draw index, digraph, config) for one seed's 250 hub draws, each under
    every large-degree exponent."""
    rng = random.Random(seed)
    for i in range(250):
        d = rng.choice((2, 3))
        g = hub_draw(rng, d)
        for exponent in EXPONENTS:
            yield i, g, PipelineConfig(
                d=d, epsilon=EPSILON, seed=i, large_degree_exponent=exponent
            )


def structural_branch(trace) -> str | None:
    steps = {record["step"] for record in trace}
    for step in ("three_huge", "bisection"):
        if step in steps:
            return step
    return None


@pytest.mark.parametrize("seed", [7, 8])
def test_structural_branches_against_oracle(seed):
    reached = Counter()
    optimum = {}
    for i, g, config in hub_runs(seed):
        d, exponent = config.d, config.large_degree_exponent
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
    partition it starts from; both ends are recounted from scratch."""
    calls = recorded(monkeypatch, "_polish")
    for i, g, config in hub_runs(seed):
        calls.clear()
        run(g, config)
        [((digraph, sampled, stats, _), polished)] = calls
        before, after = cut_stats(g, sampled), cut_stats(g, polished)
        assert digraph is g and stats == before, i
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


# the dense shortcut's tolerance per d, and inputs that take it once the
# cutoff is lowered by test constants
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
        (-1, g, PipelineConfig(d=d, epsilon=EPSILON, seed=seed, test_constants=True))
        for g, d in DENSE
    ]
    kinds = set()
    for i, g, config in chain(hub_runs(seed), dense_runs):
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
