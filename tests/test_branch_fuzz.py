"""Branch-directed fuzzing of the pipeline against the exhaustive oracle.

Plain random digraphs almost never reach the structural branches.  A few
hubs whose edges all point one way give the large set a big surplus, so at
n <= 22 the d=2 and d=3 bisections and the three-huge rounding all run, and
each result can be checked against exact_judicious.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from dicut.core import Digraph, cut_stats
from dicut.decomposition import MatchingError
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


def structural_branch(trace) -> str | None:
    steps = {record["step"] for record in trace}
    for step in ("three_huge", "bisection"):
        if step in steps:
            return step
    return None


@pytest.mark.parametrize("seed", [7, 8])
def test_structural_branches_against_oracle(seed):
    rng = random.Random(seed)
    reached = Counter()
    for i in range(250):
        d = rng.choice((2, 3))
        g = hub_draw(rng, d)
        optimum = None
        for exponent in EXPONENTS:
            config = PipelineConfig(
                d=d, epsilon=EPSILON, seed=i, large_degree_exponent=exponent
            )
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
            if optimum is None:
                optimum = exact_judicious(g).optimum
            assert stats.min_cut <= optimum, (i, d, exponent)
    assert reached[2, "bisection"] and reached[3, "bisection"]
    assert reached[3, "three_huge"]
