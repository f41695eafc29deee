"""Randomized partitioning primitives with explicit expectation formulas and
retry-until-accept contracts.

Every sampler runs one accept loop: it classifies the edges at (A1, A2)
once per call, draws bounded independent attempts, re-checks the directional
cuts of every attempt from scratch, and accepts the first attempt meeting
its recorded thresholds; otherwise the best attempt seen is returned with
accepted=False so callers can fall back honestly.  Thresholds are computed
in exact rational arithmetic, so acceptance at the boundary is unambiguous.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import filterfalse
from typing import Callable, Iterable

# cut_stats is bound for the benchmark's spans, which wrap it in every module
from .core import Bipartition, CutStats, Digraph, _cut_counts, cut_stats
from .decomposition import StarDecomposition

MAX_ATTEMPTS = 200


def exact_fraction(x: float | Fraction | int | str) -> Fraction:
    """Exact rational value of a tolerance, reading floats by their decimal
    representation so 0.05 means 1/20, not its binary approximation."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(repr(x))
    return Fraction(x)


@dataclass(frozen=True)
class SampleOutcome:
    """Partition found by a sampler together with its acceptance record.

    two holds, for every vertex of the sampled digraph, the side-2 ends of
    its out- and in-lists, as the cut count scattered them; run() hands them
    to the polish when the sampled digraph is its input."""

    partition: Bipartition
    stats: CutStats
    accepted: bool
    attempts_used: int
    targets: tuple[Fraction, Fraction]
    two: list[int] = field(compare=False, repr=False)
    warning: str | None = None


@dataclass(frozen=True)
class EdgeProfile:
    """Edge counts of D classified against fixed disjoint sets A1, A2."""

    a1a2: int = 0
    a2a1: int = 0
    a1b: int = 0
    ba1: int = 0
    a2b: int = 0
    ba2: int = 0
    bb: int = 0


def edge_profile(digraph: Digraph, a1: Iterable[int], a2: Iterable[int]) -> EdgeProfile:
    """Classify the edges at A = A1 | A2 by walking only the adjacency of A;
    every other edge lies inside B, so bb = m - #edges at A.  O(vol A).

    Edges inside A1 or inside A2 never cross and fall in no class.
    """
    s1, s2 = set(a1), set(a2)
    if s1 & s2:
        raise ValueError(f"A1 and A2 overlap on {sorted(s1 & s2)}")
    a = s1 | s2
    if a and not (0 <= min(a) and max(a) < digraph.n):
        raise ValueError(f"A1, A2 must be vertex ids in [0, {digraph.n})")

    def tally(side: set[int], other: set[int]) -> tuple[int, int, int]:
        """(edges side -> other, side -> B, B -> side)."""
        to_other = to_b = from_b = 0
        for u in side:
            out, in_ = digraph.out_neighbors(u), digraph.in_neighbors(u)
            to_other += len(other.intersection(out))
            to_b += len(out) - len(a.intersection(out))
            from_b += len(in_) - len(a.intersection(in_))
        return to_other, to_b, from_b

    a1a2, a1b, ba1 = tally(s1, s2)
    a2a1, a2b, ba2 = tally(s2, s1)
    at_a = sum(digraph.out_degree(u) for u in a) + ba1 + ba2
    return EdgeProfile(a1a2, a2a1, a1b, ba1, a2b, ba2, digraph.m - at_a)


def expected_mean_cuts(profile: EdgeProfile, p: Fraction) -> tuple[Fraction, Fraction]:
    """Expected (e12, e21) when B-vertices go to side 1 with probability p."""
    q = 1 - p
    e12 = profile.a1a2 + q * profile.a1b + p * profile.ba2 + p * q * profile.bb
    e21 = profile.a2a1 + p * profile.a2b + q * profile.ba1 + p * q * profile.bb
    return e12, e21


def _accept_loop(
    digraph: Digraph,
    a1: set[int],
    a2: set[int],
    seed: int,
    targets_of: Callable[[EdgeProfile], tuple[Fraction, Fraction]],
    draw: Callable[[list[int], random.Random], None],
    warning: str | None = None,
) -> SampleOutcome:
    """The retry-until-accept contract every sampler shares.

    Classifies the edges at (A1, A2) once, turns the counts into thresholds
    with `targets_of`, then draws up to MAX_ATTEMPTS partitions (one if B is
    empty): A1 and A2 keep their sides and `draw(side, rng)` fills B.  Returns
    the first attempt meeting both thresholds, else the one of best min cut.
    """
    targets = targets_of(edge_profile(digraph, a1, a2))
    attempts = MAX_ATTEMPTS if len(a1) + len(a2) < digraph.n else 1
    fixed = [0] * digraph.n
    for v in a1:
        fixed[v] = 1
    for v in a2:
        fixed[v] = 2
    rng = random.Random(seed)
    best = None
    for attempt in range(1, attempts + 1):
        side = fixed.copy()
        draw(side, rng)
        part = Bipartition(tuple(side))
        stats, two = _cut_counts(digraph, part)
        accepted = stats.e12 >= targets[0] and stats.e21 >= targets[1]
        outcome = SampleOutcome(part, stats, accepted, attempt, targets, two, warning)
        if accepted:
            return outcome
        if best is None or stats.min_cut > best.stats.min_cut:
            best = outcome
    return best


def second_moment_partition(
    digraph: Digraph,
    a1: Iterable[int],
    a2: Iterable[int],
    p: Fraction | float,
    epsilon: float | Fraction,
    seed: int,
) -> SampleOutcome:
    """Independent placement of B (side 1 with probability p) with acceptance
    thresholds one epsilon*m below each expected directional cut.

    The thresholds come with a degree hypothesis (max degree over B at most
    epsilon^2 m / 4); when it fails the sampler still runs, flagged best-effort.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0,1], got {p}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if digraph.n == 0:
        raise ValueError("empty graph")
    s1, s2 = set(a1), set(a2)
    p = Fraction(p)
    eps = exact_fraction(epsilon)
    m = digraph.m

    def targets_of(prof: EdgeProfile) -> tuple[Fraction, Fraction]:
        m12, m21 = expected_mean_cuts(prof, p)
        return m12 - eps * m, m21 - eps * m

    b_order = list(filterfalse((s1 | s2).__contains__, range(digraph.n)))
    warning = None
    if b_order:
        out, in_ = digraph._out, digraph._in
        max_deg = max([len(out[v]) + len(in_[v]) for v in b_order])
        if Fraction(max_deg) > eps * eps * m / 4:
            warning = (
                f"degree hypothesis fails: max B-degree {max_deg} exceeds "
                f"eps^2*m/4 = {float(eps * eps * m / 4):.3f}; best-effort result"
            )
    p_float = float(p)

    def draw(side: list[int], rng: random.Random) -> None:
        for v in b_order:
            side[v] = 1 if rng.random() < p_float else 2

    return _accept_loop(digraph, s1, s2, seed, targets_of, draw, warning)


def quarter_partition(
    digraph: Digraph,
    epsilon: float | Fraction,
    seed: int,
) -> SampleOutcome:
    """Uniform random bipartition accepted when both directional cuts reach
    (1/4 - epsilon) m; valid regime is max degree <= eps^2 m/4.

    m >= 8n/eps^2 lies inside that regime, since every degree is below
    2n <= eps^2 m/4.
    """
    return second_moment_partition(
        digraph, (), (), Fraction(1, 2), epsilon, seed
    )


def star_bisection(
    digraph: Digraph,
    a1: Iterable[int],
    a2: Iterable[int],
    decomposition: StarDecomposition,
    epsilon: float,
    seed: int,
) -> SampleOutcome:
    """Random bisection of B driven by a star decomposition: each apex lands
    on a uniform side, its leaves on the other, leftover vertices uniformly.

    Acceptance thresholds are the odd-component bisection bounds
    base + e(B)/4 + (n - tau)/8 - epsilon*n per direction, with tau the
    decomposition's `bisection_tau`.
    """
    s1, s2 = set(a1), set(a2)
    expect_b = set(range(digraph.n)) - s1 - s2
    if decomposition.covered() != expect_b:
        raise ValueError("decomposition does not cover exactly V minus A1, A2")
    eps = exact_fraction(epsilon)
    n = digraph.n
    tau = decomposition.bisection_tau

    def targets_of(prof: EdgeProfile) -> tuple[Fraction, Fraction]:
        gain = Fraction(prof.bb, 4) + Fraction(n - tau, 8) - eps * n
        return (
            prof.a1a2 + Fraction(prof.a1b + prof.ba2, 2) + gain,
            prof.a2a1 + Fraction(prof.ba1 + prof.a2b, 2) + gain,
        )

    def draw(side: list[int], rng: random.Random) -> None:
        for star in decomposition.stars:
            apex_side = 1 if rng.random() < 0.5 else 2
            side[star.apex] = apex_side
            other = 3 - apex_side
            for v in star.seed:
                if v != star.apex:
                    side[v] = other
            for v in star.leaves:
                side[v] = other
        for v in decomposition.leftover:
            side[v] = 1 if rng.random() < 0.5 else 2

    return _accept_loop(digraph, s1, s2, seed, targets_of, draw)
