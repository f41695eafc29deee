"""End-to-end bipartitioners for digraphs of minimum outdegree two and three.

The flow: dense inputs go straight to a uniform random partition; otherwise
high-degree vertices are split off, their internal edges stripped, and their
side assignment chosen to minimize the forward/backward gap.  A small gap is
finished by independent rounding of the rest; a large gap forces a rigid
surplus structure around a few huge vertices, finished either by a
star-decomposition bisection or (three huge vertices) by biased rounding.
Every run ends with a local search that keeps the exact cuts of the partition
it returns, and the run reports those against its target.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import compress, filterfalse
from operator import add, le
from typing import Any, Sequence

# cut_stats is bound for the benchmark's spans, which wrap it in every module
from .core import (
    Bipartition, CutStats, Digraph, GraphInputError, StructuralDiagnostic,
    _cut_counts, _from_rows, cut_stats,
)
from .decomposition import star_decompose
from .samplers import (
    exact_fraction,
    SampleOutcome,
    quarter_partition,
    second_moment_partition,
    star_bisection,
)

DENSE_EPSILON = {2: Fraction(1, 12), 3: Fraction(1, 20)}
# quarter_partition's regime m >= 8n/eps^2: 1152 n for d=2, 3200 n for d=3
DENSE_THRESHOLD = {d: int(8 / eps**2) for d, eps in DENSE_EPSILON.items()}
GAP_FRACTION = {2: Fraction(1, 3), 3: Fraction(1, 5)}
ODD_BOUND_DIVISOR = {2: 3, 3: 5}
RESTART_MAX_N = 32
RESTART_COUNT = 8
LARGE_DEGREE_EXPONENT = 0.75


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one pipeline run; defaults follow the published constants."""

    d: int
    epsilon: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or self.d not in (2, 3):
            raise ValueError(f"d must be 2 or 3, got {self.d!r}")
        # a float, so that the run's report serializes as JSON
        if not isinstance(self.epsilon, float) or not 0 < self.epsilon < 0.25:
            raise ValueError(f"epsilon must lie in (0, 1/4), got {self.epsilon!r}")


@dataclass(frozen=True)
class GapSplit:
    """min_gap's answer in index space: the positions of the surpluses placed
    in A1 and in A2, and the gap theta >= 0 they leave."""

    a1: tuple[int, ...]
    a2: tuple[int, ...]
    theta: int


@dataclass(frozen=True)
class GapPartition:
    """Split of the large-vertex set with its forward/backward imbalance:
    theta = m_a_f - m_a_b, the forward minus the backward edges at A."""

    a1: tuple[int, ...]
    a2: tuple[int, ...]
    theta: int
    m_a_f: int
    m_a_b: int


@dataclass(frozen=True)
class SurplusProfile:
    """Per-vertex directional imbalances of the large set toward the rest.

    signed_surplus[i] = d+(v) - d-(v) for vertices[i], counted after the
    edges inside the large set were stripped.  huge lists the vertices with
    |surplus| >= theta, largest surplus first; g sums the other surpluses;
    b counts buffer pairs: 2b = sum over A of (d(v) - |surplus(v)|).
    """

    vertices: tuple[int, ...]
    signed_surplus: tuple[int, ...]
    theta: int
    huge: tuple[int, ...]
    delta_list: tuple[int, ...]
    g: int
    b: int

    @property
    def delta(self) -> int:
        return self.delta_list[0] if self.delta_list else 0


def split_large(
    digraph: Digraph,
) -> tuple[tuple[int, ...], tuple[int, ...], Digraph, int]:
    """Split off A, the vertices of total degree >= n^LARGE_DEGREE_EXPONENT,
    and strip the edges inside A; returns (A, B, stripped digraph, removed).

    When no edge runs inside A the input itself (immutable) is returned as
    the stripped digraph, so the common case costs O(n + vol A), no copy.
    """
    n = digraph.n
    threshold = n**LARGE_DEGREE_EXPONENT
    degrees = map(add, map(len, digraph._out), map(len, digraph._in))
    # partial(le, threshold)(deg) is threshold <= deg
    large = tuple(compress(range(n), map(partial(le, threshold), degrees)))
    aset = set(large)
    rest = tuple(filterfalse(aset.__contains__, range(n)))
    removed = sum(len(aset.intersection(digraph.out_neighbors(u))) for u in large)
    if not removed:
        return large, rest, digraph, 0
    rows = list(map(list, digraph._out))
    for u in large:
        rows[u] = [v for v in rows[u] if v not in aset]
    # rows of a valid graph with some heads dropped, which the builder accepts
    return large, rest, _from_rows(rows), removed


def min_gap(surpluses: Sequence[int]) -> GapSplit:
    """Exact minimizer of the absolute gap over all 2^|A| sign choices,
    by subset-sum reachability over the surplus magnitudes (normalized so
    the returned gap is nonnegative).  Bit f of `reach` is set iff some
    choice sends a forward total f; the best f <= total // 2 is the highest
    such bit, read with one bit_length."""
    mags = [abs(s) for s in surpluses]
    total = sum(mags)
    nonzero = [(i, v) for i, v in enumerate(mags) if v > 0]
    reach = 1
    prefixes = [1]
    for _, v in nonzero:
        reach |= reach << v
        prefixes.append(reach)
    # bit 0 (the empty choice) is always set, so best_f >= 0
    best_f = (reach & ((2 << (total // 2)) - 1)).bit_length() - 1
    forward = [False] * len(surpluses)
    target = best_f
    for k in range(len(nonzero) - 1, -1, -1):
        i, v = nonzero[k]
        if not (prefixes[k] >> target & 1):
            forward[i] = True
            target -= v
    if target != 0:
        raise StructuralDiagnostic(
            "subset-sum backtrack did not reach the chosen forward total",
            {"surpluses": list(surpluses), "best_f": best_f, "left": target},
        )
    return _assemble_gap(surpluses, forward, 2 * best_f - total)


def _goes_to_a1(surplus: int, forward: bool) -> bool:
    """The placement rule: a nonzero surplus pointing the `forward` way goes
    to A1; everything else, zero included, goes to A2."""
    return surplus != 0 and (surplus > 0) == forward


def _assemble_gap(
    surpluses: Sequence[int], forward: Sequence[bool], signed_theta: int
) -> GapSplit:
    a1, a2 = [], []
    for i, s in enumerate(surpluses):
        (a1 if _goes_to_a1(s, forward[i]) else a2).append(i)
    if signed_theta < 0:
        a1, a2 = a2, a1
        signed_theta = -signed_theta
    return GapSplit(tuple(a1), tuple(a2), signed_theta)


def _signed_surpluses(stripped: Digraph, large: Sequence[int]) -> list[int]:
    return [stripped.out_degree(v) - stripped.in_degree(v) for v in large]


def gap_partition(stripped: Digraph, large: Sequence[int]) -> GapPartition:
    """min_gap over the large set's surpluses, lifted back to vertex ids and
    annotated with the exact forward/backward edge counts.

    With no edge inside A every edge at A ends in B, so the counts come from
    degrees in O(|A|): m_A_f = sum over A1 of d+ plus sum over A2 of d-, and
    m_A_b the other way round.
    """
    aset = set(large)
    if len(aset) != len(large) or not all(0 <= v < stripped.n for v in aset):
        raise ValueError(f"large set must be distinct vertex ids in [0, {stripped.n})")
    if any(not aset.isdisjoint(stripped.out_neighbors(u)) for u in large):
        raise ValueError("gap partition requires the large set to induce no edges")
    raw = min_gap(_signed_surpluses(stripped, large))
    a1 = tuple(large[i] for i in raw.a1)
    a2 = tuple(large[i] for i in raw.a2)
    out, in_ = stripped.out_degree, stripped.in_degree
    m_a_f = sum(map(out, a1)) + sum(map(in_, a2))
    m_a_b = sum(map(in_, a1)) + sum(map(out, a2))
    if m_a_f - m_a_b != raw.theta:
        raise StructuralDiagnostic(
            "gap identity violated: m_A_f - m_A_b != theta",
            {"theta": raw.theta, "m_a_f": m_a_f, "m_a_b": m_a_b},
        )
    return GapPartition(a1, a2, raw.theta, m_a_f, m_a_b)


def surplus_profile(
    stripped: Digraph, large: Sequence[int], theta: int
) -> SurplusProfile:
    """Surpluses, huge vertices (surplus >= theta), and buffer-pair count."""
    vertices = tuple(sorted(large))
    signed = tuple(_signed_surpluses(stripped, vertices))
    mags = [abs(s) for s in signed]
    ranked = sorted(zip(vertices, mags), key=lambda t: (-t[1], t[0]))
    huge = tuple(v for v, s in ranked if s >= theta)
    delta_list = tuple(s for _, s in ranked if s >= theta)
    g = sum(s for _, s in ranked if s < theta)
    two_b = sum(stripped.degree(v) - abs(sg) for v, sg in zip(vertices, signed))
    if two_b % 2:
        raise StructuralDiagnostic(
            "odd buffer count: degree minus surplus must be even per vertex",
            {"two_b": two_b, "large": list(vertices)},
        )
    return SurplusProfile(vertices, signed, theta, huge, delta_list, g, two_b // 2)


def local_search(
    digraph: Digraph, partition: Bipartition, start: CutStats, two: list[int]
) -> tuple[Bipartition, CutStats]:
    """Flip single vertices while any flip lexicographically raises
    (min(e12, e21), e12 + e21), starting from `partition`, whose cuts `start`
    and per-vertex side-2 end counts `two` are as core._cut_counts returns
    them; returns the result and its cuts, never with a smaller min cut than
    the input.  No row is read before the first pass, and `two` is copied,
    not changed.

    The tie-breaking plateau moves cost nothing on the primary objective but
    let the search walk out of shallow local optima on small instances.

    two[v] counts the side-2 ends of v's edges, so a visit costs O(1) and a
    flip of v O(deg v) (Fiduccia-Mattheyses gains).  The first pass visits
    every vertex.  Later passes visit, in the same order, only the vertices
    whose flag allows the flip to pass: with a and b the changes to e12 and
    e21 if v flips, up12[v] is (a, b) > (0, 0) as tuples, which the
    lexicographic test needs while e12 <= e21, and up21[v] is (b, a) > (0, 0),
    needed while e21 < e12.  A visit recomputes v's flags and a flip raises
    both flags of every neighbour, so each skipped visit is one that fails.
    """
    side = list(partition.side)
    out, in_ = digraph._out, digraph._in
    two = two.copy()
    indeg, outdeg = list(map(len, in_)), list(map(len, out))
    e12, e21 = start.e12, start.e21
    low, total = min(e12, e21), e12 + e21
    improved = False
    # list iterators read the live lists, so each visit sees earlier flips
    for v, (s, c, i, o) in enumerate(zip(side, two, indeg, outdeg)):
        # moving v from side 1 to side 2 changes e12 by (in-edges from
        # side 1) - (out-edges to side 2) = i - c; e21 likewise by o - c
        if s == 1:
            n12, n21 = e12 + i - c, e21 + o - c
        else:
            n12, n21 = e12 - i + c, e21 - o + c
        new_low = n12 if n12 < n21 else n21
        if new_low > low or (new_low == low and n12 + n21 > total):
            side[v] = 3 - s
            step = 1 if s == 1 else -1
            for t in out[v] + in_[v]:
                two[t] += step
            e12, e21, low, total = n12, n21, new_low, n12 + n21
            improved = True
    if improved:
        up12, up21 = bytearray(digraph.n), bytearray(digraph.n)
        for v, (s, c, i, o) in enumerate(zip(side, two, indeg, outdeg)):
            if s == 1:
                a, b = i - c, o - c
            else:
                a, b = c - i, c - o
            if a > 0:
                up12[v] = 1
                up21[v] = b >= 0
            elif b > 0:
                up21[v] = 1
                up12[v] = a == 0
    while improved:
        improved = False
        flags = up12 if e12 <= e21 else up21
        v = flags.find(1)
        while v >= 0:
            s, c = side[v], two[v]
            if s == 1:
                a, b = indeg[v] - c, outdeg[v] - c
            else:
                a, b = c - indeg[v], c - outdeg[v]
            n12, n21 = e12 + a, e21 + b
            new_low = n12 if n12 < n21 else n21
            if new_low > low or (new_low == low and n12 + n21 > total):
                side[v] = 3 - s
                step = 1 if s == 1 else -1
                for t in out[v] + in_[v]:
                    two[t] += step
                    up12[t] = up21[t] = 1
                a, b = -a, -b
                e12, e21, low, total = n12, n21, new_low, n12 + n21
                flags = up12 if e12 <= e21 else up21
                improved = True
            if a > 0:
                up12[v] = 1
                up21[v] = b >= 0
            elif b > 0:
                up21[v] = 1
                up12[v] = a == 0
            else:
                up12[v] = up21[v] = 0
            v = flags.find(1, v + 1)
    return Bipartition(tuple(side)), CutStats(e12, e21)


def _polish(
    digraph: Digraph,
    partition: Bipartition,
    start: CutStats,
    two: list[int],
    seed: int,
) -> tuple[Bipartition, CutStats]:
    """Local search from the sampled partition, with its counts as
    local_search takes them; tiny instances also restart from a few seeded
    random partitions, keeping the best result seen.  Returns the best
    partition and its exact cuts.

    Sampler guarantees are asymptotic, so at very small n the hill climb does
    real work; restarts are deterministic per seed.
    """
    best, best_stats = local_search(digraph, partition, start, two)
    if digraph.n <= RESTART_MAX_N:
        best_key = best_stats.min_cut, best_stats.total
        rng = random.Random(seed)
        for _ in range(RESTART_COUNT):
            restart = Bipartition(
                tuple(1 if rng.random() < 0.5 else 2 for _ in range(digraph.n))
            )
            candidate, cand_stats = local_search(
                digraph, restart, *_cut_counts(digraph, restart)
            )
            cand_key = cand_stats.min_cut, cand_stats.total
            if cand_key > best_key:
                best, best_stats, best_key = candidate, cand_stats, cand_key
    return best, best_stats


def guarantee_target(d: int, m: int, epsilon: float) -> Fraction:
    """Exact target ((d-1)/(2(2d-1)) - epsilon) * m; 1/6 and 1/5 of m at eps=0."""
    if not isinstance(d, int) or d not in (2, 3):
        raise ValueError(f"d must be 2 or 3, got {d!r}")
    return (Fraction(d - 1, 2 * (2 * d - 1)) - exact_fraction(epsilon)) * m


@dataclass(frozen=True)
class PartitionResult:
    """Final bipartition with its exact stats, target, and branch trace."""

    partition: Bipartition
    stats: CutStats
    guarantee: float
    achieved_ratio: float
    meets_guarantee: bool
    branch_trace: tuple[dict[str, Any], ...]
    removed_a_edges: int


def _sampler_record(kind: str, outcome: SampleOutcome) -> dict[str, Any]:
    rec = {
        "step": "sampler",
        "kind": kind,
        "accepted": outcome.accepted,
        "attempts": outcome.attempts_used,
        "targets": [str(t) for t in outcome.targets],
        "e12": outcome.stats.e12,
        "e21": outcome.stats.e21,
    }
    if outcome.warning:
        rec["warning"] = outcome.warning
    return rec


def _outdegree_error(deg: int, v: int, d: int) -> GraphInputError:
    """The error for a digraph whose vertex v, the first of the least
    outdegree deg, is below the pipeline's d."""
    return GraphInputError(f"minimum outdegree {deg} at vertex {v}; need at least {d}")


def run(digraph: Digraph, config: PipelineConfig) -> PartitionResult:
    """Partition a digraph of minimum outdegree config.d (2 or 3), targeting
    (1/6 - eps) m or (1/5 - eps) m."""
    if digraph.n == 0:
        raise GraphInputError("empty graph")
    deg = digraph.min_out_degree()
    if deg < config.d:
        raise _outdegree_error(deg, digraph.argmin_out_degree(), config.d)
    trace: list[dict[str, Any]] = []
    m, n = digraph.m, digraph.n
    cutoff = DENSE_THRESHOLD[config.d]
    dense = m >= cutoff * n
    trace.append(
        {"step": "density", "m": m, "n": n, "cutoff": cutoff, "dense": dense}
    )
    if dense:
        outcome = quarter_partition(
            digraph, DENSE_EPSILON[config.d], config.seed
        )
        trace.append(_sampler_record("quarter", outcome))
        removed = 0
    else:
        outcome, removed = _sparse_branches(digraph, config, trace)
    # the sampler counted on the input itself unless split_large stripped it
    if removed == 0:
        start, two = outcome.stats, outcome.two
    else:
        start, two = _cut_counts(digraph, outcome.partition)
    partition, stats = _polish(digraph, outcome.partition, start, two, config.seed)
    trace.append(
        {
            "step": "local_search",
            "min_cut_before": start.min_cut,
            "min_cut_after": stats.min_cut,
        }
    )
    target = guarantee_target(config.d, m, config.epsilon)
    return PartitionResult(
        partition=partition,
        stats=stats,
        guarantee=float(target),
        achieved_ratio=stats.min_cut / m,  # m >= d n > 0 past the outdegree check
        meets_guarantee=stats.min_cut >= target,
        branch_trace=tuple(trace),
        removed_a_edges=removed,
    )


def _sparse_branches(
    digraph: Digraph, config: PipelineConfig, trace: list[dict[str, Any]]
) -> tuple[SampleOutcome, int]:
    large, rest, stripped, removed = split_large(digraph)
    trace.append(
        {
            "step": "split_large",
            "large_count": len(large),
            "large": list(large[:64]),
            "removed": removed,
        }
    )
    gp = gap_partition(stripped, large)
    ms = stripped.m
    gap_bound = GAP_FRACTION[config.d] * ms
    small_gap = gp.theta <= gap_bound
    trace.append(
        {
            "step": "gap",
            "theta": gp.theta,
            "bound": float(gap_bound),
            "m_a_f": gp.m_a_f,
            "m_a_b": gp.m_a_b,
            "branch": "second_moment" if small_gap else "structural",
        }
    )
    if small_gap:
        outcome = second_moment_partition(
            stripped, gp.a1, gp.a2, Fraction(1, 2), config.epsilon / 2,
            config.seed,
        )
        trace.append(_sampler_record("second_moment", outcome))
        return outcome, removed

    profile = surplus_profile(stripped, large, gp.theta)
    trace.append(
        {
            "step": "surplus_profile",
            "huge": list(profile.huge),
            "delta_list": list(profile.delta_list),
            "g": profile.g,
            "b": profile.b,
            "theta": profile.theta,
        }
    )
    if profile.theta > profile.delta:
        raise StructuralDiagnostic(
            "gap exceeds the maximum surplus, impossible for a minimal gap",
            {"theta": profile.theta, "delta": profile.delta},
        )
    if not profile.huge:
        raise StructuralDiagnostic(
            "no huge vertex although the gap exceeds its bound",
            {"theta": profile.theta, "delta_list": list(profile.delta_list)},
        )
    if ms < profile.b + config.d * len(rest):
        # b buffer edges leave the large set and every other vertex keeps
        # its d out-edges, so this cannot happen for valid input
        raise StructuralDiagnostic(
            "edge count below the buffer plus outdegree lower bound",
            {"m": ms, "b": profile.b, "rest": len(rest), "d": config.d},
        )
    if config.d == 2:
        _check_d2_structure(profile, gp)
        return _bisection_branch(stripped, rest, config, gp, profile, trace), removed
    count = len(profile.huge)
    if count not in (1, 3):
        raise StructuralDiagnostic(
            f"{count} huge vertices after the gap bound; only 1 or 3 can occur",
            {"huge": list(profile.huge), "delta_list": list(profile.delta_list)},
        )
    if profile.g > profile.delta - profile.theta:
        raise StructuralDiagnostic(
            "non-huge surpluses exceed delta - theta",
            {"g": profile.g, "delta": profile.delta, "theta": profile.theta},
        )
    if count == 1:
        return _bisection_branch(stripped, rest, config, gp, profile, trace), removed
    return _three_huge_branch(stripped, config, profile, trace), removed


def _forward_backward(profile: SurplusProfile, gp: GapPartition):
    """The (vertex, |surplus|) pairs whose surplus points forward (out of A1,
    into A2) and those pointing backward, in vertex order; zeros in neither."""
    fwd, bwd = [], []
    a1 = set(gp.a1)
    for v, s in zip(profile.vertices, profile.signed_surplus):
        if s != 0:
            (fwd if (s > 0) == (v in a1) else bwd).append((v, abs(s)))
    return fwd, bwd


def _check_d2_structure(profile: SurplusProfile, gp: GapPartition) -> None:
    """With a minimal gap above m/3 there is exactly one forward vertex; it
    carries the maximum surplus and the backward surpluses sum to delta-theta."""
    fwd, bwd = _forward_backward(profile, gp)
    backward_sum = sum(s for _, s in bwd)
    ok = (
        len(fwd) == 1
        and fwd[0][1] == profile.delta
        and backward_sum == profile.delta - profile.theta
        and (fwd[0][0],) == profile.huge
    )
    if not ok:
        raise StructuralDiagnostic(
            "large-vertex structure violated for minimum outdegree two",
            {
                "forward": [v for v, _ in fwd],
                "backward": [v for v, _ in bwd],
                "backward_sum": backward_sum,
                "delta": profile.delta,
                "theta": profile.theta,
                "huge": list(profile.huge),
            },
        )


def _bisection_branch(
    stripped: Digraph,
    rest: Sequence[int],
    config: PipelineConfig,
    gp: GapPartition,
    profile: SurplusProfile,
    trace: list[dict[str, Any]],
) -> SampleOutcome:
    d = config.d
    eps_bis = config.epsilon / 4
    decomp = star_decompose(
        stripped, rest, epsilon=eps_bis, prefer_antiparallel=(d == 3)
    )
    slack = profile.delta - profile.theta + profile.b
    bound = Fraction(stripped.n + 2 * slack, ODD_BOUND_DIVISOR[d])
    observed = decomp.bisection_tau
    if observed > bound:
        raise StructuralDiagnostic(
            "odd/tight component count exceeds its structural bound",
            {
                "observed": observed,
                "bound": str(bound),
                "delta": profile.delta,
                "theta": profile.theta,
                "b": profile.b,
            },
        )
    cap_c = DENSE_THRESHOLD[d]
    gamma = (exact_fraction(config.epsilon) / 4) ** 4 / (1024 * Fraction(cap_c) ** 3)
    gamma_n = gamma * stripped.n
    out, in_ = stripped._out, stripped._in
    max_b_degree = max([len(out[v]) + len(in_[v]) for v in rest], default=0)
    trace.append(
        {
            "step": "bisection",
            "tau": decomp.tau,
            "tight": len(decomp.tight),
            "sigma": decomp.sigma,
            "tau_prime": decomp.tau_prime,
            "component_bound": float(bound),
            "stars": len(decomp.stars),
            "leftover": len(decomp.leftover),
            "gamma": float(gamma),
            "gamma_condition": len(profile.vertices) <= gamma_n
            and max_b_degree <= gamma_n,
        }
    )
    outcome = star_bisection(
        stripped, gp.a1, gp.a2, decomp, eps_bis, config.seed
    )
    trace.append(_sampler_record("star_bisection", outcome))
    return outcome


def _three_huge_branch(
    stripped: Digraph,
    config: PipelineConfig,
    profile: SurplusProfile,
    trace: list[dict[str, Any]],
) -> SampleOutcome:
    v1 = profile.huge[0]
    d1, d2, d3 = profile.delta_list
    g = profile.g
    case1 = 2 * d1 - d2 - d3 - g > 0
    a1: list[int] = []
    a2: list[int] = []
    for v, s in zip(profile.vertices, profile.signed_surplus):
        # the largest huge vertex goes forward, the other two backward; case 1
        # sends the small surpluses backward (X,Y)=(0,g), case 2 forward
        forward = v == v1 if v in profile.huge else not case1
        (a1 if _goes_to_a1(s, forward) else a2).append(v)
    # v1 goes forward, so it lands in A1 exactly when its surplus is positive
    p = Fraction(2, 5) if v1 in a1 else Fraction(3, 5)
    eps = config.epsilon / 2
    outcome = second_moment_partition(
        stripped, a1, a2, p, eps, config.seed
    )
    # the sampler's thresholds sit eps*m below the expected cuts
    slack = exact_fraction(eps) * stripped.m
    m12, m21 = (t + slack for t in outcome.targets)
    fifth = Fraction(stripped.m, 5)
    trace.append(
        {
            "step": "three_huge",
            "case": 1 if case1 else 2,
            "p": str(p),
            "x": 0 if case1 else g,
            "y": g if case1 else 0,
            "deltas": [d1, d2, d3],
            "expected_forward": str(m12),
            "expected_backward": str(m21),
            "means_reach_fifth": m12 >= fifth and m21 >= fifth,
        }
    )
    trace.append(_sampler_record("second_moment_biased", outcome))
    return outcome
