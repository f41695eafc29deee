import contextlib
import gc
import json
import random
import re
import tracemalloc
from bisect import bisect_right
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dicut.core as core_mod
from dicut import pipeline
from dicut.cli import main
from dicut.core import (
    Bipartition,
    Digraph,
    GraphInputError,
    cut_stats,
    format_edge_list,
    format_partition,
    parse_edge_list,
    parse_partition,
)
from dicut.generators import (
    GadgetSpec,
    complete_antiparallel,
    eulerian_complete,
    lower_bound_gadget,
    random_min_outdeg,
)

from .conftest import (
    antiparallel_pairs,
    edges_of,
    from_edge_list,
    induced,
    induced_rows,
    random_digraph,
    reference_digraph,
    underlying,
    undirected,
)
from .exhaustive import all_bipartitions
from .test_pipeline import _rescanning_sweep


def three_cycle() -> Digraph:
    return from_edge_list([(0, 1), (1, 2), (2, 0)])


class TestDigraphConstruction:
    def test_three_cycle_degrees(self):
        g = three_cycle()
        assert g.n == 3 and g.m == 3
        assert all(
            (g.out_degree(v), g.in_degree(v), g.degree(v)) == (1, 1, 2)
            for v in range(3)
        )

    def test_antiparallel_pair_allowed(self):
        g = from_edge_list([(0, 1), (1, 0)])
        assert g.m == 2
        assert antiparallel_pairs(g) == 1

    def test_from_edge_list_reads_a_one_shot_iterator(self):
        pairs = [(0, 1), (1, 0), (1, 2)]
        g = from_edge_list(p for p in pairs)
        assert (g.n, g.m) == (3, 3)
        assert g.edges == tuple(sorted(pairs))

    def test_loop_rejected_with_position(self):
        with pytest.raises(GraphInputError, match=r"edge #0 \(0,0\).*loop"):
            from_edge_list([(0, 0)])

    def test_duplicate_rejected_with_position(self):
        with pytest.raises(GraphInputError, match=r"edge #2.*duplicate"):
            Digraph(3, [(0, 1), (1, 2), (0, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphInputError, match="out of range"):
            Digraph(2, [(0, 5)])

    def test_degree_cap_invariant(self):
        rng = random.Random(3)
        g = random_digraph(rng, 9, 0.5)
        assert all(g.degree(v) <= 2 * (g.n - 1) for v in range(g.n))
        assert g.m == sum(g.out_degree(v) for v in range(g.n))


class TestCutStats:
    def test_three_cycle_split(self):
        stats = cut_stats(three_cycle(), Bipartition((1, 2, 2)))
        assert (stats.e12, stats.e21) == (1, 1)
        assert stats.min_cut == 1

    def test_all_one_side(self):
        stats = cut_stats(three_cycle(), Bipartition((1, 1, 1)))
        assert (stats.e12, stats.e21) == (0, 0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="covers 2"):
            cut_stats(three_cycle(), Bipartition((1, 2)))

    def test_matches_per_edge_recount_on_every_bipartition(self):
        # antiparallel pairs {0, 1} and {2, 3}; 4 and 5 are isolated; the
        # bipartitions include all on side 1 and all on side 2
        g = Digraph(6, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 0), (3, 2)])
        for part in all_bipartitions(6, fixed_side1=None):
            stats = cut_stats(g, part)
            assert (stats.e12, stats.e21) == recount(g, part.side)

    def test_eulerian_k5_always_balanced(self):
        g = eulerian_complete(5)
        for part in all_bipartitions(5):
            stats = cut_stats(g, part)
            assert stats.e12 == stats.e21


def hub_digraph() -> Digraph:
    """Out- and in-lists of lengths 0, 1, 2 and >= 1000 (vertex 0, the hub)."""
    n = 1007
    pairs = [(0, v) for v in range(1, n - 1)] + [(v, 0) for v in range(3, n - 1)]
    pairs += [(2, 1), (2, 3), (n - 1, 1)]
    return Digraph(n, pairs)


def recount(g: Digraph, side) -> tuple[int, int]:
    """(e12, e21) edge by edge from `edges`."""
    e12 = sum(1 for u, v in g.edges if side[u] == 1 and side[v] == 2)
    e21 = sum(1 for u, v in g.edges if side[u] == 2 and side[v] == 1)
    return e12, e21


def hub_partitions(n: int) -> list[Bipartition]:
    rng = random.Random(5)
    sides = [(1,) * n, (2,) * n, tuple(1 + v % 2 for v in range(n))]
    sides.append((2,) + (1,) * (n - 1))  # the hub alone on side 2
    sides += [tuple(rng.choice((1, 2)) for _ in range(n)) for _ in range(4)]
    return [Bipartition(s) for s in sides]


class TestGatherEdgeCases:
    """cut_stats and the polish count side-2 ends over lists of every length,
    from empty ones to the hub's 1000 and more."""

    def test_hub_digraph_has_every_list_length(self):
        g = hub_digraph()
        for lists in (g._out, g._in):
            lengths = set(map(len, lists))
            assert {0, 1, 2} <= lengths and max(lengths) >= 1000

    def test_cut_stats_matches_per_edge_recount(self):
        g = hub_digraph()
        for part in hub_partitions(g.n):
            stats = cut_stats(g, part)
            assert (stats.e12, stats.e21) == recount(g, part.side)

    def test_local_search_matches_per_edge_recount(self):
        g = hub_digraph()
        for part in hub_partitions(g.n):
            start, ends = core_mod._cut_counts(g, part)
            result, stats = pipeline.local_search(g, part, start, ends)
            assert (stats.e12, stats.e21) == recount(g, result.side)
            assert result == _rescanning_sweep(g, part, start)

    def test_verify_matches_per_edge_recount(self, tmp_path, capsys):
        g = hub_digraph()
        graph_file = tmp_path / "hub.el"
        core_mod.write_edge_list(g, str(graph_file))
        for part in hub_partitions(g.n):
            part_file = tmp_path / "hub.part"
            core_mod.write_partition(part, str(part_file))
            capsys.readouterr()
            assert main(["verify", "-i", str(graph_file), "-p", str(part_file),
                         "--json"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert (data["e12"], data["e21"]) == recount(g, part.side)

    @pytest.mark.parametrize("bad", [0, 3, "1"])
    def test_bipartition_rejects_bad_labels(self, bad):
        for side in ((bad,), (1, 2, bad), (bad, 2, 1, 1)):
            with pytest.raises(ValueError, match=r"^side labels must be 1 or 2$"):
                Bipartition(side)


@st.composite
def digraphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pool = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))) if pool else []
    return Digraph(n, chosen)


@st.composite
def digraph_with_sides(draw):
    """A digraph of digraphs() with side labels, all on side 1, all on side
    2 or mixed."""
    g = draw(digraphs())
    mixed = st.lists(st.sampled_from((1, 2)), min_size=g.n, max_size=g.n)
    side = draw(st.one_of(st.just([1] * g.n), st.just([2] * g.n), mixed))
    return g, Bipartition(tuple(side))


@given(digraph_with_sides())
@example((Digraph(1, []), Bipartition((2,))))
@example((Digraph(3, [(0, 1), (1, 0)]), Bipartition((2, 2, 1))))
@settings(max_examples=200, deadline=None)
def test_cut_counts_scatter_matches_edge_by_edge_count(case):
    """Every two[v] and both cuts of the scatter, against a count over
    `edges`; the sweep started from them reports its result's exact cuts."""
    g, part = case
    side = part.side
    stats, two = core_mod._cut_counts(g, part)
    expected = [0] * g.n
    for u, v in g.edges:
        expected[u] += side[v] == 2
        expected[v] += side[u] == 2
    assert two == expected
    assert (stats.e12, stats.e21) == recount(g, side)
    result, swept = pipeline.local_search(g, part, stats, two)
    assert two == expected  # the sweep updates a copy
    assert swept == cut_stats(g, result)


@given(digraph_with_sides())
@example((Digraph(0, []), Bipartition(())))
@example((Digraph(2, [(0, 1), (1, 0)]), Bipartition((1, 1))))
@example((Digraph(2, [(0, 1), (1, 0)]), Bipartition((2, 2))))
@example((Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1)]), Bipartition((2, 2, 1))))
@settings(max_examples=200, deadline=None)
def test_cut_stats_intersection_matches_the_scatter(case):
    """cut_stats' per-row intersections give the cuts of _cut_counts' scatter
    on empty graphs, one-sided partitions and antiparallel pairs."""
    g, part = case
    assert cut_stats(g, part) == core_mod._cut_counts(g, part)[0]


@given(st.lists(st.sampled_from((1, 2)), max_size=300))
@example([])
@example([1] * 300)
@example([2] * 300)
@example([2, 1, 1, 2])
@settings(max_examples=200, deadline=None)
def test_side_string_matches_the_join(side):
    """Bipartition.side_string's one translate pass gives the characters a
    per-vertex join gives, on all-1 and all-2 sides too."""
    assert Bipartition(tuple(side)).side_string() == "".join(map(str, side))


@given(digraphs(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_edge_conservation(g, rng):
    side = tuple(rng.choice((1, 2)) for _ in range(g.n))
    part = Bipartition(side)
    stats = cut_stats(g, part)
    within = sum(1 for u, v in g.edges if side[u] == side[v])
    assert stats.e12 + stats.e21 + within == g.m


@given(digraphs(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_label_swap_swaps_cuts(g, rng):
    part = Bipartition(tuple(rng.choice((1, 2)) for _ in range(g.n)))
    a = cut_stats(g, part)
    b = cut_stats(g, Bipartition(tuple(3 - s for s in part.side)))
    assert (a.e12, a.e21) == (b.e21, b.e12)


@given(digraphs())
@settings(max_examples=60, deadline=None)
def test_underlying_collapses_antiparallel(g):
    assert len(edges_of(underlying(g))) == g.m - antiparallel_pairs(g)


@given(digraphs(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_induced_underlying_matches_two_builds(g, rng):
    keep = [v for v in range(g.n) if rng.random() < 0.7]
    sub, orig_ids = induced(g, keep)
    assert g.induced_underlying(reversed(keep)) == (underlying(sub), orig_ids)


@st.composite
def pair_lists(draw, max_n=7):
    """(n, pairs) with loop-free pairs; repeats allowed unless drawn unique."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    pair = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=1, max_value=n - 1),
    ).map(lambda t: (t[0], (t[0] + t[1]) % n))
    pairs = draw(st.lists(pair, max_size=3 * n, unique=draw(st.booleans())))
    return n, pairs


@given(pair_lists(), st.booleans(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_adjacency_agrees_with_edge_set(case, as_generator, rng):
    n, pairs = case
    edge_set = set(pairs)
    norm = {(min(e), max(e)) for e in edge_set}
    assert edges_of(undirected(n, pairs)) == tuple(sorted(norm))
    arg = (e for e in pairs) if as_generator else pairs
    if len(edge_set) < len(pairs):
        second = next(pos for pos, e in enumerate(pairs) if e in pairs[:pos])
        with pytest.raises(GraphInputError, match=rf"edge #{second} .*duplicate"):
            Digraph(n, arg)
        return
    g = Digraph(n, arg)
    assert g.edges == tuple(sorted(edge_set))
    assert g.m == len(edge_set)
    keep = sorted(rng.sample(range(n), rng.randint(0, n)))
    index = {v: i for i, v in enumerate(keep)}
    kept = tuple(
        sorted((index[u], index[v]) for u, v in norm if u in index and v in index)
    )
    assert edges_of(g.induced_underlying(keep)[0]) == kept
    back = parse_edge_list(format_edge_list(g))
    assert (back.n, back.edges) == (n, g.edges)
    side = tuple(rng.choice((1, 2)) for _ in range(n))
    stats = cut_stats(g, Bipartition(side))
    assert (stats.e12, stats.e21) == (
        sum(1 for u, v in edge_set if (side[u], side[v]) == (1, 2)),
        sum(1 for u, v in edge_set if (side[u], side[v]) == (2, 1)),
    )
    und = underlying(g)
    assert edges_of(und) == tuple(sorted(norm))
    assert edges_of(induced_rows(und, keep)[0]) == kept
    for u in range(-2, n + 2):
        for v in range(-2, n + 2):
            assert g.has_edge(u, v) == ((u, v) in edge_set)


def construction_outcome(build, n, pairs):
    """(n, m, out-lists, in-lists), or the exception's type and message."""
    try:
        got = build(n, pairs)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    if isinstance(got, Digraph):
        return got.n, got.m, got._out, got._in
    return got


@st.composite
def raw_pair_lists(draw):
    """(n, pairs) with ids from -2 to n + 1, so that negative ids, ids >= n,
    loops and repeats all occur, each somewhere in the list."""
    n = draw(st.integers(min_value=-1, max_value=7))
    vid = st.integers(min_value=0, max_value=max(n - 1, 0))
    if draw(st.booleans()):
        vid = st.integers(min_value=-2, max_value=n + 1)
    pairs = draw(st.lists(st.tuples(vid, vid), max_size=20))
    if pairs and draw(st.booleans()):  # repeat an earlier pair
        pos = draw(st.integers(min_value=0, max_value=len(pairs)))
        pairs.insert(pos, draw(st.sampled_from(pairs)))
    return n, pairs


@given(raw_pair_lists(), st.booleans())
@example((3, [(0, 1), (-1, 0)]), False)  # out[-1] would take it as the edge (2, 0)
@example((3, [(0, 1), (1, -1)]), False)
@example((3, [(0, 1), (3, 0)]), True)
@example((3, [(0, 1), (0, 3), (1, 1)]), False)  # range before a later loop
@example((3, [(0, 1), (0, 1), (2, 2)]), False)  # a loop anywhere before a repeat
@example((3, [(0, 1), (0, 1), (3, 0)]), True)
@example((0, [(0, 0)]), False)
@settings(max_examples=400, deadline=None)
def test_digraph_matches_per_edge_reference(case, as_generator):
    n, pairs = case
    arg = (e for e in pairs) if as_generator else pairs
    expected = construction_outcome(reference_digraph, n, pairs)
    assert construction_outcome(Digraph, n, arg) == expected


def test_digraph_retains_adjacency_only():
    # the sorted out- and in-lists hold one reference per edge each; a stored
    # tuple of (u, v) tuples would add about 64 B per edge on top
    pairs = complete_antiparallel(200).edges
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = Digraph(200, pairs)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / g.m < 32


class TestUnderlying:
    def test_antiparallel_collapse(self):
        g = from_edge_list([(0, 1), (1, 0)])
        assert edges_of(underlying(g)) == ((0, 1),)

    def test_three_cycle_triangle(self):
        assert len(edges_of(underlying(three_cycle()))) == 3

    def test_eulerian_k7(self):
        und = underlying(eulerian_complete(7))
        assert len(edges_of(und)) == 21
        assert all(len(row) == 6 for row in und)

    @pytest.mark.parametrize("edge, message", [
        ((2, 2), "loop edge (2,2) in undirected graph"),
        ((0, 3), "edge (0,3): vertex id out of range"),
        ((-1, 1), "edge (-1,1): vertex id out of range"),
    ])
    def test_constructor_rejects_bad_edges(self, edge, message):
        with pytest.raises(GraphInputError, match=re.escape(message)):
            undirected(3, [(0, 1), edge])

    def test_induced_mapping(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 0), (0, 2)])
        rows, orig = g.induced_underlying([2, 0])
        assert orig == (0, 2)
        assert rows == ((1,), (0,))  # old (2,0) and (0,2) relabeled, collapsed

    @pytest.mark.parametrize(
        "ids, bad", [([-1, 0], -1), ([5], 5), ([0, 3, 4], 3), ([7, -2, 0, 5], -2)]
    )
    def test_induced_rejects_unknown_ids(self, ids, bad):
        digraph = three_cycle()
        message = re.escape(f"unknown vertex id {bad} (n=3)")
        with pytest.raises(GraphInputError, match=message):
            digraph.induced_underlying(ids)


class TestInterchangeFormats:
    def test_edge_list_round_trip(self):
        g = from_edge_list([(0, 1), (1, 0), (2, 1)])
        text = format_edge_list(g, comments=["demo instance"])
        back = parse_edge_list(text)
        assert back.n == g.n and back.edges == g.edges

    def test_header_mismatch(self):
        with pytest.raises(GraphInputError, match="promises"):
            parse_edge_list("2 3\n0 1\n")
        with pytest.raises(GraphInputError, match="header must be"):
            parse_edge_list("2\n0 1\n")
        with pytest.raises(GraphInputError, match="bad edge line '0 1 1'"):
            parse_edge_list("2 1\n0 1 1\n")

    def test_comments_ignored(self):
        g = parse_edge_list("# hello\n2 1\n# more\n0 1\n")
        assert g.m == 1

    def test_partition_round_trip(self):
        part = Bipartition((1, 2, 2, 1))
        assert parse_partition(format_partition(part), 4) == part

    def test_partition_errors(self):
        with pytest.raises(GraphInputError, match="side must be"):
            parse_partition("0 3\n1 1\n", 2)
        with pytest.raises(GraphInputError, match="covers 1 of 2"):
            parse_partition("0 1\n", 2)
        with pytest.raises(GraphInputError, match="duplicate"):
            parse_partition("0 1\n0 2\n", 2)
        with pytest.raises(GraphInputError, match="bad partition line '0 x'"):
            parse_partition("0 x\n", 2)
        with pytest.raises(GraphInputError, match="bad partition line '0 1 2'"):
            parse_partition("0 1 2\n1 1\n", 2)
        for line in ("2 1", "-1 2"):
            with pytest.raises(GraphInputError, match="vertex id out of range"):
                parse_partition(f"0 1\n{line}\n", 2)

    def test_partition_skips_comments_and_blank_lines(self):
        text = "# sides\n\n0 1\n   \n# vertex 1\n1 2\n"
        assert parse_partition(text, 2) == Bipartition((1, 2))


def test_all_bipartitions_counts():
    assert sum(1 for _ in all_bipartitions(4)) == 8
    assert sum(1 for _ in all_bipartitions(3, fixed_side1=None)) == 8


# ---------------------------------------------------------------------------
# Edge-list I/O against the line-by-line reader and the f-string writer that
# the sliced parser and the per-vertex writer replaced.
# ---------------------------------------------------------------------------


def reference_parse_edge_list(text):
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise GraphInputError("empty edge-list input")
    try:
        n, m = map(int, lines[0].split())
    except ValueError as exc:
        raise GraphInputError(f"header must be 'n m', got {lines[0]!r}") from exc
    body = lines[1:]
    if len(body) != m:
        raise GraphInputError(f"header promises {m} edges, found {len(body)}")
    pairs = []
    for ln in body:
        try:
            u, v = map(int, ln.split())
        except ValueError as exc:
            raise GraphInputError(f"bad edge line {ln!r}") from exc
        pairs.append((u, v))
    return Digraph(n, pairs)


def reference_format_edge_list(digraph, comments=()):
    out = []
    for c in comments:
        out.extend(f"# {ln}" for ln in c.splitlines() or [""])
    out.append(f"{digraph.n} {digraph.m}")
    out.extend(f"{u} {v}" for u, v in digraph.edges)
    return "\n".join(out) + "\n"


def parse_outcome(parse, text):
    """(n, out-lists, in-lists), or the exception's type and message."""
    try:
        g = parse(text)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return g.n, g._out, g._in


# every break str.splitlines honours besides "\n"
LINE_BREAKS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
BLANKS = [" ", "\t", "  ", "\x1f", "\xa0"]
# '+', '_' and Arabic-Indic digits are ints to int(); the rest are not
ODD_TOKENS = ["+1", "1_0", "\u0663", "-1", "x", "1.0", "0x1", ""]


@st.composite
def edge_list_texts(draw):
    """Edge-list texts, mostly valid, with every deviation the reader meets."""

    def rare():
        return draw(st.integers(min_value=0, max_value=15)) == 0

    n = draw(st.integers(min_value=-1, max_value=1) if rare() else st.integers(2, 30))
    vid = st.integers(min_value=-1, max_value=max(n, 0) + 1)
    messy = draw(st.booleans())

    def edge():
        if n < 2 or rare():  # may be a loop or out of range
            u, v = draw(vid), draw(vid)
        else:
            u = draw(st.integers(min_value=0, max_value=n - 1))
            v = (u + draw(st.integers(min_value=1, max_value=n - 1))) % n
        return f"{u} {v}"

    def line():
        """(line, whether it counts as an edge line)"""
        kind = draw(st.integers(min_value=0, max_value=11)) if messy else 0
        blank = st.sampled_from(BLANKS)
        if kind <= 5:
            return edge(), True
        if kind == 6:
            return draw(blank) * draw(st.integers(0, 2)) + "# c " + edge(), False
        if kind == 7:
            return draw(blank) * draw(st.integers(0, 2)), False
        if kind <= 9:
            return draw(blank) + edge() + draw(blank), True
        # 1 to 3 tokens joined by blanks; a comment or blank if it strips empty
        token = draw(st.sampled_from([vid.map(str), st.sampled_from(ODD_TOKENS)]))
        toks = draw(st.lists(token, min_size=1, max_size=3))
        text = draw(blank).join(toks)
        return text, bool(text.strip())

    lead = draw(st.lists(st.sampled_from(["", "  ", "# lead", "\t# x"]), max_size=2))
    body = [line() for _ in range(draw(st.integers(0, 12)))]
    m = sum(content for _, content in body)
    header = f"{n} {m}"
    if rare():
        header = draw(
            st.sampled_from([f"{n} {m + 1}", f"{n} {m - 1}", f"{n}", "x y", f"{n} {m} 0"])
        )
    lines = lead + [header] + [ln for ln, _ in body]
    breaks = st.sampled_from(["\n"] * 4 + LINE_BREAKS) if messy else st.just("\n")
    text = "".join(ln + draw(breaks) for ln in lines)
    if draw(st.booleans()):
        text = text.rstrip("\n")
    return text


@given(edge_list_texts(), st.integers(min_value=1, max_value=24))
@settings(max_examples=600, deadline=None)
def test_parse_edge_list_matches_line_reader(text, slice_chars):
    # slices of a few characters mix fast and line-by-line slices in one body
    with mock.patch.object(core_mod, "_SLICE_CHARS", slice_chars):
        got = parse_outcome(parse_edge_list, text)
    assert got == parse_outcome(reference_parse_edge_list, text)


@pytest.mark.parametrize(
    "text",
    [
        "3 2\n0 1\n1 2\n",
        "\n# c\n  \n3 2\r\n0 1\r\n1 2",
        "3 2\n0 1\n" + "1" * 5000 + " 2\n",  # beyond int's digit limit
        "3 2\n0 1\n007 2\n",  # leading zeros
        "2 3\n0 1\n0 2\n0 0\n",  # an id >= n after valid lines in one slice
        "1000000000000 1\n",  # count error before any allocation for n
        "3 3\n0 1\nx 2\n",  # count error wins over the bad line
        "3 1\n0 1\n1 2 3\n4\n",  # 4 tokens on 2 lines
        "3 2\n0 1\n0 1\n",
        "3 2\n0 1\n2 2\n",
        "3 2\n0 1\n0 3\n",
        "3 2\n0 1\u20281 2\n",
        "3 1\n0 \n1",  # two one-token lines, not the edge 0 1
        "-1 0\n",
        "# only comments\n\n",
    ],
)
@pytest.mark.parametrize("slice_chars", [1, 4, core_mod._SLICE_CHARS, 1 << 20])
def test_parse_edge_list_examples(text, slice_chars):
    with mock.patch.object(core_mod, "_SLICE_CHARS", slice_chars):
        got = parse_outcome(parse_edge_list, text)
    assert got == parse_outcome(reference_parse_edge_list, text)


def reference_parse_partition(text, n):
    """The line-by-line reader that the sliced parse_partition replaced."""
    side = [0] * n
    filled = 0
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        try:
            v, s = map(int, ln.split())
        except ValueError as exc:
            raise GraphInputError(f"bad partition line {ln!r}") from exc
        if not 0 <= v < n:
            raise GraphInputError(f"partition line {ln!r}: vertex id out of range")
        if s not in (1, 2):
            raise GraphInputError(f"partition line {ln!r}: side must be 1 or 2")
        if side[v] != 0:
            raise GraphInputError(f"partition line {ln!r}: duplicate vertex")
        side[v] = s
        filled += 1
    if filled != n:
        raise GraphInputError(f"partition covers {filled} of {n} vertices")
    return Bipartition(tuple(side))


@st.composite
def partition_texts(draw):
    """(text, n): partition files, mostly valid, with comments, blanks, odd
    tokens and every line break, so each message can come first."""
    n = draw(st.integers(min_value=0, max_value=8))
    token = st.one_of(
        st.integers(min_value=-1, max_value=n + 1).map(str),
        st.sampled_from(["1", "2", "0", "3"] + ODD_TOKENS),
    )
    order = draw(st.permutations(range(n)))
    lines = [f"{v} {draw(st.sampled_from('12'))}" for v in order]
    for _ in range(draw(st.integers(0, 4))):
        extra = draw(st.one_of(
            st.lists(token, min_size=1, max_size=3).map(" ".join),
            st.sampled_from(["", "  ", "# c", "\t# 0 1"]),
        ))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    pad = st.sampled_from([""] * 4 + BLANKS)
    breaks = st.sampled_from(["\n"] * 4 + LINE_BREAKS)
    text = "".join(draw(pad) + ln + draw(pad) + draw(breaks) for ln in lines)
    return text, n


@given(partition_texts(), st.integers(min_value=1, max_value=24))
@settings(max_examples=400, deadline=None)
def test_parse_partition_matches_line_reader(case, slice_chars):
    text, n = case

    def outcome(parse):
        try:
            return parse(text, n)
        except GraphInputError as exc:
            return str(exc)

    with mock.patch.object(core_mod, "_SLICE_CHARS", slice_chars):
        got = outcome(parse_partition)
    assert got == outcome(reference_parse_partition)


@pytest.mark.parametrize(
    "build, bound",
    [
        # few ids and long runs of one tail: the dense benchmark's shape
        (lambda: complete_antiparallel(400), 32),
        # 20,000 ids for 80,000 edges: the ids dict is most of the peak
        (lambda: random_min_outdeg(20000, 3, 1.0, 7), 64),
    ],
    ids=["complete_antiparallel-400", "random_min_outdeg-20000"],
)
def test_parse_edge_list_transient_peak_per_edge(build, bound):
    """What the parse allocates beyond the graph it returns stays a few
    slices' worth of tokens, not one string per token of the body."""
    text = format_edge_list(build())
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - retained) / g.m <= bound


# the regular expression that core._canonical_tokens's translate test replaced
CANONICAL = re.compile(r"(?:[0-9]+ [0-9]+\n)*")
_DIGIT_RUNS = st.text(alphabet="0123456789", min_size=1, max_size=3) | st.just("")
_NEAR_CANONICAL_LINES = st.builds(
    lambda a, sep, b, end: a + sep + b + end,
    _DIGIT_RUNS,
    st.sampled_from([" "] * 6 + ["  ", "\t", ""]),
    _DIGIT_RUNS,
    st.sampled_from(["\n"] * 6 + ["\r\n", " \n", "\r", ""]),
)


@given(
    st.one_of(
        st.text(alphabet="0123456789 \n\r\t#x-", max_size=40),
        st.lists(_NEAR_CANONICAL_LINES, max_size=6).map("".join),
    ).filter(bool)  # a slice is never empty
)
@example("0 \n0")  # a digit run after the last break, which translate drops
@settings(max_examples=600, deadline=None)
def test_canonical_tokens_agree_with_the_regex(chunk):
    tokens = core_mod._canonical_tokens(chunk)
    if CANONICAL.fullmatch(chunk):
        assert tokens == chunk.split()
    else:
        assert tokens is None


@pytest.mark.parametrize(
    "text, slice_chars, by_runs",
    [
        # slices "0 1\n0 2\n", "0 3\n1 0\n", "2 0\n": tail 0 spans two
        ("4 5\n0 1\n0 2\n0 3\n1 0\n2 0\n", 4, True),
        ("3 3\n1 2\n0 1\n2 0\n", 1 << 20, False),  # tails out of order
        # not canonical, so tokenized line by line, but still no line reader
        ("# c\n3 3\r\n0 1\r\n\n# x\n0 2\n\t1 2 ", 1 << 20, True),
    ],
)
def test_parse_edge_list_fills_by_runs_or_by_edge(text, slice_chars, by_runs):
    reader = core_mod._read_pairs
    with mock.patch.object(core_mod, "_SLICE_CHARS", slice_chars), \
            mock.patch.object(core_mod, "bisect_right", wraps=bisect_right) as runs, \
            mock.patch.object(core_mod, "_read_pairs", wraps=reader) as lines:
        got = parse_outcome(parse_edge_list, text)
    assert (runs.called, lines.called) == (by_runs, False)
    assert got == parse_outcome(reference_parse_edge_list, text)


# each text and the number of builds its parse makes: a loop is rejected by
# the id path's build and then by Digraph's
BUILDS = {
    "3 2\n0 1\n1 2\n": 1, "3 2\n0 1\n": 0, "3 1\n0 0\n": 2, "3 2\n0 1\nx 2\n": 0
}


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("text", list(BUILDS))
def test_parse_edge_list_pauses_and_restores_the_collector(monkeypatch, enabled, text):
    """The cyclic collector is off for the parse and the build, and the
    caller's state comes back afterwards, after a GraphInputError too."""
    during = []
    real = core_mod._build_adjacency

    def build(graph, out):
        during.append(gc.isenabled())
        return real(graph, out)

    monkeypatch.setattr(core_mod, "_build_adjacency", build)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with contextlib.suppress(GraphInputError):
            parse_edge_list(text)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False] * BUILDS[text]


def test_parse_edge_list_keeps_error_cause():
    with pytest.raises(GraphInputError, match="bad edge line 'x 2'") as info:
        parse_edge_list("3 2\n0 1\nx 2\n")
    assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize(
    "graph, comments",
    [
        (Digraph(0, []), ()),
        (Digraph(5, [(3, 1), (3, 0)]), ()),  # 0, 1, 2 and 4 have no out-edges
        (from_edge_list([(0, 1), (1, 0), (2, 1), (1, 2)]), ("pair",)),
        (complete_antiparallel(12), ()),
        (
            lower_bound_gadget(2, 3)[0],
            (GadgetSpec("lower_bound", {"d": 2, "k": 3}).label(), "v0 = 0"),
        ),
        (
            GadgetSpec("random_min_outdeg", {"n": 40, "d": 3, "extra": 0.5}).build(),
            (GadgetSpec("random_min_outdeg", {"n": 40, "d": 3, "extra": 0.5}).label(),),
        ),
    ],
)
def test_format_edge_list_matches_pair_writer(graph, comments):
    expected = reference_format_edge_list(graph, comments)
    assert format_edge_list(graph, comments) == expected


@given(digraphs(max_n=9), st.lists(st.text(max_size=5), max_size=2))
@settings(max_examples=100, deadline=None)
def test_format_edge_list_matches_pair_writer_random(g, comments):
    assert format_edge_list(g, comments) == reference_format_edge_list(g, comments)


# comment text rich in line breaks, and in what a header or an edge line is made of
COMMENT_TEXT = st.lists(
    st.one_of(
        st.text(max_size=4), st.sampled_from(["\n", *LINE_BREAKS, " ", "#", "3"])
    ),
    max_size=6,
).map("".join)


@given(digraphs(max_n=6), st.lists(COMMENT_TEXT, max_size=3))
@settings(max_examples=200, deadline=None)
def test_formatted_comments_never_reach_the_parser(g, comments):
    back = parse_edge_list(format_edge_list(g, comments))
    assert (back.n, back.edges) == (g.n, g.edges)
