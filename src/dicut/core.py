"""Directed-graph data model: degree accounting, directional cuts, and the
projection of an induced subgraph to its underlying undirected simple graph,
given as a tuple of sorted, symmetric neighbour rows."""

from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, compress
from operator import itemgetter
from typing import Any, Iterable, Iterator, Sequence


class GraphInputError(ValueError):
    """Malformed graph input: loops, duplicate directed edges, bad vertex ids."""


class StructuralDiagnostic(RuntimeError):
    """A structural fact the analysis guarantees was violated at runtime.

    Signals an implementation bug or a violated precondition, never a mere
    unlucky sample; carries the offending profile for inspection.
    """

    def __init__(self, message: str, payload: dict[str, Any] | None = None) -> None:
        super().__init__(message)
        self.payload = payload or {}


def _sorted_contains(adj: Sequence[int], v: int) -> bool:
    i = bisect_left(adj, v)
    return i < len(adj) and adj[i] == v


def _raise_first_bad(n: int, pairs: Sequence[tuple[int, int]]) -> None:
    """Raise for the first edge out of range or a loop, else for the first
    position that repeats an earlier pair."""
    for pos, (u, v) in enumerate(pairs):
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(
                f"edge #{pos} ({u},{v}): vertex id out of range [0,{n})"
            )
        if u == v:
            raise GraphInputError(f"edge #{pos} ({u},{v}): loops are not allowed")
    seen: set[tuple[int, int]] = set()
    for pos, (u, v) in enumerate(pairs):
        if (u, v) in seen:
            raise GraphInputError(f"edge #{pos} ({u},{v}): duplicate directed edge")
        seen.add((u, v))


def _checked_ids(vertices: Iterable[int], n: int) -> list[int]:
    """Sorted distinct ids; raise for the smallest one outside [0, n)."""
    keep = sorted(set(vertices))
    if keep and (keep[0] < 0 or keep[-1] >= n):
        bad = keep[0] if keep[0] < 0 else keep[bisect_left(keep, n)]
        raise GraphInputError(f"unknown vertex id {bad} (n={n})")
    return keep


def _components(adj: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Connected components of a symmetric adjacency as sorted vertex tuples,
    ordered by their smallest vertex."""
    seen = bytearray(len(adj))
    comps: list[tuple[int, ...]] = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        seen[start] = 1
        comp = [start]
        stack = [start]
        while stack:
            for u in adj[stack.pop()]:
                if not seen[u]:
                    seen[u] = 1
                    comp.append(u)
                    stack.append(u)
        comps.append(tuple(sorted(comp)))
    return comps


class Digraph:
    """Loop-free directed graph on dense vertex ids 0..n-1.

    The antiparallel pair (u, v), (v, u) may coexist; a duplicate directed
    edge is a hard input error, never silently repaired.  Instances are
    immutable after construction and safe to share read-only across threads.
    """

    __slots__ = ("n", "m", "_out", "_in")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]]) -> None:
        if n < 0:
            raise GraphInputError(f"vertex count must be nonnegative, got {n}")
        if not isinstance(pairs, Sequence):
            pairs = list(pairs)  # reread by _raise_first_bad
        out: list[list[int]] = [[] for _ in range(n)]
        try:
            # out[u] would take a negative tail; a tail >= n raises IndexError
            if min(map(itemgetter(0), pairs), default=0) < 0:
                raise IndexError
            for u, v in pairs:
                out[u].append(v)
        except IndexError:
            pass
        else:
            if _build_adjacency(self, out):
                return
        _raise_first_bad(n, pairs)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge (u, v), sorted; rebuilt from the adjacency on each access."""
        return tuple((u, v) for u, a in enumerate(self._out) for v in a)

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and _sorted_contains(self._out[u], v)

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def out_degree(self, v: int) -> int:
        return len(self._out[v])

    def in_degree(self, v: int) -> int:
        return len(self._in[v])

    def degree(self, v: int) -> int:
        """Total degree d(v) = d+(v) + d-(v); at most 2(n-1)."""
        return len(self._out[v]) + len(self._in[v])

    def min_out_degree(self) -> int:
        return min(map(len, self._out), default=0)

    def argmin_out_degree(self) -> int:
        """Smallest-id vertex realizing the minimum outdegree."""
        return min(range(self.n), key=lambda v: (len(self._out[v]), v))

    def induced_underlying(self, vertices: Iterable[int]) -> tuple[
        tuple[tuple[int, ...], ...], tuple[int, ...], frozenset[tuple[int, int]]
    ]:
        """The underlying simple graph of the subgraph induced by `vertices`,
        relabelled 0..k-1 in id order, as (rows, orig_ids, antiparallel): the
        sorted neighbour row of each new id, the original id of each new id,
        and the antiparallel pairs (i, j), i < j, from one pass over the
        out-lists."""
        keep = _checked_ids(vertices, self.n)
        index = {v: i for i, v in enumerate(keep)}
        adj: list[list[int]] = [[] for _ in keep]
        for i, u in enumerate(keep):
            for v in self._out[u]:
                j = index.get(v)
                if j is not None:
                    adj[i].append(j)
                    adj[j].append(i)
        rows = [tuple(sorted(set(a))) for a in adj]
        antiparallel: set[tuple[int, int]] = set()
        for i, (a, row) in enumerate(zip(adj, rows)):
            if len(row) < len(a):  # an antiparallel pair lists its other end twice
                a.sort()
                antiparallel.update((i, j) for j, k in zip(a, a[1:]) if j == k and i < j)
        return tuple(rows), tuple(keep), frozenset(antiparallel)

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"


def _build_adjacency(graph: Digraph, out: list[list[int]]) -> bool:
    """Set graph's slots from filled out-lists, one per vertex; False, with
    the slots unset, if a row holds an id outside [0, n), a loop or a repeat.
    Each row is sorted and replaced in `out` by its tuple once checked, and
    each in-list once filled, so that no list outlives its tuple for long;
    the in-lists are filled in tail order, so they come out sorted."""
    n = len(out)
    in_: list[list[int]] = [[] for _ in range(n)]
    for u, a in enumerate(out):
        if a:
            a.sort()
            if (a[0] < 0 or a[-1] >= n or _sorted_contains(a, u)
                    or len(set(a)) < len(a)):
                return False
            for v in a:
                in_[v].append(u)
        out[u] = tuple(a)
    for v, a in enumerate(in_):
        in_[v] = tuple(a)
    graph.n, graph.m = n, sum(map(len, out))
    graph._out, graph._in = tuple(out), tuple(in_)
    return True


def _from_rows(out: list[list[int]]) -> Digraph | None:
    """The graph whose out-lists are `out`, one distinct list per vertex,
    which _build_adjacency takes over; None if it rejects a row."""
    graph = Digraph.__new__(Digraph)
    return graph if _build_adjacency(graph, out) else None


@dataclass(frozen=True)
class Bipartition:
    """Two-coloring of vertices; side labels are 1 and 2."""

    side: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.side.count(1) + self.side.count(2) != len(self.side):
            raise ValueError("side labels must be 1 or 2")

    def __len__(self) -> int:
        return len(self.side)


@dataclass(frozen=True)
class CutStats:
    """Directional cut sizes of a bipartition."""

    e12: int
    e21: int

    @property
    def min_cut(self) -> int:
        return min(self.e12, self.e21)

    @property
    def total(self) -> int:
        return self.e12 + self.e21


def _side2_ends(side: Sequence[int], lists: Iterable[tuple[int, ...]]) -> list[int]:
    """For each id tuple in `lists`, how many of its ids are on side 2; each
    tuple is read by one C-level gather, `itemgetter(*ids)(side)`."""
    # itemgetter returns a bare label for one id and raises for none
    return [
        itemgetter(*a)(side).count(2) if len(a) > 1 else (side[a[0]] == 2 if a else 0)
        for a in lists
    ]


def _check_cover(digraph: Digraph, partition: Bipartition) -> None:
    if len(partition) != digraph.n:
        raise ValueError(
            f"partition covers {len(partition)} vertices, digraph has {digraph.n}"
        )


def cut_stats(digraph: Digraph, partition: Bipartition) -> CutStats:
    """Exact directional counts, from scratch, reading only side 2's rows.

    With e22 the edges inside side 2, the in-degrees summed over side 2 are
    e12 + e22 and the out-degrees e21 + e22; e22 counts the side-2 ends of
    side 2's out-lists, each by one C-level gather.  A call costs O(n) plus
    the volume of side 2, with a small per-edge constant.  Nothing is cached
    between calls."""
    return _cut_counts(digraph, partition)[0]


def _cut_counts(digraph: Digraph, partition: Bipartition) -> tuple[CutStats, list[int]]:
    """cut_stats, with the side-2 end count of each of side 2's out-lists in
    vertex order, which a caller that sweeps the same partition can reuse."""
    _check_cover(digraph, partition)
    side = partition.side
    on_two = list(map((2).__eq__, side))
    rows = list(compress(digraph._out, on_two))
    ends = _side2_ends(side, rows)
    e22 = sum(ends)
    e12 = sum(map(len, compress(digraph._in, on_two))) - e22
    return CutStats(e12, sum(map(len, rows)) - e22), ends


# ---------------------------------------------------------------------------
# Edge-list interchange format: the first line "n m", then m lines "u v",
# 0-indexed, whitespace-separated. Lines are split as str.splitlines does and
# stripped; blank lines and lines starting with '#' may appear anywhere.
# ---------------------------------------------------------------------------

_SLICE_CHARS = 1 << 15  # sized so one slice's tokens fit in one arena
_DIGITS = str.maketrans("", "", "0123456789")


def _slices(text: str, pos: int) -> Iterator[str]:
    """The text from pos on in pieces of about _SLICE_CHARS characters, each
    cut just after a '\n', so each piece splits into lines as the whole does."""
    while pos < len(text):
        end = text.find("\n", pos + _SLICE_CHARS) + 1 or len(text)
        yield text[pos:end]
        pos = end


def _canonical_tokens(chunk: str) -> list[str] | None:
    """The tokens of a slice made only of "u v\n" lines of ASCII digits, the
    form format_edge_list writes; None for any other slice."""
    lines = chunk.count("\n")
    # digits after the last line break would vanish from the test below
    if not chunk.endswith("\n") or chunk.translate(_DIGITS) != " \n" * lines:
        return None
    tokens = chunk.split()
    # an empty digit run leaves its line one token short
    return tokens if len(tokens) == 2 * lines else None


def _slice_tokens(chunk: str) -> list[str] | None:
    """The two tokens of each edge line of a slice, blank and '#' lines
    skipped; None if a line holds another number of tokens."""
    tokens = _canonical_tokens(chunk)
    if tokens is None:
        tokens = []
        for ln in chunk.splitlines():
            pair = ln.split()
            if pair and not pair[0].startswith("#"):
                if len(pair) != 2:
                    return None
                tokens += pair
    return tokens


def _find_header(text: str) -> tuple[str, int]:
    """The first content line and the offset just past its line break."""
    pos = 0
    while pos < len(text):
        # a '\n' always ends a line, so each piece splits as the whole text does
        end = text.find("\n", pos) + 1 or len(text)
        for ln in text[pos:end].splitlines(keepends=True):
            pos += len(ln)
            ln = ln.strip()
            if ln and not ln.startswith("#"):
                return ln, pos
    raise GraphInputError("empty edge-list input")


def parse_edge_list(text: str) -> Digraph:
    """Parse the edge-list format straight into the adjacency.

    The body is read in slices of about 32K characters, each cut just after
    a newline.  A canonical slice holds at most one token per two characters,
    16K tokens of about 56 bytes each, so its token strings fit in the one
    empty 1 MiB arena CPython's small-object allocator keeps, and the next
    slice reuses that memory instead of faulting it in again from the OS.
    Each slice's tokens are looked up as ids and added to the out-lists, one
    tail's run of edges at a time where the tails do not decrease; no list
    beyond the ids the body can spell exists before the line count matches
    the header.  Any other token, and every error, sends the body to a line
    reader and then to Digraph(n, pairs), so each message, the count error
    before the first bad line, is the same whichever path found it.

    The cyclic collector, which would walk its millions of lists again and
    again and free none, is paused; the caller's state is restored on exit.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        n, m, start = parse_header(text)
        graph = _parse_ids(text, n, m, start)
        return graph or Digraph(n, _read_pairs(text, start, m))
    finally:
        if enabled:
            gc.enable()


def parse_header(text: str) -> tuple[int, int, int]:
    """The header's (n, m) and the offset where the body starts; reads no
    further than the header line."""
    header, pos = _find_header(text)
    try:
        n, m = map(int, header.split())
    except ValueError as exc:
        raise GraphInputError(f"header must be 'n m', got {header!r}") from exc
    return n, m, pos


def _parse_ids(text: str, n: int, m: int, start: int) -> Digraph | None:
    """The graph of a body whose every edge line is two ids spelled as
    str(id); None for any other body and for any error, which the line
    reader and Digraph(n, pairs) then report."""
    # ids as the writer spells them, so that each id becomes one shared int,
    # and their out-lists; the body cannot name an id beyond its length, so
    # nothing of size n is allocated before the line count matches
    k = max(0, min(n, len(text) - start))
    ids = {str(v): v for v in range(k)}
    out: list[list[int]] = [[] for _ in range(k)]
    count = 0
    for chunk in _slices(text, start):
        tokens = _slice_tokens(chunk)
        if tokens is None:
            return None
        try:
            ids_read = list(map(ids.__getitem__, tokens))
        except KeyError:  # an id >= n, or one that is not spelled as str(id)
            return None
        tails, heads = ids_read[0::2], ids_read[1::2]
        if tails == sorted(tails):
            lo = 0
            while lo < len(tails):
                hi = bisect_right(tails, tails[lo], lo)
                out[tails[lo]] += heads[lo:hi]
                lo = hi
        else:
            for u, v in zip(tails, heads):
                out[u].append(v)
        count += len(tails)
    if count != m or n < 0:
        return None
    out += [[] for _ in range(n - k)]
    return _from_rows(out)


def _read_pairs(text: str, start: int, m: int) -> list[tuple[int, int]]:
    """The body's (u, v) pairs, line by line; raises if the header's m is not
    the line count, else for the first bad line."""
    pairs: list[tuple[int, int]] = []
    count = 0
    bad: tuple[str, ValueError] | None = None
    for chunk in _slices(text, start):
        for ln in chunk.splitlines():
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            count += 1
            if bad is None:
                try:
                    u, v = map(int, ln.split())
                except ValueError as exc:
                    bad = (ln, exc)
                    continue
                pairs.append((u, v))
    if count != m:
        raise GraphInputError(f"header promises {m} edges, found {count}")
    if bad is not None:
        raise GraphInputError(f"bad edge line {bad[0]!r}") from bad[1]
    return pairs


def _first_sink(text: str, n: int, m: int, start: int) -> int:
    """The smallest id with no out-edge in a body of m < n edges, after the
    errors parse_edge_list would raise on it, in their order.  The m tails
    miss some id of 0..m, so this costs O(m) and builds nothing of size n."""
    pairs = _read_pairs(text, start, m)
    _raise_first_bad(n, pairs)
    tails = set(map(itemgetter(0), pairs))
    return next(v for v in range(m + 1) if v not in tails)


def format_edge_list(digraph: Digraph, comments: Sequence[str] = ()) -> str:
    out = [f"# {ln}" for c in comments for ln in c.splitlines() or [""]]
    out.append(f"{digraph.n} {digraph.m}")
    # one join per vertex, "u v1\nu v2...", with each id converted once
    names = list(map(str, range(digraph.n)))
    out += [
        u + " " + f"\n{u} ".join(map(names.__getitem__, a))
        for u, a in zip(names, digraph._out)
        if a
    ]
    return "\n".join(out) + "\n"


def read_edge_list(path: str) -> Digraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def write_edge_list(digraph: Digraph, path: str, comments: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(digraph, comments))


# Partition file format: one line per vertex, "vertexid side".


def parse_partition(text: str, n: int) -> Bipartition:
    side = [0] * n
    filled = 0
    # slice by slice, so that one slice's line strings exist at a time
    for ln in chain.from_iterable(map(str.splitlines, _slices(text, 0))):
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


def format_partition(partition: Bipartition) -> str:
    return "\n".join(f"{v} {s}" for v, s in enumerate(partition.side)) + "\n"


def read_partition(path: str, n: int) -> Bipartition:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_partition(fh.read(), n)


def write_partition(partition: Bipartition, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_partition(partition))
