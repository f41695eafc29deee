"""Span recording around dicut's public functions, from outside the package.

``traced(tracer)`` swaps each traced function for a timing wrapper in every
``dicut.*`` module namespace that holds it (and on the class for methods such
as ``Digraph.__init__``), then puts the originals back.  A span records its
name, start, end and parent; self time is derived afterwards.  Counters come
from call counts and return values.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterator

WRAPPED_MARK = "__perfbench_span__"


def _edges_scanned(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counters["core.edge_visits"] += args[0].m


def _decomposition(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counters["decomposition.stars"] += len(result.stars)
    tracer.counters["decomposition.tight"] += len(result.tight)


def _oracle(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counters["oracle.evaluated"] += result.evaluated


def _branch_trace(tracer: "Tracer", args: tuple, result: Any) -> None:
    for rec in result.branch_trace:
        if rec["step"] == "local_search":
            gain = rec["min_cut_after"] - rec["min_cut_before"]
            tracer.counters["pipeline.local_search.gain"] += gain
        elif rec["step"] == "sampler":
            tracer.counters["samplers.attempts"] += rec["attempts"]
            tracer.counters["samplers.accepted"] += int(rec["accepted"])


# (defining module, attribute or Class.method, span name, return-value hook)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("dicut.core", "Digraph.__init__", "core.Digraph", None),
    ("dicut.core", "parse_edge_list", "core.parse_edge_list", None),
    ("dicut.core", "cut_stats", "core.cut_stats", _edges_scanned),
    ("dicut.generators", "GadgetSpec.build", "generators.build", None),
    ("dicut.generators", "complete_antiparallel", "generators.build", None),
    ("dicut.pipeline", "run", "pipeline.run", _branch_trace),
    ("dicut.pipeline", "split_large", "pipeline.split_large", None),
    ("dicut.pipeline", "gap_partition", "pipeline.gap_partition", None),
    ("dicut.pipeline", "surplus_profile", "pipeline.surplus_profile", None),
    ("dicut.pipeline", "local_search", "pipeline.local_search", None),
    ("dicut.samplers", "edge_profile", "samplers.edge_profile", _edges_scanned),
    ("dicut.samplers", "second_moment_partition",
     "samplers.second_moment_partition", None),
    ("dicut.samplers", "quarter_partition", "samplers.quarter_partition", None),
    ("dicut.samplers", "star_bisection", "samplers.star_bisection", None),
    ("dicut.decomposition", "maximum_matching",
     "decomposition.maximum_matching", None),
    ("dicut.decomposition", "maximize_free_vertices",
     "decomposition.maximize_free_vertices", None),
    ("dicut.decomposition", "tight_components",
     "decomposition.tight_components", None),
    ("dicut.decomposition", "star_decompose",
     "decomposition.star_decompose", _decomposition),
    ("dicut.oracle", "exact_judicious", "oracle.exact_judicious", _oracle),
    ("dicut.harness", "build_report", "harness.build_report", None),
)


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None  # index into Tracer.spans


class Tracer:
    """In-memory span and counter store for one traced pass (single thread)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter_ns(), 0, parent)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec.end = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result

        setattr(wrapper, WRAPPED_MARK, name)
        return wrapper


def self_times(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """name -> (total self seconds, calls); self time excludes child spans."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.end - s.start
    out: dict[str, tuple[float, int]] = {}
    for s, inner in zip(spans, child_ns):
        total, calls = out.get(s.name, (0.0, 0))
        out[s.name] = (total + (s.end - s.start - inner) / 1e9, calls + 1)
    return out


def _dicut_modules() -> list[Any]:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "dicut" or name.startswith("dicut."))
    ]


def _owner(module: str, attr: str) -> tuple[Any, str]:
    obj = sys.modules[module]
    *path, last = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, last


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install a wrapper for every entry of TARGETS; restore on exit."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for module, attr, name, hook in TARGETS:
            owner, last = _owner(module, attr)
            original = owner.__dict__[last]
            wrapper = tracer.wrap(name, original, hook)
            holders = [owner] if owner is not sys.modules[module] else []
            holders += [m for m in _dicut_modules() if m.__dict__.get(last) is original]
            for holder in holders:
                saved.append((holder, last, original))
                setattr(holder, last, wrapper)
        yield tracer
    finally:
        for holder, last, original in reversed(saved):
            setattr(holder, last, original)


def wrapped_names() -> list[str]:
    """Every dicut attribute that still holds a timing wrapper."""
    found = []
    for mod in _dicut_modules():
        for key, value in vars(mod).items():
            if hasattr(value, WRAPPED_MARK):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                found += [
                    f"{mod.__name__}.{key}.{k}"
                    for k, v in vars(value).items()
                    if hasattr(v, WRAPPED_MARK)
                ]
    return found


def assert_unwrapped() -> None:
    """Guard for untraced timings: no dicut attribute may hold a wrapper."""
    left = wrapped_names()
    if left:
        raise RuntimeError(f"timing wrappers still installed: {left}")


SELF_TIME = (
    "generators.build",
    "core.Digraph",
    "core.parse_edge_list",
    "core.cut_stats",
    "samplers.edge_profile",
    "pipeline.run",
    "pipeline.split_large",
    "pipeline.gap_partition",
    "pipeline.surplus_profile",
    "pipeline.local_search",
    "decomposition.maximum_matching",
    "decomposition.maximize_free_vertices",
    "decomposition.tight_components",
    "decomposition.star_decompose",
    "samplers.second_moment_partition",
    "samplers.quarter_partition",
    "samplers.star_bisection",
    "oracle.exact_judicious",
    "harness.build_report",
)
CALLS = (
    "core.Digraph",
    "core.cut_stats",
    "samplers.edge_profile",
    "pipeline.local_search",
    "decomposition.maximum_matching",
)
COUNTERS = (
    "core.edge_visits",
    "pipeline.local_search.gain",
    "decomposition.stars",
    "decomposition.tight",
    "samplers.attempts",
    "samplers.accepted",
    "oracle.evaluated",
    "oracle.below_optimum",
)


def raw_metrics(tracer: Tracer) -> dict[str, float]:
    """Additive per-layer totals of one tracer: self seconds, calls, counters."""
    times = self_times(tracer.spans)
    out = {f"{n}.self_s": times.get(n, (0.0, 0))[0] for n in SELF_TIME}
    out.update({f"{n}.calls": times.get(n, (0.0, 0))[1] for n in CALLS})
    out.update({n: tracer.counters[n] for n in COUNTERS})
    return out
