"""Command-line interface: generate instances, partition, verify, benchmark.

Exit codes: 0 success, 1 invalid input or a closed stdout, 2 guarantee not
met under --strict, 3 internal structural diagnostic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from . import FAMILIES
from .core import (
    GraphInputError,
    StructuralDiagnostic,
    _first_sink,
    parse_edge_list,
    parse_header,
    read_edge_list,
    read_partition,
    write_edge_list,
    write_partition,
)
from .harness import (  # loads no pipeline; each handler imports what it runs
    SUITES,
    _timed,
    build_report,
    file_instance_descriptor,
    run_suite,
    verify_partition,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_GUARANTEE = 2
EXIT_DIAGNOSTIC = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicut",
        description="Bipartition directed graphs to maximize the smaller "
        "directional cut.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance as an edge list")
    gen.add_argument("family", choices=FAMILIES)
    gen.add_argument("--d", type=int, default=2)
    gen.add_argument("--k", type=int, default=1)
    gen.add_argument("--n", type=int, default=100)
    gen.add_argument("--q", type=int, default=5)
    gen.add_argument("--extra", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--patched", action="store_true",
                     help="raise deficient outdegrees of the bipartite families")
    gen.add_argument("-o", "--out", required=True)

    part = sub.add_parser("partition", help="run the partition pipeline")
    part.add_argument("-i", "--input", required=True)
    part.add_argument("--d", type=int, choices=(2, 3), required=True)
    part.add_argument("--epsilon", type=float, default=0.05)
    part.add_argument("--seed", type=int, default=0)
    part.add_argument("--strict", action="store_true",
                      help="exit 2 when the guarantee target is not met")
    part.add_argument("--json", action="store_true")
    part.add_argument("-o", "--out", help="write the partition file here")

    orc = sub.add_parser("oracle", help="exhaustive optimum on a small instance")
    orc.add_argument("-i", "--input", required=True)
    orc.add_argument("--json", action="store_true")

    dec = sub.add_parser("decompose", help="star/leftover decomposition report")
    dec.add_argument("-i", "--input", required=True)
    dec.add_argument("--epsilon", type=float, default=0.1)
    dec.add_argument("--no-antiparallel", action="store_true")
    dec.add_argument("--json", action="store_true")

    ver = sub.add_parser("verify", help="recompute the cuts of a partition file")
    ver.add_argument("-i", "--input", required=True)
    ver.add_argument("-p", "--partition", required=True)
    ver.add_argument("--json", action="store_true")

    bench = sub.add_parser("bench", help="run a built-in suite")
    bench.add_argument("--suite", choices=SUITES, required=True)
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--json", action="store_true")
    return parser


def _emit(data: dict[str, Any] | list[Any], as_json: bool) -> None:
    # strict JSON: a non-finite value raises ValueError before anything prints
    if as_json:
        print(json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False))
    else:
        print(json.dumps(data, sort_keys=True, indent=2, allow_nan=False))


def _cmd_gen(args: argparse.Namespace) -> int:
    from .generators import GadgetSpec, lower_bound_gadget

    params = {name: getattr(args, name) for name in FAMILIES[args.family]}
    spec = GadgetSpec(args.family, params)
    comments = [spec.label()]
    if args.family == "lower_bound":
        graph, v0 = lower_bound_gadget(args.d, args.k)
        comments.append(f"v0 = {v0}")
    else:
        graph = spec.build()
    write_edge_list(graph, args.out, comments)
    print(f"wrote {args.out}: n={graph.n} m={graph.m}")
    return EXIT_OK


def _cmd_partition(args: argparse.Namespace) -> int:
    from .pipeline import PipelineConfig, _outdegree_error, run

    config = PipelineConfig(d=args.d, epsilon=args.epsilon, seed=args.seed)
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    n, m, start = parse_header(text)
    # with more vertices than edges some vertex has outdegree 0, and the body
    # alone names the first, so a huge n builds nothing of its size
    if n > m:
        raise _outdegree_error(0, _first_sink(text, n, m, start), config.d)
    digraph = parse_edge_list(text)
    timings: dict[str, float] = {}
    result = _timed(timings, "partition", run, digraph, config)
    report = build_report(
        file_instance_descriptor(args.input), digraph, config, result, timings
    )
    if args.out:
        write_partition(result.partition, args.out)
    if args.json:
        print(report.to_json())
    else:
        print(
            f"n={digraph.n} m={digraph.m} e12={result.stats.e12} "
            f"e21={result.stats.e21} min_cut={result.stats.min_cut}"
        )
        print(
            f"target={result.guarantee:.2f} achieved_ratio="
            f"{result.achieved_ratio:.4f} meets_guarantee={result.meets_guarantee}"
        )
        for rec in result.branch_trace:
            print(f"  trace: {json.dumps(rec, sort_keys=True)}")
    if args.strict and not result.meets_guarantee:
        return EXIT_GUARANTEE
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import check_oracle_n, exact_judicious

    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        n = parse_header(text)[0]
    except GraphInputError:
        pass  # parse_edge_list reports the bad header
    else:
        check_oracle_n(n)  # before n adjacency lists are built
    digraph = parse_edge_list(text)
    result = exact_judicious(digraph)
    payload = {
        "n": digraph.n,
        "m": digraph.m,
        "optimum": result.optimum,
        "witness": result.witness.side_string(),
        "evaluated": result.evaluated,
    }
    _emit(payload, args.json)
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    from .decomposition import degree_cap, star_decompose

    digraph = read_edge_list(args.input)
    # star_decompose rejects an epsilon that is not positive and finite
    if args.epsilon > 0 and degree_cap(digraph, args.epsilon) == float("inf"):
        raise ValueError(
            f"epsilon {args.epsilon} is too small: the degree cap "
            "(mean degree / epsilon) overflows"
        )
    dec = star_decompose(
        digraph,
        range(digraph.n),
        epsilon=args.epsilon,
        prefer_antiparallel=not args.no_antiparallel,
    )
    payload = {
        "n": digraph.n,
        "m": digraph.m,
        "stars": len(dec.stars),
        "star_sizes": sorted(len(s) for s in dec.stars),
        "star_edges": dec.star_edge_count(),
        "leftover": len(dec.leftover),
        "tau": dec.tau,
        "tight_components": len(dec.tight),
        "sigma": dec.sigma,
        "tau_prime": dec.tau_prime,
        "degree_cap": dec.degree_cap,
        "epsilon": args.epsilon,
    }
    _emit(payload, args.json)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    digraph = read_edge_list(args.input)
    partition = read_partition(args.partition, digraph.n)
    _emit(verify_partition(digraph, partition), args.json)
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    reports = run_suite(args.suite, jobs=args.jobs)
    if args.json:
        _emit([r.to_dict() for r in reports], True)
    else:
        for r in reports:
            key = r.instance.get("key", "?")
            oracle = ""
            if r.oracle:
                oracle = f" oracle={r.oracle['optimum']}"
            print(
                f"{key}: n={r.n} m={r.m} min_cut={r.min_cut} "
                f"ratio={r.achieved_ratio:.4f} meets={r.meets_guarantee}{oracle}"
            )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "partition": _cmd_partition,
        "oracle": _cmd_oracle,
        "decompose": _cmd_decompose,
        "verify": _cmd_verify,
        "bench": _cmd_bench,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # stdout was closed early (`dicut ... | head`), which is no input
        # error; what is still buffered goes to devnull, not to a second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INVALID
    except StructuralDiagnostic as exc:
        print(f"structural diagnostic: {exc}", file=sys.stderr)
        print(json.dumps(exc.payload, sort_keys=True), file=sys.stderr)
        return EXIT_DIAGNOSTIC
    except (GraphInputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
