import argparse
import dataclasses
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dicut
import dicut.cli as cli_mod
import dicut.decomposition as decomposition_mod
import dicut.harness as harness_mod
import dicut.pipeline as pipeline_mod
from dicut.cli import main
from dicut.core import Bipartition, read_edge_list, read_partition, write_edge_list
from dicut.decomposition import star_decompose
from dicut.harness import (
    BenchTask,
    RunReport,
    file_instance_descriptor,
    run_bench_task,
    run_suite,
    suite_tasks,
    verify_partition,
)
from dicut.generators import FAMILIES, GadgetSpec, complete_antiparallel
from dicut.pipeline import PipelineConfig, StructuralDiagnostic, split_large

from .conftest import no_polish, untimed


def _cli_env():
    """The environment for a `python -m dicut.cli` child that imports this
    checkout's package."""
    src = str(Path(dicut.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestRunReport:
    def test_round_trip(self):
        task = BenchTask("demo", "lower_bound", {"d": 2, "k": 2}, 2, with_oracle=True)
        report = run_bench_task(task)
        data = json.loads(report.to_json())
        again = RunReport(**dict(data, branch_trace=tuple(data["branch_trace"])))
        assert again == report
        assert again.to_json() == report.to_json()

    def test_verify_agrees_with_report(self):
        task = BenchTask("demo", "lower_bound", {"d": 3, "k": 3}, 3)
        report = run_bench_task(task)
        g = GadgetSpec(task.family, task.params).build()
        check = verify_partition(g, Bipartition(tuple(map(int, report.partition))))
        assert (check["e12"], check["e21"]) == (report.e12, report.e21)

    @pytest.mark.parametrize("chunk_bytes", [1, 2, 3, 5, 8, 13, 1 << 15])
    def test_instance_sha256_is_the_digest_of_the_whole_text(
        self, monkeypatch, tmp_path, chunk_bytes
    ):
        # comment characters of 2, 3 and 4 UTF-8 bytes, a CRLF and a lone CR
        # sit where a read of chunk_bytes bytes may end.  The digest is that
        # of the bytes on disk, not of the text read with universal newlines,
        # so it differs from the digest of the file's LF twin
        data = "# é€😀\n3 2\n# ü€ab\r\n0 1\n#😀 😀\r1 2\n# é😀é".encode()
        path, twin = tmp_path / "g.el", tmp_path / "lf.el"
        path.write_bytes(data)
        twin.write_bytes(data.replace(b"\r\n", b"\n").replace(b"\r", b"\n"))
        monkeypatch.setattr(harness_mod, "_HASH_CHUNK", chunk_bytes)
        assert file_instance_descriptor(str(path)) == {
            "path": str(path),
            "sha256": hashlib.sha256(data).hexdigest(),
        }
        assert file_instance_descriptor(str(twin))["sha256"] == (
            hashlib.sha256(twin.read_bytes()).hexdigest()
        ) != hashlib.sha256(data).hexdigest()


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            suite_tasks("nope")

    def test_task_keys_unique_and_sorted(self):
        for name in ("gadgets", "random-d2", "random-d3", "oracle-small"):
            tasks = suite_tasks(name)
            keys = [t.key for t in tasks]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_parallel_matches_serial(self):
        serial = run_suite("oracle-small", jobs=1)
        parallel = run_suite("oracle-small", jobs=4)
        assert list(map(untimed, serial)) == list(map(untimed, parallel))

    def test_pool_never_exceeds_the_task_count(self, monkeypatch):
        import concurrent.futures

        recorded = []

        class InlinePool:
            """Records the requested worker count and runs each task inline."""

            def __init__(self, max_workers):
                recorded.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        wide = run_suite("oracle-small", jobs=10**6)
        assert recorded == [len(suite_tasks("oracle-small"))]
        serial = run_suite("oracle-small", jobs=1)
        assert list(map(untimed, wide)) == list(map(untimed, serial))

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_raise(self, jobs):
        with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
            run_suite("oracle-small", jobs=jobs)

    def test_oracle_suite_never_beats_oracle(self):
        for report in run_suite("oracle-small"):
            assert report.oracle is not None
            assert report.min_cut <= report.oracle["optimum"]

    def test_gadget_suite_meets_guarantees(self):
        for report in run_suite("gadgets"):
            assert report.meets_guarantee, report.instance["key"]


class TestCli:
    def test_gen_partition_verify_flow(self, tmp_path, capsys):
        graph_file = tmp_path / "g.el"
        part_file = tmp_path / "p.txt"
        assert main(["gen", "lower_bound", "--d", "2", "--k", "3",
                     "-o", str(graph_file)]) == 0
        g = read_edge_list(str(graph_file))
        assert g.m == 2 * 3 * 3 + 2 * 5
        assert main(["partition", "-i", str(graph_file), "--d", "2",
                     "--seed", "1", "--json", "-o", str(part_file)]) == 0
        report = json.loads(capsys.readouterr().out.splitlines()[-1])
        part = read_partition(str(part_file), g.n)
        assert report["min_cut"] == verify_partition(g, part)["min_cut"]
        assert main(["verify", "-i", str(graph_file), "-p", str(part_file),
                     "--json"]) == 0
        check = json.loads(capsys.readouterr().out)
        assert check["min_cut"] == report["min_cut"]

    def test_gen_every_family(self, tmp_path):
        # one value per GadgetSpec param, valid for every family that reads it
        values = {"n": 13, "q": 7, "d": 3, "k": 1, "extra": 0.5, "seed": 4}
        out = tmp_path / "g.el"
        for family, names in FAMILIES.items():
            for patched in (False, True) if "patched" in names else (False,):
                params = {p: {**values, "patched": patched}[p] for p in names}
                argv = ["gen", family, "-o", str(out)]
                for p, v in params.items():
                    if isinstance(v, bool):  # a store_true flag
                        argv += [f"--{p}"] * v
                    else:
                        argv += [f"--{p}", str(v)]
                assert main(argv) == 0
                spec = GadgetSpec(family, params)
                assert out.read_text().splitlines()[0] == f"# {spec.label()}"
                assert read_edge_list(str(out)).edges == spec.build().edges

    @pytest.mark.parametrize("extra", ["inf", "nan", "1e300"])
    def test_gen_extra_above_n_minus_one_exit_one(self, tmp_path, capsys, extra):
        out = tmp_path / "g.el"
        argv = ["gen", "random_min_outdeg", "--n", "10", "--d", "2", "--extra"]
        assert main([*argv, extra, "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: extra must be at most n - 1 = 9, got {float(extra)}\n"
        )
        assert not out.exists()
        assert main([*argv, "9", "-o", str(out)]) == 0

    def test_partition_json_echoes_the_whole_config(self, tmp_path, capsys):
        graph_file = tmp_path / "g.el"
        main(["gen", "lower_bound", "--d", "3", "--k", "2", "-o", str(graph_file)])
        capsys.readouterr()
        assert main(["partition", "-i", str(graph_file), "--d", "3",
                     "--epsilon", "0.1", "--seed", "5", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        config = PipelineConfig(d=3, epsilon=0.1, seed=5)
        assert report["config"] == dataclasses.asdict(config)

    def test_partition_accepts_a_tiny_epsilon(self, tmp_path, capsys):
        # the bisection branch decomposes B with an infinite degree cap, but
        # the report holds no cap, so its JSON stays strict
        graph_file = tmp_path / "g.el"
        main(["gen", "lower_bound", "--d", "2", "--k", "4", "-o", str(graph_file)])
        capsys.readouterr()
        assert main(["partition", "-i", str(graph_file), "--d", "2",
                     "--epsilon", "1e-320", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["epsilon"] == 1e-320
        assert [r["step"] for r in report["branch_trace"]].count("bisection") == 1

    def test_oracle_command(self, tmp_path, capsys):
        graph_file = tmp_path / "g.el"
        main(["gen", "eulerian_complete", "--q", "5", "-o", str(graph_file)])
        capsys.readouterr()
        assert main(["oracle", "-i", str(graph_file), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["optimum"] == 3
        assert data["evaluated"] == 16

    def test_decompose_command(self, tmp_path, capsys):
        graph_file = tmp_path / "g.el"
        main(["gen", "lower_bound", "--d", "2", "--k", "4", "-o", str(graph_file)])
        capsys.readouterr()
        assert main(["decompose", "-i", str(graph_file), "--epsilon", "0.2",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        # one odd component (n = 17, connected) but its leftover is freeable
        assert data["tau"] == 1
        assert data["tight_components"] == 0
        assert data["leftover"] == 0

    @pytest.mark.parametrize("flags, sigma, tau_prime",
                             [([], 1, 0), (["--no-antiparallel"], 0, 1)])
    def test_decompose_antiparallel_preference(
        self, tmp_path, capsys, flags, sigma, tau_prime
    ):
        """On the antiparallel triangle the default star takes an antiparallel
        pair (sigma 1); without the preference its star edge is one-way."""
        graph_file = tmp_path / "g.el"
        g = complete_antiparallel(3)
        write_edge_list(g, str(graph_file))
        assert main(["decompose", "-i", str(graph_file), *flags, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["sigma"], data["tau_prime"]) == (sigma, tau_prime)
        dec = star_decompose(g, range(g.n), epsilon=0.1,
                             prefer_antiparallel=not flags)
        assert data == {
            "n": 3, "m": 6, "stars": len(dec.stars),
            "star_sizes": sorted(map(len, dec.stars)),
            "star_edges": dec.star_edge_count(), "leftover": len(dec.leftover),
            "tau": dec.tau, "tight_components": len(dec.tight),
            "sigma": dec.sigma, "tau_prime": dec.tau_prime,
            "degree_cap": dec.degree_cap, "epsilon": 0.1,
        }

    # (d, k): sha256 of `decompose --json` at the default epsilon, and of
    # repr(star_decompose(stripped, B, epsilon=0.05, prefer_antiparallel=p))
    # for p = False, True, with B and stripped from split_large
    STRUCTURAL_DECOMPOSITIONS = {
        (2, 1600): (
            "24ef52a0301bde70072f42343d4fde9003b321c858a0fa5f9a4ae22bcd892706",
            "1cf0e4c5e22e22ac51392b9b50065c05aa28a2ee9bd3bf022304e172795136d3",
            "85706340ddf6005c5c61f7cf0397b8c86cf34f22e0fbdd2e8915043f7cc94aba",
        ),
        (3, 800): (
            "5636d826f3a0b0d0a332f07fef7e47584a72ee6989c5a0690eddbf4ebffbb050",
            "e65020831bc1cf967554d40866aaa527774e36e3b6afbb8ca7412a5dd1e5ab2b",
            "01b1a6fa56c297aa70391faca622be6b36e4ced2ee6e6bdfa4cdcd9961858b8b",
        ),
    }

    @pytest.mark.parametrize("d, k", sorted(STRUCTURAL_DECOMPOSITIONS))
    def test_structural_decompositions_pinned(self, d, k, tmp_path, capsys):
        """The decompositions of both `structural` benchmark instances: the
        whole graph, as `decompose` reads it, and the B set that the
        bisection branch decomposes, which holds the tight components."""
        whole, *on_b = self.STRUCTURAL_DECOMPOSITIONS[d, k]
        graph_file = tmp_path / "g.el"
        main(["gen", "lower_bound", "--d", str(d), "--k", str(k),
              "-o", str(graph_file)])
        capsys.readouterr()
        assert main(["decompose", "-i", str(graph_file), "--json"]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert (data["stars"], data["leftover"], data["tau"]) == (
            {2: 1603, 3: 1604}[d], 0, 1)
        assert hashlib.sha256(out.encode()).hexdigest() == whole
        _, rest, stripped, _ = split_large(read_edge_list(str(graph_file)))
        for prefer, pinned in zip((False, True), on_b):
            dec = star_decompose(stripped, rest, epsilon=0.05,
                                 prefer_antiparallel=prefer)
            assert len(dec.tight) == k
            assert hashlib.sha256(repr(dec).encode()).hexdigest() == pinned

    def test_invalid_input_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.el"
        bad.write_text("2 1\n0 0\n")
        assert main(["oracle", "-i", str(bad)]) == 1
        missing = tmp_path / "missing.el"
        assert main(["oracle", "-i", str(missing)]) == 1

    def test_closed_stdout_exits_one_quietly(self, tmp_path, monkeypatch, capsys):
        """A reader that closed the pipe early (`| head`) is no input error:
        exit 1, nothing on stderr, and stdout's descriptor now writes to
        devnull, so the flush at exit cannot raise again."""
        graph_file = tmp_path / "g.el"
        main(["gen", "lower_bound", "--d", "2", "--k", "2", "-o", str(graph_file)])
        capsys.readouterr()
        with open(tmp_path / "stdout", "w") as fd_holder, monkeypatch.context() as mp:

            class ClosedPipe(io.StringIO):
                def write(self, s):
                    raise BrokenPipeError(32, "Broken pipe")

                def fileno(self):
                    return fd_holder.fileno()

            mp.setattr(sys, "stdout", ClosedPipe())
            code = main(["partition", "-i", str(graph_file), "--d", "2"])
            now = os.fstat(fd_holder.fileno())
        assert code == 1
        assert capsys.readouterr().err == ""
        assert os.path.samestat(now, os.stat(os.devnull))

    def test_oracle_checks_header_n_before_building(self, tmp_path, capsys, monkeypatch):
        def no_build(text):
            raise AssertionError("the graph was built")

        monkeypatch.setattr(cli_mod, "parse_edge_list", no_build)
        hostile = tmp_path / "hostile.el"
        hostile.write_text("1000000 0")
        assert main(["oracle", "-i", str(hostile)]) == 1
        cap = "error: exact_judicious is capped at n <= 24, got 1000000\n"
        assert capsys.readouterr().err == cap
        # the cap error now comes before body errors
        hostile.write_text("25 2\n0 0\n")
        assert main(["oracle", "-i", str(hostile)]) == 1
        assert capsys.readouterr().err == cap.replace("1000000", "25")

    @pytest.mark.parametrize(
        "text, err",
        [
            ("x 0\n", "error: header must be 'n m', got 'x 0'\n"),
            ("", "error: empty edge-list input\n"),
            ("24 1\n0 0\n", "error: edge #0 (0,0): loops are not allowed\n"),
        ],
    )
    def test_oracle_falls_back_to_the_parse(self, tmp_path, capsys, text, err):
        graph_file = tmp_path / "g.el"
        graph_file.write_text(text)
        assert main(["oracle", "-i", str(graph_file)]) == 1
        assert capsys.readouterr().err == err

    def test_guarantee_miss_exit_two(self, tmp_path):
        graph_file = tmp_path / "k5.el"
        main(["gen", "eulerian_complete", "--q", "5", "-o", str(graph_file)])
        argv = ["partition", "-i", str(graph_file), "--d", "2", "--strict"]
        # without local search the only branch degenerates to the empty cut
        with pytest.MonkeyPatch.context() as mp:
            no_polish(mp)
            assert main(argv) == 2
        # local search rescues it
        assert main(argv) == 0

    def test_structural_diagnostic_exit_three(self, tmp_path, monkeypatch, capsys):
        graph_file = tmp_path / "g.el"
        main(["gen", "lower_bound", "--d", "2", "--k", "2", "-o", str(graph_file)])

        def boom(digraph, config):
            raise StructuralDiagnostic("fabricated", {"reason": "test"})

        monkeypatch.setattr(pipeline_mod, "run", boom)
        assert main(["partition", "-i", str(graph_file), "--d", "2"]) == 3

    @pytest.mark.parametrize(
        "gen_args, d",
        [
            (["lower_bound", "--d", "2", "--k", "6"], "2"),
            (["random_min_outdeg", "--n", "40", "--d", "3", "--seed", "5"], "3"),
        ],
    )
    def test_optimized_mode_parity(self, tmp_path, gen_args, d):
        """`python -O` strips assert statements; the report must not change."""
        graph_file = tmp_path / "g.el"
        assert main(["gen", *gen_args, "-o", str(graph_file)]) == 0

        def report(*flags):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "dicut.cli", "partition",
                 "-i", str(graph_file), "--d", d, "--seed", "3", "--json"],
                capture_output=True, text=True, env=_cli_env(), check=True,
            )
            data = json.loads(proc.stdout.splitlines()[-1])
            del data["timings_ms"]
            return data

        assert report("-O") == report()

    def test_oracle_cap_exit_one(self, tmp_path):
        graph_file = tmp_path / "cycle25.el"
        graph_file.write_text(
            "25 25\n" + "".join(f"{v} {(v + 1) % 25}\n" for v in range(25))
        )
        proc = subprocess.run(
            [sys.executable, "-m", "dicut.cli", "oracle", "-i", str(graph_file)],
            capture_output=True, text=True, env=_cli_env(),
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: exact_judicious is capped at n <= 24, got 25\n"
        assert proc.stdout == ""

    # inf is rejected by star_decompose; at 1e-320 the degree cap overflows
    @pytest.mark.parametrize("epsilon", ["0", "-1", "inf", "1e-320"])
    def test_decompose_nonpositive_epsilon_exit_one(self, tmp_path, epsilon):
        graph_file = tmp_path / "tri.el"
        graph_file.write_text("3 3\n0 1\n1 2\n2 0\n")
        for flags in ([], ["--json"]):
            proc = subprocess.run(
                [sys.executable, "-m", "dicut.cli", "decompose", "-i",
                 str(graph_file), "--epsilon", epsilon, *flags],
                capture_output=True, text=True, env=_cli_env(),
            )
            assert proc.returncode == 1
            assert proc.stderr.startswith("error: ")
            assert proc.stderr.count("\n") == 1
            assert proc.stdout == ""

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_decompose_overflowing_degree_cap_names_epsilon(
        self, tmp_path, capsys, monkeypatch, flags
    ):
        graph_file = tmp_path / "k7.el"
        main(["gen", "eulerian_complete", "--q", "7", "-o", str(graph_file)])
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("star_decompose ran on an overflowing degree cap")

        # the cap is checked before any decomposition work
        monkeypatch.setattr(decomposition_mod, "star_decompose", refuse)
        argv = ["decompose", "-i", str(graph_file), "--epsilon", "1e-320", *flags]
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "",
            "error: epsilon 1e-320 is too small: the degree cap "
            "(mean degree / epsilon) overflows\n",
        )

    @pytest.mark.parametrize(
        "gen_args",
        [
            ["random_min_outdeg", "--n", "18", "--d", "2", "--seed", "9"],
            ["lower_bound", "--d", "2", "--k", "5"],
        ],
    )
    def test_hash_seed_determinism(self, tmp_path, gen_args):
        """Reports must not depend on set or dict order under PYTHONHASHSEED."""
        graph_file = tmp_path / "g.el"
        assert main(["gen", *gen_args, "-o", str(graph_file)]) == 0

        def reports(hash_seed):
            out = []
            for command in (["oracle"], ["partition", "--d", "2", "--seed", "3"]):
                proc = subprocess.run(
                    [sys.executable, "-m", "dicut.cli", *command,
                     "-i", str(graph_file), "--json"],
                    capture_output=True, text=True, check=True,
                    env=dict(_cli_env(), PYTHONHASHSEED=hash_seed),
                )
                data = json.loads(proc.stdout.splitlines()[-1])
                data.pop("timings_ms", None)
                out.append(data)
            return out

        first = reports("0")
        assert first[0]["evaluated"] == 2 ** (first[0]["n"] - 1)
        assert first[1]["branch_trace"]
        assert reports("1") == first
        assert reports("12345") == first

    def test_min_outdegree_violation_exit_one(self, tmp_path):
        graph_file = tmp_path / "g.el"
        main(["gen", "d1_star_triangle", "--n", "6", "-o", str(graph_file)])
        assert main(["partition", "-i", str(graph_file), "--d", "2"]) == 1

    @pytest.mark.parametrize("suite", ["gadgets", "oracle-small"])
    def test_bench_text(self, suite, capsys):
        assert main(["bench", "--suite", suite]) == 0
        line = re.compile(
            r"(\S+): n=(\d+) m=(\d+) min_cut=(\d+) ratio=\d\.\d{4} "
            r"meets=(True|False)(?: oracle=(\d+))?"
        )
        out = capsys.readouterr().out
        rows = [line.fullmatch(ln).groups() for ln in out.splitlines()]
        assert rows == [
            (r.instance["key"], str(r.n), str(r.m), str(r.min_cut),
             str(r.meets_guarantee), r.oracle and str(r.oracle["optimum"]))
            for r in run_suite(suite)
        ]

    def test_oracle_and_verify_without_json_print_indented_json(self, tmp_path, capsys):
        graph_file, part_file = tmp_path / "g.el", tmp_path / "p.txt"
        main(["gen", "eulerian_complete", "--q", "5", "-o", str(graph_file)])
        main(["partition", "-i", str(graph_file), "--d", "2", "-o", str(part_file)])
        capsys.readouterr()
        for argv in (["oracle", "-i", str(graph_file)],
                     ["verify", "-i", str(graph_file), "-p", str(part_file)]):
            assert main(argv) == 0
            text = capsys.readouterr().out
            assert main([*argv, "--json"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert text == json.dumps(data, sort_keys=True, indent=2) + "\n"

    def test_partition_of_empty_graph_exits_one(self, tmp_path, capsys):
        graph_file = tmp_path / "empty.el"
        graph_file.write_text("0 0\n")
        assert main(["partition", "-i", str(graph_file), "--d", "2"]) == 1
        assert capsys.readouterr().err == "error: empty graph\n"

    # a launcher that spawns `python -m dicut.cli ARGS` with its stdout and
    # stderr sent to the files OUT and ERR, and prints the child's exit code
    # and its peak RSS in KiB; a child spawned straight from the test process
    # would carry the test process's own high-water mark in ru_maxrss
    LAUNCHER = (
        "import os, subprocess, sys\n"
        "out, err, *args = sys.argv[1:]\n"
        "with open(out, 'w') as o, open(err, 'w') as e:\n"
        "    child = subprocess.Popen([sys.executable, '-m', 'dicut.cli', *args],"
        " stdout=o, stderr=e)\n"
        "    _, status, usage = os.wait4(child.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )

    @pytest.mark.parametrize(
        "m, body, flags, err",
        [
            (0, "", [], "minimum outdegree 0 at vertex 0; need at least 2"),
            (2, "0 1\n1 0\n", [], "minimum outdegree 0 at vertex 2; need at least 2"),
            (1, "", [], "header promises 1 edges, found 0"),
            (1, "0 0\n", [], "edge #0 (0,0): loops are not allowed"),
            (2, "0 1\n0 1\n", [], "edge #1 (0,1): duplicate directed edge"),
            (1, "0 2000000\n", [],
             "edge #0 (0,2000000): vertex id out of range [0,2000000)"),
            (0, "", ["--epsilon", "0.3"], "epsilon must lie in (0, 1/4), got 0.3"),
        ],
        ids=["empty", "sink-2", "missing-line", "loop", "duplicate", "range",
             "epsilon"],
    )
    def test_partition_with_more_vertices_than_edges_builds_nothing_of_n(
        self, tmp_path, m, body, flags, err
    ):
        """With n > m some vertex has no out-edge, so `partition` names the
        first from the body alone, after the config's and then the parse's
        errors, and never builds n adjacency lists."""
        graph_file = tmp_path / "g.el"
        graph_file.write_text(f"2000000 {m}\n{body}")
        out, errf = tmp_path / "out", tmp_path / "err"
        proc = subprocess.run(
            [sys.executable, "-c", self.LAUNCHER, str(out), str(errf),
             "partition", "-i", str(graph_file), "--d", "2", *flags],
            capture_output=True, text=True, env=_cli_env(), check=True,
        )
        code, peak_kib = map(int, proc.stdout.split())
        assert (code, out.read_text(), errf.read_text()) == (1, "", f"error: {err}\n")
        assert peak_kib < 64 * 1024

    @pytest.mark.parametrize("header", ["3 0", "3 6"], ids=["sink", "parse"])
    def test_partition_checks_its_config_before_reading_the_body(
        self, tmp_path, capsys, monkeypatch, header
    ):
        """A bad --epsilon exits 1 before the body is read, whether n > m
        would send it to _first_sink or n <= m to parse_edge_list."""
        def unreachable(*args):
            raise AssertionError("the body was read before the config was checked")

        monkeypatch.setattr(cli_mod, "_first_sink", unreachable)
        monkeypatch.setattr(cli_mod, "parse_edge_list", unreachable)
        graph_file = tmp_path / "g.el"
        graph_file.write_text(f"{header}\n")
        argv = ["partition", "-i", str(graph_file), "--d", "2", "--epsilon", "0.3"]
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", "error: epsilon must lie in (0, 1/4), got 0.3\n"
        )

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_bench_jobs_below_one_exit_one(self, capsys, jobs):
        assert main(["bench", "--suite", "oracle-small", "--jobs", jobs]) == 1
        assert capsys.readouterr() == (
            "", f"error: jobs must be at least 1, got {jobs}\n"
        )

    def test_partition_sha256_of_a_crlf_file(self, tmp_path, capsys):
        # the CRLF copy parses to the same graph and report, but its digest
        # is that of its own bytes, not of its LF twin's
        lf, crlf = tmp_path / "lf.el", tmp_path / "crlf.el"
        main(["gen", "random_min_outdeg", "--n", "30", "--d", "2", "-o", str(lf)])
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        capsys.readouterr()
        reports = []
        for path in (lf, crlf):
            assert main(["partition", "-i", str(path), "--d", "2", "--json"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        digests = [r["instance"]["sha256"] for r in reports]
        assert digests == [hashlib.sha256(p.read_bytes()).hexdigest() for p in (lf, crlf)]
        assert digests[0] != digests[1]
        for r in reports:
            del r["instance"], r["timings_ms"]
        assert reports[0] == reports[1]

    def test_bench_json(self, capsys):
        assert main(["bench", "--suite", "oracle-small", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == len(suite_tasks("oracle-small"))
        assert all(r["schema_version"] == 3 for r in data)


def _imported_modules(*argv):
    """Every module a `python -X importtime` child loads, read from its stderr."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True, text=True, env=_cli_env(), check=True,
    )
    return {
        ln.rsplit("|", 1)[1].strip()
        for ln in proc.stderr.splitlines()
        if ln.startswith("import time:") and not ln.endswith("imported package")
    }


class TestImportGraph:
    """Each CLI child imports only the modules its command runs."""

    @pytest.fixture(scope="class")
    def graph_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("imports") / "g.el"
        main(["gen", "random_min_outdeg", "--n", "12", "--d", "2", "--seed", "3",
              "-o", str(path)])
        return str(path)

    def test_partition_child(self, graph_file):
        loaded = _imported_modules("-m", "dicut.cli", "partition", "-i", graph_file,
                                   "--d", "2", "--json")
        assert "dicut.pipeline" in loaded
        assert not loaded & {"multiprocessing", "concurrent.futures", "dicut.oracle"}

    def test_oracle_child(self, graph_file):
        loaded = _imported_modules("-m", "dicut.cli", "oracle", "-i", graph_file)
        assert "dicut.oracle" in loaded
        assert not loaded & {"dicut.pipeline", "dicut.samplers",
                             "dicut.decomposition", "multiprocessing"}

    @pytest.mark.parametrize("command", ["partition", "oracle", "verify"])
    def test_child_loads_no_generators(self, graph_file, tmp_path, command):
        part_file = tmp_path / "p.txt"
        part_file.write_text("".join(f"{v} {1 + v % 2}\n" for v in range(12)))
        args = {"partition": ["--d", "2"], "oracle": [],
                "verify": ["-p", str(part_file)]}[command]
        loaded = _imported_modules("-m", "dicut.cli", command, "-i", graph_file,
                                   *args)
        assert "dicut.core" in loaded and "dicut.generators" not in loaded
        # only run_bench_task imports the oracle for a command besides `oracle`
        assert ("dicut.oracle" in loaded) == (command == "oracle")

    def test_package_import_loads_no_submodule(self):
        loaded = _imported_modules("-c", "import dicut")
        assert "dicut" in loaded
        assert not {name for name in loaded if name.startswith("dicut.")}


FAMILY_CHOICES = (
    "{d1_star_triangle,eulerian_complete,lower_bound,k33_oriented,"
    "k33_plus_3regular,k55_mixed,random_min_outdeg}"
)
GEN_USAGE = f"""\
usage: dicut gen [-h] [--d D] [--k K] [--n N] [--q Q] [--extra EXTRA]
                 [--seed SEED] [--patched] -o OUT
                 {FAMILY_CHOICES}
"""


def test_help_and_usage_error_text():
    """`dicut --help`, `dicut gen --help` and the usage error for an unknown
    family, byte for byte at 80 columns."""

    def child(*argv):
        return subprocess.run(
            [sys.executable, "-m", "dicut.cli", *argv], capture_output=True,
            text=True, env=dict(_cli_env(), COLUMNS="80"),
        )

    # how this Python's argparse lists an option with a short and a long name
    tiny = argparse.ArgumentParser(add_help=False)
    tiny.add_argument("-o", "--out")
    out_line = tiny.format_help().splitlines()[-1]
    top = child("--help")
    assert (top.returncode, top.stderr) == (0, "")
    assert top.stdout == """\
usage: dicut [-h] {gen,partition,oracle,decompose,verify,bench} ...

Bipartition directed graphs to maximize the smaller directional cut.

positional arguments:
  {gen,partition,oracle,decompose,verify,bench}
    gen                 generate an instance as an edge list
    partition           run the partition pipeline
    oracle              exhaustive optimum on a small instance
    decompose           star/leftover decomposition report
    verify              recompute the cuts of a partition file
    bench               run a built-in suite

options:
  -h, --help            show this help message and exit
"""
    gen = child("gen", "--help")
    assert (gen.returncode, gen.stderr) == (0, "")
    assert gen.stdout == GEN_USAGE + f"""
positional arguments:
  {FAMILY_CHOICES}

options:
  -h, --help            show this help message and exit
  --d D
  --k K
  --n N
  --q Q
  --extra EXTRA
  --seed SEED
  --patched             raise deficient outdegrees of the bipartite families
{out_line}
"""
    bad = child("gen", "nope", "-o", "x.el")
    assert (bad.returncode, bad.stdout) == (2, "")
    assert bad.stderr == GEN_USAGE + (
        "dicut gen: error: argument family: invalid choice: 'nope' (choose from "
        "'d1_star_triangle', 'eulerian_complete', 'lower_bound', 'k33_oriented', "
        "'k33_plus_3regular', 'k55_mixed', 'random_min_outdeg')\n"
    )


class TestLazyPackage:
    @pytest.mark.parametrize("name", dicut.__all__)
    def test_public_name_is_the_defining_modules_object(self, name):
        value = getattr(dicut, name)
        assert value.__module__ == f"dicut.{dicut._MODULE_OF[name]}"
        assert value is getattr(importlib.import_module(value.__module__), name)
        assert vars(dicut)[name] is value  # cached after the first lookup

    def test_dir_lists_every_public_name(self):
        assert set(dicut.__all__) <= set(dir(dicut))

    def test_star_import(self):
        namespace: dict = {}
        exec("from dicut import *", namespace)
        assert all(namespace[name] is getattr(dicut, name) for name in dicut.__all__)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            dicut.no_such_name

    def test_structural_diagnostic_is_one_object(self):
        import dicut.core
        import dicut.pipeline

        assert dicut.StructuralDiagnostic is dicut.pipeline.StructuralDiagnostic
        assert dicut.StructuralDiagnostic is dicut.core.StructuralDiagnostic
        assert StructuralDiagnostic is dicut.core.StructuralDiagnostic


def test_readme_library_tour_runs(capsys):
    """The README's library tour imports only public names and runs as shown."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    tour = re.search(r"## Library tour\n+```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(tour, "README.md", "exec"), {"__name__": "readme_tour"})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == tour.count("print(") and all(printed)
