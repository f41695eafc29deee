import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dicut
import dicut.cli as cli_mod
import dicut.pipeline as pipeline_mod
from dicut.cli import main
from dicut.core import read_edge_list, read_partition
from dicut.harness import (
    BenchTask,
    RunReport,
    run_bench_task,
    run_suite,
    suite_tasks,
    verify_partition,
)
from dicut.generators import GadgetSpec
from dicut.pipeline import PipelineConfig, StructuralDiagnostic


def _cli_env():
    """The environment for a `python -m dicut.cli` child that imports this
    checkout's package."""
    src = str(Path(dicut.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestRunReport:
    def test_round_trip(self):
        task = BenchTask("demo", GadgetSpec("lower_bound", {"d": 2, "k": 2}), 2,
                         with_oracle=True)
        report = run_bench_task(task)
        data = json.loads(report.to_json())
        again = RunReport.from_dict(data)
        assert again == report
        assert again.to_json() == report.to_json()

    def test_canonical_form_drops_timings(self):
        task = BenchTask("demo", GadgetSpec("eulerian_complete", {"q": 5}), 2)
        report = run_bench_task(task)
        assert "timings_ms" not in json.loads(report.to_json(include_timings=False))

    def test_verify_agrees_with_report(self):
        task = BenchTask("demo", GadgetSpec("lower_bound", {"d": 3, "k": 3}), 3)
        report = run_bench_task(task)
        g = task.spec.build()
        check = verify_partition(g, report.bipartition())
        assert (check["e12"], check["e21"]) == (report.e12, report.e21)


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
        a = [r.to_json(include_timings=False) for r in serial]
        b = [r.to_json(include_timings=False) for r in parallel]
        assert a == b

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
        cases = [
            ["gen", "d1_star_triangle", "--n", "6"],
            ["gen", "eulerian_complete", "--q", "7"],
            ["gen", "lower_bound", "--d", "3", "--k", "1"],
            ["gen", "k33_oriented", "--n", "12", "--patched"],
            ["gen", "k33_plus_3regular", "--n", "12"],
            ["gen", "k55_mixed", "--n", "13"],
            ["gen", "random_min_outdeg", "--n", "15", "--d", "2", "--seed", "4"],
        ]
        for i, argv in enumerate(cases):
            out = tmp_path / f"case{i}.el"
            assert main(argv + ["-o", str(out)]) == 0
            read_edge_list(str(out))

    def test_partition_json_echoes_the_whole_config(self, tmp_path, capsys):
        graph_file = tmp_path / "g.el"
        main(["gen", "lower_bound", "--d", "3", "--k", "2", "-o", str(graph_file)])
        capsys.readouterr()
        assert main(["partition", "-i", str(graph_file), "--d", "3",
                     "--epsilon", "0.1", "--seed", "5", "--max-attempts", "7",
                     "--no-local-search", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        config = PipelineConfig(d=3, epsilon=0.1, seed=5, max_attempts=7,
                                enable_local_search=False)
        assert report["config"] == dataclasses.asdict(config)

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

    def test_invalid_input_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.el"
        bad.write_text("2 1\n0 0\n")
        assert main(["oracle", "-i", str(bad)]) == 1
        missing = tmp_path / "missing.el"
        assert main(["oracle", "-i", str(missing)]) == 1

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
        # without local search the only branch degenerates to the empty cut
        code = main(["partition", "-i", str(graph_file), "--d", "2",
                     "--no-local-search", "--max-attempts", "1", "--strict"])
        assert code == 2
        # local search rescues it
        assert main(["partition", "-i", str(graph_file), "--d", "2",
                     "--strict"]) == 0

    def test_structural_diagnostic_exit_three(self, tmp_path, monkeypatch, capsys):
        graph_file = tmp_path / "g.el"
        main(["gen", "lower_bound", "--d", "2", "--k", "2", "-o", str(graph_file)])

        def boom(digraph, config):
            raise StructuralDiagnostic("fabricated", {"reason": "test"})

        monkeypatch.setattr(pipeline_mod, "run", boom)
        assert main(["partition", "-i", str(graph_file), "--d", "2"]) == 3

    def test_zero_max_attempts_exit_one(self, tmp_path, capsys):
        graph_file = tmp_path / "g.el"
        # k = 6 takes the structural branch, whose sampler never validated it
        main(["gen", "lower_bound", "--d", "2", "--k", "6", "-o", str(graph_file)])
        capsys.readouterr()
        assert main(["partition", "-i", str(graph_file), "--d", "2",
                     "--max-attempts", "0"]) == 1
        assert capsys.readouterr().err == "error: max_attempts must be at least 1\n"

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

    @pytest.mark.parametrize("epsilon", ["0", "-1"])
    def test_decompose_nonpositive_epsilon_exit_one(self, tmp_path, epsilon):
        graph_file = tmp_path / "tri.el"
        graph_file.write_text("3 3\n0 1\n1 2\n2 0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "dicut.cli", "decompose", "-i", str(graph_file),
             "--epsilon", epsilon],
            capture_output=True, text=True, env=_cli_env(),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

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

    def test_bench_json(self, capsys):
        assert main(["bench", "--suite", "oracle-small", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == len(suite_tasks("oracle-small"))
        assert all(r["schema_version"] == 1 for r in data)


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

    def test_package_import_loads_no_submodule(self):
        loaded = _imported_modules("-c", "import dicut")
        assert "dicut" in loaded
        assert not {name for name in loaded if name.startswith("dicut.")}


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
