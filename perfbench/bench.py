"""Drive dicut from outside through its public API and CLI, sequentially.

An untraced run (``--trace 0``) reports the end-to-end metrics: set-ups,
library solve passes and CLI passes (one child process at a time)
interleave until ``setup_reps`` set-ups have run and ``--seconds`` have
passed.  Each instance (and each CLI command) is timed on its own, and a time
metric is the sum over them of a trimmed mean, scaled to a reference speed.  A
traced run (``--trace 1``) alternates an untraced solve pass with a traced
pass (library solve plus the CLI entry point called in process) and reports
the per-layer metrics.  Every output is recounted by ``checks``; each failure
counts in ``failed``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Any

import checks
import spans
from dicut import cli, oracle, pipeline
from workloads import WORKLOADS, Instance, Workload, build_instances

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "cli_s": "s",
    "peak_rss_mb": "MB",
    "cut_ratio": "ratio",
    "pass_rate": "ratio",
}

PER_LAYER = {
    **{f"{n}.self_s": "s" for n in spans.SELF_TIME},
    **{f"{n}.calls": "count" for n in spans.CALLS},
    "core.edge_visits": "count",
    "pipeline.local_search.gain": "edges",
    "decomposition.stars": "count",
    "decomposition.tight": "count",
    "samplers.attempts": "count",
    "samplers.accept_ratio": "ratio",
    "oracle.evaluated": "count",
    "oracle.below_optimum": "count",
    "trace_overhead_s": "s",
}


class Bench:
    """One benchmark run of one workload and seed; counts every operation."""

    def __init__(self, root: str, workload: Workload, seed: int, workdir: str) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.attempted = 0
        self.failures: list[str] = []
        self.edges: dict[str, checks.EdgeList] = {}
        self.optimum: dict[str, int] = {}
        self.fingerprints: dict[str, dict[str, Any]] = {}
        self.cut_ratios: dict[str, float] = {}
        self._recounts: dict[tuple[str, str], tuple[int, int] | str] = {}
        self.pace: list[float] = []

    # -- set-up --------------------------------------------------------------

    def setup(self) -> list[Instance]:
        gc.collect()
        instances = build_instances(self.workload, self.seed, self.workdir)
        if not self.edges:
            self.edges = {i.key: checks.read_edge_list(i.path) for i in instances}
        return instances

    # -- checks ---------------------------------------------------------------

    def _op(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{self.workload.name}/{what}: {problem}")

    def _cut_problem(self, key: str, partition: str, e12: int, e21: int) -> str | None:
        memo = (key, partition)
        if memo not in self._recounts:
            try:
                self._recounts[memo] = checks.recount(self.edges[key], partition)
            except ValueError as exc:
                self._recounts[memo] = str(exc)
        got = self._recounts[memo]
        if got != (e12, e21):
            return f"claimed (e12, e21) = {(e12, e21)}, recount gives {got}"
        return None

    def _check_run(self, inst: Instance, result: Any) -> str | None:
        part = "".join(str(s) for s in result.partition.side)
        problem = self._cut_problem(inst.key, part, result.stats.e12, result.stats.e21)
        if problem is None and not result.meets_guarantee:
            problem = "meets_guarantee is False"
        if problem is None and inst.key not in self.fingerprints:
            self.fingerprints[inst.key] = checks.fingerprint(part, result.branch_trace)
            self.cut_ratios[inst.key] = result.stats.min_cut / inst.graph.m
        return problem

    def _check_report(
        self, inst: Instance, code: int, out: str, part_path: str
    ) -> str | None:
        if code != 0:
            return f"exit code {code}: {out.strip()}"
        try:
            report = json.loads(out.strip().splitlines()[-1])
            e12, e21 = report["e12"], report["e21"]
            problem = self._cut_problem(inst.key, report["partition"], e12, e21)
            if problem is None:
                written = checks.read_partition(part_path, self.edges[inst.key].n)
                problem = self._cut_problem(inst.key, written, e12, e21)
                if problem is not None:
                    problem = "partition file: " + problem
            if problem is None and report["meets_guarantee"] is not True:
                problem = "meets_guarantee is not true"
        except (ValueError, KeyError, IndexError, OSError) as exc:
            return f"unreadable output: {exc!r}"
        return problem

    def _check_oracle(self, inst: Instance, code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}: {out.strip()}"
        try:
            optimum = json.loads(out.strip().splitlines()[-1])["optimum"]
        except (ValueError, KeyError, IndexError) as exc:
            return f"unreadable output: {exc!r}"
        expected = self.optimum.get(inst.key)
        if optimum != expected:
            return f"oracle optimum {optimum}, library gave {expected}"
        return None

    # -- passes ----------------------------------------------------------------

    def _pace_after(self, seconds: float) -> None:
        """Time the reference loop once per PACE_EVERY_S of measured time, so
        the machine's speed is sampled in step with the measurements."""
        self.pace.extend(_pace() for _ in range(1 + int(seconds / PACE_EVERY_S)))

    def solve_pass(
        self, instances: list[Instance], seed: int
    ) -> tuple[dict[str, float], int]:
        """In-process pipeline.run over the instances (plus the oracle on
        exact_small); returns (seconds per instance, runs below the oracle
        optimum)."""
        gc.collect()
        done: list[tuple[Instance, Any, int | None]] = []
        errors: list[tuple[Instance, str]] = []
        times: dict[str, float] = {}
        for inst in instances:
            t0 = time.perf_counter()
            try:
                config = pipeline.PipelineConfig(d=inst.d, seed=seed)
                result = pipeline.run(inst.graph, config)
                best = None
                if self.workload.with_oracle:
                    best = oracle.exact_judicious(inst.graph).optimum
            except Exception:  # a failed operation is counted, not fatal
                errors.append((inst, traceback.format_exc(limit=3)))
                continue
            times[inst.key] = time.perf_counter() - t0
            self._pace_after(times[inst.key])
            done.append((inst, result, best))
        for inst, why in errors:
            self._op(f"{inst.key}/run", why)
        below = 0
        for inst, result, best in done:
            self._op(f"{inst.key}/run", self._check_run(inst, result))
            if best is not None:
                self.optimum.setdefault(inst.key, best)
                problem = None
                if result.stats.min_cut > best:
                    problem = f"min_cut {result.stats.min_cut} above optimum {best}"
                self._op(f"{inst.key}/oracle", problem)
                below += result.stats.min_cut < best
        return times, below

    def _spawn(self, argv: list[str]) -> tuple[float, int, int, str]:
        """Run one CLI child; returns (seconds, exit code, max RSS in KiB, stdout).
        A failing child's standard error goes into its exit-code message."""
        out_path = os.path.join(self.workdir, "child.out")
        err_path = os.path.join(self.workdir, "child.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "dicut.cli", *argv],
                stdout=out, stderr=err, cwd=self.root, env=self.env,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = time.perf_counter() - t0
        self._pace_after(elapsed)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                return elapsed, proc.returncode, usage.ru_maxrss, fh.read()[-500:]
        with open(out_path, encoding="utf-8") as fh:
            return elapsed, proc.returncode, usage.ru_maxrss, fh.read()

    def _partition_argv(self, inst: Instance, seed: int) -> tuple[list[str], str]:
        part = os.path.join(self.workdir, f"{inst.key}.part")
        with contextlib.suppress(FileNotFoundError):
            os.remove(part)
        argv = ["partition", "-i", inst.path, "--d", str(inst.d),
                "--seed", str(seed), "--json", "-o", part]
        return argv, part

    def cli_pass(
        self, instances: list[Instance], seed: int
    ) -> tuple[dict[str, float], int]:
        """`dicut partition` (and `dicut oracle` on exact_small) per instance in
        child processes; returns (wall seconds per child, max RSS in KiB)."""
        times: dict[str, float] = {}
        peak = 0
        for inst in instances:
            argv, part = self._partition_argv(inst, seed)
            elapsed, code, rss, out = self._spawn(argv)
            times[f"{inst.key}/partition"], peak = elapsed, max(peak, rss)
            self._op(f"{inst.key}/cli", self._check_report(inst, code, out, part))
            if self.workload.with_oracle:
                argv = ["oracle", "-i", inst.path, "--json"]
                elapsed, code, rss, out = self._spawn(argv)
                times[f"{inst.key}/oracle"], peak = elapsed, max(peak, rss)
                self._op(f"{inst.key}/cli-oracle", self._check_oracle(inst, code, out))
        return times, peak

    def cli_in_process(self, instances: list[Instance], seed: int) -> None:
        """The same CLI commands through dicut.cli.main in this process, so the
        traced pass covers parse_edge_list and build_report."""

        def call(argv: list[str]) -> tuple[int, str]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        for inst in instances:
            argv, part = self._partition_argv(inst, seed)
            try:
                code, out = call(argv)
                problem = self._check_report(inst, code, out, part)
            except Exception:  # a failed operation is counted, not fatal
                problem = traceback.format_exc(limit=3)
            self._op(f"{inst.key}/cli-in-process", problem)
            if self.workload.with_oracle:
                try:
                    code, out = call(["oracle", "-i", inst.path, "--json"])
                    problem = self._check_oracle(inst, code, out)
                except Exception:  # a failed operation is counted, not fatal
                    problem = traceback.format_exc(limit=3)
                self._op(f"{inst.key}/cli-in-process-oracle", problem)

    # -- runs ------------------------------------------------------------------

    def untraced_run(self, seconds: float) -> tuple[dict[str, float], dict[str, Any]]:
        spans.assert_unwrapped()
        # Set-ups, solve passes and CLI passes interleave over the whole run,
        # so that drift in the machine's speed reaches every metric alike: a
        # set-up precedes each pass until setup_reps have run, and the kind of
        # pass with less time so far goes next, unless it would overrun the
        # run.  Pass i of each kind runs with pipeline seed seed + i: the
        # number of local-search sweeps depends on the seed, so the typical
        # pass stands for a run rather than one seed's luck.  Each instance
        # (and each CLI command) is timed on its own (see _typical).  Times
        # are then scaled to the reference speed (see PACE_REFERENCE_S).
        reps = self.workload.setup_reps
        setup: dict[str, list[float]] = {}
        solve: dict[str, list[float]] = {}
        children: dict[str, list[float]] = {}
        done = {"solve": 0, "cli": 0}  # passes run
        spent = {"solve": 0.0, "cli": 0.0}  # wall seconds of the passes
        last = {"solve": 0.0, "cli": 0.0}  # wall seconds of the last pass
        runs, peak_kib = 0, 0
        instances: list[Instance] = []
        start = time.perf_counter()
        while True:
            if runs < reps:
                instances = []  # drop the previous copy before building the next
                instances = self.setup()
                runs += 1
                _extend(setup, {i.key: i.setup_s for i in instances})
                self._pace_after(sum(i.setup_s for i in instances))
            kind = "solve" if spent["solve"] <= spent["cli"] else "cli"
            if done["solve"] and done["cli"]:
                if time.perf_counter() - start + last[kind] > seconds:
                    if runs < reps:
                        continue
                    break
            pass_start = time.perf_counter()
            if kind == "solve":
                times, _ = self.solve_pass(instances, self.seed + done[kind])
                _extend(solve, times)
            else:
                times, rss = self.cli_pass(instances, self.seed + done[kind])
                _extend(children, times)
                peak_kib = max(peak_kib, rss)
            done[kind] += 1
            last[kind] = time.perf_counter() - pass_start
            spent[kind] += last[kind]
        scale = PACE_REFERENCE_S / statistics.fmean(self.pace)
        ratios = list(self.cut_ratios.values())
        metrics = {
            "setup_s": _typical(setup) * scale,
            "solve_s": _typical(solve) * scale,
            "cli_s": _typical(children) * scale,
            "peak_rss_mb": peak_kib / 1024,
            "cut_ratio": statistics.fmean(ratios) if ratios else 0.0,
            "pass_rate": 1 - len(self.failures) / self.attempted,
        }
        samples = {"setup_s": setup, "solve_s": solve, "cli_s": children,
                   "pace_s": self.pace, "scale": scale}
        return metrics, samples

    def traced_run(self, seconds: float) -> tuple[dict[str, float], dict[str, Any]]:
        setup_tracer = spans.Tracer()
        with spans.traced(setup_tracer):
            instances = self.setup()
        passes: list[dict[str, float]] = []
        plain_times, traced_times = [], []
        start, last = time.perf_counter(), 0.0
        # a round that would overrun the run is not started
        while not passes or time.perf_counter() - start + last <= seconds:
            round_start = time.perf_counter()
            seed = self.seed + len(passes)
            spans.assert_unwrapped()
            plain_times.append(sum(self.solve_pass(instances, seed)[0].values()))
            tracer = spans.Tracer()
            with spans.traced(tracer):
                times, below = self.solve_pass(instances, seed)
                self.cli_in_process(instances, seed)
            tracer.counters["oracle.below_optimum"] += below
            traced_times.append(sum(times.values()))
            passes.append(spans.raw_metrics(tracer))
            last = time.perf_counter() - round_start
        setup_raw = spans.raw_metrics(setup_tracer)
        raw = {k: v + statistics.median(p[k] for p in passes)
               for k, v in setup_raw.items()}
        accepted, attempts = raw.pop("samplers.accepted"), raw["samplers.attempts"]
        raw["samplers.accept_ratio"] = accepted / attempts if attempts else 0.0
        overhead = statistics.median(traced_times) - statistics.median(plain_times)
        raw["trace_overhead_s"] = overhead
        samples = {"solve_s": plain_times, "traced_solve_s": traced_times}
        return raw, samples


# Reference speed.  On a shared host the speed of a vCPU moves by up to half
# as co-tenants come and go, between states that last seconds to minutes, and
# a run's raw times follow the mix of states it happened to meet.  So the
# benchmark also times a fixed pure-Python loop (_pace, part of the benchmark,
# never of dicut) once per PACE_EVERY_S of measured time, and reports each
# time metric scaled by PACE_REFERENCE_S / (mean loop time of the run).  Means,
# not medians, on both sides: with two speed states a median jumps between
# them, while a mean follows the share of time spent in each.  Seconds on a
# machine where the loop takes PACE_REFERENCE_S, about its mean on the
# 2-vCPU Xeon VM the benchmark was tuned on.  A slower dicut still reads
# slower by the same factor; raw times and the scale are in the run's record.
PACE_REFERENCE_S = 0.008
PACE_EVERY_S = 0.2
_PACE_DATA = list(range(4096))


def _pace() -> float:
    """Time a fixed piece of pure-Python work (about 10 ms)."""
    t0 = time.perf_counter()
    data, acc, seen = _PACE_DATA, 0, {}
    for _ in range(12):
        for x in data:
            acc = (acc * 31 + x) & 0xFFFF
            seen[acc] = x
    return time.perf_counter() - t0


def _extend(samples: dict[str, list[float]], times: dict[str, float]) -> None:
    for key, elapsed in times.items():
        samples.setdefault(key, []).append(elapsed)


def _typical(samples: dict[str, list[float]]) -> float:
    """A pass's typical time: the sum over its parts of the mean of the middle
    half of their samples.  The trimming drops one-off stalls, which dominate
    a plain mean of the sub-millisecond set-ups of small instances; the mean
    follows the share of fast and slow samples, where a median jumps."""
    return sum(_middle_mean(v) for v in samples.values())


def _middle_mean(values: list[float]) -> float:
    cut = len(values) // 4
    return statistics.fmean(sorted(values)[cut:len(values) - cut])


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str], root: str) -> int:
    args = _parse_args(argv)
    # on SIGTERM, unwind so that a running CLI child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        bench = Bench(root, workload, args.seed, workdir)
        if args.trace:
            values, samples = bench.traced_run(args.seconds)
            units = PER_LAYER
        else:
            values, samples = bench.untraced_run(args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stamp = {
        "git_sha": checks.git_sha(root),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "trace_overhead_s": values.get("trace_overhead_s"),
    }
    record = {
        "stamp": stamp,
        "metrics": values,
        "samples": samples,
        "fingerprints": bench.fingerprints,
        "failures": bench.failures,
    }
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for failure in bench.failures[:10]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(f"perfbench: details in {os.path.relpath(path, root)}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0
