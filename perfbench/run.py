#!/usr/bin/env python3
"""Benchmark of the parafrob CLI: end to end, and per layer from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1     # every workload
    python3 perfbench/run.py --self-test                  # failure path, smoke run

--trace 0 runs the workload's commands as `python -m parafrob.cli`
subprocesses, one at a time (a closed loop with one client), repeats the
sequence for --seconds and reports medians over the passes. --trace 1 runs
the same commands inside this process, alternating untraced and traced
passes, and reports per-layer numbers from the traced ones. Answers are
checked outside the timed region. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from io import StringIO
from pathlib import Path
from shutil import rmtree

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
# The program is measured from the checkout's own sources, never from an
# installed copy; without them the benchmark exits without a result.
if not (ROOT / "src" / "parafrob" / "cli.py").is_file():
    sys.exit(f"error: no parafrob sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from parafrob import cli, pilp  # noqa: E402

DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 1
SETUP_STARTS = 11  # cold starts per run; setup_s is their median
PROPAGATE_REPEATS = 5
COMMAND_LIMIT_S = 90  # a command still running after this is killed and fails


@dataclass
class Result:
    code: int
    stdout: str
    stderr: str
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0


class Tally:
    """Commands attempted and failed, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, cmd, result, workdir):
        """Check one command's outcome and return its answer lines.

        A command fails on a nonzero exit code (exit 3 and exit 4
        included) or on an answer its check rejects.
        """
        self.attempted += 1
        lines, error = [], None
        if result.code != 0:
            error = f"exit code {result.code}: {result.stderr.strip()[-200:]}"
        else:
            try:
                lines = cmd.answer(result.stdout, workdir)
                error = cmd.check(lines)
            except Exception as exc:  # malformed output is a failed command
                error = f"unreadable answer: {exc!r}"
        if error is not None:
            self.failed += 1
            self.errors.append(f"{cmd.argv[0]}: {error}")
        return lines


def cli_env():
    """Environment of the CLI subprocesses: the checkout's sources first,
    and bytecode cached next to them as an installed package would have."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    return env


def run_subprocess(argv, workdir, env):
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "parafrob.cli", *argv],
                                cwd=workdir, env=env, stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(proc.returncode, out_path.read_text(), err_path.read_text(), wall,
                  usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def run_inprocess(argv, invoke):
    out, err = StringIO(), StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            invoke(argv)
        code = 0
    except SystemExit as exc:  # click ends every standalone run this way
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return Result(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def measure_setup(workdir, env, tally):
    """Median wall time of a cold CLI start: interpreter, imports, dispatch
    and a trivial compute. A first, untimed start fills the bytecode cache."""
    cmd = workloads.setup_command()
    tally.record(cmd, run_subprocess(cmd.argv, workdir, env), workdir)
    walls = []
    for _ in range(SETUP_STARTS):
        result = run_subprocess(cmd.argv, workdir, env)
        tally.record(cmd, result, workdir)
        walls.append(result.wall)
    return statistics.median(walls)


def _done(start, passes, seconds):
    """True when one more pass of the average length would overrun."""
    elapsed = time.perf_counter() - start
    return elapsed * (passes + 1) / passes > seconds


def end_to_end(workload, seconds, workdir, env, tally):
    """Repeat the command sequence as subprocesses; medians over passes."""
    setup_s = measure_setup(workdir, env, tally)
    passes, answers = [], []
    start = time.perf_counter()
    while not passes or not _done(start, len(passes), seconds):
        workload.prepare(workdir)
        results = []
        for cmd in workload.commands:
            result = run_subprocess(cmd.argv, workdir, env)
            results.append(result)
            answers.append(tally.record(cmd, result, workdir))
        passes.append(results)
    median = statistics.median
    metrics = {
        "setup_s": setup_s,
        "wall_s": median(sum(r.wall for r in p) for p in passes),
        "cpu_s": median(sum(r.cpu for r in p) for p in passes),
        "peak_rss_mb": median(max(r.rss_mb for r in p) for p in passes),
    }
    return metrics, answers[:len(workload.commands)], len(passes)


def per_layer(workload, seconds, workdir, tally, spans_path):
    """Alternate untraced and traced in-process passes; per-layer medians."""

    def invoke(argv):
        cli.main.main(args=argv, prog_name="parafrob")

    untraced, traced, tracers, answers, first = [], [], [], [], None
    cwd = os.getcwd()
    os.chdir(workdir)  # the commands name their files relative to it
    try:
        start = time.perf_counter()
        while not traced or not _done(start, len(traced), seconds):
            pair = [None, spans.Tracer()]  # alternate which side runs first
            for tracer in pair if len(traced) % 2 else pair[::-1]:
                workload.prepare(workdir)
                results = []
                with tracer.installed() if tracer else nullcontext():
                    for cmd in workload.commands:
                        run = tracer.span("cli", cmd.argv[0], invoke) if tracer else invoke
                        results.append(run_inprocess(cmd.argv, run))
                        answers.append(tally.record(cmd, results[-1], workdir))
                first = first or results
                (traced if tracer else untraced).append(sum(r.wall for r in results))
                if tracer:
                    tracers.append(tracer)
    finally:
        os.chdir(cwd)
    spans.write(spans_path, tracers)

    median = statistics.median
    stats = [t.layer_stats() for t in tracers]
    metrics = {f"{layer}.self_s": median(s[layer]["self_s"] for s in stats)
               for layer in spans.LAYERS}
    for layer in ("frobenius", "pilp", "eqpfit"):
        metrics[f"{layer}.calls"] = statistics.median_low(s[layer]["calls"] for s in stats)
    metrics["qpoly.evals"] = statistics.median_low(s["qpoly"]["evals"] for s in stats)

    inputs = workload.pilp_inputs(answers[:len(workload.commands)])
    points = sum(size for _, _, size in inputs)
    metrics["pilp.points"] = points
    metrics["pilp.us_per_point"] = metrics["pilp.self_s"] / points * 1e6 if points else 0.0
    passes = []
    for _ in range(PROPAGATE_REPEATS):
        begin = time.perf_counter()
        for system, t, _ in inputs:
            pilp.propagated_box(system, t)
        passes.append(time.perf_counter() - begin)
    metrics["pilp.propagate_s"] = median(passes) if inputs else 0.0

    periods = checked = skipped = 0
    for cmd, result in zip(workload.commands, first):
        lines = result.stdout.splitlines()
        if cmd.kind == "fit":
            periods += max((int(line.split()[1]) for line in lines
                            if line.startswith(("period ", "diagnostic "))), default=0)
        elif cmd.kind == "crosscheck":
            checked += sum(int(line.split()[1]) for line in lines if line.startswith("checked "))
            skipped += sum(1 for line in lines if "SKIPPED" in line)
    metrics["eqpfit.periods_tried"] = periods
    metrics["reduction.rows_checked"] = checked
    metrics["reduction.rows_skipped"] = skipped
    metrics["trace.overhead_s"] = median(traced) - median(untraced)
    return metrics, answers[:len(workload.commands)], len(traced)


def run_workload(name, seed, seconds, traced, size, spec):
    """Build the workload, measure it, check it; (summary, report lines)."""
    workdir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = cli_env()
    tally = Tally()
    try:
        workload = workloads.BUILDERS[name](seed, size)
        if traced:
            values, answers, passes = per_layer(
                workload, seconds, workdir, tally, WORK / f"spans-{name}-seed{seed}.jsonl")
        else:
            values, answers, passes = end_to_end(workload, seconds, workdir, env, tally)
    finally:
        rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if traced else "end_to_end"]}
    lines = [f"{name} {key} {m['value']} {m['unit']}" for key, m in metrics.items()]
    lines.append(f"{name} passes {passes}")
    ratio = tally.failed / tally.attempted
    lines.append(f"{name} fail_ratio {ratio} ratio ({tally.failed} of {tally.attempted} commands)")
    if traced:
        total = sum(values[f"{layer}.self_s"] for layer in spans.LAYERS)
        lines += [f"{name} share {layer} {values[f'{layer}.self_s'] / total:.4f}"
                  for layer in spans.LAYERS]
    digest = hashlib.sha256("\n".join(line for a in answers for line in a).encode()).hexdigest()
    if size == "full" and seed == DEFAULT_SEED:
        recorded = json.loads(DIGESTS.read_text()).get(name)
        lines.append(f"{name} answers_sha256 {digest} "
                     f"({'matches' if recorded == digest else 'differs from'} "
                     f"the digest recorded for seed {DEFAULT_SEED})")
    lines += [f"{name} FAILED {error}" for error in tally.errors[:5]]
    summary = {"correct": tally.failed == 0, "attempted": tally.attempted,
               "failed": tally.failed, "metrics": metrics}
    return summary, lines


def self_test(spec):
    """The failure path must count, and a tiny run must print every metric."""
    outcomes = []
    workdir = WORK / f"self-test-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = cli_env()
    try:
        workload = workloads.crosscheck(DEFAULT_SEED, "tiny")
        workload.prepare(workdir)
        cmd = workload.commands[0]
        for label, probe, want_failed in [
            ("crosscheck as given", cmd, 0),
            ("crosscheck --inject-mismatch (exit 4)",
             replace(cmd, argv=cmd.argv + ["--inject-mismatch"]), 1),
        ]:
            tally = Tally()
            tally.record(probe, run_subprocess(probe.argv, workdir, env), workdir)
            outcomes.append((f"{label} counts {want_failed} failure(s)",
                             tally.failed == want_failed))
        right = workloads.setup_command()
        wrong = replace(right, check=workloads.expect_lines(["F 8"]))  # F(3, 5) is 7
        for label, probe, want_failed in [("right reference", right, 0),
                                          ("wrong reference", wrong, 1)]:
            tally = Tally()
            tally.record(probe, run_subprocess(probe.argv, workdir, env), workdir)
            outcomes.append((f"{label} counts {want_failed} failure(s)",
                             tally.failed == want_failed))
    finally:
        rmtree(workdir, ignore_errors=True)

    for name in workloads.BUILDERS:
        for traced, group in ((False, "end_to_end"), (True, "per_layer")):
            summary, _ = run_workload(name, DEFAULT_SEED, 1, traced, "tiny", spec)
            printed = {k: v["unit"] for k, v in summary["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            outcomes.append((f"tiny {name} --trace {int(traced)}: correct, "
                             f"every {group} metric printed with its unit",
                             summary["correct"] and printed == wanted
                             and all(isinstance(v["value"], (int, float))
                                     for v in summary["metrics"].values())))
    for label, passed in outcomes:
        print(f"{'PASS' if passed else 'FAIL'} {label}")
    return all(passed for _, passed in outcomes)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="sweep, crosscheck, rank or all [default: all]")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload [default: run_seconds]")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.self_test:
        sys.exit(0 if self_test(spec) else 1)
    names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    if any(name not in workloads.BUILDERS for name in names):
        sys.exit(f"error: unknown workload {args.workload!r}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    summaries = {}
    for name in names:
        summary, lines = run_workload(name, args.seed, seconds, bool(args.trace), "full", spec)
        print("\n".join(lines), flush=True)
        summaries[name] = summary
    if len(names) == 1:
        result = summaries[names[0]]
    else:
        result = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{name}.{key}": m for name, s in summaries.items()
                        for key, m in s["metrics"].items()},
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
