#!/usr/bin/env python3
"""Benchmark of the snchar command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each command of the workload runs
the way users run it: a fresh ``python3 -c "from snchar.cli import main;
main()"`` process with ``PYTHONPATH=src``, issued one after another from
this process (a closed loop with one client). A pass runs the workload's
command list once; passes repeat until ``--seconds`` have elapsed, and the
metrics are medians over passes. Every command's output is checked (see
checks.py); a failed check counts as a failed command.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates an
untraced pass with a traced one, in which each command runs in
traced_cli.py, and reports the per-layer metrics (see layers.py and
NOTES.md). The last line of stdout is the JSON result; a ``meta`` line
before it records the environment.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from layers import PassTrace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CLI = "from snchar.cli import main; main()"
SETUP_REPEATS = 5


def workloads(seed: int) -> dict[str, list[list[str]]]:
    """The command list of each workload; only montecarlo uses the seed."""
    s = str(seed)
    readme = [cmd.split() for cmd in checks.EXPECTED["readme_quickstart"]]
    return {
        "exact-tables": [
            ["table", "20", "--format", "csv"],
            ["pzero", "20"],
            ["table-stats", "18", "18", "--format", "csv"],
        ],
        "bound-large": [["bound", "70", "--no-exact"]],
        "montecarlo": [
            ["mc-pzero", "20", "--samples", "50000", "--seed", s],
            ["mc-pzero", "100", "--samples", "20000", "--seed", s],
            ["goncharov", "10000", "--samples", "20000", "--seed", s],
        ],
        "cli-small": readme + [
            ["export-group", "16", "--output", "s16.json"],
            ["group", "s16.json", "--exhaustive-omega"],
        ],
    }


@dataclass
class Result:
    args: list[str]
    code: int
    out: bytes
    file: bytes | None  # contents of the --output file, if any
    wall_s: float
    cpu_s: float
    rss_mib: float
    trace: Path | None


class Runner:
    """Runs snchar commands in one scratch directory inside the checkout."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.env.pop("SNCHAR_CAP", None)
        self.traces = 0

    def run(self, args: list[str], traced: bool = False) -> Result:
        trace = None
        if traced:
            self.traces += 1
            trace = self.workdir / f"trace-{self.traces}.json"
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(trace), *args]
        else:
            argv = [sys.executable, "-c", CLI, *args]
        output = None
        if "--output" in args:
            output = self.workdir / args[args.index("--output") + 1]
            output.unlink(missing_ok=True)
        with open(self.workdir / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    cwd=self.workdir, env=self.env)
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()  # leave no command running behind an interrupted run
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.stdout.close()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            sys.stderr.write((self.workdir / "stderr.txt").read_text(errors="replace"))
        file = output.read_bytes() if output is not None and output.exists() else None
        return Result(args, code, out, file, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024, trace)


class Tally:
    """Counts attempted and failed commands and says why each failed."""

    def __init__(self):
        self.checker = checks.Checker()
        self.attempted = 0
        self.failed = 0

    def record(self, r: Result, problem: str | None = None) -> bool:
        problem = problem or self.checker.check(r.args, r.code, r.out, r.file)
        self.attempted += 1
        if problem:
            self.failed += 1
            print(f"FAILED {problem}", file=sys.stderr)
        return problem is None


def run_pass(runner, tally, commands, ptrace=None, plain=None) -> list[Result]:
    """Runs the command list once; traced into ptrace if one is given, and
    then each output must equal that of the same command in plain."""
    traced = ptrace is not None
    results = []
    for i, args in enumerate(commands):
        r = runner.run(args, traced)
        problem = None
        if plain is not None and (plain[i].out, plain[i].file) != (r.out, r.file):
            problem = f"{' '.join(args)}: tracing changed the output"
        ok = tally.record(r, problem)
        print(f"# {'traced' if traced else 'plain'} {' '.join(args)}: wall {r.wall_s:.3f} s,"
              f" cpu {r.cpu_s:.3f} s, peak rss {r.rss_mib:.1f} MiB")
        if traced and ok:
            doc = json.loads(r.trace.read_text())
            summary = ptrace.add(str(r.trace), doc)
            r.trace.unlink()
            Path(str(r.trace) + ".bin").unlink()
            print("#   in process: " + summary)
        results.append(r)
    return results


def measure(runner, tally, commands, seconds) -> dict:
    runner.run(["--help"])  # byte-compiles snchar once, untimed
    setup = []
    for _ in range(SETUP_REPEATS):
        r = runner.run(["--help"])
        tally.record(r)
        setup.append(r.wall_s)
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(runner, tally, commands))
    median = statistics.median
    return {
        "wall_s": (median(sum(r.wall_s for r in p) for p in passes), "s"),
        "cpu_s": (median(sum(r.cpu_s for r in p) for p in passes), "s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mib": (median(max(r.rss_mib for r in p) for p in passes), "MiB"),
        "success_rate": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith(("_share", "_headroom")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def measure_layers(runner, tally, commands, seconds) -> dict:
    runner.run(["--help"])  # byte-compiles snchar once, untimed
    pairs = []
    t0 = time.perf_counter()
    while not pairs or time.perf_counter() - t0 < seconds:
        plain = run_pass(runner, tally, commands)
        ptrace = PassTrace()
        traced = run_pass(runner, tally, commands, ptrace, plain)
        m = ptrace.metrics()
        m["cli.output_bytes"] = sum(len(r.out) + len(r.file or b"") for r in traced)
        m["trace.overhead_s"] = sum(r.wall_s for r in traced) - sum(r.wall_s for r in plain)
        pairs.append(m)
    return {k: (statistics.median(m[k] for m in pairs), layer_unit(k)) for k in pairs[0]}


def metadata() -> dict:
    def git_rev():
        try:
            return subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    def cpu_model():
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "missing"
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {"git_revision": git_rev(), "python": platform.python_version(),
            "numpy": numpy, "cpu_model": cpu_model(), "nproc": os.cpu_count(),
            "src_lines": src_lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads(0)))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    if not (ROOT / "src" / "snchar" / "cli.py").is_file():
        print(f"error: no snchar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        runner, tally = Runner(workdir), Tally()
        commands = workloads(a.seed)[a.workload]
        measure_fn = measure_layers if a.trace else measure
        metrics = measure_fn(runner, tally, commands, a.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print("meta " + json.dumps(metadata()))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
