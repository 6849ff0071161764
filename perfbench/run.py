#!/usr/bin/env python3
"""Benchmark for lrlab: one run of one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists):
    table1   cold `lrlab table1 --format json`, one fresh interpreter per rep
    verify   cold `lrlab verify --case all`
    oracles  one cold interpreter calling the exact oracles at their desk limits
    queries  seeded closed-loop stream of library calls from one client, caches warm

Every child is a fresh single-threaded interpreter run one at a time, on the
same single CPU as the benchmark; its CPU time and peak RSS come from its own
rusage (os.wait4).  Each timed sample comes with readings of the host speed
reference (speed.py), taken inside the child during the work; its times are
reported scaled to the reference's nominal speed, less the readings' own
time.  The raw times and speed factors are in the report.  Reps repeat
until S seconds have passed (at least three with --trace 0).  Every output is
checked against perfbench/golden/; each mismatch, non-zero exit or failed
query counts as a failed operation.

With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of traced reps, which
alternate with untraced reps so the tracing overhead can be reported.  The
line before it is the full report (stamps, samples, failures), also written
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy

import speed
from common import CHILD, OUT, PYTHON, ROOT, SRC, child_env, have_sources
from golden import (
    TABLE1_ARGS,
    VERIFY_ARGS,
    Tally,
    budget_metrics,
    check_oracles,
    check_table1,
    check_verify,
)
from tracer import metric_names

WORKLOADS = ("table1", "verify", "oracles", "queries")
CLI_ARGS = {"table1": TABLE1_ARGS, "verify": VERIFY_ARGS}
MIN_REPS = 3
IMPORT_PROBES = 5
QUERY_CLIENTS = 3
QUERY_BATCH = 500
RUN_LIMIT_S = 170  # a run ends within this, killing a child that would overrun

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "queries_per_s": "1/s",
    "bf_budget_max": "1",
    "verdict_margin_min": "1",
}


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit: int
    stdout: str
    stderr: str


def run_child(argv: list, name: str, timeout: float) -> Rep:
    """Run one child to completion (killed after `timeout` s); time it and read its own rusage."""
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name + ".out"), "w+") as out, open(
        os.path.join(OUT, name + ".err"), "w+"
    ) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Rep(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                   proc.returncode, out.read(), err.read())


def last_json(text: str):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def tail_quantile(n: int) -> float:
    """The highest quantile up to 0.99 with at least ten samples beyond it.

    Below 21 samples no quantile above the median has ten beyond it, and
    the median is reported instead.
    """
    return min(0.99, max(0.5, 1.0 - 10.0 / n))


def nearest_rank(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def stamp() -> dict:
    """What a comparison between two runs must hold equal, plus the load at the start."""
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git_sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "lrlab")
    for fname in sorted(os.listdir(package)):
        if fname.endswith(".py"):
            digest.update(fname.encode())
            with open(os.path.join(package, fname), "rb") as fh:
                digest.update(fh.read())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "loadavg": list(os.getloadavg()),
    }


class Run:
    """One benchmark run: set-up probes, timed reps, checks, metrics.

    A sample is one cold rep, or one batch of calls on `queries`.
    """

    def __init__(self, workload: str, seed: int, seconds: int, traced: bool):
        self.workload, self.seed, self.seconds, self.traced = workload, seed, seconds, traced
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.tally = Tally()
        self.children = {False: 0, True: 0}   # timed children, by traced
        self.walls = {False: [], True: []}    # scaled sample wall times, by traced
        self.raw_walls: list[float] = []      # untraced sample wall times as measured
        self.factors: list[float] = []        # untraced samples' speed factors
        self.cpus: list[float] = []           # untraced sample CPU times
        self.rss_mb: list[float] = []         # untraced children's peak RSS
        self.latency_ms: list[float] = []     # untraced request latencies
        self.setup: list[float] = []
        self.budgets: dict = {}
        self.layers: list[dict] = []          # per-layer metrics of traced children
        self.unattributed: list[float] = []

    def child(self, argv: list, name: str) -> Rep:
        return run_child(argv, name, max(1.0, self.deadline - time.perf_counter()))

    def speed_factor(self, path: str, rep: Rep) -> float:
        """Speed factor from the readings a child wrote to `path`; takes the
        readings' own time out of `rep`."""
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            self.tally.check(False, f"child wrote no host speed readings to {path}")
            return 1.0
        rep.wall_s -= data["wall_s"]
        rep.cpu_s -= data["cpu_s"]
        return speed.NOMINAL_S / data["median_s"]

    # -- set-up ---------------------------------------------------------------

    def probe_imports(self) -> None:
        for _ in range(IMPORT_PROBES):
            rep = self.child([PYTHON, CHILD, "import"], f"{self.workload}-import")
            data = last_json(rep.stdout)
            if self.tally.check(rep.exit == 0 and data is not None, f"import probe exited {rep.exit}: {rep.stderr[-300:]}"):
                self.setup.append(data["setup_s"] * speed.NOMINAL_S / data["reading_s"])

    def probe_budgets(self) -> None:
        """B_f budgets from one cold `lrlab table1`, for workloads that do not print them."""
        self.check_cli(self.child([PYTHON, "-m", "lrlab.cli", *CLI_ARGS["table1"]], f"{self.workload}-probe"), "table1")

    # -- reps -----------------------------------------------------------------

    def check_cli(self, rep: Rep, command: str) -> None:
        self.tally.check(rep.exit == 0, f"lrlab {command} exited {rep.exit}: {rep.stderr[-300:]}")
        if command == "table1":
            reports = check_table1(self.tally, rep.stdout)
            if reports and not self.budgets:
                self.budgets = budget_metrics(reports)
        else:
            check_verify(self.tally, rep.stdout)

    def read_trace(self, prefix: str, sample_wall: float, factor: float) -> None:
        """Per-layer metrics of one traced child; times scaled by `factor`,
        `sample_wall` already scaled."""
        try:
            with open(prefix + ".json") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            self.tally.check(False, f"traced child wrote no metrics to {prefix}.json")
            return
        self.layers.append({name: value * factor if name.endswith(".s") else value
                            for name, value in data["metrics"].items()})
        self.unattributed.append(sample_wall - data["root_s"] * factor)

    def cold_rep(self, traced: bool) -> None:
        # A traced rep takes no readings, which would land in its spans; it is
        # scaled by the median factor of the untraced reps it alternates with.
        prefix = os.path.join(OUT, f"trace-{self.workload}-{self.children[True]}")
        readings = os.path.join(OUT, f"readings-{self.workload}.json")
        task = ["oracles"] if self.workload == "oracles" else ["cli", *CLI_ARGS[self.workload]]
        options = ["--trace", prefix] if traced else ["--readings", readings]
        if os.path.exists(readings):
            os.remove(readings)
        rep = self.child([PYTHON, CHILD, *options, *task], f"{self.workload}-{'traced' if traced else 'rep'}")
        self.children[traced] += 1
        if self.workload == "oracles":
            result = last_json(rep.stdout)
            if self.tally.check(rep.exit == 0 and result is not None, f"oracles exited {rep.exit}: {rep.stderr[-300:]}"):
                check_oracles(self.tally, result)
        else:
            self.check_cli(rep, self.workload)
        factor = statistics.median(self.factors) if traced else self.speed_factor(readings, rep)
        wall = rep.wall_s * factor
        self.walls[traced].append(wall)
        if traced:
            self.read_trace(prefix, wall, factor)
        else:
            self.raw_walls.append(rep.wall_s)
            self.factors.append(factor)
            self.cpus.append(rep.cpu_s * factor)
            self.rss_mb.append(rep.rss_mb)
            self.latency_ms.append(wall * 1000.0)

    def query_client(self, stream: int, traced: bool, limit: list) -> None:
        """One client process; `limit` is ["--seconds", T] or ["--batches", K]."""
        prefix = os.path.join(OUT, f"trace-queries-{stream}")
        argv = [PYTHON, CHILD, *(["--trace", prefix] if traced else []), "queries",
                "--seed", str(self.seed), "--stream", str(stream), "--batch", str(QUERY_BATCH), *limit]
        rep = self.child(argv, f"queries-{'traced' if traced else 'client'}")
        self.children[traced] += 1
        result = last_json(rep.stdout)
        if not self.tally.check(rep.exit == 0 and result is not None, f"queries client exited {rep.exit}: {rep.stderr[-300:]}"):
            return
        self.tally.attempted += result["attempted"]
        self.tally.failed += result["failed"]
        self.tally.problems += result["problems"][:10]
        factors = [speed.NOMINAL_S / b["reading_s"] for b in result["batches"]]
        walls = [b["wall_s"] * f for b, f in zip(result["batches"], factors)]
        self.walls[traced] += walls
        if traced:
            self.read_trace(prefix, statistics.fmean(walls), statistics.median(factors))
            return
        self.setup.append(result["setup_s"] * speed.NOMINAL_S / result["setup_reading_s"])
        self.rss_mb.append(rep.rss_mb)
        for batch, factor in zip(result["batches"], factors):
            self.raw_walls.append(batch["wall_s"])
            self.factors.append(factor)
            self.cpus.append(batch["cpu_s"] * factor)
            self.latency_ms += [ms * factor for ms in batch["latency_ms"]]

    def measure(self) -> None:
        if self.workload == "queries":
            if not self.traced:
                for stream in range(QUERY_CLIENTS):
                    self.query_client(stream, False, ["--seconds", repr(self.seconds / QUERY_CLIENTS)])
                return
            # the same batches untraced, then traced
            self.query_client(0, False, ["--seconds", repr(self.seconds / 2)])
            if self.walls[False]:
                self.query_client(0, True, ["--batches", str(len(self.walls[False]))])
            return
        end = time.perf_counter() + self.seconds
        while True:
            self.cold_rep(self.traced and self.children[False] > self.children[True])
            now = time.perf_counter()
            if self.tally.failed or now + 2 * self.walls[False][-1] > self.deadline:
                break  # no more reps after a failure, or if the next might overrun
            enough = self.children[True] if self.traced else self.children[False] >= MIN_REPS
            if enough and now >= end:
                break

    # -- metrics --------------------------------------------------------------

    def measured(self) -> bool:
        if self.traced:
            return bool(self.layers and self.walls[False] and self.walls[True])
        return bool(self.budgets and self.setup and self.walls[False])

    def end_to_end(self) -> dict:
        walls = self.walls[False]
        out = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(self.setup),
            "cpu_s": statistics.median(self.cpus),
            "peak_rss_mb": statistics.median(self.rss_mb),
            "query_p50_ms": statistics.median(self.latency_ms),
            "query_p99_ms": nearest_rank(self.latency_ms, tail_quantile(len(self.latency_ms))),
            "queries_per_s": len(self.latency_ms) / sum(walls),
        }
        out.update(self.budgets)
        return {name: out[name] for name in END_TO_END}

    def per_layer(self) -> dict:
        out = {name: statistics.median(m[name] for m in self.layers) for name in metric_names()}
        out["trace.overhead_s"] = statistics.median(self.walls[True]) - statistics.median(self.walls[False])
        out["trace.unattributed_s"] = statistics.median(self.unattributed)
        return out


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(".s") or name.startswith("trace."):
        return "s"
    return "ratio" if name.endswith(".hit_ratio") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not have_sources():
        print(f"error: no lrlab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    started = time.time()
    speed.pin_to_one_cpu()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    info = stamp()
    if not args.trace and args.workload != "queries":
        run.probe_imports()
    if not args.trace and args.workload != "table1":
        run.probe_budgets()
    run.measure()

    metrics = {}
    if run.measured():
        metrics = run.per_layer() if args.trace else run.end_to_end()
    else:
        run.tally.check(False, "run produced no measurements")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": info,
        "started": started,
        "children": {"untraced": run.children[False], "traced": run.children[True]},
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "error_rate": run.tally.failed / max(1, run.tally.attempted),
        "problems": run.tally.problems,
        "metrics": metrics,
        "samples": {"wall_s": run.walls[False], "raw_wall_s": run.raw_walls, "speed_factor": run.factors,
                    "cpu_s": run.cpus, "setup_s": run.setup},
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps({
        "correct": run.tally.failed == 0,
        "attempted": max(1, run.tally.attempted),
        "failed": run.tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
