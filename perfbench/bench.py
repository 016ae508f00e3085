"""The live TPC-W benchmark: one workload, one seed, one run.

A run sets up a freshly populated TPC-W database behind a
:class:`~repro.server.staged.StagedServer` (default policy, a
10-connection pool, cost model at scale 0 so the numbers measure the
Python stack rather than modelled sleeps).  It warms every page of the
workload once, then drives the server from :mod:`loadgen` in a
separate process with one closed-loop session per CPU.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` measures the
same run untraced, then again with :mod:`tracing`'s layer wrappers
installed, and prints the per-layer metrics.  Metric names and units
come from ``BENCHMARK.json``; a run that computes any other set of
names fails.  The last line of standard output is the JSON result; the
lines before it are a readable report with sample counts and host
metadata.  Exit status is 0 only if every response and the write
ledger checked out.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.db.cost import SleepingCostModel
from repro.db.engine import Database
from repro.db.pool import ConnectionPool
from repro.server.staged import StagedServer
from repro.tpcw.app import TPCWApplication
from repro.tpcw.population import populate
from repro.tpcw.schema import create_schema

import tracing
from loadgen import Session
from workloads import SCALE, WORKLOADS, is_quick, new_session

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 5
CONNECTIONS = 10
STAGES = ("header", "static", "general", "lengthy", "render")
COST_OPERATIONS = ("row_scan", "index_probe", "index_row", "row_sort",
                   "row_group", "row_write", "row_emit", "join_probe",
                   "statement")
#: How long the generator may take beyond its measured seconds.
GENERATOR_GRACE = 90.0


class BenchError(Exception):
    """The run could not be carried out (not a failed check)."""


def session_count() -> int:
    """One session per CPU this process may run on."""
    return len(os.sched_getaffinity(0))


# ----------------------------------------------------------------------
# The system under test
# ----------------------------------------------------------------------
class Stack:
    """A freshly populated database behind a started StagedServer."""

    def __init__(self):
        self.database = Database(cost_model=SleepingCostModel(scale=0.0))
        create_schema(self.database)
        populate(self.database, SCALE)
        self.app = TPCWApplication(self.database)
        self.pool = ConnectionPool(self.database, CONNECTIONS)
        self.server = StagedServer(self.app, self.pool).start()

    def close(self) -> None:
        self.server.stop()
        self.pool.close()


def set_up(repeats: int) -> Tuple[Stack, List[float]]:
    """Build the stack ``repeats`` times; keep the last, time each."""
    times = []
    for attempt in range(repeats):
        gc.collect()
        started = time.perf_counter()
        stack = Stack()
        times.append(time.perf_counter() - started)
        if attempt < repeats - 1:
            stack.close()
            del stack
    return stack, times


def warm_up(stack: Stack, workload: str, seed: int) -> List[str]:
    """Serve every page of the workload once (template compilation,
    statement cache); returns the failures."""
    host, port = stack.server.address
    session = Session(host, port, new_session(workload, seed, -1))
    for page in sorted(WORKLOADS[workload]):
        session.step(page)
    return session.failures


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Measurement:
    """What one generator run saw, plus the server-side deltas."""

    def __init__(self, summary: Dict, server_cpu: float,
                 rows_before: Dict[str, int], rows_after: Dict[str, int],
                 cost_before: Dict[str, int], cost_after: Dict[str, int]):
        self.summary = summary
        self.records = summary["records"]
        self.attempted = len(self.records)
        self.ok = [record for record in self.records if record[3]]
        self.failed = self.attempted - len(self.ok)
        self.server_cpu = server_cpu
        self.cost = {op: cost_after[op] - cost_before[op]
                     for op in cost_after}
        self.row_changes = {table: rows_after[table] - rows_before[table]
                            for table in summary["ledger"]}

    @property
    def wips(self) -> float:
        return len(self.ok) / self.summary["wall_seconds"]

    def problems(self) -> List[str]:
        """Failed checks: responses, then the write ledger."""
        problems = list(self.summary["failures"])
        problems += self.summary["write_errors"]
        ledger = self.summary["ledger"]
        if not self.failed and self.row_changes != ledger:
            problems.append(f"row-count changes {self.row_changes} differ "
                            f"from the verified responses' {ledger}")
        if not self.attempted:
            problems.append("no interaction was attempted")
        return problems


def drive(stack: Stack, workload: str, seed: int, seconds: float,
          sessions: int, tally: Optional[tracing.Tally] = None
          ) -> Measurement:
    """Run the generator process against ``stack`` and measure."""
    host, port = stack.server.address
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    command = [sys.executable, str(HERE / "loadgen.py"),
               "--host", host, "--port", str(port),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--sessions", str(sessions)]
    database = stack.database
    with subprocess.Popen(command, stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True, env=env,
                          cwd=str(ROOT)) as generator:
        watchdog = threading.Timer(seconds + GENERATOR_GRACE,
                                   generator.kill)
        watchdog.start()
        try:
            if generator.stdout.readline().strip() != "READY":
                raise BenchError("load generator did not start")
            rows_before = database.row_counts()
            cost_before = database.cost_model.counts()
            if tally is not None:
                tally.reset()
            cpu_before = _cpu_seconds()
            generator.stdin.write("GO\n")
            generator.stdin.flush()
            output = generator.stdout.read()
            server_cpu = _cpu_seconds() - cpu_before
            rows_after = database.row_counts()
            cost_after = database.cost_model.counts()
            status = generator.wait()
        finally:
            watchdog.cancel()
            if generator.poll() is None:
                generator.kill()
                generator.wait()
    lines = output.strip().splitlines()
    if status != 0 or not lines:
        raise BenchError(f"load generator exited with status {status}")
    return Measurement(json.loads(lines[-1]), server_cpu,
                       rows_before, rows_after, cost_before, cost_after)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not ordered:
        raise BenchError("percentile of an empty sample")
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def end_to_end_metrics(run: Measurement, setup_seconds: List[float],
                       peak_rss_mb: float
                       ) -> Dict[str, Tuple[float, int]]:
    """``{name: (value, sample count)}`` for the untraced run."""
    every = sorted(record[2] * 1000.0 for record in run.ok)
    quick = sorted(record[2] * 1000.0 for record in run.ok
                   if is_quick(record[0]))
    return {
        "setup_s": (statistics.median(setup_seconds), len(setup_seconds)),
        "wips": (run.wips, len(run.ok)),
        "ia_p50_ms": (percentile(every, 50), len(every)),
        "ia_p95_ms": (percentile(every, 95), len(every)),
        "quick_p50_ms": (percentile(quick, 50), len(quick)),
        "quick_p95_ms": (percentile(quick, 95), len(quick)),
        "cpu_ms_per_ia": (run.server_cpu * 1000.0 / run.attempted,
                          run.attempted),
        "rss_mb": (peak_rss_mb, 1),
    }


def per_layer_metrics(run: Measurement, untraced_wips: float,
                      tally: Dict[str, Tuple[int, float]],
                      stages: Dict, pool_report: Dict,
                      cache_stats: Dict) -> Dict[str, Tuple[float, int]]:
    """``{name: (value, sample count)}`` for the traced run."""
    ias = run.attempted

    def count(key: str) -> int:
        return tally.get(key, (0, 0.0))[0]

    def us_per_ia(key: str) -> Tuple[float, int]:
        calls, seconds = tally.get(key, (0, 0.0))
        return seconds * 1e6 / ias, calls

    metrics: Dict[str, Tuple[float, int]] = {
        "http.parse_us": us_per_ia("http.parse"),
        "http.requests_per_ia": (count("http.parse") / ias,
                                 count("http.parse")),
        "server.send_us": us_per_ia("server.send"),
    }
    staged_seconds = 0.0
    for stage in STAGES:
        timing = stages.get(stage, {})
        for part, label in (("queue_wait", "queue"), ("service", "service")):
            summary = timing.get(part, {"count": 0})
            samples = summary["count"]
            metrics[f"server.{stage}.{label}_p50_ms"] = (
                summary["p50"] * 1000.0 if samples else 0.0, samples)
            if samples:
                staged_seconds += summary["mean"] * samples
    served = stages.get("header", {}).get("queue_wait", {}).get("count", 0)
    client_ms = run.summary["request_seconds"] * 1000.0 \
        / run.summary["requests"]
    metrics["server.unattributed_ms"] = (
        client_ms - staged_seconds * 1000.0 / max(served, 1), served)
    general = stages.get("general", {}).get("service", {}).get("count", 0)
    lengthy = stages.get("lengthy", {}).get("service", {}).get("count", 0)
    metrics["core.lengthy_share"] = (
        lengthy / max(general + lengthy, 1), general + lengthy)
    statements = count("db.read") + count("db.write")
    metrics["db.statements_per_ia"] = (statements / ias, statements)
    metrics["db.read_us"] = us_per_ia("db.read")
    metrics["db.write_us"] = us_per_ia("db.write")
    metrics["db.lock_wait_us"] = us_per_ia("db.lock_wait")
    metrics["db.conn_busy_fraction"] = (pool_report["busy_fraction"],
                                        pool_report["completed_checkouts"])
    for operation in COST_OPERATIONS:
        metrics[f"db.cost.{operation}_per_ia"] = (
            run.cost[operation] / ias, run.cost[operation])
    metrics["templates.render_us"] = us_per_ia("templates.render")
    metrics["templates.compile_fallbacks"] = (
        cache_stats["compile_fallbacks"], cache_stats["misses"])
    metrics["tpcw.handler_self_us"] = us_per_ia("tpcw.handler_self")
    metrics["client.cpu_ms_per_ia"] = (
        run.summary["cpu_seconds"] * 1000.0 / ias, ias)
    metrics["trace.overhead"] = (run.wips / untraced_wips, len(run.ok))
    return metrics


def load_spec() -> Dict:
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


def as_result(spec_metrics: List[Dict],
              values: Dict[str, Tuple[float, int]]) -> Dict[str, Dict]:
    """Name and unit from the spec; the names must match exactly."""
    names = [entry["name"] for entry in spec_metrics]
    if sorted(names) != sorted(values):
        raise BenchError(
            f"computed metrics {sorted(values)} differ from "
            f"BENCHMARK.json's {sorted(names)}"
        )
    return {entry["name"]: {"value": values[entry["name"]][0],
                            "unit": entry["unit"]}
            for entry in spec_metrics}


# ----------------------------------------------------------------------
# Host metadata
# ----------------------------------------------------------------------
def source_digest() -> str:
    """SHA-256 over the program's sources (the checkout may have no
    git metadata, so this identifies the code measured)."""
    digest = hashlib.sha256()
    source = ROOT / "src"
    for path in sorted(source.rglob("*.py")):
        digest.update(str(path.relative_to(source)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), text=True,
            capture_output=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() or None


def host_metadata(sessions: int) -> Dict:
    return {
        "nproc": os.cpu_count(),
        "sessions": sessions,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ----------------------------------------------------------------------
def run_benchmark(workload: str, seed: int, seconds: float,
                  trace: bool) -> Tuple[Dict, List[str]]:
    """One benchmark run; the result object and the report lines."""
    spec = load_spec()
    sessions = session_count()
    report = [f"perfbench workload={workload} seed={seed} "
              f"seconds={seconds:g} trace={int(trace)} sessions={sessions}",
              "host " + json.dumps(host_metadata(sessions))]
    problems: List[str] = []

    stack, setup_seconds = set_up(SETUP_REPEATS)
    try:
        problems += warm_up(stack, workload, seed)
        untraced = drive(stack, workload, seed, seconds, sessions)
    finally:
        stack.close()
    problems += untraced.problems()
    attempted, failed = untraced.attempted, untraced.failed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        tally = tracing.Tally()
        with tracing.installed(tally):
            stack = Stack()
            try:
                problems += warm_up(stack, workload, seed)
                traced = drive(stack, workload, seed, seconds, sessions,
                               tally)
                counts = tally.snapshot()
                stages = stack.server.stats.stage_timing_summary()
            finally:
                stack.close()
        problems += traced.problems()
        attempted += traced.attempted
        failed += traced.failed
        values = per_layer_metrics(
            traced, untraced.wips, counts, stages,
            stack.pool.utilization_report(), stack.app.templates.cache_stats(),
        )
        metrics = as_result(spec["per_layer"], values)
    else:
        values = end_to_end_metrics(untraced, setup_seconds, peak_rss_mb)
        metrics = as_result(spec["end_to_end"], values)

    for name, (value, samples) in values.items():
        report.append(f"  {name:34s} {value:14.4f} {metrics[name]['unit']:8s}"
                      f" n={samples}")
    report.append(f"  {'fail_ratio':34s} {failed / max(attempted, 1):14.4f}"
                  f" {'ratio':8s} n={attempted}")
    for problem in problems[:20]:
        report.append(f"FAILED CHECK: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Live TPC-W benchmark of the staged server.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result, report = run_benchmark(args.workload, args.seed,
                                       args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in report:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1
