"""BENCHMARK.json is well formed and every printed metric matches it."""

import json
import re
import subprocess
import sys

import pytest

import bench
from bench import (
    COST_OPERATIONS,
    Measurement,
    end_to_end_metrics,
    load_spec,
    per_layer_metrics,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_follows_the_benchmark_contract():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    names = [w["name"] for w in spec["workloads"]]
    for entry in spec["end_to_end"] + spec["per_layer"]:
        names.append(entry["name"])
        assert NAME.match(entry["name"]), entry
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower"), entry
    assert len(names) == len(set(names))
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(e["bound"] for e in spec["end_to_end"])}]


def synthetic_run() -> Measurement:
    records = [["/home", 0.01 * i, 0.004, True] for i in range(50)]
    records += [["/best_sellers", 0.5, 0.1, True]]
    summary = {
        "records": records, "wall_seconds": 1.0, "cpu_seconds": 0.2,
        "requests": 200, "request_seconds": 0.3, "failures": [],
        "write_errors": [], "ledger": {"orders": 0},
    }
    counts = {op: 1 for op in COST_OPERATIONS}
    return Measurement(summary, 0.5, {"orders": 5}, {"orders": 5},
                       dict.fromkeys(COST_OPERATIONS, 0), counts)


def test_computed_metric_names_match_the_spec():
    spec = load_spec()
    run = synthetic_run()
    assert run.problems() == []
    e2e = end_to_end_metrics(run, [0.5, 0.6, 0.7], 50.0)
    assert sorted(e2e) == sorted(e["name"] for e in spec["end_to_end"])
    stage = {"queue_wait": {"count": 3, "mean": 0.001, "p50": 0.001},
             "service": {"count": 3, "mean": 0.002, "p50": 0.002}}
    layers = per_layer_metrics(
        run, 40.0, {"http.parse": (3, 0.001)}, {"header": stage},
        {"busy_fraction": 0.5, "completed_checkouts": 10},
        {"compile_fallbacks": 0, "misses": 11},
    )
    assert sorted(layers) == sorted(e["name"] for e in spec["per_layer"])
    assert bench.as_result(spec["per_layer"], layers)


def test_ledger_mismatch_is_a_failed_check():
    run = synthetic_run()
    run.row_changes = {"orders": 1}
    assert any("row-count" in problem for problem in run.problems())


@pytest.mark.parametrize("trace", ["0", "1"])
def test_live_run_prints_every_metric(trace):
    completed = subprocess.run(
        [sys.executable, str(bench.HERE / "run.py"), "--workload",
         "ordering", "--seed", "3", "--seconds", "1", "--trace", trace],
        cwd=str(bench.ROOT), capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = load_spec()
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == [e["name"] for e in spec[kind]]
