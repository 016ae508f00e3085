"""Export tests: JSON and .dat figure files."""

import json
import os

import pytest

from repro.harness.experiments import ExperimentRunner
from repro.harness.export import export_figures, export_json, results_document
from repro.sim.workload import WorkloadConfig


@pytest.fixture(scope="module")
def runner():
    config = WorkloadConfig.quick(
        clients=30, ramp_up=15, measure=120, cool_down=10,
        baseline_workers=10, general_pool=12, lengthy_pool=3,
        minimum_reserve=2, maximum_reserve=4, db_cores=30,
    )
    return ExperimentRunner(config)


class TestResultsDocument:
    def test_document_structure(self, runner):
        document = results_document(runner)
        assert document["table2"]["matches_paper"] is True
        assert set(document["figure10"]) == {
            "static", "dynamic", "quick", "lengthy",
        }
        assert "throughput_gain_percent" in document
        assert document["config"]["clients"] == 30

    def test_table3_includes_paper_reference(self, runner):
        document = results_document(runner)
        home = document["table3"]["TPC-W home interaction"]
        assert home["paper"] == [2.54, 0.03] or home["paper"] == (2.54, 0.03)
        assert home["unmodified"] > 0

    def test_document_is_json_serialisable(self, runner):
        text = json.dumps(results_document(runner))
        assert "figure7" in text


class TestExportJson:
    def test_writes_valid_json(self, runner, tmp_path):
        path = export_json(runner, str(tmp_path / "results.json"))
        with open(path, encoding="utf-8") as f:
            loaded = json.load(f)
        assert loaded["table2"]["matches_paper"] is True


class TestExportFigures:
    def test_writes_all_figures(self, runner, tmp_path):
        written = export_figures(runner, str(tmp_path / "figs"))
        names = {os.path.basename(path) for path in written}
        assert names == {
            "fig7_queue_unmodified.dat",
            "fig8_queues_modified.dat",
            "fig9_throughput.dat",
            "fig10_static.dat",
            "fig10_dynamic.dat",
            "fig10_quick.dat",
            "fig10_lengthy.dat",
        }
        for path in written:
            assert os.path.isfile(path)

    def test_dat_format(self, runner, tmp_path):
        written = export_figures(runner, str(tmp_path / "figs"))
        fig9 = next(p for p in written
                    if os.path.basename(p) == "fig9_throughput.dat")
        with open(fig9, encoding="utf-8") as f:
            lines = f.read().splitlines()
        assert lines[0].startswith("# time_s")
        first_row = lines[1].split()
        assert len(first_row) == 3
        float(first_row[0])  # parses

    def test_fig8_columns_aligned(self, runner, tmp_path):
        written = export_figures(runner, str(tmp_path / "figs"))
        fig8 = next(p for p in written
                    if os.path.basename(p) == "fig8_queues_modified.dat")
        with open(fig8, encoding="utf-8") as f:
            data_lines = [l for l in f.read().splitlines() if not l.startswith("#")]
        # One row per 1 Hz sample over the whole run.
        assert len(data_lines) > 100
        assert all(len(line.split()) == 3 for line in data_lines)


def fake_server(policies=None):
    """The three owners a stats document reads, as a live or simulated
    server carries them: its stats, its pool's checkout ledger (fed
    two checkouts by the lengthy stage), and its policies."""
    from types import SimpleNamespace

    from repro.core.classifier import RequestClass
    from repro.db.engine import Database
    from repro.db.pool import ConnectionPool
    from repro.server.resources import LeaseStrategy
    from repro.server.stats import ServerStats
    from repro.util.clock import ManualClock

    stats = ServerStats(ManualClock())
    stats.record_completion("/page", RequestClass.LENGTHY_DYNAMIC, 2.5)
    stats.record_stage_timing("header", 0.01, 0.002)
    stats.record_stage_timing("lengthy", 0.5, 2.0)
    stats.sample_queue("lengthy", 3)
    stats.record_generation_time("/page", 2.0)
    pool = ConnectionPool(Database(), 2)
    for wait, busy in ((0.01, 4.0), (0.03, 2.0)):
        pool.ledger.granted(wait, "lengthy")
        pool.ledger.returned(10.0, busy, "lengthy")
    return SimpleNamespace(stats=stats, connection_pool=pool,
                           policies=policies,
                           lease_strategy=LeaseStrategy.PINNED)


class TestServerStatsDocument:
    def test_document_structure(self):
        from repro.harness.export import server_stats_document

        document = server_stats_document(fake_server())
        assert document["completions"] == {"/page": 1}
        assert document["total_completions"] == 1
        assert document["response_times"]["/page"]["p99"] == 2.5
        assert set(document["stage_timings"]) == {"header", "lengthy"}
        breakdown = document["stage_timings"]["lengthy"]
        assert breakdown["queue_wait"]["p50"] == 0.5
        assert breakdown["service"]["max"] == 2.0
        assert document["queue_series"]["lengthy"] == [[0.0, 3.0]]
        assert document["connection_gauges"]["parked"] == 0
        assert document["resilience"] == {
            "stages": {}, "faults_injected": {},
            "breaker": {"state": "closed", "transitions": {}},
        }

    def test_connection_utilization_shape(self):
        from repro.harness.export import server_stats_document

        document = server_stats_document(fake_server())
        utilization = document["connection_utilization"]
        assert set(utilization) == {"lengthy"}
        entry = utilization["lengthy"]
        assert set(entry) == {
            "strategy", "leases", "held_seconds", "busy_seconds",
            "busy_fraction", "acquire_wait",
        }
        assert entry["strategy"] == "pinned"
        assert entry["leases"] == 2
        assert entry["held_seconds"] == 20.0
        assert entry["busy_seconds"] == 6.0
        assert entry["busy_fraction"] == pytest.approx(0.3)
        wait = entry["acquire_wait"]
        assert set(wait) == {"count", "mean", "p50", "p95", "p99", "max"}
        assert wait["count"] == 2
        assert wait["max"] == 0.03

    def test_export_round_trips_through_json(self, tmp_path):
        from repro.harness.export import export_server_stats_json

        path = export_server_stats_json(
            fake_server(), str(tmp_path / "server_stats.json")
        )
        with open(path, encoding="utf-8") as f:
            loaded = json.load(f)
        assert loaded["stage_timings"]["header"]["service"]["count"] == 1
        assert loaded["connection_utilization"]["lengthy"]["leases"] == 2

    def test_servers_sharing_a_plan_each_report_its_injections(self):
        """The plan owns its injection counts: a second server handed
        the same plan reports them too, not an empty ledger of its own."""
        from repro.faults.plan import (
            SITE_RENDER,
            FaultAction,
            FaultPlan,
            FaultRule,
        )
        from repro.faults.policies import Resilience
        from repro.harness.export import server_stats_document
        from repro.util.clock import ManualClock

        clock = ManualClock()
        plan = FaultPlan([FaultRule(site=SITE_RENDER,
                                    action=FaultAction.DELAY)], clock=clock)
        servers = [fake_server() for _ in range(2)]
        for server in servers:
            server.policies = Resilience(plan, None, server.stats, clock)
        plan.inject(SITE_RENDER)
        plan.inject(SITE_RENDER)
        for server in servers:
            document = server_stats_document(server)
            assert document["resilience"]["faults_injected"] == \
                {"render:delay": 2}


#: Stats-document fields keyed by data (pages, stages, series names,
#: fault sites, breaker states) rather than by the document's schema.
KEYED_BY_DATA = frozenset({
    "completions", "response_times", "generation_times", "stage_timings",
    "queue_series", "connection_utilization", "stages", "faults_injected",
    "transitions",
})


def key_structure(value, key=None):
    """A document's nested key structure: schema dicts keep their keys,
    a dict keyed by data becomes the set of its entries' structures,
    and leaves become their kind."""
    if isinstance(value, dict):
        if key in KEYED_BY_DATA:
            return sorted({repr(key_structure(entry))
                           for entry in value.values()})
        return {name: key_structure(entry, name)
                for name, entry in value.items()}
    if isinstance(value, list):
        return "list"
    if isinstance(value, str):
        return "str"
    return "number"


class TestLiveAndSimulatedDocuments:
    def test_same_nested_key_structure(self):
        """One sink, one document: a simulated run and a live run
        export the same shape through ``server_stats_document``."""
        from repro.core.policy import PolicyConfig, SchedulingPolicy
        from repro.db.engine import Database
        from repro.db.pool import ConnectionPool
        from repro.harness.export import server_stats_document
        from repro.http.client import http_request
        from repro.server.staged import StagedServer
        from repro.sim.workload import run_tpcw_simulation
        from repro.tpcw.app import TPCWApplication
        from repro.tpcw.population import PopulationScale, populate
        from repro.tpcw.schema import create_schema
        from tests.sim.test_workload_server import fast_profiles, tiny_config

        simulated = run_tpcw_simulation("staged", tiny_config(),
                                        profiles=fast_profiles())

        database = Database()
        create_schema(database)
        populate(database, PopulationScale.tiny())
        live = StagedServer(
            TPCWApplication(database, bestseller_window=50),
            ConnectionPool(database, 12),
            policy=SchedulingPolicy(PolicyConfig(
                general_pool_size=8, lengthy_pool_size=2,
                minimum_reserve=2, header_pool_size=3, static_pool_size=3,
                render_pool_size=3,
            )),
        ).start()
        try:
            host, port = live.address
            for path in ("/home?c_id=1&i_id=1", "/best_sellers?subject=ARTS",
                         "/img/thumb_1.gif"):
                assert http_request(host, port, path).status == 200
            live.pipeline.sample_queues()
        finally:
            live.stop()  # pinned leases return at worker shutdown

        live_document = server_stats_document(live)
        sim_document = server_stats_document(simulated)
        for document in (live_document, sim_document):
            assert document["stage_timings"]
            assert document["connection_utilization"]
        assert key_structure(live_document) == key_structure(sim_document)


class TestBenchExport:
    def test_nothing_written_without_the_opt_in(self, tmp_path, monkeypatch):
        from repro.harness.export import export_bench_json

        monkeypatch.delenv("REPRO_BENCH_EXPORT", raising=False)
        path = tmp_path / "BENCH_x.json"
        assert export_bench_json({"us": 1.0}, str(path)) is None
        monkeypatch.setenv("REPRO_BENCH_EXPORT", "0")
        assert export_bench_json({"us": 1.0}, str(path)) is None
        assert not path.exists()

    def test_opt_in_writes_document_with_host(self, tmp_path, monkeypatch):
        from repro.harness.export import export_bench_json

        monkeypatch.setenv("REPRO_BENCH_EXPORT", "1")
        path = export_bench_json({"us": 1.0}, str(tmp_path / "BENCH_x.json"))
        with open(path, encoding="utf-8") as f:
            loaded = json.load(f)
        assert loaded["us"] == 1.0
        assert set(loaded["host"]) == {"nproc", "python", "platform", "commit"}
        assert loaded["host"]["nproc"] == os.cpu_count()
        assert loaded["host"]["commit"]
