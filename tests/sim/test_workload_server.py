"""Simulated server model + workload tests (reduced scale)."""

import dataclasses

import pytest

from repro.core.dispatch import StrictSeparationDispatcher
from repro.server.stats import ServerStats
from repro.sim.kernel import Simulation
from repro.sim.server import SimServer
from repro.sim.workload import (
    DEFAULT_PROFILES,
    LENGTHY_REPORT_PAGES,
    PageProfile,
    WorkloadConfig,
    run_tpcw_simulation,
)
from repro.util.clock import ManualClock

TINY = dict(clients=20, ramp_up=10, measure=120, cool_down=10,
            baseline_workers=8, general_pool=8, lengthy_pool=2,
            header_pool=2, static_pool=2, render_pool=2,
            minimum_reserve=2, maximum_reserve=4, db_cores=20, web_cores=4)


def tiny_config(**overrides):
    merged = dict(TINY)
    merged.update(overrides)
    return WorkloadConfig(**merged)


def fast_profiles(slow_demand=1.0):
    """Reduced demands so tiny runs finish plenty of interactions."""
    out = {}
    for path, profile in DEFAULT_PROFILES.items():
        demand = slow_demand if path in LENGTHY_REPORT_PAGES else (
            profile.db_demand
        )
        out[path] = dataclasses.replace(profile, db_demand=demand, images=1)
    return out


class TestPageProfile:
    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            PageProfile("/x", db_demand=-1, render_demand=0, read_tables=())

    def test_write_table_requires_demand(self):
        with pytest.raises(ValueError):
            PageProfile("/x", db_demand=1, render_demand=0, read_tables=(),
                        write_table="item", write_demand=0.0)

    def test_negative_images_rejected(self):
        with pytest.raises(ValueError):
            PageProfile("/x", db_demand=1, render_demand=0, read_tables=(),
                        images=-1)

    def test_default_profiles_cover_browsing_mix(self):
        from repro.tpcw.mix import BROWSING_MIX

        assert set(DEFAULT_PROFILES) == set(BROWSING_MIX)

    def test_slow_pages_above_cutoff(self):
        """Default profiles: the lengthy report pages must exceed the
        2 s classification cutoff so the staged dispatcher engages."""
        for path in LENGTHY_REPORT_PAGES:
            assert DEFAULT_PROFILES[path].db_demand > 2.0


class TestWorkloadConfig:
    def test_duration(self):
        config = WorkloadConfig(ramp_up=10, measure=100, cool_down=5)
        assert config.duration == 115

    def test_quick_preset_smaller_than_paper(self):
        quick, paper = WorkloadConfig.quick(), WorkloadConfig.paper()
        assert quick.clients < paper.clients
        assert quick.measure < paper.measure

    def test_invalid_clients(self):
        with pytest.raises(ValueError):
            WorkloadConfig(clients=0)

    def test_reserve_bounded_by_pool(self):
        with pytest.raises(ValueError):
            WorkloadConfig(general_pool=4, minimum_reserve=10)


class TestSimulationRuns:
    @pytest.mark.parametrize("kind", ["baseline", "staged"])
    def test_completes_interactions(self, kind):
        stats = run_tpcw_simulation(kind, tiny_config(),
                                    profiles=fast_profiles()).stats
        assert stats.total_completions() > 50
        assert stats.mean_response_times()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            run_tpcw_simulation("hybrid", tiny_config())

    def test_deterministic_given_seed(self):
        a = run_tpcw_simulation("staged", tiny_config(seed=7),
                                profiles=fast_profiles()).stats
        b = run_tpcw_simulation("staged", tiny_config(seed=7),
                                profiles=fast_profiles()).stats
        assert a.completions() == b.completions()
        assert a.mean_response_times() == b.mean_response_times()

    def test_different_seeds_differ(self):
        a = run_tpcw_simulation("staged", tiny_config(seed=1),
                                profiles=fast_profiles()).stats
        b = run_tpcw_simulation("staged", tiny_config(seed=2),
                                profiles=fast_profiles()).stats
        assert a.completions() != b.completions()

    def test_measurement_window_respected(self):
        config = tiny_config()
        stats = run_tpcw_simulation("baseline", config,
                                    profiles=fast_profiles()).stats
        # Queue samples span the whole run; completions only the window.
        assert config.window == (config.ramp_up,
                                 config.ramp_up + config.measure)
        times = stats.queue_series["dynamic"].times
        assert times[0] < config.window[0]
        assert times[-1] >= config.window[1]

    def test_queue_series_recorded(self):
        baseline = run_tpcw_simulation("baseline", tiny_config(),
                                       profiles=fast_profiles()).stats
        assert "dynamic" in baseline.queue_series
        staged = run_tpcw_simulation("staged", tiny_config(),
                                     profiles=fast_profiles()).stats
        assert {"general", "lengthy", "static", "render",
                "header"} <= set(staged.queue_series)

    def test_reserve_series_only_for_staged(self):
        staged = run_tpcw_simulation("staged", tiny_config(),
                                     profiles=fast_profiles()).stats
        assert len(staged.treserve_series) > 0
        assert len(staged.spare_series) > 0

    def test_custom_dispatcher_ablation(self):
        server = run_tpcw_simulation(
            "staged", tiny_config(), profiles=fast_profiles(),
            dispatcher=StrictSeparationDispatcher(),
        )
        assert server.stats.total_completions() > 0

    def test_figure10_classes_recorded(self):
        config = tiny_config()
        stats = run_tpcw_simulation("staged", config,
                                    profiles=fast_profiles()).stats
        start, end = config.window
        for request_class in ("static", "dynamic", "quick", "lengthy"):
            series = stats.throughput_series(60.0, request_class,
                                             start=start, end=end)
            assert sum(series.values) > 0, request_class

    def test_generation_excludes_render(self):
        """Generation time is the DB phase only; response time includes
        queues, render, and images — so response >= generation."""
        stats = run_tpcw_simulation("staged", tiny_config(),
                                    profiles=fast_profiles()).stats
        responses = stats.mean_response_times()
        for page, generation in stats.mean_generation_times().items():
            if page in responses:
                assert responses[page] >= generation * 0.5


class TestMeasurementWindow:
    """The paper's protocol: completions and latencies count only
    inside ``WorkloadConfig.window``; the sim applies it where it
    records into ``ServerStats``, which itself has no window."""

    def test_window_filtering(self):
        config = tiny_config(ramp_up=10, measure=10)   # window [10, 20)
        stats = ServerStats(ManualClock())
        for now in (5.0, 15.0, 25.0):  # before, inside, after
            if config.in_window(now):  # the emulated browser's rule
                stats.record_interaction("/a", 1.0)
        assert stats.completions() == {"/a": 1}

    def test_server_records_only_inside_window(self):
        config = tiny_config(ramp_up=10, measure=10)   # window [10, 20)
        sim = Simulation()
        server = SimServer.for_kind("baseline", sim, config)
        profile = fast_profiles()["/home"]

        def client():
            for at in (5.0, 15.0, 25.0):  # before, inside, after
                yield at - sim.now
                yield server.submit_page(profile, jitter=1.0)

        sim.spawn(client())
        sim.run()
        stats = server.stats
        assert set(stats.mean_generation_times()) == {"/home"}
        assert stats.stage_timing_summary()["worker"]["service"]["count"] == 1
        # The pool's checkout ledger spans the whole run, like its
        # pool-wide report.
        assert server.connection_pool.stage_report()["worker"]["leases"] == 3
        # Request events are kept for the whole run and windowed when
        # the throughput series is read.
        dynamic = stats.throughput_series(1.0, "dynamic")
        assert sum(dynamic.values) == 3

    def test_throughput_series_windowed(self):
        start, end = tiny_config(ramp_up=0, measure=120).window
        stats = ServerStats(ManualClock())
        stats.clock.advance(30.0)
        stats.record_request("static")
        stats.clock.advance(60.0)
        stats.record_request("static")
        series = stats.throughput_series(60.0, start=start, end=end)
        assert series.values == [1.0, 1.0]

    def test_unknown_class_series_empty(self):
        stats = ServerStats(ManualClock())
        series = stats.throughput_series(60.0, "nope", end=60.0)
        assert sum(series.values) == 0
