"""Render demand on the simulated servers: a page's render time is its
profile's ``render_demand`` scaled by the per-request jitter."""

import dataclasses

import pytest

from repro.sim.workload import DEFAULT_PROFILES, run_tpcw_simulation
from tests.sim.test_workload_server import tiny_config


def render_heavy_profiles(scale):
    """Profiles where rendering dominates, so its demand is visible."""
    return {
        path: dataclasses.replace(
            profile, db_demand=min(profile.db_demand, 0.02),
            render_demand=profile.render_demand * scale, images=1,
        )
        for path, profile in DEFAULT_PROFILES.items()
    }


@pytest.mark.parametrize("kind", ["baseline", "staged", "sjf"])
def test_render_demand_drives_response_times(kind):
    light = run_tpcw_simulation(kind, tiny_config(seed=11),
                                profiles=render_heavy_profiles(5.0)).stats
    heavy = run_tpcw_simulation(kind, tiny_config(seed=11),
                                profiles=render_heavy_profiles(20.0)).stats
    assert light.total_completions() > 0
    light_mean = sum(light.mean_response_times().values())
    heavy_mean = sum(heavy.mean_response_times().values())
    assert light_mean < heavy_mean
