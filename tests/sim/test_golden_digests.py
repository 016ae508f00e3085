"""Golden digests of whole simulated runs.

Each case runs one server kind on the tiny workload and hashes
everything the harness reads from the results: completions, response
and generation time accumulators (exact ``repr`` of every moment), the
plotted queue series, tspare/treserve, database occupancy, and the
connection, fault, and resilience reports.  The literals pin the
simulator's output bit for bit, so a refactor of the simulated servers
that changes any request's sequence of simulated events fails here.

The queue series are hashed by value in the listed order; the key of
a thread-per-request server's whole-pool queue is its stage name.
"""

import hashlib
import json

import pytest

from repro.harness.chaos import ChaosConfig, default_resilience, default_rules
from repro.harness.export import resilience_document
from repro.sim.workload import run_tpcw_simulation
from tests.sim.test_workload_server import fast_profiles, tiny_config

THREAD_PER_REQUEST_QUEUES = ("dynamic", "worker")
STAGED_QUEUES = ("header", "static", "general", "lengthy")

QUEUE_KEYS = {
    "baseline": THREAD_PER_REQUEST_QUEUES,
    "sjf": THREAD_PER_REQUEST_QUEUES,
    "staged": STAGED_QUEUES + ("render",),
    "staged-render-inline": STAGED_QUEUES,
}


def _accumulators(accumulators):
    return [
        [page, acc.count, repr(acc.mean), repr(acc.variance),
         repr(acc.minimum), repr(acc.maximum)]
        for page, acc in sorted(accumulators.items())
    ]


def _series(series):
    return [[repr(t) for t in series.times], [repr(v) for v in series.values]]


def results_digest(server, queue_keys):
    # The accumulators come from the ServerStats internals: the digest
    # pins every moment, not just the exported summaries.
    stats = server.stats
    chaos = server.policies is not None
    document = {
        "completions": sorted(stats.completions().items()),
        "response_times": _accumulators(stats._response_times),
        "generation_times": _accumulators(stats._generation_times),
        "queues": [_series(stats.queue_series[key]) for key in queue_keys],
        "spare": _series(stats.spare_series),
        "treserve": _series(stats.treserve_series),
        "db_active": _series(stats.queue_series["db-active"]),
        "connection_report": server.connection_pool.utilization_report(),
        "fault_report": server.policies.plan.fault_report() if chaos
        else None,
        "resilience_report": resilience_document(server) if chaos else None,
    }
    encoded = json.dumps(document, sort_keys=True, default=repr)
    return hashlib.sha256(encoded.encode()).hexdigest()


def run_case(kind, variant):
    """``plain`` and ``chaos`` run the tiny workload; ``loaded`` doubles
    the clients and slows the lengthy pages so the queues fill (on the
    plain tiny run nothing waits, and SJF equals FIFO)."""
    if variant == "loaded":
        return run_tpcw_simulation(kind, tiny_config(clients=40),
                                   profiles=fast_profiles(slow_demand=2.0))
    config = tiny_config()
    kwargs = {}
    if variant == "chaos":
        chaos_config = ChaosConfig(workload=config)
        kwargs = dict(fault_rules=default_rules(chaos_config),
                      fault_seed=chaos_config.fault_seed,
                      resilience=default_resilience(chaos_config))
    return run_tpcw_simulation(kind, config, profiles=fast_profiles(),
                               **kwargs)


GOLDEN = {
    ("baseline", "plain"):
        "744b3d20e92b574145fe3b8f67db44dd816405973fa6af916e5318602adcc832",
    ("staged", "plain"):
        "db34f6cd57637a078c976c3835e4309ca4c443f64b2d82311f7c698e23586649",
    ("staged-render-inline", "plain"):
        "22235820e3c42d976aef1734deed3f388ddb0a1c7bd5e8f070b7f31f7e48992b",
    ("sjf", "plain"):
        "744b3d20e92b574145fe3b8f67db44dd816405973fa6af916e5318602adcc832",
    ("baseline", "chaos"):
        "9ec174fd88ee57837c8eddd53455bbc6ff01f4b71511f71260a819bcd668cd3f",
    ("staged", "chaos"):
        "be7177ade23a187d95149f10e85b7e7d0529ac434fb2e8ff2404cb0affb876c0",
    ("staged-render-inline", "chaos"):
        "5117e422fa1163e5c35159d46cb2afd3d30e12c5fd2a83099be6562619517437",
    ("baseline", "loaded"):
        "174717a71db00239ce0d6327bcdaf355564f6071268b2fa97e4ef07bfe85f580",
    ("staged", "loaded"):
        "bce65b9a179c70b034af47e231becf650b030f2b9dc722799aa5fdd23c37e6b7",
    ("staged-render-inline", "loaded"):
        "9964b6a53049a291181ba963056faf6a7a9f0efda7fe8ff6c231771f7d287149",
    ("sjf", "loaded"):
        "fefef6bde120b13f37e009089dd8df8ddbd24ae0d8b291ee4665bd4e319872ed",
}


@pytest.mark.parametrize("kind,variant", list(GOLDEN),
                         ids=[f"{kind}-{variant}" for kind, variant in GOLDEN])
def test_simulated_run_matches_golden_digest(kind, variant):
    results = run_case(kind, variant)
    assert results_digest(results, QUEUE_KEYS[kind]) == \
        GOLDEN[(kind, variant)]
