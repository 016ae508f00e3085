"""The metrics sink: completions, response times, queue samples.

One :class:`ServerStats` records everything the paper reports, for the
live servers and the simulator alike: per-page completion counts
(Table 4), per-page response-time averages (Table 3), queue-length
time series for each pool (Figures 7–8), and completed requests per
whole second of run time for the throughput curves (Figures 9–10) —
plus, beyond the paper, per-stage queue-wait/service-time breakdowns
with percentiles, so the Figure 7/8 queue story is measurable per
request (where did a request's latency go: header vs. general vs.
render?).  The simulator builds one on a simulated clock and applies
its measurement window where it records.

Request classes are the :class:`repro.core.classifier.RequestClass`
enum end-to-end.  Per-class throughput keeps the labels the figure-10
exports have always used: ``static``, ``dynamic`` (all dynamic
requests), and the refined ``quick`` / ``lengthy`` — a dynamic
completion is counted under both ``dynamic`` and its refined label.
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from typing import Dict, Optional, Union

from repro.core.classifier import RequestClass
from repro.util.clock import Clock, MonotonicClock
from repro.util.timeseries import SummaryAccumulator, TimeSeries, WelfordAccumulator

#: Per-class throughput labels for each request class.  Dynamic
#: classes count under "dynamic" *and* their refined label (Figure
#: 10 b–d).
CLASS_SERIES_LABELS: Dict[RequestClass, tuple] = {
    RequestClass.STATIC: ("static",),
    RequestClass.QUICK_DYNAMIC: ("dynamic", "quick"),
    RequestClass.LENGTHY_DYNAMIC: ("dynamic", "lengthy"),
}


class ServerStats:
    """Thread-safe metric sink shared by all of a server's pools."""

    def __init__(self, clock: Optional[Clock] = None):
        self.clock = clock if clock is not None else MonotonicClock()
        self.started_at = self.clock.now()
        self._lock = threading.Lock()
        self._completions: Dict[str, int] = {}
        self._response_times: Dict[str, SummaryAccumulator] = {}
        self._generation_times: Dict[str, WelfordAccumulator] = {}
        self._stage_queue_waits: Dict[str, SummaryAccumulator] = {}
        self._stage_services: Dict[str, SummaryAccumulator] = {}
        # Completed requests per whole second of run time, per class
        # label; the None label counts every request (Figure 9).
        self._request_counts: Dict[Optional[str], Counter] = \
            defaultdict(Counter)
        self.queue_series: Dict[str, TimeSeries] = {}
        self.spare_series = TimeSeries("general-spare")
        self.treserve_series = TimeSeries("treserve")
        self.parked_series = TimeSeries("parked-connections")
        # The reactor's idle reaps and sheds, counted only here.
        self._connection_counters: Dict[str, int] = {
            "idle_reaped": 0,
            "sheds": 0,
        }
        # Per-stage policy outcomes (retries, deadlines, fast fails...).
        self._resilience: Dict[str, Dict[str, int]] = {}

    @staticmethod
    def _class_labels(request_class: Union[RequestClass, str]) -> tuple:
        """Series labels for a request class; plain strings (legacy
        callers, tests) map to a single series of that name."""
        if isinstance(request_class, RequestClass):
            return CLASS_SERIES_LABELS[request_class]
        return (str(request_class),)

    # ------------------------------------------------------------------
    # Every recording method computes its timestamp *inside* the lock:
    # TimeSeries.append rejects out-of-order samples, so two threads
    # that read the clock and then raced to append could otherwise
    # blow up (and Welford updates outside the lock corrupted state).
    # ------------------------------------------------------------------
    def record_completion(self, page: str,
                          request_class: Union[RequestClass, str],
                          response_seconds: float) -> None:
        """One finished live request: its interaction and its request."""
        self.record_interaction(page, response_seconds)
        self.record_request(request_class)

    def record_interaction(self, page: str, response_seconds: float) -> None:
        """One finished web interaction: its page's completion count and
        response time (Tables 3–4)."""
        with self._lock:
            self._completions[page] = self._completions.get(page, 0) + 1
            accumulator = self._response_times.get(page)
            if accumulator is None:
                accumulator = SummaryAccumulator(page)
                self._response_times[page] = accumulator
            accumulator.add(response_seconds)

    def record_request(self, request_class: Union[RequestClass, str]) -> None:
        """One completed HTTP request, counted in its whole second of run
        time in total and under its class labels (Figures 9–10)."""
        with self._lock:
            second = int(self.clock.now() - self.started_at)
            self._request_counts[None][second] += 1
            for label in self._class_labels(request_class):
                self._request_counts[label][second] += 1

    def record_generation_time(self, page: str, seconds: float) -> None:
        """Data-generation time for a dynamic page (server-side view)."""
        with self._lock:
            accumulator = self._generation_times.get(page)
            if accumulator is None:
                accumulator = WelfordAccumulator(page)
                self._generation_times[page] = accumulator
            accumulator.add(seconds)

    def record_stage_timing(self, stage: str, queue_wait: float,
                            service: float) -> None:
        """One pipeline hop: time queued at ``stage`` plus service time.

        Fed by the stage pipeline on every hop, so each request's
        latency decomposes into per-stage waits — the queue dynamics of
        the paper's Figures 7–8, measured per request instead of
        sampled once a second.
        """
        with self._lock:
            waits = self._stage_queue_waits.get(stage)
            if waits is None:
                waits = SummaryAccumulator(f"{stage}/queue-wait")
                self._stage_queue_waits[stage] = waits
            services = self._stage_services.get(stage)
            if services is None:
                services = SummaryAccumulator(f"{stage}/service")
                self._stage_services[stage] = services
            waits.add(queue_wait)
            services.add(service)

    def sample_queue(self, pool_name: str, length: int) -> None:
        with self._lock:
            now = self.clock.now() - self.started_at
            series = self.queue_series.get(pool_name)
            if series is None:
                series = TimeSeries(f"queue/{pool_name}")
                self.queue_series[pool_name] = series
            series.append(now, length)

    def sample_reserve(self, tspare: int, treserve: int) -> None:
        with self._lock:
            now = self.clock.now() - self.started_at
            self.spare_series.append(now, tspare)
            self.treserve_series.append(now, treserve)

    # ------------------------------------------------------------------
    # Connection-reactor gauges
    # ------------------------------------------------------------------
    def sample_parked(self, count: int) -> None:
        """Periodic sample of connections parked in the reactor."""
        with self._lock:
            now = self.clock.now() - self.started_at
            self.parked_series.append(now, count)

    def record_idle_reap(self) -> None:
        """The reactor closed a connection idle past its timeout."""
        with self._lock:
            self._connection_counters["idle_reaped"] += 1

    def record_shed(self) -> None:
        """The reactor shed a connection (cap reached or pool full)."""
        with self._lock:
            self._connection_counters["sheds"] += 1

    def connection_gauges(self) -> Dict[str, int]:
        """Current reactor view: parked connections, reaps, sheds."""
        with self._lock:
            gauges = dict(self._connection_counters)
        values = self.parked_series.values
        gauges["parked"] = int(values[-1]) if values else 0
        return gauges

    # ------------------------------------------------------------------
    # Resilience policy outcomes (fed by Resilience and the pipeline;
    # the plan counts its injections and the breaker its transitions)
    # ------------------------------------------------------------------
    _RESILIENCE_COUNTERS = (
        "retries", "deadline_expired", "breaker_fast_fail",
        "degraded_served", "late_completions", "worker_crashes",
    )

    def _resilience_entry(self, stage: str) -> Dict[str, int]:
        entry = self._resilience.get(stage)
        if entry is None:
            entry = {name: 0 for name in self._RESILIENCE_COUNTERS}
            self._resilience[stage] = entry
        return entry

    def _bump(self, stage: str, counter: str) -> None:
        with self._lock:
            self._resilience_entry(stage or "?")[counter] += 1

    def record_retry(self, stage: str) -> None:
        """One transient-DB retry issued on ``stage``."""
        self._bump(stage, "retries")

    def record_deadline_expired(self, stage: str) -> None:
        """A request failed 504 at ``stage``: past its deadline."""
        self._bump(stage, "deadline_expired")

    def record_fast_fail(self, stage: str) -> None:
        """The open circuit breaker fast-failed an acquire on ``stage``."""
        self._bump(stage, "breaker_fast_fail")

    def record_degraded(self, stage: str) -> None:
        """A stale fragment-cache copy was served while the breaker
        was open."""
        self._bump(stage, "degraded_served")

    def record_late_completion(self, stage: str) -> None:
        """A completion/failure arrived for an already-finished job
        (e.g. a worker crash after routing) and was suppressed."""
        self._bump(stage, "late_completions")

    def record_worker_crash(self, stage: str) -> None:
        """A pool worker crashed outside its stage handler."""
        self._bump(stage, "worker_crashes")

    def policy_outcomes(self) -> Dict[str, Dict[str, int]]:
        """``{stage: {retries, deadline_expired, breaker_fast_fail,
        degraded_served, late_completions, worker_crashes}}`` — keyed
        identically by the live servers and the simulator."""
        with self._lock:
            return {stage: dict(entry)
                    for stage, entry in sorted(self._resilience.items())}

    # ------------------------------------------------------------------
    def completions(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._completions)

    def total_completions(self) -> int:
        with self._lock:
            return sum(self._completions.values())

    def mean_response_times(self) -> Dict[str, float]:
        with self._lock:
            accumulators = dict(self._response_times)
        return {
            page: acc.mean for page, acc in accumulators.items() if acc.count
        }

    def response_time_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-page response-time summaries: count/mean/p50/p95/p99/max."""
        with self._lock:
            accumulators = dict(self._response_times)
        return {
            page: acc.summary()
            for page, acc in accumulators.items() if acc.count
        }

    def mean_generation_times(self) -> Dict[str, float]:
        with self._lock:
            accumulators = dict(self._generation_times)
        return {
            page: acc.mean for page, acc in accumulators.items() if acc.count
        }

    def stage_timing_summary(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Per-stage queue-wait and service-time percentile summaries.

        ``{stage: {"queue_wait": {count, mean, p50, p95, p99, max},
        "service": {...}}}`` — the per-request answer to "where did the
        latency go" (header vs. general vs. render).
        """
        with self._lock:
            waits = dict(self._stage_queue_waits)
            services = dict(self._stage_services)
        return {
            stage: {
                "queue_wait": waits[stage].summary(),
                "service": services[stage].summary(),
            }
            for stage in waits
        }

    def throughput_series(self, bucket_seconds: float = 60.0,
                          request_class: Union[RequestClass, str,
                                               None] = None,
                          start: float = 0.0,
                          end: Optional[float] = None) -> TimeSeries:
        """Completed requests per bucket of run time in ``[start, end)``:
        every request (Figure 9), or one class's (Figure 10).

        ``request_class`` is a label (``"static"``, ``"dynamic"``,
        ``"quick"``, ``"lengthy"``) or a :class:`RequestClass`, which
        resolves to its refined label.  Counts are kept per whole
        second, so the bucket width and the window edges must be whole
        seconds.  Without ``end`` the series runs through the last
        counted second, and is empty when nothing was counted.
        """
        if any(edge % 1 for edge in (bucket_seconds, start, end or 0)):
            raise ValueError(
                f"throughput buckets need whole-second width and edges, "
                f"got width {bucket_seconds} over [{start}, {end})"
            )
        label = (None if request_class is None
                 else self._class_labels(request_class)[-1])
        with self._lock:
            counts = sorted(self._request_counts.get(label, {}).items())
        per_second = TimeSeries("completions" if label is None
                                else f"completions/{label}")
        if not counts and end is None:
            return per_second
        for second, count in counts:
            per_second.append(second, count)
        return per_second.bucketize(bucket_seconds, start=start, end=end)
