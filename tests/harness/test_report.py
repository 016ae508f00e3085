"""Report formatting tests (sparklines, table renderers)."""

from repro.harness.report import _sparkline, format_series, format_table3
from repro.util.timeseries import TimeSeries


class TestSparkline:
    def test_empty(self):
        assert _sparkline([]) == "(no samples)"

    def test_constant_series_renders_uniform_glyphs(self):
        line = _sparkline([5.0, 5.0, 5.0])
        assert len(set(line)) == 1
        assert len(line) == 3

    def test_all_zero_series(self):
        line = _sparkline([0.0, 0.0])
        assert line == "  "  # lowest glyph is a space

    def test_peak_gets_the_tallest_glyph(self):
        line = _sparkline([0.0, 1.0, 10.0])
        assert line[2] == "█"

    def test_downsampling_preserves_peaks(self):
        # A single spike in a long series must survive downsampling
        # (buckets aggregate by max, not mean).
        values = [0.0] * 300
        values[137] = 99.0
        line = _sparkline(values, width=60)
        assert len(line) == 60
        assert "█" in line

    def test_short_series_not_padded(self):
        assert len(_sparkline([1.0, 2.0], width=60)) == 2


class TestFormatSeries:
    def test_summary_line(self):
        series = TimeSeries("q")
        for t, v in enumerate([1.0, 3.0, 2.0]):
            series.append(t, v)
        text = format_series(series, "queue", unit="")
        assert "min 1" in text
        assert "max 3" in text
        assert "(3 samples)" in text

    def test_empty_series(self):
        assert "(no samples)" in format_series(TimeSeries(), "empty")


class TestFormatTable3WithoutPaper:
    def test_paper_columns_omitted(self):
        rows = {"TPC-W home interaction": (2.0, 0.1)}
        text = format_table3(rows, include_paper=False)
        assert "paper" not in text
        assert "2.00" in text and "0.10" in text


class TestStageBreakdown:
    def _stats(self):
        from repro.core.classifier import RequestClass
        from repro.server.stats import ServerStats
        from repro.util.clock import ManualClock

        stats = ServerStats(ManualClock())
        for i in range(1, 21):
            stats.record_stage_timing("header", i / 1000.0, 0.001)
            stats.record_stage_timing("general", i / 100.0, 0.05)
            stats.record_completion("/page", RequestClass.QUICK_DYNAMIC,
                                    i / 10.0)
        return stats

    def test_stage_rows_with_percentiles(self):
        from repro.harness.report import format_stage_breakdown

        text = format_stage_breakdown(self._stats())
        assert "general (queued)" in text
        assert "header (service)" in text
        assert "p95" in text and "p99" in text
        # 20 samples of i/100: p50 is the 10th => 0.10
        assert "0.1000" in text

    def test_empty_stats(self):
        from repro.harness.report import format_stage_breakdown
        from repro.server.stats import ServerStats
        from repro.util.clock import ManualClock

        text = format_stage_breakdown(ServerStats(ManualClock()))
        assert "no stage timings" in text

    def test_page_percentiles(self):
        from repro.harness.report import format_page_percentiles

        text = format_page_percentiles(self._stats())
        assert "/page" in text
        assert "p99" in text
        # 20 samples of i/10: p50 is the 10th => 1.0, max 2.0
        assert "1.0000" in text and "2.0000" in text

    def test_page_percentiles_empty(self):
        from repro.harness.report import format_page_percentiles
        from repro.server.stats import ServerStats
        from repro.util.clock import ManualClock

        text = format_page_percentiles(ServerStats(ManualClock()))
        assert "no completions" in text


class TestConnectionUtilization:
    def _server(self, checkouts=()):
        from types import SimpleNamespace

        from repro.db.engine import Database
        from repro.db.pool import ConnectionPool
        from repro.server.resources import LeaseStrategy

        pool = ConnectionPool(Database(), 2)
        for stage, wait, held, busy in checkouts:
            pool.ledger.granted(wait, stage)
            pool.ledger.returned(held, busy, stage)
        return SimpleNamespace(connection_pool=pool,
                               lease_strategy=LeaseStrategy.PINNED)

    def test_one_row_per_stage_with_busy_fraction(self):
        from repro.harness.report import format_connection_utilization

        text = format_connection_utilization(self._server([
            ("general", 0.02, 8.0, 6.0),
            ("lengthy", 0.5, 4.0, 1.0),
        ]))
        assert "general" in text and "lengthy" in text
        assert "pinned" in text
        # general: 6.0 / 8.0 = 75%; lengthy: 1.0 / 4.0 = 25%
        assert "75.0%" in text
        assert "25.0%" in text
        assert "wait p95" in text

    def test_empty_stats(self):
        from repro.harness.report import format_connection_utilization

        text = format_connection_utilization(self._server())
        assert "no connection leases" in text
