"""Tests for RNG streams and monitors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.monitor import Monitor, TimeSeries
from repro.sim.rng import RandomStreams


class TestRandomStreams:
    def test_same_seed_same_stream_is_reproducible(self):
        a = RandomStreams(42).stream("x").random(5)
        b = RandomStreams(42).stream("x").random(5)
        assert np.allclose(a, b)

    def test_different_names_are_independent(self):
        rng = RandomStreams(42)
        a = rng.stream("a").random(5)
        b = rng.stream("b").random(5)
        assert not np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("x").random(5)
        b = RandomStreams(2).stream("x").random(5)
        assert not np.allclose(a, b)

    def test_exponential_requires_positive_mean(self):
        with pytest.raises(ValueError):
            RandomStreams(0).exponential("x", 0.0)

    def test_exponential_mean_is_roughly_right(self):
        rng = RandomStreams(7)
        draws = [rng.exponential("mtbf", 10.0) for _ in range(2000)]
        assert 9.0 < np.mean(draws) < 11.0

    def test_choice_from_empty_raises(self):
        with pytest.raises(ValueError):
            RandomStreams(0).choice("x", [])

    def test_choice_returns_member(self):
        options = ["a", "b", "c"]
        assert RandomStreams(0).choice("x", options) in options

    def test_shuffled_preserves_multiset(self):
        items = list(range(10))
        shuffled = RandomStreams(3).shuffled("x", items)
        assert sorted(shuffled) == items

    def test_spawn_creates_independent_factory(self):
        parent = RandomStreams(5)
        child = parent.spawn("node-1")
        assert child.master_seed != parent.master_seed
        assert not np.allclose(
            parent.stream("x").random(3), child.stream("x").random(3)
        )


class TestTimeSeries:
    def test_record_and_final_value(self):
        series = TimeSeries("s")
        series.record(0.0, 1.0)
        series.record(2.0, 3.0)
        assert series.final_value() == 3.0
        assert len(series) == 2

    def test_non_monotonic_time_rejected(self):
        series = TimeSeries("s")
        series.record(5.0, 1.0)
        with pytest.raises(ValueError):
            series.record(4.0, 2.0)

    def test_value_at_uses_step_interpolation(self):
        series = TimeSeries("s")
        series.record(1.0, 10.0)
        series.record(5.0, 20.0)
        assert series.value_at(0.5) == 0.0
        assert series.value_at(1.0) == 10.0
        assert series.value_at(4.9) == 10.0
        assert series.value_at(5.0) == 20.0

    def test_resample_on_grid(self):
        series = TimeSeries("s")
        series.record(1.0, 1.0)
        series.record(3.0, 2.0)
        grid = [0.0, 1.0, 2.0, 3.0, 4.0]
        assert list(series.resample(grid)) == [0.0, 1.0, 1.0, 2.0, 2.0]

    def test_resample_empty_series_uses_default(self):
        series = TimeSeries("s")
        assert list(series.resample([0.0, 1.0], default=7.0)) == [7.0, 7.0]


class TestMonitor:
    def test_counters_accumulate(self):
        monitor = Monitor()
        monitor.incr("x")
        monitor.incr("x", 2.5)
        assert monitor.count("x") == 3.5
        assert monitor.count("missing") == 0.0

    def test_gauge_last_write_wins(self):
        monitor = Monitor()
        monitor.gauge("g", 1.0)
        monitor.gauge("g", 9.0)
        assert monitor.gauges["g"] == 9.0

    def test_timeseries_is_created_on_demand(self):
        monitor = Monitor()
        monitor.sample("curve", 1.0, 2.0)
        assert monitor.timeseries("curve").final_value() == 2.0

    def test_traces_filter_by_category(self):
        monitor = Monitor()
        monitor.trace(1.0, "crash", node="a")
        monitor.trace(2.0, "restart", node="a")
        assert len(monitor.traces_of("crash")) == 1

    def test_trace_limit_bounds_memory(self):
        monitor = Monitor()
        monitor.trace_limit = 5
        with pytest.warns(RuntimeWarning, match="trace_limit") as caught:
            for i in range(10):
                monitor.trace(float(i), "event")
        assert len(monitor.traces) == 5
        # The overflow is counted, reported, and announced exactly once —
        # and stays out of the counter map (scenario rows hash that).
        assert monitor.traces_dropped == 5
        assert len(caught) == 1
        assert monitor.summary()["traces"] == 5
        assert monitor.summary()["traces_dropped"] == 5
        assert "traces_dropped" not in monitor.counters

    def test_summary_reports_everything(self):
        monitor = Monitor()
        monitor.incr("c")
        monitor.gauge("g", 1.0)
        monitor.sample("s", 0.0, 0.0)
        summary = monitor.summary()
        assert summary["counters"]["c"] == 1.0
        assert summary["series"]["s"] == 1
