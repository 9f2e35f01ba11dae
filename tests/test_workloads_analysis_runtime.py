"""Tests for workloads, config validation, analysis helpers, realtime driver,
and smoke tests of the experiment drivers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    completion_curve_lag,
    makespan_overhead,
    plateaux_count,
    summarize_series,
)
from repro.config import (
    ClientConfig,
    CoordinatorConfig,
    FaultDetectionConfig,
    LoggingConfig,
    PolicyConfig,
    ProtocolConfig,
    ReplicationConfig,
)
from repro.errors import ConfigurationError
from repro.experiments.common import format_rows, mean
from repro.grid import build_confined_cluster
from repro.runtime import RealTimeDriver
from repro.scenarios import run_scenario
from repro.sim.core import Environment
from repro.sim.monitor import TimeSeries
from repro.types import LoggingStrategy
from repro.workloads import AlcatelWorkload, SyntheticWorkload, geometric_counts, geometric_sizes
from repro.workloads.sweep import fault_frequencies


class TestConfigValidation:
    def test_default_protocol_validates(self):
        assert ProtocolConfig().validate() is not None

    def test_detection_timeout_must_exceed_heartbeat(self):
        with pytest.raises(ConfigurationError):
            FaultDetectionConfig(heartbeat_period=10.0, suspicion_timeout=5.0).validate()

    def test_logging_capacity_positive(self):
        with pytest.raises(ConfigurationError):
            LoggingConfig(capacity_bytes=0).validate()

    def test_replication_period_positive(self):
        with pytest.raises(ConfigurationError):
            ReplicationConfig(period=0.0).validate()

    def test_scheduler_policy_known(self):
        with pytest.raises(ConfigurationError, match="unknown component"):
            PolicyConfig(scheduler="policy.sched.lifo").validate()
        with pytest.raises(ConfigurationError, match="unknown component"):
            ProtocolConfig(policy=PolicyConfig(scheduler="lifo")).validate()

    def test_client_poll_period_positive(self):
        with pytest.raises(ConfigurationError):
            ClientConfig(result_poll_period=0.0).validate()

    def test_coordinator_overhead_non_negative(self):
        config = CoordinatorConfig()
        config.request_processing_overhead = -1.0
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_describe_reports_key_settings(self):
        description = ProtocolConfig().describe()
        assert description["policy.logging"] == "policy.log.pessimistic-nonblocking"
        assert "replication_period" in description


class TestWorkloads:
    def test_synthetic_metrics_nan_before_run(self):
        workload = SyntheticWorkload()
        assert np.isnan(workload.submission_time)
        assert np.isnan(workload.makespan)

    def test_alcatel_durations_are_deterministic_per_seed(self):
        a = AlcatelWorkload(n_tasks=100, seed=1).durations()
        b = AlcatelWorkload(n_tasks=100, seed=1).durations()
        c = AlcatelWorkload(n_tasks=100, seed=2).durations()
        assert np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_alcatel_distribution_is_wide_and_right_skewed(self):
        workload = AlcatelWorkload(n_tasks=1000, seed=42)
        stats = workload.duration_stats()
        assert stats["max"] > 4 * stats["median"]
        assert stats["mean"] > stats["median"]
        assert stats["min"] > 0

    def test_alcatel_histogram_counts_sum_to_tasks(self):
        workload = AlcatelWorkload(n_tasks=500, seed=3)
        counts, edges = workload.duration_histogram(bins=15)
        assert counts.sum() == 500
        assert len(edges) == 16

    def test_geometric_sizes_are_increasing_and_span_decades(self):
        sizes = geometric_sizes(100, 100_000_000)
        assert sizes == sorted(sizes)
        assert sizes[0] == 100
        assert sizes[-1] == 100_000_000

    def test_geometric_counts_default(self):
        assert geometric_counts() == [1, 10, 100, 1000]

    def test_fault_frequencies_range(self):
        frequencies = fault_frequencies(10.0, 2.0)
        assert frequencies[0] == 0.0
        assert frequencies[-1] == 10.0

    def test_sweep_validation(self):
        with pytest.raises(ValueError):
            geometric_sizes(0, 10)
        with pytest.raises(ValueError):
            geometric_counts(10, 1)
        with pytest.raises(ValueError):
            fault_frequencies(-1.0)


class TestAnalysis:
    def test_makespan_overhead(self):
        assert makespan_overhead(69.0, 60.0) == pytest.approx(0.15)
        with pytest.raises(ValueError):
            makespan_overhead(1.0, 0.0)

    def test_completion_curve_lag(self):
        lag = completion_curve_lag([0, 10, 20, 30], [0, 0, 20, 30])
        assert lag["max_lag_tasks"] == 10
        assert lag["final_gap_tasks"] == 0

    def test_completion_curve_lag_shape_mismatch(self):
        with pytest.raises(ValueError):
            completion_curve_lag([1, 2], [1, 2, 3])

    def test_plateaux_count(self):
        assert plateaux_count([0, 0, 1, 1, 1, 2, 3, 3]) == 3
        assert plateaux_count([1, 2, 3, 4]) == 0
        assert plateaux_count([]) == 0

    def test_summarize_series(self):
        series = TimeSeries("s")
        series.record(0.0, 0.0)
        series.record(10.0, 5.0)
        summary = summarize_series(series)
        assert summary["samples"] == 2
        assert summary["final_value"] == 5.0

    def test_summarize_empty_series(self):
        assert summarize_series(TimeSeries("empty"))["samples"] == 0

    def test_mean_and_format_rows(self):
        assert mean([1.0, 3.0]) == 2.0
        assert mean([]) == 0.0
        table = format_rows([{"a": 1, "b": 2.5}], title="t")
        assert "a" in table and "t" in table


def _fake_wall_driver(env: Environment, speedup: float) -> tuple[RealTimeDriver, list[float]]:
    """A driver whose sleeps only advance a fake clock; returns it and the sleeps."""
    sleeps: list[float] = []
    clock = {"now": 0.0}

    def fake_sleep(duration: float) -> None:
        sleeps.append(duration)
        clock["now"] += duration

    driver = RealTimeDriver(env, speedup=speedup, sleep=fake_sleep, clock=lambda: clock["now"])
    return driver, sleeps


class TestRealTimeDriver:
    def test_paces_events_against_wall_clock(self):
        env = Environment()
        env.timeout(1.0)
        env.timeout(2.0)
        driver, sleeps = _fake_wall_driver(env, speedup=2.0)
        processed = driver.run(until=2.0)
        assert processed == 2
        assert env.now == 2.0
        assert sum(sleeps) == pytest.approx(1.0)  # 2 virtual seconds at 2x speed

    @pytest.mark.parametrize("until", [float("inf"), float("nan")])
    def test_non_finite_until_is_rejected_before_anything_runs(self, until):
        env = Environment()
        env.timeout(1.0)
        driver, sleeps = _fake_wall_driver(env, speedup=1.0)
        with pytest.raises(ConfigurationError):
            driver.run(until=until)
        assert (env.now, env.events_processed, driver.events_processed, sleeps) == (0.0, 0, 0, [])

    def test_paced_grid_matches_a_plain_run(self):
        """The live example's grid, once paced and once run straight through."""

        def build():
            grid = build_confined_cluster(n_servers=4, n_coordinators=2)
            grid.start()
            workload = SyntheticWorkload(n_calls=12, exec_time=5.0, params_bytes=2048)
            grid.run_process(workload.run(grid.client), name="workload")
            return grid, workload

        paced_grid, paced = build()
        driver, _sleeps = _fake_wall_driver(paced_grid.env, speedup=20.0)
        ticks: list[float] = []
        driver.run(until=60.0, tick=ticks.append)
        plain_grid, plain = build()
        plain_grid.env.run(until=60.0)

        assert driver.events_processed == plain_grid.env.events_processed
        assert paced_grid.env.now == plain_grid.env.now == 60.0
        assert paced.completed_count() == 12

        def completions(workload):
            return [(h.identity, h.completed_at) for h in workload.handles if h.done]

        assert completions(paced) == completions(plain)
        assert ticks == sorted(set(ticks))  # one tick per virtual instant

    def test_tick_fires_once_per_instant_however_many_events_share_it(self):
        env = Environment()
        for delay in (1.0, 1.0, 1.0, 2.0, 2.0):
            env.timeout(delay)
        driver, _sleeps = _fake_wall_driver(env, speedup=1.0)
        ticks: list[float] = []
        assert driver.run(until=3.0, tick=ticks.append) == 5
        assert ticks == [1.0, 2.0]
        assert env.now == 3.0

    def test_an_idle_schedule_waits_out_the_deadline(self):
        env = Environment()
        env.run(until=4.0)
        driver, sleeps = _fake_wall_driver(env, speedup=2.0)
        assert driver.run(until=10.0) == 0
        assert env.now == 10.0
        assert sum(sleeps) == pytest.approx(3.0)  # 6 virtual seconds from now, at 2x

    def test_invalid_speedup_rejected(self):
        with pytest.raises(ConfigurationError):
            RealTimeDriver(Environment(), speedup=0.0)


class TestExperimentSmoke:
    def test_fig4_rows_have_three_strategies(self):
        rows = run_scenario(
            "fig4-size", axes={"params_bytes": [1000]}, params={"n_calls": 2}, jobs=1
        ).rows
        assert len(rows) == 1
        row = rows[0]
        for strategy in LoggingStrategy:
            assert row[strategy.value] > 0

    def test_fig5_replication_time_grows_with_count(self):
        rows = run_scenario(
            "fig5-count",
            axes={"n_tasks": [2, 64], "environment": ("confined",)},
            jobs=1,
        ).rows
        assert rows[1]["confined"] > rows[0]["confined"]

    def test_fig6_reports_both_directions(self):
        rows = run_scenario("fig6-calls", axes={"n_calls": [2]}, jobs=1).rows
        assert rows[0]["client_logs"] > 0
        assert rows[0]["coordinator_logs"] > 0

    def test_fig7_small_scale_monotonic_in_presence_of_faults(self):
        rows = run_scenario(
            "fig7",
            axes={"faults_per_minute": [0.0, 10.0]},
            params=dict(
                n_calls=8, exec_time=2.0, n_servers=4, n_coordinators=2,
                horizon=2000.0,
            ),
            seeds=(3,),
            jobs=1,
        ).rows
        assert rows[0]["faulty_servers_seconds"] <= rows[1]["faulty_servers_seconds"]
        assert rows[1]["faulty_servers_completed"]

    def test_fig8_histogram_covers_all_tasks(self):
        run = run_scenario("fig8", params=dict(n_tasks=200, bins=10), jobs=1)
        result = run.cells[0]["outputs"]
        assert sum(r["tasks"] for r in result["histogram"]) == 200
        assert result["stats"]["count"] == 200

    def test_detector_ablation_tradeoff(self):
        rows = run_scenario(
            "detector-ablation",
            scale="tiny",
            axes={
                "detection_policy": ("policy.detect.fixed-timeout",),
                "heartbeat_period": (5.0,),
                "timeout_multiplier": (2.0, 12.0),
            },
            jobs=1,
        ).rows
        tight, loose = rows
        # A tighter timeout detects crashes sooner and makes no fewer
        # mistakes.  This tiny cell makes no mistake at either timeout;
        # whether it makes one depends on a single draw of the network's
        # shared WAN delay stream, so the mistake axis is not pinned here.
        assert tight["detection_s"] < loose["detection_s"]
        assert tight["mistakes"] >= loose["mistakes"]

    def test_baseline_ablation_reports_all_systems(self):
        rows = run_scenario(
            "ablation-baselines",
            params=dict(
                faults_per_minute=0.0, n_calls=8, exec_time=1.0, horizon=1000.0
            ),
            seeds=(3,),
            jobs=1,
        ).rows
        assert {row["system"] for row in rows} == {
            "rpc-v",
            "no-replication",
            "netsolve-style",
        }
        assert all(row["mean_completion_ratio"] == 1.0 for row in rows)
