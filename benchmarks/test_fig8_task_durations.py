"""Benchmark for Figure 8 — distribution of Alcatel task durations."""

from repro.experiments.common import print_rows
from repro.scenarios import run_scenario


def test_fig8_task_duration_distribution(benchmark):
    run = benchmark.pedantic(lambda: run_scenario("fig8", jobs=1), rounds=1, iterations=1)
    result = run.cells[0]["outputs"]
    print_rows(result["histogram"], title="Figure 8: distribution of task durations")
    stats = result["stats"]
    print("stats:", stats)
    assert stats["count"] == 1000
    assert stats["max"] > 4 * stats["median"]  # wide, right-skewed range
