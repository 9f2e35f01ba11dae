"""Benchmark for Figure 4 — message-logging strategies."""

from repro.experiments.common import print_rows
from repro.scenarios import run_scenario
from repro.types import LoggingStrategy


def test_fig4_submission_time_vs_size(benchmark):
    rows = benchmark.pedantic(
        lambda: run_scenario(
            "fig4-size",
            axes={"params_bytes": [1_000, 100_000, 10_000_000]},
            params={"n_calls": 8},
            jobs=1,
        ).rows,
        rounds=1, iterations=1,
    )
    print_rows(rows, title="Figure 4 (left): RPC submission time vs parameter size")
    blocking = LoggingStrategy.PESSIMISTIC_BLOCKING.value
    optimistic = LoggingStrategy.OPTIMISTIC.value
    for row in rows:
        assert row[blocking] > row[optimistic]


def test_fig4_submission_time_vs_calls(benchmark):
    rows = benchmark.pedantic(
        lambda: run_scenario("fig4-calls", axes={"n_calls": [1, 10, 100]}, jobs=1).rows,
        rounds=1, iterations=1,
    )
    print_rows(rows, title="Figure 4 (right): RPC submission time vs number of calls")
    assert rows[-1][LoggingStrategy.OPTIMISTIC.value] > rows[0][LoggingStrategy.OPTIMISTIC.value]
