"""Benchmark for Figure 6 — client/coordinator synchronization time."""

from repro.experiments.common import print_rows
from repro.scenarios import run_scenario


def test_fig6_sync_vs_size(benchmark):
    rows = benchmark.pedantic(
        lambda: run_scenario(
            "fig6-size",
            axes={"params_bytes": [1_000, 1_000_000]},
            params={"n_calls": 8},
            jobs=1,
        ).rows,
        rounds=1, iterations=1,
    )
    print_rows(rows, title="Figure 6 (left): synchronization time vs data size")
    for row in rows:
        assert row["coordinator_logs"] > row["client_logs"]


def test_fig6_sync_vs_calls(benchmark):
    rows = benchmark.pedantic(
        lambda: run_scenario("fig6-calls", axes={"n_calls": [8, 64]}, jobs=1).rows,
        rounds=1, iterations=1,
    )
    print_rows(rows, title="Figure 6 (right): synchronization time vs number of calls")
    for row in rows:
        assert row["coordinator_logs"] > row["client_logs"]
