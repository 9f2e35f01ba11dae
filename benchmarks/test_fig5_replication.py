"""Benchmark for Figure 5 — coordinator replication time."""

from repro.experiments.common import print_rows
from repro.scenarios import run_scenario


def test_fig5_replication_vs_size(benchmark):
    rows = benchmark.pedantic(
        lambda: run_scenario(
            "fig5-size", axes={"params_bytes": [1_000, 100_000, 10_000_000]}, jobs=1
        ).rows,
        rounds=1, iterations=1,
    )
    print_rows(rows, title="Figure 5 (left): replication time vs RPC data size")
    assert rows[-1]["confined"] > rows[0]["confined"]
    # Reduced Internet bandwidth separates the curves at large sizes.
    assert rows[-1]["internet"] > rows[-1]["confined"]


def test_fig5_replication_vs_count(benchmark):
    rows = benchmark.pedantic(
        lambda: run_scenario("fig5-count", axes={"n_tasks": [1, 10, 100]}, jobs=1).rows,
        rounds=1, iterations=1,
    )
    print_rows(rows, title="Figure 5 (right): replication time vs number of tasks")
    assert rows[-1]["confined"] > rows[0]["confined"]
