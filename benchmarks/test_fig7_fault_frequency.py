"""Benchmark for Figure 7 — execution time vs fault frequency."""

from repro.experiments.common import print_rows
from repro.scenarios import run_scenario


def test_fig7_fault_frequency(benchmark):
    rows = benchmark.pedantic(
        lambda: run_scenario(
            "fig7",
            axes={"faults_per_minute": [0.0, 4.0, 10.0]},
            params=dict(n_calls=32, exec_time=5.0, n_servers=8, horizon=4000.0),
            seeds=(7,),
            jobs=1,
        ).rows,
        rounds=1, iterations=1,
    )
    print_rows(rows, title="Figure 7: benchmark execution time vs fault frequency")
    baseline = rows[0]
    worst = rows[-1]
    assert worst["faulty_servers_seconds"] > baseline["faulty_servers_seconds"]
    assert worst["faulty_coordinators_seconds"] >= baseline["faulty_coordinators_seconds"]
    assert all(r["faulty_servers_completed"] and r["faulty_coordinators_completed"] for r in rows)
