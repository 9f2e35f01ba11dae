"""Benchmark for Figure 11 — execution under a suspected partitioned environment."""

from repro.scenarios import run_scenario


def test_fig11_partitioned_views(benchmark):
    run = benchmark.pedantic(
        lambda: run_scenario(
            "fig11",
            params=dict(
                n_tasks=120, servers_per_site={"lille": 8, "wisconsin": 8, "orsay": 8}
            ),
            seeds=(3,),
            jobs=1,
        ),
        rounds=1, iterations=1,
    )
    result = run.cells[0]["outputs"]
    print("makespan:", result["makespan"], "completed:", result["completed"])
    assert result["progress_condition_held"]
    assert result["completed_under_partition"]
