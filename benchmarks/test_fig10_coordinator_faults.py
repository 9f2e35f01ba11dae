"""Benchmark for Figure 10 — execution with two consecutive coordinator faults."""

from repro.scenarios import run_scenario


def test_fig10_two_consecutive_coordinator_faults(benchmark):
    run = benchmark.pedantic(
        lambda: run_scenario(
            "fig10",
            params=dict(
                n_tasks=120, servers_per_site={"lille": 8, "wisconsin": 8, "orsay": 8}
            ),
            seeds=(3,),
            jobs=1,
        ),
        rounds=1, iterations=1,
    )
    result = run.cells[0]["outputs"]
    print("makespan:", result["makespan"], "events:", result["events"])
    assert result["tolerated_two_coordinator_faults"]
    labels = [event["label"] for event in result["events"]]
    assert 2 in labels and 8 in labels  # both coordinators were actually killed
