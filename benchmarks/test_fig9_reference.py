"""Benchmark for Figure 9 — reference Alcatel execution without fault."""

from repro.analysis import plateaux_count
from repro.experiments.fig9_reference import campaign
from repro.scenarios import run_scenario


def test_fig9_reference_execution(benchmark):
    run = benchmark.pedantic(
        lambda: run_scenario(
            "fig9",
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
    print("lille:", [int(v) for v in result["lille_completed"]])
    print("orsay:", [int(v) for v in result["orsay_completed"]])
    assert result["completed"] == result["submitted"] == 120
    # The replica trails the primary by discrete replication rounds (plateaux).
    assert result["replica_mean_lag_tasks"] >= 0
    assert plateaux_count(result["orsay_completed"]) >= 1


def test_the_paper_size_campaign_completes():
    """The paper's campaign: 1000 tasks on ~280 servers, with no fault."""
    result = campaign(1000, {"lille": 93, "wisconsin": 93, "orsay": 93}, seed=0)
    print("makespan:", result["makespan"])
    assert result["completed"] == result["submitted"] == 1000
