"""Benchmark for Figure 9 — reference Alcatel execution without fault."""

from repro.analysis import plateaux_count
from repro.experiments.fig9_reference import campaign
from repro.scenarios import run_scenario
from repro.scenarios.engine import GridTopology, execute_benchmark
from repro.workloads.alcatel import AlcatelSpec


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


def test_paper_size_grid_of_432_servers_completes():
    """Four times the paper's server count: the campaign still completes,
    and the extra servers do not slow it below what 108 servers achieve."""

    def run(per_site: int) -> dict:
        sites = dict.fromkeys(("lille", "wisconsin", "orsay"), per_site)
        # campaign()'s run, with a horizon that bounds how long a
        # regressed run takes to fail.
        return execute_benchmark(
            GridTopology(kind="internet", servers_per_site=sites),
            AlcatelSpec(n_tasks=300, seed=8),
            seed=7,
            horizon=3000.0,
        ).outputs()

    large, small = run(144), run(36)
    print("makespan:", large["makespan"], "on 108 servers:", small["makespan"])
    assert large["completed"] == large["submitted"] == 300
    assert small["completed"] == small["submitted"] == 300
    assert large["makespan"] <= small["makespan"]
