#!/usr/bin/env python3
"""The paper's real-life scenario: an Alcatel-style validation campaign.

Runs a scaled-down version of the §5.2 campaign on the Internet testbed
(Lille + LRI coordinators, servers at three sites) and prints the completed-
task curves seen by the primary and by its passive replica — the data behind
Figure 9, including the replica's 60-second plateaux.
"""

from repro.scenarios import run_scenario


def main() -> None:
    run = run_scenario(
        "fig9",
        params=dict(
            n_tasks=200, servers_per_site={"lille": 15, "wisconsin": 15, "orsay": 15}
        ),
        seeds=(3,),
        jobs=1,
    )
    result = run.cells[0]["outputs"]
    print(f"campaign makespan : {result['makespan']:.0f} s "
          f"({result['completed']}/{result['submitted']} tasks)")
    print(f"replica lag       : mean {result['replica_mean_lag_tasks']:.1f} tasks, "
          f"max {result['replica_max_lag_tasks']:.0f} tasks")
    print("\n time(s)   lille   LRI/orsay")
    for t, lille, orsay in zip(
        result["sample_times"], result["lille_completed"], result["orsay_completed"]
    ):
        print(f"{t:8.0f}  {lille:6.0f}  {orsay:9.0f}")


if __name__ == "__main__":
    main()
