#!/usr/bin/env python3
"""Figure 11 scenario: inconsistent component views of the system.

The servers believe only LRI/Orsay exists, the client is forced to submit to
Lille only, and the two coordinators keep replicating between themselves.
Work and results flow through the coordinator overlay and the campaign still
completes — the paper's progress condition in action.
"""

from repro.scenarios import run_scenario


def main() -> None:
    scale = dict(n_tasks=120, servers_per_site={"lille": 8, "wisconsin": 8, "orsay": 8})
    reference, partitioned = (
        run_scenario(name, params=scale, seeds=(3,), jobs=1).cells[0]["outputs"]
        for name in ("fig9", "fig11")
    )
    print(f"reference   : {reference['makespan']:.0f} s "
          f"({reference['completed']}/{reference['submitted']} tasks)")
    print(f"partitioned : {partitioned['makespan']:.0f} s "
          f"({partitioned['completed']}/{partitioned['submitted']} tasks)")
    print(f"progress condition held under partition: {partitioned['progress_condition_held']}")
    print(f"slowdown due to routing through the replication overlay: "
          f"{partitioned['makespan'] / reference['makespan']:.2f}x")


if __name__ == "__main__":
    main()
