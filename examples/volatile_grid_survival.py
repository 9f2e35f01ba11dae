#!/usr/bin/env python3
"""Fault-tolerance demo: the benchmark keeps finishing while components die.

Reproduces the spirit of Figure 7 and of the Figure 10 scenario at a small
scale: the synthetic benchmark runs while a fault generator kills servers,
then the same workload runs while coordinators are killed and restarted, and
finally a scripted double coordinator failure is survived.
"""

from repro.scenarios import run_scenario
from repro.scenarios.engine import GridTopology, WorkloadSpec, execute_benchmark


def _killing(target: str) -> list[dict]:
    """One ``inject.rate`` entry killing ``target`` at 6 faults/min."""
    return [{"name": "inject.rate", "params": {"target": target, "faults_per_minute": 6.0}}]


def main() -> None:
    topology = GridTopology(n_servers=8, n_coordinators=4)
    workload = WorkloadSpec(n_calls=48, exec_time=5.0)

    print("=== 1. no fault (baseline) ===")
    baseline = execute_benchmark(topology, workload)
    print(f"makespan {baseline.makespan:.1f} s "
          f"({100 * baseline.overhead_vs_ideal:.0f}% over the {baseline.ideal_time:.0f} s ideal)")

    print("\n=== 2. servers killed at 6 faults/min ===")
    servers = execute_benchmark(
        topology, workload, seed=7, components=_killing("servers"),
    )
    print(f"makespan {servers.makespan:.1f} s, faults injected {servers.faults_injected}, "
          f"completed {servers.completed}/{servers.submitted}")

    print("\n=== 3. coordinators killed at 6 faults/min ===")
    coordinators = execute_benchmark(
        topology, workload, seed=7, components=_killing("coordinators"),
    )
    print(f"makespan {coordinators.makespan:.1f} s, faults injected {coordinators.faults_injected}, "
          f"completed {coordinators.completed}/{coordinators.submitted}")

    print("\n=== 4. two consecutive coordinator faults (Figure 10 scenario) ===")
    result = run_scenario(
        "fig10",
        params=dict(n_tasks=120, servers_per_site={"lille": 8, "wisconsin": 8, "orsay": 8}),
        seeds=(3,),
        jobs=1,
    ).cells[0]["outputs"]
    for event in result["events"]:
        print(f"  t={event['time']:7.0f}s  label {event['label']}: {event['event']}")
    print(f"campaign completed: {result['tolerated_two_coordinator_faults']} "
          f"({result['completed']}/{result['submitted']} tasks, {result['makespan']:.0f} s)")


if __name__ == "__main__":
    main()
