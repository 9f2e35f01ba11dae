#!/usr/bin/env python3
"""Authoring a custom scenario: a ~30-line spec instead of a new module.

The declarative scenario engine (``repro.scenarios``) turns a new workload
into a spec: pick a cell kernel (here the shared synthetic-benchmark kernel),
declare what is fixed, what is swept and what is measured, and hand it to the
sweep runner.  The same spec is what ``python -m repro run`` executes, so a
registered spec immediately gains the parallel runner, the JSON results store
and the CLI for free.

This example sweeps *coordinator* churn (the paper only sweeps servers in
Fig. 7): how much replication headroom do volatile coordinators burn?
"""

from repro.experiments.common import print_rows
from repro.scenarios import (
    Axis,
    ResultsStore,
    ScenarioSpec,
    SweepRunner,
    benchmark_cell,
)
from repro.scenarios.reducers import grouped, mean

SPEC = ScenarioSpec(
    name="coordinator-churn",
    title="Synthetic benchmark vs coordinator MTBF (volatile middle tier)",
    cell=benchmark_cell,
    base=dict(
        n_calls=24, exec_time=5.0, n_servers=8, n_coordinators=4,
        mttr=10.0, horizon=4000.0,
    ),
    axes=(Axis("mtbf", (600.0, 120.0, 30.0)),),
    # The injector is a registered component; "$mtbf" / "$mttr" follow
    # each cell's swept and fixed parameters.
    components=(
        {
            "name": "inject.churn",
            "params": {"target": "coordinators", "mtbf": "$mtbf", "mttr": "$mttr"},
        },
    ),
    seeds=(7, 11),
    outputs=("makespan", "completed", "faults_injected"),
    reduce=lambda results: [
        {
            "coordinator_mtbf_seconds": mtbf,
            "mean_makespan_seconds": mean(c.outputs["makespan"] for c in cells),
            "departures": sum(c.outputs["faults_injected"] for c in cells),
            "all_completed": all(
                c.outputs["completed"] >= c.outputs["submitted"] for c in cells
            ),
        }
        for (mtbf,), cells in grouped(results, ("mtbf",)).items()
    ],
)


def main() -> None:
    runner = SweepRunner(SPEC, jobs=2, store=ResultsStore("results"))
    result = runner.run(save=True)
    print_rows(result.rows, title=SPEC.title)
    print(
        f"\n{len(result.cells)} cells in {result.wall_seconds:.2f}s "
        f"({'parallel' if result.parallel else 'sequential'}); "
        f"artifact: {result.manifest.get('artifact')}"
    )


if __name__ == "__main__":
    main()
