"""EXP-F7 — Figure 7: benchmark execution time vs fault frequency.

The §5.1 fault-tolerance benchmark: one client submits 96 RPCs of 10 s to a
pool of 16 servers through 4 coordinators (ideal time 60 s; the no-fault
infrastructure overhead is ~17 %).  A fault generator kills components of one
tier — servers or coordinators — at the swept aggregate frequency and restarts
them a few seconds later; killed servers lose their running task, killed
coordinators force clients and servers to resynchronise.

Expected shape: both curves grow with the fault frequency and the server
curve sits above the coordinator curve (a lost execution costs more than a
middle-tier resynchronisation, and real platforms have many more computing
nodes than infrastructure nodes).

The sweep is registered as the ``fig7`` scenario — (frequency × target × seed)
cells over the shared :func:`~repro.scenarios.engine.benchmark_cell` kernel —
so ``python -m repro run fig7 --jobs N`` fans the whole figure out over a
process pool.
"""

from __future__ import annotations

from typing import Any

from repro.scenarios.engine import benchmark_cell
from repro.scenarios.reducers import grouped, mean
from repro.scenarios.registry import scenario
from repro.scenarios.spec import Axis, CellResult, ScenarioSpec
from repro.workloads.sweep import fault_frequencies

_TARGETS = ("servers", "coordinators")


def _fig7_rows(results: list[CellResult]) -> list[dict[str, Any]]:
    """One row per fault frequency, both target curves pivoted into columns."""
    rows: list[dict[str, Any]] = []
    for (frequency,), cells in grouped(results, ("faults_per_minute",)).items():
        params = cells[0].params
        row: dict[str, Any] = {
            "faults_per_minute": frequency,
            "ideal_seconds": params["exec_time"] * params["n_calls"] / params["n_servers"],
        }
        for target in _TARGETS:
            of_target = [c for c in cells if c.params["fault_target"] == target]
            row[f"faulty_{target}_seconds"] = mean(
                c.outputs["makespan"] for c in of_target
            )
            row[f"faulty_{target}_completed"] = all(
                c.outputs["completed"] >= c.outputs["submitted"] for c in of_target
            )
            row[f"faulty_{target}_faults"] = sum(
                c.outputs["faults_injected"] for c in of_target
            )
        rows.append(row)
    return rows


@scenario("fig7")
def _fig7() -> ScenarioSpec:
    return ScenarioSpec(
        name="fig7",
        title="Benchmark execution time vs fault frequency",
        figure="7",
        cell=benchmark_cell,
        base=dict(
            n_calls=96,
            exec_time=10.0,
            n_servers=16,
            n_coordinators=4,
            restart_delay=5.0,
            horizon=6000.0,
        ),
        axes=(
            Axis("faults_per_minute", tuple(fault_frequencies())),
            Axis("fault_target", _TARGETS),
        ),
        seeds=(7, 11, 23),
        outputs=("makespan", "submitted", "completed", "faults_injected"),
        # The Poisson injector is a named platform component; both the rate
        # and the victim tier are swept axes, wired in via $-interpolation.
        components=(
            {
                "name": "inject.rate",
                "params": {
                    "target": "$fault_target",
                    "faults_per_minute": "$faults_per_minute",
                    "restart_delay": "$restart_delay",
                },
            },
        ),
        scales={
            "tiny": dict(
                faults_per_minute=(0.0, 4.0, 10.0),
                n_calls=24,
                exec_time=5.0,
                n_servers=8,
                seeds=(7, 11),
                horizon=3000.0,
            ),
        },
        reduce=_fig7_rows,
    )
