"""The ``ablation-baselines`` experiment (not in the paper, motivated by DESIGN.md).

What the RPC-V combination buys: the Fig. 7 workload under coordinator
faults, comparing full RPC-V against the baselines of :mod:`repro.baselines`
(no coordinator replication, and a NetSolve-style configuration with
server-side fault tolerance only).  The heart-beat / timeout trade-off is
the ``detector-ablation`` scenario of :mod:`repro.scenarios.robustness`.
"""

from __future__ import annotations

from typing import Any

from repro.scenarios.engine import benchmark_cell
from repro.scenarios.reducers import grouped, mean
from repro.scenarios.registry import scenario
from repro.scenarios.spec import Axis, CellResult, ScenarioSpec

_SYSTEMS = ("rpc-v", "no-replication", "netsolve-style")


def _baseline_rows(results: list[CellResult]) -> list[dict[str, Any]]:
    """One row per system: mean makespan and completion ratio over the seeds."""
    rows: list[dict[str, Any]] = []
    for (system,), cells in grouped(results, ("protocol_preset",)).items():
        params = cells[0].params
        rows.append(
            {
                "system": system,
                "faults_per_minute": params["faults_per_minute"],
                "fault_target": params["fault_target"],
                "mean_makespan_seconds": mean(c.outputs["makespan"] for c in cells),
                "mean_completion_ratio": mean(
                    c.outputs["completed"] / max(c.outputs["submitted"], 1)
                    for c in cells
                ),
            }
        )
    return rows


@scenario("ablation-baselines")
def _ablation_baselines() -> ScenarioSpec:
    return ScenarioSpec(
        name="ablation-baselines",
        title="RPC-V vs degraded baselines under coordinator faults",
        cell=benchmark_cell,
        description=(
            "The Fig. 7 workload under faults, with the protocol swept over "
            "the full RPC-V configuration and the two degraded baselines."
        ),
        base=dict(
            n_calls=96,
            exec_time=10.0,
            # Both stay cell parameters: the reducer reports them per row.
            fault_target="coordinators",
            faults_per_minute=4.0,
            horizon=4000.0,
        ),
        axes=(Axis("protocol_preset", _SYSTEMS),),
        seeds=(7, 11),
        outputs=("makespan", "submitted", "completed"),
        components=(
            {
                "name": "inject.rate",
                "params": {
                    "target": "$fault_target",
                    "faults_per_minute": "$faults_per_minute",
                    "restart_delay": 5.0,
                },
            },
        ),
        scales={
            "tiny": dict(n_calls=24, exec_time=5.0, seeds=(7,), horizon=3000.0),
        },
        reduce=_baseline_rows,
    )
