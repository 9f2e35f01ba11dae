"""EXP-F10 — Figure 10: execution with two consecutive coordinator faults.

Reproduces the labelled scenario of the paper:

1. both coordinators start; the client submits every task to Lille;
2. Lille is killed once ~40 % of the tasks are completed;
3. the servers (and the client) suspect Lille and fail over to LRI/Orsay;
4. LRI keeps receiving results and catches up with Lille's count;
5. Lille is restarted; passive replication brings it back close to LRI;
6. LRI is killed; everybody fails back to Lille;
7. the campaign terminates using the Lille coordinator alone.

The experiment records the completed-task curves of both coordinators plus
the times of every scripted event, and reports whether the campaign completed
despite the two consecutive middle-tier failures — the paper's headline
fault-tolerance result.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.fig9_reference import campaign, completion_curve_rows
from repro.platform.registry import create_component
from repro.scenarios.engine import GridTopology
from repro.scenarios.registry import scenario
from repro.scenarios.spec import ScenarioSpec

__all__ = ["coordinator_fault_steps", "coordinator_faults_cell"]


def coordinator_fault_steps(
    n_tasks: int,
    kill_lille_fraction: float = 0.4,
    kill_orsay_fraction: float = 0.75,
    lille_restart_delay: float = 180.0,
    replication_period: float = 60.0,
) -> list[dict[str, Any]]:
    """The labelled Figure 10 timetable as declarative ``inject.script`` steps."""
    return [
        {"do": "note", "label": 1, "note": "coordinators started"},
        # Label 2: kill Lille once ~40% of the tasks are completed there.
        {
            "until": {
                "kind": "finished-count",
                "coordinator": "lille",
                "at_least": kill_lille_fraction * n_tasks,
            },
            "poll": 10.0,
            "do": "kill",
            "target": "coordinator:lille",
            "label": 2,
            "note": "lille killed",
        },
        # Label 6: restart Lille after the servers had time to fail over.
        {
            "after": lille_restart_delay,
            "do": "restart",
            "target": "coordinator:lille",
            "label": 6,
            "note": "lille restarted",
        },
        # Label 7: wait until Lille's view is close to Orsay's again (passive
        # replication catching up), then one more replication period.
        {
            "until": {
                "kind": "caught-up",
                "coordinator": "lille",
                "reference": "orsay",
                "margin": max(5, n_tasks // 50),
            },
            "poll": 10.0,
            "do": "note",
            "label": 7,
            "note": "lille caught up",
        },
        {"after": replication_period},
        # Label 8: kill LRI/Orsay once enough of the campaign has completed.
        # The campaign must terminate using the Lille coordinator (label 10);
        # Orsay stays down for the remainder of the run.
        {
            "until": {
                "kind": "finished-count",
                "coordinator": "orsay",
                "at_least": kill_orsay_fraction * n_tasks,
            },
            "poll": 10.0,
            "do": "kill",
            "target": "coordinator:orsay",
            "label": 8,
            "note": "orsay killed",
        },
    ]


def coordinator_faults_cell(
    n_tasks: int = 300,
    servers_per_site: dict[str, int] | None = None,
    kill_lille_fraction: float = 0.4,
    kill_orsay_fraction: float = 0.75,
    lille_restart_delay: float = 180.0,
    seed: int = 0,
) -> dict[str, Any]:
    """Run the two-consecutive-coordinator-faults scenario.

    The scripted faults are an ``inject.script`` component entry (its
    condition-triggered ``steps`` form) — no callback touches the grid.  Its
    post-catch-up wait is the testbed's own replication period, so the
    timetable cannot drift from the actual replication cadence.
    """
    protocol = GridTopology(kind="internet").default_protocol()
    script = create_component(
        "inject.script",
        {
            "steps": coordinator_fault_steps(
                n_tasks=n_tasks,
                kill_lille_fraction=kill_lille_fraction,
                kill_orsay_fraction=kill_orsay_fraction,
                lille_restart_delay=lille_restart_delay,
                replication_period=protocol.coordinator.replication.period,
            )
        },
    )
    result = campaign(n_tasks, servers_per_site, seed, components=[script])
    result["events"] = script.recorded
    result["tolerated_two_coordinator_faults"] = (
        result["finished_in_time"] and result["completed"] >= result["submitted"]
    )
    return result


@scenario("fig10")
def _fig10() -> ScenarioSpec:
    return ScenarioSpec(
        name="fig10",
        title="Alcatel campaign surviving two consecutive coordinator faults",
        figure="10",
        cell=coordinator_faults_cell,
        base=dict(
            n_tasks=300,
            servers_per_site=None,
            kill_lille_fraction=0.4,
            kill_orsay_fraction=0.75,
            lille_restart_delay=180.0,
        ),
        seeds=(0,),
        outputs=("makespan", "completed", "events", "tolerated_two_coordinator_faults"),
        scales={
            "tiny": dict(
                n_tasks=120,
                servers_per_site={"lille": 8, "wisconsin": 8, "orsay": 8},
                seeds=(3,),
            ),
        },
        reduce=completion_curve_rows,
    )
