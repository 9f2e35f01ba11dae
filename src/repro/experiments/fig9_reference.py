"""EXP-F9 — Figure 9: reference execution of the Alcatel campaign (no fault).

A single client submits the validation tasks to the Lille coordinator; the
LRI (Orsay) coordinator is its passive replica with a 60 s replication
period; servers at Lille, Wisconsin and Orsay pull work from Lille.  The
figure plots the number of completed tasks as seen by each coordinator over
time: the Lille curve grows continuously while the LRI curve follows it in
60-second plateaux (the discrete replication rounds).

The default task count and server population are scaled down from the paper's
1000 tasks / ~280 servers so the run stays fast; pass ``n_tasks=1000`` and a
larger ``servers_per_site`` for the full-size campaign.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.config import ProtocolConfig
from repro.grid.builder import build_internet_testbed
from repro.scenarios.registry import scenario
from repro.scenarios.spec import CellResult, ScenarioSpec
from repro.workloads.alcatel import AlcatelWorkload

__all__ = ["run_alcatel_campaign", "reference_cell", "completion_curve_rows"]


def run_alcatel_campaign(
    n_tasks: int = 300,
    servers_per_site: dict[str, int] | None = None,
    median_duration: float = 110.0,
    replication_period: float = 60.0,
    seed: int = 0,
    horizon: float = 30_000.0,
    client_preferred: str = "lille",
    components: Sequence[Any] = (),
    driver_components: Sequence[Any] = (),
    sample_period: float = 60.0,
) -> dict[str, Any]:
    """Run one Alcatel campaign on the Internet testbed and collect its curves.

    ``components`` are extra platform components built into the grid before
    it starts (instances, registered names, or ``{"name", "params"}``
    entries — the partition scenario wires its inconsistent views this way);
    ``driver_components`` join *after* the workload process is spawned — the
    lifecycle slot scenario drivers have always used, so a script migrated
    from a ``driver`` callback onto an ``inject.script`` entry replays the
    exact same event sequence.
    """
    servers_per_site = servers_per_site or {"lille": 20, "wisconsin": 20, "orsay": 20}
    protocol = ProtocolConfig()
    protocol.coordinator.replication.period = replication_period
    grid = build_internet_testbed(
        servers_per_site=servers_per_site,
        coordinator_sites=("lille", "orsay"),
        protocol=protocol,
        seed=seed,
        client_preferred=client_preferred,
        components=components,
    )
    grid.start()

    workload = AlcatelWorkload(n_tasks=n_tasks, median_duration=median_duration, seed=seed + 1)
    process = grid.run_process(workload.run(grid.client), name="alcatel-campaign")
    for entry in driver_components:
        grid.add_component(entry)

    finished = grid.run_until(process, timeout=horizon)
    makespan = workload.makespan if finished else grid.env.now

    lille_times, lille_counts = grid.completed_series("lille").as_arrays()
    orsay_times, orsay_counts = grid.completed_series("orsay").as_arrays()
    sample_grid = np.arange(0.0, grid.env.now + sample_period, sample_period)
    return {
        "makespan": float(makespan),
        "completed": workload.completed_count(),
        "submitted": len(workload.handles),
        "finished_in_time": finished,
        "sample_times": [float(t) for t in sample_grid],
        "lille_completed": [
            float(v) for v in grid.completed_series("lille").resample(sample_grid)
        ],
        "orsay_completed": [
            float(v) for v in grid.completed_series("orsay").resample(sample_grid)
        ],
        "lille_raw": (list(map(float, lille_times)), list(map(float, lille_counts))),
        "orsay_raw": (list(map(float, orsay_times)), list(map(float, orsay_counts))),
        "counters": dict(grid.monitor.counters),
        "traces": {
            "crashes": [
                (t.time, t.payload.get("address")) for t in grid.monitor.traces_of("crash")
            ],
            "restarts": [
                (t.time, t.payload.get("address"))
                for t in grid.monitor.traces_of("restart")
            ],
        },
    }


def reference_cell(
    n_tasks: int = 300,
    servers_per_site: dict[str, int] | None = None,
    median_duration: float = 110.0,
    replication_period: float = 60.0,
    seed: int = 0,
    horizon: float = 30_000.0,
    sample_period: float = 60.0,
) -> dict[str, Any]:
    """Scenario cell: one fault-free campaign plus the replica-lag metrics."""
    result = run_alcatel_campaign(
        n_tasks=n_tasks,
        servers_per_site=servers_per_site,
        median_duration=median_duration,
        replication_period=replication_period,
        seed=seed,
        horizon=horizon,
        sample_period=sample_period,
    )
    # Plateaux metric: how far the replica's curve lags behind the primary's.
    lille = np.asarray(result["lille_completed"])
    orsay = np.asarray(result["orsay_completed"])
    lag = lille - orsay
    result["replica_mean_lag_tasks"] = float(lag.mean()) if len(lag) else 0.0
    result["replica_max_lag_tasks"] = float(lag.max()) if len(lag) else 0.0
    return result


def completion_curve_rows(results: list[CellResult]) -> list[dict[str, Any]]:
    """Figure rows: the two coordinators' completion curves over time."""
    rows: list[dict[str, Any]] = []
    for result in results:
        out = result.outputs
        for t, lille, orsay in zip(
            out["sample_times"], out["lille_completed"], out["orsay_completed"]
        ):
            rows.append(
                {
                    "seed": result.seed,
                    "time_seconds": t,
                    "lille_completed": lille,
                    "orsay_completed": orsay,
                }
            )
    return rows


@scenario("fig9")
def _fig9() -> ScenarioSpec:
    return ScenarioSpec(
        name="fig9",
        title="Reference Alcatel campaign (no fault): completion curves",
        figure="9",
        cell=reference_cell,
        base=dict(
            n_tasks=300,
            servers_per_site=None,
            median_duration=110.0,
            replication_period=60.0,
            horizon=30_000.0,
            sample_period=60.0,
        ),
        seeds=(0,),
        outputs=("makespan", "completed", "lille_completed", "orsay_completed"),
        scales={
            "tiny": dict(
                n_tasks=60,
                servers_per_site={"lille": 6, "wisconsin": 6, "orsay": 6},
                median_duration=40.0,
                seeds=(3,),
            ),
        },
        reduce=completion_curve_rows,
    )
