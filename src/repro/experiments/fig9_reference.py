"""EXP-F9 — Figure 9: reference execution of the Alcatel campaign (no fault).

A single client submits the validation tasks to the Lille coordinator; the
LRI (Orsay) coordinator is its passive replica with a 60 s replication
period; servers at Lille, Wisconsin and Orsay pull work from Lille.  The
figure plots the number of completed tasks as seen by each coordinator over
time: the Lille curve grows continuously while the LRI curve follows it in
60-second plateaux (the discrete replication rounds).

The default task count and server population are scaled down from the paper's
1000 tasks / ~280 servers.  The paper's size runs too:
``campaign(1000, {"lille": 93, "wisconsin": 93, "orsay": 93}, seed=0)``
completes 1000 / 1000 with a 1,212 s makespan, in about 6 s of wall time on
one core of a 2-core x86 host.  It logs 258 server request timeouts, 13 of
them in the first minute: the 279 start-up synchronisations find nothing to
compare and cost Lille nothing.  Nor does an idle server's work request: the
coordinator holds it, free, until a submission answers it or the server's
poll period ends (``repro.core.coordinator``), so idle polling does not feed
an overload.

Figures 9–11 all run the campaign through :func:`campaign`, one
``execute_benchmark`` call on the Internet testbed.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.scenarios.engine import GridTopology, execute_benchmark
from repro.scenarios.registry import scenario
from repro.scenarios.spec import CellResult, ScenarioSpec
from repro.workloads.alcatel import AlcatelSpec

__all__ = ["campaign", "reference_cell", "completion_curve_rows"]

#: safety deadline of one campaign, virtual seconds.
HORIZON = 30_000.0
#: spacing of the sampled completion curves (one replication period).
SAMPLE_PERIOD = 60.0
#: server placement when a cell names none (60 servers).
SERVERS_PER_SITE = {"lille": 20, "wisconsin": 20, "orsay": 20}


def campaign(
    n_tasks: int,
    servers_per_site: dict[str, int] | None,
    seed: int,
    median_duration: float = 110.0,
    components: Sequence[Any] = (),
) -> dict[str, Any]:
    """Run one Alcatel campaign and sample both coordinators' curves."""
    topology = GridTopology(
        kind="internet", servers_per_site=servers_per_site or SERVERS_PER_SITE
    )
    report = execute_benchmark(
        topology,
        AlcatelSpec(n_tasks=n_tasks, median_duration=median_duration, seed=seed + 1),
        seed=seed,
        horizon=HORIZON,
        components=components,
    )
    # The campaign starts at t = 0, so its makespan is where the run stopped.
    times = np.arange(0.0, report.makespan + SAMPLE_PERIOD, SAMPLE_PERIOD)
    result = report.outputs()
    result["counters"] = report.counters
    result["sample_times"] = [float(t) for t in times]
    for site in ("lille", "orsay"):
        curve = report.series[f"coordinator.completed.{site}"].resample(times)
        result[f"{site}_completed"] = [float(v) for v in curve]
    return result


def reference_cell(
    n_tasks: int = 300,
    servers_per_site: dict[str, int] | None = None,
    median_duration: float = 110.0,
    seed: int = 0,
) -> dict[str, Any]:
    """Scenario cell: one fault-free campaign plus the replica-lag metrics."""
    result = campaign(n_tasks, servers_per_site, seed, median_duration=median_duration)
    # Plateaux metric: how far the replica's curve lags behind the primary's.
    lag = np.asarray(result["lille_completed"]) - np.asarray(result["orsay_completed"])
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
        base=dict(n_tasks=300, servers_per_site=None, median_duration=110.0),
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
