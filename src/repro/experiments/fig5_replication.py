"""EXP-F5 — Figure 5: coordinator replication time.

Measures the time one coordinator needs to propagate its state abstract to
its ring successor and receive the acknowledgement, on the confined cluster
(solid curves) and across the Internet testbed (dashed curves):

* left panel  — 16 RPCs, data size swept from ~100 B to 100 MB;
* right panel — small (~300 B) task descriptions, count swept from 1 to 1000.

Expected shape: flat, database-dominated times for small payloads (the backup
pays one row write per description), linear growth once the data size exceeds
~1 MB; linear growth with the number of descriptions; the Internet's reduced
bandwidth separates the curves at large sizes while its faster database
machines make the many-small-records case cheaper than the cluster's.

Both panels are registered as scenarios (``fig5-size``, ``fig5-count``).
"""

from __future__ import annotations

from typing import Any

from repro.config import ProtocolConfig
from repro.core.protocol import CallDescription
from repro.experiments.common import finish
from repro.grid.builder import Grid, build_confined_cluster, build_internet_testbed
from repro.scenarios.reducers import grouped
from repro.scenarios.registry import scenario
from repro.scenarios.spec import Axis, CellResult, ScenarioSpec
from repro.types import CallIdentity
from repro.workloads.sweep import geometric_counts, geometric_sizes

__all__ = ["measure_replication_time", "replication_cell"]

_ENVIRONMENTS = ("confined", "internet")


def _build(environment: str, seed: int = 0) -> Grid:
    protocol = ProtocolConfig()
    protocol.policy.replication = "policy.repl.none"  # measured manually
    # Keep unrelated traffic (work requests) out of the measurement, and do
    # not let the ack wait be cut short by the suspicion timeout: bulk
    # replications over the Internet legitimately take minutes (Fig. 5).
    protocol.coordinator.request_processing_overhead = 0.01
    protocol.coordinator.detection.suspicion_timeout = 50_000.0
    protocol.server.work_poll_period = 10_000.0
    if environment == "confined":
        grid = build_confined_cluster(
            n_servers=1, n_coordinators=2, protocol=protocol, seed=seed
        )
    elif environment == "internet":
        grid = build_internet_testbed(
            servers_per_site={"lille": 1},
            coordinator_sites=("lille", "orsay"),
            protocol=protocol,
            seed=seed,
        )
    else:
        raise ValueError(f"unknown environment {environment!r}")
    grid.start()
    return grid


def _inject_tasks(grid: Grid, n_tasks: int, params_bytes: int) -> None:
    """Register ``n_tasks`` pending tasks directly on the first coordinator.

    Identities are numbered per run (one synthetic session, RPC ids 1..N), so
    a measurement does not depend on how many runs happened earlier in the
    process.
    """
    calls = [
        CallDescription(
            identity=CallIdentity("bench", "fig5", index + 1),
            service="sleep",
            params_bytes=params_bytes,
            result_bytes=64,
            exec_time=1.0,
        )
        for index in range(n_tasks)
    ]
    grid.coordinators[0].preload_tasks(calls)


def measure_replication_time(
    environment: str, n_tasks: int, params_bytes: int, seed: int = 0
) -> float:
    """Time for one full replication round (state push + backup ack).

    ``nan`` when the backup did not acknowledge the round; a driver that did
    not finish within its horizon is an error.
    """
    grid = _build(environment, seed=seed)
    _inject_tasks(grid, n_tasks, params_bytes)
    coordinator = grid.coordinators[0]
    host = coordinator.host
    timings: dict[str, float] = {}

    def driver():
        timings["start"] = grid.env.now
        # Every preloaded row is in the change log: the round is full-state.
        ok = yield from coordinator.replicate_once()
        timings["ok"] = float(bool(ok))
        timings["end"] = grid.env.now

    process = host.spawn(driver(), name="fig5-driver")
    finish(grid, process, 10_000.0, f"fig5: the {environment} replication driver")
    if not timings.get("ok"):  # pragma: no cover - the backup did not ack
        return float("nan")
    return timings["end"] - timings["start"]


def replication_cell(
    environment: str, n_tasks: int, params_bytes: int, seed: int = 0
) -> dict[str, Any]:
    """Scenario cell: one replication-round measurement."""
    seconds = measure_replication_time(
        environment, n_tasks=n_tasks, params_bytes=params_bytes, seed=seed
    )
    return {"replication_seconds": seconds}


def _pivot_environments(group_key: str, fixed_key: str):
    """Rows keyed by ``group_key`` with one column per environment."""

    def reduce(results: list[CellResult]) -> list[dict[str, Any]]:
        rows: list[dict[str, Any]] = []
        for (value,), cells in grouped(results, (group_key,)).items():
            row: dict[str, Any] = {
                group_key: value,
                fixed_key: cells[0].params[fixed_key],
            }
            for cell in cells:
                row[cell.params["environment"]] = cell.outputs["replication_seconds"]
            rows.append(row)
        return rows

    return reduce


@scenario("fig5-size")
def _fig5_size() -> ScenarioSpec:
    return ScenarioSpec(
        name="fig5-size",
        title="Coordinator replication time vs RPC data size",
        figure="5 (left)",
        cell=replication_cell,
        base=dict(n_tasks=16),
        axes=(
            Axis("params_bytes", tuple(geometric_sizes())),
            Axis("environment", _ENVIRONMENTS),
        ),
        seeds=(0,),
        outputs=("replication_seconds",),
        scales={"tiny": {"params_bytes": (1_000, 1_000_000), "n_tasks": 8}},
        reduce=_pivot_environments("params_bytes", "n_tasks"),
    )


@scenario("fig5-count")
def _fig5_count() -> ScenarioSpec:
    return ScenarioSpec(
        name="fig5-count",
        title="Coordinator replication time vs number of task descriptions",
        figure="5 (right)",
        cell=replication_cell,
        base=dict(params_bytes=300),
        axes=(
            Axis("n_tasks", tuple(geometric_counts())),
            Axis("environment", _ENVIRONMENTS),
        ),
        seeds=(0,),
        outputs=("replication_seconds",),
        scales={"tiny": {"n_tasks": (1, 32)}},
        reduce=_pivot_environments("n_tasks", "params_bytes"),
    )
