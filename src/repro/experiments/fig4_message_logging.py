"""EXP-F4 — Figure 4: client-side message-logging strategies.

The experiment submits a batch of non-blocking RPCs on the confined cluster
and measures the total RPC submission time as seen by the client, for the
three logging strategies:

* left panel  — 16 calls, parameter size swept from ~100 B to 100 MB;
* right panel — small (~300 B) calls, count swept from 1 to 1000.

Expected shape: blocking pessimistic ≈ +30 % over optimistic for large
parameters (disk bandwidth vs network bandwidth), up to ~2× for many small
calls (disk latency ≈ communication time); non-blocking pessimistic close to
optimistic with a small, variable overhead.

Both panels are registered as scenarios (``fig4-size``, ``fig4-calls``).
"""

from __future__ import annotations

from typing import Any

from repro.config import ProtocolConfig
from repro.grid.builder import build_confined_cluster
from repro.policies.logging import (
    OptimisticLogging,
    PessimisticBlockingLogging,
    PessimisticNonBlockingLogging,
)
from repro.scenarios.reducers import grouped
from repro.scenarios.registry import scenario
from repro.scenarios.spec import Axis, CellResult, ScenarioSpec
from repro.sim.core import SimulationError
from repro.types import LoggingStrategy
from repro.workloads.sweep import geometric_counts, geometric_sizes
from repro.workloads.synthetic import SyntheticWorkload

__all__ = ["logging_cell"]

#: the swept strategies: the :class:`LoggingStrategy` value the figure's rows
#: are keyed by -> the ``policy.log.*`` entry implementing it.
_LOGGING_POLICIES = {
    policy.strategy.value: policy.key
    for policy in (
        OptimisticLogging,
        PessimisticNonBlockingLogging,
        PessimisticBlockingLogging,
    )
}

_STRATEGY_VALUES = tuple(_LOGGING_POLICIES)


def _measure_submission(
    strategy: str,
    n_calls: int,
    params_bytes: int,
    seed: int = 0,
) -> float:
    """Total submission time of ``n_calls`` calls under one strategy."""
    protocol = ProtocolConfig()
    protocol.policy.logging = _LOGGING_POLICIES[strategy]
    protocol.coordinator.replication.period = 5.0
    # This experiment isolates the *client-side logging* cost: keep the
    # coordinator lightweight (no heavy middleware charge per request) and the
    # servers quiet so submissions are not queued behind unrelated traffic.
    protocol.coordinator.request_processing_overhead = 0.01
    protocol.server.work_poll_period = 10_000.0
    grid = build_confined_cluster(
        n_servers=2, n_coordinators=1, protocol=protocol, seed=seed
    )
    grid.start()
    # The RPC execution time is irrelevant here (only submission is measured);
    # make it long enough that no result traffic interleaves with the
    # submissions being timed.
    workload = SyntheticWorkload(
        n_calls=n_calls,
        exec_time=1.0e6,
        params_bytes=params_bytes,
        result_bytes=32,
    )
    horizon = 50_000.0
    process = grid.run_process(workload.submit_only(grid.client), name="fig4")
    if not grid.run_until(process, timeout=horizon):
        raise SimulationError(
            f"fig4: the {strategy} submission driver did not finish "
            f"within its {horizon:g} s horizon"
        )
    return workload.submission_time


def logging_cell(
    strategy: str, n_calls: int, params_bytes: int, seed: int = 0
) -> dict[str, Any]:
    """Scenario cell: one (strategy, size/count) submission measurement."""
    seconds = _measure_submission(
        strategy, n_calls=n_calls, params_bytes=params_bytes, seed=seed
    )
    return {"submission_seconds": seconds}


def _pivot_strategies(group_key: str, fixed_key: str):
    """Rows keyed by ``group_key``, one column per strategy, plus the ratio."""

    def reduce(results: list[CellResult]) -> list[dict[str, Any]]:
        rows: list[dict[str, Any]] = []
        for (value,), cells in grouped(results, (group_key,)).items():
            row: dict[str, Any] = {
                group_key: value,
                fixed_key: cells[0].params[fixed_key],
            }
            for cell in cells:
                row[cell.params["strategy"]] = cell.outputs["submission_seconds"]
            optimistic = row[LoggingStrategy.OPTIMISTIC.value]
            row["blocking_over_optimistic"] = (
                row[LoggingStrategy.PESSIMISTIC_BLOCKING.value] / optimistic
                if optimistic > 0
                else float("nan")
            )
            rows.append(row)
        return rows

    return reduce


@scenario("fig4-size")
def _fig4_size() -> ScenarioSpec:
    return ScenarioSpec(
        name="fig4-size",
        title="RPC submission time vs parameter size, per logging strategy",
        figure="4 (left)",
        cell=logging_cell,
        base=dict(n_calls=16),
        axes=(
            Axis("params_bytes", tuple(geometric_sizes())),
            Axis("strategy", _STRATEGY_VALUES),
        ),
        seeds=(0,),
        outputs=("submission_seconds",),
        scales={"tiny": {"params_bytes": (1_000, 1_000_000), "n_calls": 4}},
        reduce=_pivot_strategies("params_bytes", "n_calls"),
    )


@scenario("fig4-calls")
def _fig4_calls() -> ScenarioSpec:
    return ScenarioSpec(
        name="fig4-calls",
        title="RPC submission time vs number of calls, per logging strategy",
        figure="4 (right)",
        cell=logging_cell,
        base=dict(params_bytes=300),
        axes=(
            Axis("n_calls", tuple(geometric_counts())),
            Axis("strategy", _STRATEGY_VALUES),
        ),
        seeds=(0,),
        outputs=("submission_seconds",),
        scales={"tiny": {"n_calls": (1, 16)}},
        reduce=_pivot_strategies("n_calls", "params_bytes"),
    )
