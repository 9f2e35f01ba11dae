"""Crowd-tier scenario: a flash crowd against a fixed server pool.

``flash-crowd`` puts a statistical crowd (``tier.crowd``; see
:mod:`repro.crowd`) behind the full-protocol coordinator/server core and
fires the paper's nightmare at it: at ``surge_at`` every client that would
have trickled in over the remaining think window becomes due within
``1/surge_factor`` of it — a sudden 100x submit-rate spike — while a
scripted fault kills one of the sharded coordinators mid-surge.  The sweep
measures what the aggregate tier is for: completion of the whole crowd,
peak queue depth, and how long the dead shard took to hand off to its ring
successor.

``surge_factor`` is a paired axis under the ``crn.`` common-random-numbers
discipline: the calm and surged arms share every fault-stream draw (the
crowd's per-client lanes come from one ``crn.crowd.*`` draw), so the queue
blow-up is attributable to the surge alone.
"""

from __future__ import annotations

from typing import Any

from repro.scenarios.engine import benchmark_cell
from repro.scenarios.reducers import grouped
from repro.scenarios.registry import scenario
from repro.scenarios.spec import Axis, CellResult, ScenarioSpec

__all__ = ["FLASH_CROWD"]


def _flash_rows(results: list[CellResult]) -> list[dict[str, Any]]:
    """One row per surge factor.

    Only protocol- and crowd-level fields (deterministic for a given seed)
    are reduced; the ``kernel`` snapshot (scheduler bookkeeping, not a
    protocol outcome) stays in the per-cell outputs.
    """
    rows: list[dict[str, Any]] = []
    for (factor,), cells in grouped(results, ("surge_factor",)).items():
        rows.append(
            {
                "surge_factor": factor,
                "crowd_completion_ratio": min(
                    c.outputs["crowd_completed"] / max(c.outputs["crowd_clients"], 1)
                    for c in cells
                ),
                "all_finished": all(c.outputs["finished_in_time"] for c in cells),
                "double_committed": sum(
                    c.outputs["crowd_duplicate_completions"] for c in cells
                ),
                "max_queue_depth": max(
                    c.outputs["crowd_max_queue_depth"] for c in cells
                ),
                "batch_resends": sum(c.outputs["crowd_batch_resends"] for c in cells),
                "suspicions": sum(c.outputs["crowd_suspicions"] for c in cells),
                "handoffs": sum(c.outputs["crowd_handoffs"] for c in cells),
                "handoff_latency_max_seconds": max(
                    c.outputs["crowd_handoff_latency_max"] for c in cells
                ),
            }
        )
    return rows


@scenario("flash-crowd")
def _flash_crowd() -> ScenarioSpec:
    return ScenarioSpec(
        name="flash-crowd",
        title="Flash crowd: 100x submit surge against sharded coordinators",
        figure=None,
        description=(
            "A statistical crowd (tier.crowd, numpy struct-of-arrays) "
            "submits through coordinators sharded over the client-id space; "
            "at surge_at the remaining arrivals compress 100x while a "
            "scripted fault kills one coordinator mid-surge.  Measures crowd "
            "completion, peak queue depth and shard-handoff latency; the "
            "calm arm (surge_factor=1) rides the same fault streams for a "
            "paired comparison."
        ),
        cell=benchmark_cell,
        base=dict(
            # A token full-protocol workload rides along so the run also
            # exercises the classic client path next to the crowd.
            n_calls=4,
            exec_time=2.0,
            n_servers=8,
            n_coordinators=4,
            spread_servers=True,
            # Crowd parameters ($-interpolated into the component entry).
            crowd_clients=50_000,
            think_window=600.0,
            tick_period=1.0,
            exec_time_per_call=0.002,
            retry_timeout=10.0,
            result_patience=40.0,
            # The kill lands inside the surge drain window, while the dead
            # coordinator's shard still has batches in flight.
            surge_at=60.0,
            kill_at=63.0,
            kill_target="coordinator:cluster-k1",
            horizon=1600.0,
            crn_seed=909,
            run_full_horizon=True,
            record_fault_streams=True,
            record_kernel=True,
        ),
        axes=(Axis("surge_factor", (1.0, 100.0)),),
        seeds=(2,),
        outputs=(
            "completed",
            "submitted",
            "finished_in_time",
            "crowd_completed",
            "crowd_max_queue_depth",
            "crowd_handoff_latency_max",
        ),
        paired_axes=("surge_factor",),
        components=(
            {
                "name": "tier.crowd",
                "params": {
                    "n_clients": "$crowd_clients",
                    "think_window": "$think_window",
                    "tick_period": "$tick_period",
                    "exec_time_per_call": "$exec_time_per_call",
                    "retry_timeout": "$retry_timeout",
                    "result_patience": "$result_patience",
                    "surge_at": "$surge_at",
                    "surge_factor": "$surge_factor",
                },
            },
            {
                "name": "inject.script",
                "params": {
                    "events": [
                        {
                            "time": "$kill_at",
                            "action": "kill",
                            "target": "$kill_target",
                        }
                    ],
                },
            },
        ),
        scales={
            # CI-sized: a 2k crowd over 3 coordinators; the k1 kill still
            # lands mid-surge and forces a real shard handoff.
            "tiny": dict(
                crowd_clients=2000,
                n_servers=4,
                n_coordinators=3,
                think_window=300.0,
                surge_at=30.0,
                kill_at=32.0,
                retry_timeout=8.0,
                result_patience=30.0,
                horizon=900.0,
            ),
        },
        reduce=_flash_rows,
    )


FLASH_CROWD = _flash_crowd
