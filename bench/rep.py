"""One rep of one workload in a fresh process; prints one JSON line.

A fresh process per rep makes ``ru_maxrss``, the process-global
``MessagePool`` counters and the set-up cost start from zero every time.
``run.py`` is the only caller.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up is timed from here, imports included

import argparse
import cProfile
import fnmatch
import gc
import hashlib
import json
import resource
import sys
from pathlib import Path
from typing import Any, Mapping

#: count metric -> monitor counters (globs) summed over every cell.
COUNTER_SUMS = {
    "net.sent": ("net.sent",),
    "net.delivered": ("net.delivered",),
    "net.dropped": ("net.dropped.*",),
    "net.bytes_sent": ("net.bytes_sent",),
    # every request kind the coordinator counts: submissions, task results,
    # work requests that got a task, server/client syncs, crowd batches.
    "core.coordinator.requests": (
        "coordinator.submissions",
        "coordinator.results",
        "coordinator.assignments",
        "coordinator.server_syncs",
        "coordinator.client_syncs",
        "coordinator.crowd_batches",
    ),
    "core.coordinator.assignments": ("coordinator.assignments",),
    "core.coordinator.reschedules": (
        "coordinator.rescheduled_on_suspicion",
        "coordinator.requeued_on_activity_timeout",
    ),
    "core.coordinator.duplicate_results": ("coordinator.duplicate_results",),
    "core.coordinator.duplicate_submissions": ("coordinator.duplicate_submissions",),
    "core.replication.rounds": ("coordinator.replications",),
    "core.replication.quorum_commits": ("coordinator.quorum_commits",),
    "core.replication.quorum_aborts": ("coordinator.quorum_aborts",),
    "core.replication.recoveries": ("policy.repl.*.recoveries",),
    "core.client.submissions": ("client.submissions_sent",),
    "core.client.results": ("client.results_received",),
    "core.server.tasks_executed": ("server.tasks_executed",),
    "core.server.syncs": ("server.syncs",),
    "detect.suspicions": ("detect.suspicions",),
    "detect.wrong_suspicions": ("detect.wrong_suspicions",),
    "msglog.records": ("policy.log.*.records",),
    "nodes.faults": ("faults.*",),
    "nodes.restarts": ("restarts.*",),
}

#: count metric -> ``crowd_*`` output summed over every cell.
CROWD_SUMS = {
    "crowd.client_ticks": "crowd_client_ticks",
    "crowd.batches_sent": "crowd_batches_sent",
    "crowd.batch_resends": "crowd_batch_resends",
    "crowd.handoffs": "crowd_handoffs",
}


def check_cells(cells: list[Mapping[str, Any]]) -> tuple[int, int, list[str]]:
    """``(submitted, failed, violations)`` over the cells' outputs."""
    submitted = failed = 0
    violations = []
    for index, cell in enumerate(cells):
        out = cell["outputs"]
        if out.get("timed_out"):
            violations.append(f"cell {index}: timed out")
            continue
        lost = out["submitted"] - out["completed"]
        doubled = out.get("crowd_duplicate_completions", 0)
        submitted += out["submitted"]
        failed += out["submitted"] if not out["finished_in_time"] else lost + doubled
        if lost > 0 or doubled or not out["finished_in_time"]:
            violations.append(
                f"cell {index}: {out['completed']}/{out['submitted']} completed, "
                f"{doubled} double-committed, "
                f"finished_in_time={out['finished_in_time']}"
            )
    return submitted, failed, violations


def rows_digest(
    cells: list[Mapping[str, Any]], counters: list[Mapping[str, float]]
) -> str:
    """SHA-256 over every cell's simulated outputs and monitor counters.

    Host-time fields and the process-cumulative ``kernel.pool_*`` numbers are
    left out, so the digest changes only when a simulated statistic does.
    """
    rows = []
    for cell, cell_counters in zip(cells, counters):
        outputs = dict(cell["outputs"])
        if "kernel" in outputs:
            outputs["kernel"] = {
                key: value
                for key, value in outputs["kernel"].items()
                if not key.startswith("pool_")
            }
        rows.append({"outputs": outputs, "counters": dict(cell_counters)})
    canonical = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def count_metrics(
    cells: list[Mapping[str, Any]], counters: list[Mapping[str, float]]
) -> dict[str, float]:
    """The count-type per-layer metrics; they repeat exactly for a fixed seed."""
    totals: dict[str, float] = {}
    for cell_counters in counters:
        for name, value in cell_counters.items():
            totals[name] = totals.get(name, 0.0) + value
    counts = {
        metric: sum(
            value
            for name, value in totals.items()
            if any(fnmatch.fnmatchcase(name, pattern) for pattern in patterns)
        )
        for metric, patterns in COUNTER_SUMS.items()
    }
    outputs = [cell["outputs"] for cell in cells]
    kernels = [out["kernel"] for out in outputs]
    completed = sum(out["completed"] for out in outputs)
    counts.update(
        {
            "sim.events": sum(k["events_processed"] for k in kernels),
            "sim.peak_heap": max(k["peak_heap_size"] for k in kernels),
            "sim.wheel_flushes": sum(k["wheel_flushes"] for k in kernels),
            "sim.wheel_overflows": sum(k["wheel_overflows"] for k in kernels),
            # the pool is process-global: the last cell holds the rep's totals
            "sim.pool_hit_rate": kernels[-1]["pool_hit_rate"],
            "net.msgs_per_call": counts["net.sent"] / completed,
            "detect.wrong_share": (
                counts["detect.wrong_suspicions"] / counts["detect.suspicions"]
                if counts["detect.suspicions"]
                else 0.0
            ),
            "crowd.max_queue_depth": max(
                out.get("crowd_max_queue_depth", 0) for out in outputs
            ),
            "crowd.sim_handoff_s": max(
                out.get("crowd_handoff_latency_max", 0.0) for out in outputs
            ),
            "scenarios.cells": len(cells),
        }
    )
    for metric, key in CROWD_SUMS.items():
        counts[metric] = sum(out.get(key, 0) for out in outputs)
    return counts


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import trace as layer_trace  # bench/trace.py: this directory leads sys.path
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    workloads.build_only(workload)
    tap = workloads.MonitorTap()
    gc.collect()
    setup_s = time.perf_counter() - _STARTED

    profile = cProfile.Profile() if args.trace else None
    wall_from, cpu_from = time.perf_counter(), time.process_time()
    if profile is None:
        cells = workload.run(tap)
    else:
        cells = profile.runcall(workload.run, tap)
    wall_s = time.perf_counter() - wall_from
    cpu_s = time.process_time() - cpu_from

    counters = [monitor.counters for monitor in tap.monitors]
    submitted, failed, violations = check_cells(cells)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "submitted": submitted,
        "failed": failed,
        "violations": violations,
    }
    if not violations:
        result.update(
            sim_makespan_s=sum(cell["outputs"]["makespan"] for cell in cells),
            rows_digest=rows_digest(cells, counters),
            counts=count_metrics(cells, counters),
            # a single-cell workload's cell is the whole call
            cell_wall_ms=[
                1e3 * (cell["wall_seconds"] or wall_s) for cell in cells
            ],
        )
    if profile is not None:
        layers, other_s = layer_trace.attribute(profile)
        result.update(layers=layers, other_s=other_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
