"""Crowd-tier performance benchmark: statistical clients at 100k-1M scale.

The full-protocol client tier tops out around 10k nodes (one Python object
plus generator processes per client — see ``BENCH_transport.json``).  The
crowd tier (:mod:`repro.crowd`) holds the whole population as numpy
struct-of-arrays columns indexed by due time, advanced in one ``tick()`` per
scheduler period that touches only the clients due, and talks to **live,
unmodified** full-protocol coordinators and servers through aggregated
batch envelopes, which is what this benchmark
measures: a 100k/500k/1M-client crowd submitting through a sharded
4-coordinator / 8-server core, every client completing end to end.

Running this file writes ``BENCH_crowd.json`` under ``--bench-out`` with
clients/sec (clients completed end to end per wall second — the number a
user of the tier waits on) and events/sec at each scale; CI diffs it against
the committed baseline and fails on a >20% events/sec regression (see
``benchmarks/check_bench_regression.py``).  ``client_ticks`` counts the rows
a tick *represents* (clients x ticks), not rows touched: a tick touches only
the clients due, so ``crowd_ticks_per_sec`` grows with the population by
construction and is reported for continuity, never gated.
"""

from __future__ import annotations

import json
import time

import pytest

np = pytest.importorskip("numpy")

from repro.scenarios.engine import FaultPlan, GridTopology, WorkloadSpec, execute_benchmark

BENCH_NAME = "BENCH_crowd.json"

#: crowd sizes measured (the ISSUE's 100k / 500k / 1M ladder).
SCALES = (100_000, 500_000, 1_000_000)
#: full-protocol core serving the crowd (live coordinators + servers).
N_COORDINATORS = 4
N_SERVERS = 8
#: arrivals spread over this window; the run must drain it completely.
THINK_WINDOW = 40.0
HORIZON = 120.0
TICK_PERIOD = 1.0
#: aggregate service time per member call (keeps the server pool loaded but
#: never saturated, so completion bounds the virtual — not wall — clock).
EXEC_TIME_PER_CALL = 1e-5

#: acceptance floor: clients completed end to end per wall second, at every
#: scale.  Half of what the slowest scale measured on the 2-core baseline
#: host (614k/s at 100k clients, where the fixed cost of the grid weighs
#: most; 1.9M/s at 500k, 2.6M/s at 1M), so only a real regression trips it.
MIN_CLIENTS_PER_SEC = 300_000

#: best-of runs per scale (same rationale as the kernel benchmark: host
#: scheduling and memory pressure only ever slow a run down, so the best of
#: a few interleaved reps is the unbiased estimate — and keeps noisy runs
#: out of the committed baseline).
REPS = 3


def _run_scale(n_clients: int) -> dict:
    start = time.perf_counter()
    report = execute_benchmark(
        topology=GridTopology(
            n_servers=N_SERVERS,
            n_coordinators=N_COORDINATORS,
            spread_servers=True,
        ),
        # A token full-protocol workload rides along so the classic client
        # path stays exercised next to the crowd.
        workload=WorkloadSpec(n_calls=2, exec_time=0.5),
        faults=FaultPlan(),
        seed=7,
        horizon=HORIZON,
        run_full_horizon=True,
        record_kernel=True,
        components=[
            {
                "name": "tier.crowd",
                "params": {
                    "n_clients": n_clients,
                    "think_window": THINK_WINDOW,
                    "tick_period": TICK_PERIOD,
                    "exec_time_per_call": EXEC_TIME_PER_CALL,
                    "retry_timeout": 10.0,
                    "result_patience": 40.0,
                },
            }
        ],
    )
    wall = time.perf_counter() - start

    crowd = report.crowd or {}
    kernel = report.kernel or {}
    # Every statistical client must complete end to end against the live
    # coordinator/server core — the crowd is a protocol participant, not a
    # detached counter loop.
    assert crowd.get("completed", 0) == n_clients, crowd
    assert crowd.get("duplicate_completions", 0) == 0, crowd
    assert report.completed >= report.submitted, (report.completed, report.submitted)

    client_ticks = int(crowd.get("client_ticks", 0))
    events = int(kernel.get("events_processed", 0))
    return {
        "clients": n_clients,
        "coordinators": N_COORDINATORS,
        "servers": N_SERVERS,
        "wall_seconds": round(wall, 4),
        "ticks": int(crowd.get("ticks", 0)),
        "client_ticks": client_ticks,
        "batches_sent": int(crowd.get("batches_sent", 0)),
        "batch_resends": int(crowd.get("batch_resends", 0)),
        "completed": int(crowd.get("completed", 0)),
        "max_queue_depth": int(crowd.get("max_queue_depth", 0)),
        "events_processed": events,
        "clients_per_sec": round(int(crowd.get("completed", 0)) / wall, 1),
        "crowd_ticks_per_sec": round(client_ticks / wall, 1),
        "events_per_sec": round((client_ticks + events) / wall, 1),
    }


def test_crowd_benchmark_writes_bench_json(bench_out):
    # Reps are interleaved across scales (100k, 500k, 1M, 100k, ...) so a
    # slow host phase cannot sink one scale's whole block.
    runs_by_scale: dict[int, list[dict]] = {n: [] for n in SCALES}
    for _ in range(REPS):
        for n_clients in SCALES:
            runs_by_scale[n_clients].append(_run_scale(n_clients))
    scales = {}
    for n_clients, runs in runs_by_scale.items():
        result = max(runs, key=lambda r: r["events_per_sec"])
        result["events_per_sec_runs"] = [r["events_per_sec"] for r in runs]
        scales[str(n_clients)] = result

    # The acceptance floor: 100k-1M clients completing against live
    # full-protocol coordinators/servers at >= MIN_CLIENTS_PER_SEC.
    for result in scales.values():
        assert result["clients_per_sec"] >= MIN_CLIENTS_PER_SEC, result

    payload = {
        "benchmark": "crowd-tier",
        "think_window": THINK_WINDOW,
        "tick_period": TICK_PERIOD,
        "exec_time_per_call": EXEC_TIME_PER_CALL,
        "metric": (
            "clients_per_sec = clients completed end to end / wall seconds "
            "(floored in-bench); client_ticks = clients x ticks counts "
            "population rows *represented*, not rows touched (a tick "
            "touches only the clients due), so crowd_ticks_per_sec and "
            "events_per_sec = (client_ticks + kernel events of the live "
            "coordinator/server core) / wall seconds grow with the "
            "population and compare only against the same scale"
        ),
        "scales": scales,
    }
    (bench_out / BENCH_NAME).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nBENCH_crowd.json: {json.dumps(scales, indent=2)}")
