"""Protocol data-plane benchmark: indexed coordinator at deep backlogs.

Before the :class:`~repro.core.taskindex.TaskIndex`, every work request
rescanned and re-sorted the whole task table (O(n log n) per scheduling
decision), every replication round walked the table to order the dirty
keys, and every completed-count sample recounted every record.  This
benchmark drives the **live protocol** — 4 unmodified coordinators and 16
servers exchanging WORK_REQUEST / TASK_ASSIGN / TASK_RESULT and ring
replication over the simulated network — against preloaded backlogs of
1k / 10k / 100k pending tasks and measures wall-clock scheduling
throughput at each depth:

* ``scales``            — decisions/sec over a fixed measurement window of
  assignment decisions at steady state; a flat ladder is the O(log n)
  claim (CI gates 100k >= 50% of 1k via ``--flatness``);
* ``comparison_100k``   — the same 100k run head-to-head against the
  legacy scan plane (``use_task_index=False``); CI gates the
  tasks-committed/sec ``speedup`` against ``min_speedup``;
* ``replication_scales``— delta ``build_state`` rounds with a fixed dirty
  set against growing tables: O(dirty) serialization vs the legacy
  filtered table walk;
* ``storm_scales``      — the suspicion storm: a server dies while running
  10% of the table; reschedule latency through the per-server ongoing
  bucket vs the legacy full scan.

Running this file writes ``BENCH_protocol.json`` under ``--bench-out``;
CI diffs it against the committed baseline and fails on a >20% events/sec
regression in any group (see ``benchmarks/check_bench_regression.py``).
"""

from __future__ import annotations

import json
import time

from dataclasses import dataclass

from repro.config import ProtocolConfig
from repro.core.protocol import CallDescription, TaskRecord, identity_to_key
from repro.core.replication import build_state
from repro.core.taskindex import TaskIndex
from repro.grid.builder import build_grid
from repro.grid.deployment import confined_cluster_spec
from repro.nodes.database import DatabaseModel
from repro.policies.scheduling import FifoReschedulePolicy
from repro.types import Address, CallIdentity, RPCId, SessionId, TaskState, UserId

BENCH_NAME = "BENCH_protocol.json"

#: preloaded backlog depths (pending tasks across the whole grid).
SCALES = (1_000, 10_000, 100_000)
N_COORDINATORS = 4
N_SERVERS = 16
#: simulated service time per task; short so the window is scheduler-bound.
EXEC_TIME = 0.01
#: assignment decisions burned in before the measured window opens (lets
#: detectors seed and every server reach steady request cadence).
WARMUP_DECISIONS = 16
#: assignment decisions per measured window.
DECISIONS = 200
#: the head-to-head uses a short window: the legacy plane pays a full
#: 100k-record sort per decision, so every decision costs real wall time.
COMPARISON_WARMUP = 4
COMPARISON_DECISIONS = 16
#: acceptance floor: indexed tasks-committed/sec at 100k vs the legacy scan.
MIN_SPEEDUP = 5.0
#: acceptance floor: decisions/sec at 100k as a fraction of 1k (flat ladder).
MIN_FLATNESS = 0.5
#: best-of runs per scale, interleaved (host noise only slows runs down).
REPS = 3

#: replication microbench: dirty records per round, rounds per measurement.
DELTA_DIRTY = 64
DELTA_ROUNDS = 300
DELTA_LEGACY_ROUNDS = {1_000: 300, 10_000: 100, 100_000: 10}

#: storm microbench: fraction of the table ongoing on the dying server.
STORM_FRACTION = 0.10


def _calls(owner_index: int, count: int) -> list[CallDescription]:
    user = UserId(f"bench{owner_index}")
    return [
        CallDescription(
            identity=CallIdentity(user=user, session=SessionId("s"), rpc=RPCId(rpc)),
            service="sleep",
            params_bytes=64,
            exec_time=EXEC_TIME,
        )
        for rpc in range(count)
    ]


@dataclass
class _FlatScanModel(DatabaseModel):
    """The cluster database with the per-record scan charge zeroed.

    The default model charges 20 us of *simulated* time per record scanned,
    so a deep backlog stretches the simulated seconds per decision ~100x and
    the background protocol traffic (heart-beats, detector ticks, client
    polls) per decision along with it.  A flat scan charge keeps the
    simulated workload identical at every scale, so the ladder isolates the
    one thing that varies: the data plane's wall cost against table depth.
    """

    def scan_time(self, n_records: int) -> float:
        return self.scan_latency


def _build_grid(backlog: int, use_index: bool):
    protocol = ProtocolConfig()
    protocol.coordinator.use_task_index = use_index
    #: long enough that rounds don't dominate the window, short enough that
    #: every run exercises live delta rounds.
    protocol.coordinator.replication.period = 10.0
    spec = confined_cluster_spec(
        n_servers=N_SERVERS,
        n_coordinators=N_COORDINATORS,
        n_clients=1,  # the spec floor; it submits nothing, the backlog is preloaded
        protocol=protocol,
        seed=11,
    )
    spec.coordinator_database = _FlatScanModel()
    # The confined cluster's spread attachment: servers round-robin over the
    # coordinators ("several server partitions ... different coordinators").
    names = [f"cluster-k{i}" for i in range(N_COORDINATORS)]
    grid = build_grid(spec, server_preferred=lambda idx, _site: names[idx % len(names)])
    grid.start()
    # Disjoint per-coordinator backlogs, seeded as already-replicated steady
    # state (mark_dirty=False): the window measures the scheduling plane, not
    # an initial full-table replication storm.
    per_coordinator = backlog // N_COORDINATORS
    for index, coordinator in enumerate(grid.coordinators):
        coordinator.preload_tasks(_calls(index, per_coordinator), mark_dirty=False)
    return grid


def _advance_until_assignments(grid, target: int, step: float = 0.5) -> None:
    assignments = grid.monitor.counter("coordinator.assignments")
    deadline = grid.env.now + 4000.0
    while assignments.value < target and grid.env.now < deadline:
        grid.env.run(until=grid.env.now + step)
    assert assignments.value >= target, (assignments.value, target, grid.env.now)


def _run_protocol(backlog: int, use_index: bool, warmup: int, decisions: int) -> dict:
    grid = _build_grid(backlog, use_index)
    assignments = grid.monitor.counter("coordinator.assignments")
    committed = grid.monitor.counter("coordinator.results")
    replications = grid.monitor.counter("coordinator.replications")

    _advance_until_assignments(grid, warmup)
    start_assignments = assignments.value
    start_committed = committed.value
    start_replications = replications.value
    start_sim = grid.env.now
    start = time.perf_counter()
    _advance_until_assignments(grid, start_assignments + decisions)
    wall = time.perf_counter() - start

    window_decisions = int(assignments.value - start_assignments)
    window_committed = int(committed.value - start_committed)
    assert window_decisions >= decisions
    assert window_committed > 0, (window_committed, backlog, use_index)
    return {
        "backlog": backlog,
        "coordinators": N_COORDINATORS,
        "servers": N_SERVERS,
        "use_task_index": use_index,
        "wall_seconds": round(wall, 4),
        "sim_seconds": round(grid.env.now - start_sim, 2),
        "decisions": window_decisions,
        "tasks_committed": window_committed,
        "replication_rounds": int(replications.value - start_replications),
        "decisions_per_sec": round(window_decisions / wall, 1),
        "committed_per_sec": round(window_committed / wall, 1),
        "events_per_sec": round(window_decisions / wall, 1),
    }


# ---------------------------------------------------------------- microbenches
def _build_table(n: int, ongoing_fraction: float = 0.0, server: Address | None = None):
    """A bare task table (plus index) for the machinery-level microbenches."""
    tasks = {}
    cutoff = int(n * ongoing_fraction)
    for counter, call in enumerate(_calls(0, n)):
        record_state = TaskState.ONGOING if counter < cutoff else TaskState.PENDING
        key = identity_to_key(call.identity)
        record = TaskRecord(
            call=call, state=record_state, owner="k0", submitted_at=float(counter)
        )
        if record_state is TaskState.ONGOING:
            record.assigned_server = server
        tasks[key] = record
    return tasks


def _run_delta(n: int) -> dict:
    """Fixed-size delta rounds against a growing table: O(dirty) vs O(n)."""
    tasks = _build_table(n)
    index = TaskIndex(tasks)
    stride = max(n // DELTA_DIRTY, 1)
    dirty = list(tasks)[::stride][:DELTA_DIRTY]
    dirty_set = set(dirty)

    start = time.perf_counter()
    for _ in range(DELTA_ROUNDS):
        # What one live round costs: the transitions invalidate the entry
        # cache (note), then the abstract serializes only the dirty keys.
        for key in dirty:
            index.note(tasks[key], key)
        state = build_state(
            "k0", tasks, {}, [],
            only_keys=index.table_ordered(dirty_set),
            entry_for=index.replica_entry,
        )
    indexed_wall = time.perf_counter() - start
    assert len(state.entries) == len(dirty)

    legacy_rounds = DELTA_LEGACY_ROUNDS[n]
    start = time.perf_counter()
    for _ in range(legacy_rounds):
        keys = [key for key in tasks if key in dirty_set]  # the old table walk
        legacy_state = build_state("k0", tasks, {}, [], only_keys=keys)
    legacy_wall = time.perf_counter() - start
    assert [e["call"]["identity"] for e in legacy_state.entries] == [
        e["call"]["identity"] for e in state.entries
    ]

    rounds_per_sec = DELTA_ROUNDS / indexed_wall
    legacy_rounds_per_sec = legacy_rounds / legacy_wall
    return {
        "table_records": n,
        "dirty_per_round": len(dirty),
        "rounds": DELTA_ROUNDS,
        "wall_seconds": round(indexed_wall, 4),
        "rounds_per_sec": round(rounds_per_sec, 1),
        "legacy_rounds_per_sec": round(legacy_rounds_per_sec, 1),
        "round_speedup": round(rounds_per_sec / legacy_rounds_per_sec, 2),
        "events_per_sec": round(rounds_per_sec, 1),
    }


def _run_storm(n: int) -> dict:
    """Kill the server running 10% of the table; measure reschedule latency."""
    dead = Address("server", "s00")
    expected = int(n * STORM_FRACTION)

    def measure(use_index: bool) -> tuple[float, int]:
        tasks = _build_table(n, ongoing_fraction=STORM_FRACTION, server=dead)
        index = TaskIndex(tasks) if use_index else None
        policy = FifoReschedulePolicy()
        start = time.perf_counter()
        reset = policy.reschedule_for_suspected_server(tasks, dead, "k0", index=index)
        if index is not None:
            for record in reset:  # the coordinator re-notes every reset task
                index.note(record)
        wall = time.perf_counter() - start
        return wall, len(reset)

    indexed_wall, indexed_reset = measure(use_index=True)
    legacy_wall, legacy_reset = measure(use_index=False)
    assert indexed_reset == legacy_reset == expected

    rescheduled_per_sec = indexed_reset / indexed_wall
    return {
        "table_records": n,
        "ongoing_on_dead_server": indexed_reset,
        "wall_seconds": round(indexed_wall, 6),
        "reschedule_latency_ms": round(indexed_wall * 1000, 3),
        "legacy_latency_ms": round(legacy_wall * 1000, 3),
        "latency_speedup": round(legacy_wall / indexed_wall, 2),
        "events_per_sec": round(rescheduled_per_sec, 1),
    }


def _pick_best(runs_by_scale: dict[int, list[dict]]) -> dict[str, dict]:
    results = {}
    for scale, runs in runs_by_scale.items():
        result = max(runs, key=lambda r: r["events_per_sec"])
        result["events_per_sec_runs"] = [r["events_per_sec"] for r in runs]
        results[str(scale)] = result
    return results


def test_protocol_benchmark_writes_bench_json(bench_out):
    # Reps are interleaved across scales and workloads (1k, 10k, 100k ladder,
    # the two comparison runs, the microbenches, then the next rep of each)
    # so one slow host phase cannot sink a whole scale's block.
    ladder_runs: dict[int, list[dict]] = {n: [] for n in SCALES}
    indexed_cmp_runs: list[dict] = []
    legacy_cmp_runs: list[dict] = []
    delta_runs: dict[int, list[dict]] = {n: [] for n in SCALES}
    storm_runs: dict[int, list[dict]] = {n: [] for n in SCALES}
    for _ in range(REPS):
        for backlog in SCALES:
            ladder_runs[backlog].append(
                _run_protocol(backlog, True, WARMUP_DECISIONS, DECISIONS)
            )
        indexed_cmp_runs.append(
            _run_protocol(SCALES[-1], True, COMPARISON_WARMUP, COMPARISON_DECISIONS)
        )
        legacy_cmp_runs.append(
            _run_protocol(SCALES[-1], False, COMPARISON_WARMUP, COMPARISON_DECISIONS)
        )
        for n in SCALES:
            delta_runs[n].append(_run_delta(n))
            storm_runs[n].append(_run_storm(n))

    scales = _pick_best(ladder_runs)
    indexed_cmp = max(indexed_cmp_runs, key=lambda r: r["committed_per_sec"])
    legacy_cmp = max(legacy_cmp_runs, key=lambda r: r["committed_per_sec"])

    # The tentpole floors, asserted here as well as gated in CI:
    # a flat decisions/sec ladder (O(log n) scheduling at 100x the backlog) …
    low = scales[str(SCALES[0])]["decisions_per_sec"]
    high = scales[str(SCALES[-1])]["decisions_per_sec"]
    assert high >= MIN_FLATNESS * low, (low, high)
    # … and the head-to-head: the indexed plane commits tasks >= MIN_SPEEDUP
    # times faster than the legacy scan plane at the 100k backlog.
    speedup = indexed_cmp["committed_per_sec"] / legacy_cmp["committed_per_sec"]
    comparison = {
        "backlog": SCALES[-1],
        "indexed": indexed_cmp,
        "legacy": legacy_cmp,
        "decisions_speedup": round(
            indexed_cmp["decisions_per_sec"] / legacy_cmp["decisions_per_sec"], 2
        ),
        "speedup": round(speedup, 2),
    }
    assert speedup >= MIN_SPEEDUP, comparison

    payload = {
        "benchmark": "protocol-indexed-data-plane",
        "exec_time": EXEC_TIME,
        "decisions_per_window": DECISIONS,
        "metric": (
            "events_per_sec = scheduling decisions/sec over a fixed window "
            "of live WORK_REQUEST->TASK_ASSIGN decisions at steady state "
            "(4 coordinators / 16 servers, preloaded backlog); "
            "replication_scales = fixed-dirty delta build rounds/sec; "
            "storm_scales = tasks rescheduled/sec when a server running "
            "10% of the table dies; comparison_100k gates committed/sec "
            "vs the legacy use_task_index=False plane"
        ),
        "min_speedup": MIN_SPEEDUP,
        "scales": scales,
        "replication_scales": _pick_best(delta_runs),
        "storm_scales": _pick_best(storm_runs),
        "comparison_100k": comparison,
    }
    (bench_out / BENCH_NAME).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nBENCH_protocol.json: {json.dumps(payload['scales'], indent=2)}")
    print(f"comparison_100k: speedup {comparison['speedup']}x")
