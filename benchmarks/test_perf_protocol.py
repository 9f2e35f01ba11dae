"""Protocol data-plane benchmark: the coordinator at deep backlogs.

The coordinator answers every request from the views its
:class:`~repro.core.taskindex.TaskIndex` maintains, so no request's cost may
grow with the task table.  This benchmark drives the **live protocol** — 4
unmodified coordinators and 16 servers exchanging WORK_REQUEST /
TASK_ASSIGN / TASK_RESULT and ring replication over the simulated network —
against preloaded backlogs of 1k / 10k / 100k pending tasks and measures
wall-clock scheduling throughput at each depth:

* ``scales``            — decisions/sec over a fixed measurement window of
  assignment decisions at steady state; a flat ladder is the O(log n)
  claim (CI gates 100k >= 50% of 1k via ``--flatness``);
* ``replication_scales``— delta ``build_state`` rounds with a fixed dirty
  set against growing tables: O(dirty) serialization;
* ``storm_scales``      — the suspicion storm as it occurs: 1,000 servers
  each holding one ongoing task are suspected one after another; servers
  rescheduled/sec through the per-server ongoing bucket, gated flat
  (100k >= 50% of 1k) inside the benchmark — see :func:`_run_storm`.

Running this file writes ``BENCH_protocol.json`` under ``--bench-out``;
CI diffs it against the committed baseline and fails on a >20% events/sec
regression in any group (see ``benchmarks/check_bench_regression.py``).
"""

from __future__ import annotations

import json
import time

from dataclasses import dataclass

from repro.config import ProtocolConfig
from repro.core.protocol import CallDescription, TaskRecord
from repro.core.replication import build_state
from repro.core.taskindex import TaskIndex
from repro.grid.builder import build_grid
from repro.grid.deployment import confined_cluster_spec
from repro.nodes.database import DatabaseModel
from repro.policies.scheduling import FifoReschedulePolicy
from repro.types import Address, CallIdentity, TaskState

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
#: acceptance floor: events/sec at 100k as a fraction of 1k (flat ladders).
MIN_FLATNESS = 0.5
#: best-of runs per scale, interleaved (host noise only slows runs down).
REPS = 3

#: replication microbench: dirty records per round, rounds per measurement.
DELTA_DIRTY = 64
DELTA_ROUNDS = 300

#: storm microbench: servers suspected per table, each running one task
#: (a server runs one task at a time), and the least wall one sample times.
STORM_SERVERS = tuple(Address("server", f"s{i:04d}") for i in range(1_000))
STORM_MIN_WALL = 0.2


def _calls(owner_index: int, count: int) -> list[CallDescription]:
    user = f"bench{owner_index}"
    return [
        CallDescription(
            identity=CallIdentity(user, "s", rpc),
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


def _build_grid(backlog: int):
    protocol = ProtocolConfig()
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


def _run_protocol(backlog: int, warmup: int, decisions: int) -> dict:
    grid = _build_grid(backlog)
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
    assert window_committed > 0, (window_committed, backlog)
    return {
        "backlog": backlog,
        "coordinators": N_COORDINATORS,
        "servers": N_SERVERS,
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
def _build_table(n: int):
    """A bare table of pending tasks for the machinery-level microbenches."""
    return {
        call.identity: TaskRecord(
            call=call, state=TaskState.PENDING, owner="k0", submitted_at=float(counter)
        )
        for counter, call in enumerate(_calls(0, n))
    }


def _run_delta(n: int) -> dict:
    """Fixed-size delta rounds against a growing table: O(dirty), not O(n)."""
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
    wall = time.perf_counter() - start
    # Same entries, in the order a filtered walk of the table lists them.
    assert [e.call.identity for e in state.entries] == [
        key for key in tasks if key in dirty_set
    ]

    rounds_per_sec = DELTA_ROUNDS / wall
    return {
        "table_records": n,
        "dirty_per_round": len(dirty),
        "rounds": DELTA_ROUNDS,
        "wall_seconds": round(wall, 4),
        "rounds_per_sec": round(rounds_per_sec, 1),
        "events_per_sec": round(rounds_per_sec, 1),
    }


def _run_storm(n: int) -> dict:
    """Suspect 1,000 one-task servers in turn; measure servers rescheduled/sec.

    The shape is the traffic the repo benchmark generates, counted by
    wrapping ``reschedule_for_suspected_server`` from outside on
    ``bench/workloads.py`` (``--seed 1``, full scale): ``churn-storm`` makes
    5,035 calls, of which 4,965 reset 0 tasks and 70 reset exactly 1, never
    more, against tables of 265-1,400 rows; ``fig7-sweep`` and
    ``steady-backlog`` make none.  A server runs one task at a time, so a
    suspected server's bucket holds one record however deep the table is.
    One call takes microseconds, so the sweep over 1,000 servers repeats
    until ``STORM_MIN_WALL`` seconds are timed.  Before each sweep, untimed,
    the servers take the 1,000 FCFS heads through ``pick`` as they would
    live — the tasks the last sweep re-queued, so every sweep starts from
    the same table; each timed step is what the coordinator's watch loop
    does: the reschedule, then the ``note`` of every task it reset.
    """
    policy = FifoReschedulePolicy()
    index = TaskIndex(_build_table(n))
    nobody = lambda _owner: False  # noqa: E731 - no coordinator is suspected
    wall = 0.0
    sweeps = 0
    while wall < STORM_MIN_WALL:
        for server in STORM_SERVERS:
            index.note(policy.pick(index, server, "k0", nobody, now=0.0).task)
        assert index.ongoing == len(STORM_SERVERS)
        start = time.perf_counter()
        for server in STORM_SERVERS:
            for record in policy.reschedule_for_suspected_server(index, server, "k0"):
                index.note(record)
        wall += time.perf_counter() - start
        sweeps += 1
        assert index.pending == n and index.ongoing == 0

    rescheduled = sweeps * len(STORM_SERVERS)
    return {
        "table_records": n,
        "ongoing_per_server": 1,
        "servers_rescheduled": rescheduled,
        "wall_seconds": round(wall, 4),
        "reschedule_latency_us": round(wall / rescheduled * 1e6, 2),
        "events_per_sec": round(rescheduled / wall, 1),
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
    # the microbenches, then the next rep of each) so one slow host phase
    # cannot sink a whole scale's block.
    ladder_runs: dict[int, list[dict]] = {n: [] for n in SCALES}
    delta_runs: dict[int, list[dict]] = {n: [] for n in SCALES}
    storm_runs: dict[int, list[dict]] = {n: [] for n in SCALES}
    for _ in range(REPS):
        for backlog in SCALES:
            ladder_runs[backlog].append(
                _run_protocol(backlog, WARMUP_DECISIONS, DECISIONS)
            )
        for n in SCALES:
            delta_runs[n].append(_run_delta(n))
            storm_runs[n].append(_run_storm(n))

    scales = _pick_best(ladder_runs)
    storm_scales = _pick_best(storm_runs)

    # The floors, asserted here as well as gated in CI: flat ladders — O(log n)
    # scheduling and O(bucket) rescheduling at 100x the table.
    for group in (scales, storm_scales):
        low = group[str(SCALES[0])]["events_per_sec"]
        high = group[str(SCALES[-1])]["events_per_sec"]
        assert high >= MIN_FLATNESS * low, (low, high)

    payload = {
        "benchmark": "protocol-indexed-data-plane",
        "exec_time": EXEC_TIME,
        "decisions_per_window": DECISIONS,
        "metric": (
            "events_per_sec = scheduling decisions/sec over a fixed window "
            "of live WORK_REQUEST->TASK_ASSIGN decisions at steady state "
            "(4 coordinators / 16 servers, preloaded backlog); "
            "replication_scales = fixed-dirty delta build rounds/sec; "
            "storm_scales = suspected servers rescheduled/sec, 1,000 "
            "servers holding one ongoing task each"
        ),
        "scales": scales,
        "replication_scales": _pick_best(delta_runs),
        "storm_scales": storm_scales,
    }
    (bench_out / BENCH_NAME).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nBENCH_protocol.json: {json.dumps(payload['scales'], indent=2)}")
