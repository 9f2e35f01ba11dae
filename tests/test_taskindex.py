"""TaskIndex equivalence and delta-replication regression tests.

The coordinator's data plane must be *behaviorally invisible*: every view the
:class:`~repro.core.taskindex.TaskIndex` maintains has to match what a scan of
the table computes, at every step of any mutation sequence.  The scan lives
here, as the reference (:func:`naive_eligible` and the recounts in
:func:`assert_views_match`); ``src/`` has the index alone.  The
property-style test drives a seeded random sequence of submit / assign /
finish / merge / suspect / reschedule / requeue operations through one table
and asserts the index against the recomputation after each op; the live-run
audit does the same for every coordinator of a running, faulty grid, where a
mutation path that forgot its ``note`` would otherwise lose a task silently.
The delta-replication tests pin the other claim: an incremental
``build_state`` touches only the dirty keys, never the table.
"""

from __future__ import annotations

import dataclasses
import inspect
import random
import textwrap

import pytest

from repro.core.protocol import (
    TASK_DESCRIPTION_BYTES,
    CallDescription,
    ReplicaEntry,
    TaskRecord,
)
from repro.core.replication import ReplicaState, build_state, merge_state
from repro.core.taskindex import TaskIndex
from repro.errors import SchedulingError
from repro.platform.component import BaseComponent
from repro.policies.scheduling import (
    FastestFirstSchedulerPolicy,
    FifoReschedulePolicy,
    RandomSchedulerPolicy,
    RoundRobinSchedulerPolicy,
    _sjf_key,
)
from repro.sim.monitor import Monitor
from repro.sim.rng import RandomStreams
from repro.types import Address, CallIdentity, TaskState

MY_NAME = "k0"
OTHER_OWNERS = ("k1", "k2")
SERVERS = tuple(Address("server", f"s{i}") for i in range(4))

#: the list-based pick over the FCFS-ordered eligible list of the policies
#: that pick only through the index: the oracle their indexed pick must match.
SCAN_CHOOSE = {
    FifoReschedulePolicy: lambda eligible: eligible[0],
    FastestFirstSchedulerPolicy: lambda eligible: min(eligible, key=_sjf_key),
}


def make_call(counter: int, user: str = "u", exec_time: float | None = 1.0) -> CallDescription:
    return CallDescription(
        identity=CallIdentity(user, "s", counter),
        service="sleep",
        params_bytes=100,
        exec_time=exec_time,
    )


def make_task(
    counter: int,
    state: TaskState = TaskState.PENDING,
    owner: str = MY_NAME,
    submitted_at: float | None = None,
    user: str = "u",
    exec_time: float | None = 1.0,
) -> TaskRecord:
    return TaskRecord(
        call=make_call(counter, user=user, exec_time=exec_time),
        state=state,
        owner=owner,
        submitted_at=float(counter) if submitted_at is None else submitted_at,
    )


def _fcfs(record: TaskRecord) -> tuple:
    return (record.submitted_at, *record.identity)


def _sjf(record: TaskRecord) -> tuple:
    exec_time = record.call.exec_time
    return (float("inf") if exec_time is None else exec_time, _fcfs(record))


def naive_eligible(tasks, my_name, owner_suspected):
    """The reference truth: scan the whole table, then sort it FCFS.

    What a work request may be answered with — every PENDING task, plus the
    ONGOING tasks of *other* coordinators this one suspects; FINISHED tasks
    never.
    """
    eligible = []
    for record in tasks.values():
        if record.state is TaskState.PENDING:
            eligible.append(record)
        elif record.state is TaskState.ONGOING:
            if record.owner != my_name and owner_suspected(record.owner):
                eligible.append(record)
    eligible.sort(key=_fcfs)
    return eligible


def _ongoing_buckets(tasks, attribute):
    buckets: dict = {}
    for key, record in tasks.items():
        bucket = getattr(record, attribute)
        if record.state is TaskState.ONGOING and bucket is not None:
            buckets.setdefault(bucket, set()).add(key)
    return buckets


def assert_views_match(tasks, index, owner_suspected, my_name=MY_NAME, results=None):
    """Every view ``index`` serves equals a recount from the tables."""
    reference = naive_eligible(tasks, my_name, owner_suspected)

    extras = index.eligible_extras(my_name, owner_suspected)
    assert [id(r) for r in index.eligible_list(extras)] == [id(r) for r in reference]

    # Heads: FIFO and fastest-first must agree with the sorted scan.
    fifo_head = FifoReschedulePolicy().choose_indexed(
        index, extras, server=SERVERS[0], now=0.0
    )
    sjf_head = FastestFirstSchedulerPolicy().choose_indexed(
        index, extras, server=SERVERS[0], now=0.0
    )
    if reference:
        assert fifo_head is reference[0]
        assert sjf_head is min(reference, key=_sjf)
    else:
        assert fifo_head is None and sjf_head is None

    # Per-state counters vs a full count.
    counts = {state: 0 for state in TaskState}
    for record in tasks.values():
        counts[record.state] += 1
    assert dict(index._counts) == counts
    assert index.finished == counts[TaskState.FINISHED]

    # Per-server and per-owner ongoing buckets vs a table walk (the bucket
    # maps themselves, so a bucket left behind for a vanished server shows).
    by_server = _ongoing_buckets(tasks, "assigned_server")
    assert {s: set(b) for s, b in index._ongoing_by_server.items()} == by_server
    for server, expected in by_server.items():
        assert {key for key, _ in index.ongoing_on_server(server)} == expected
    by_owner = _ongoing_buckets(tasks, "owner")
    assert {o: set(b) for o, b in index._ongoing_by_owner.items()} == by_owner
    for owner, expected in by_owner.items():
        assert {key for key, _ in index.ongoing_owned_by(owner)} == expected

    # Per-session views, in table order: task keys, archives held here (in
    # result-table order) and finished tasks whose archive is elsewhere.
    results = {} if results is None else results
    sessions = dict.fromkeys(key[:2] for key in tasks)
    assert list(index._by_session) == list(sessions)
    for session in sessions:
        mine = [key for key in tasks if key[:2] == session]
        assert list(index.session_keys(session)) == mine
        held_here, elsewhere = index.pull_view(session, None)
        assert [id(r) for r in held_here] == [
            id(r) for key, r in results.items() if key[:2] == session
        ]
        assert elsewhere == [
            key
            for key in mine
            if tasks[key].state is TaskState.FINISHED and key not in results
        ]
    assert set(index._results_by_session) == {key[:2] for key in results}

    # Table order of any key set is the table's own iteration order.
    assert index.table_ordered(reversed(tasks)) == list(tasks)


class TestIndexEquivalence:
    """Drive random op sequences; assert every index view against the scan."""

    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_random_op_sequence_matches_naive_scan(self, seed):
        rng = random.Random(seed)
        tasks: dict[tuple, TaskRecord] = {}
        index = TaskIndex(tasks)
        suspected: set[str] = set()
        owner_suspected = lambda owner: owner in suspected  # noqa: E731
        policy = FifoReschedulePolicy()
        next_id = 0
        now = 0.0

        for step in range(400):
            now += 0.25
            op = rng.choice(
                ["submit", "submit", "assign", "assign", "finish", "merge",
                 "suspect", "reschedule", "requeue"]
            )
            if op == "submit":
                record = make_task(next_id, submitted_at=now)
                key = record.identity
                tasks[key] = record
                index.note(record, key)
                next_id += 1
            elif op == "assign":
                server = rng.choice(SERVERS)
                if not policy.nothing_eligible(index, MY_NAME, owner_suspected):
                    decision = policy.pick(
                        index,
                        server=server,
                        my_name=MY_NAME,
                        owner_suspected=owner_suspected,
                        now=now,
                    )
                    index.note(decision.task)
            elif op == "finish":
                ongoing = [r for r in tasks.values() if r.state is TaskState.ONGOING]
                if ongoing:
                    record = rng.choice(ongoing)
                    record.state = TaskState.FINISHED
                    record.finished_at = now
                    index.note(record)
            elif op == "merge":
                # A synthetic peer abstract: a few new records owned by a
                # peer (pending and ongoing), plus an upgrade of one of ours.
                peer = rng.choice(OTHER_OWNERS)
                incoming: dict[tuple, TaskRecord] = {}
                for _ in range(rng.randint(1, 3)):
                    record = make_task(
                        next_id,
                        state=rng.choice([TaskState.PENDING, TaskState.ONGOING]),
                        owner=peer,
                        submitted_at=now,
                        user=peer,
                    )
                    if record.state is TaskState.ONGOING:
                        record.assigned_server = rng.choice(SERVERS)
                    incoming[record.identity] = record
                    next_id += 1
                upgradable = [
                    r for r in tasks.values() if r.state is not TaskState.FINISHED
                ]
                if upgradable:
                    donor = rng.choice(upgradable)
                    upgrade = TaskRecord.from_replica_entry(donor.to_replica_entry())
                    upgrade.state = TaskState.FINISHED
                    upgrade.owner = peer
                    incoming[upgrade.identity] = upgrade
                state = build_state(peer, incoming, {}, [])
                outcome = merge_state(tasks, {}, state)
                for identity in outcome.changed:
                    key = identity
                    index.note(tasks[key], key)
            elif op == "suspect":
                owner = rng.choice(OTHER_OWNERS)
                if owner in suspected:
                    suspected.discard(owner)
                else:
                    suspected.add(owner)
            elif op == "reschedule":
                reset = policy.reschedule_for_suspected_server(
                    index, rng.choice(SERVERS), MY_NAME
                )
                for record in reset:
                    index.note(record)
            elif op == "requeue":
                mine = [
                    r
                    for r in tasks.values()
                    if r.state is TaskState.ONGOING and r.owner == MY_NAME
                ]
                if mine:
                    record = rng.choice(mine)
                    record.state = TaskState.PENDING
                    record.assigned_server = None
                    index.note(record)

            assert_views_match(tasks, index, owner_suspected)

    @pytest.mark.parametrize(
        "policy_cls",
        [
            FifoReschedulePolicy,
            RandomSchedulerPolicy,
            RoundRobinSchedulerPolicy,
            FastestFirstSchedulerPolicy,
        ],
    )
    def test_indexed_picks_bit_identical_to_scan(self, policy_cls):
        """Two identical universes: ``pick`` over the index chooses what
        ``choose()`` over the scanned list does, step for step."""

        def build_universe():
            tasks: dict[tuple, TaskRecord] = {}
            rng = random.Random(99)
            for counter in range(60):
                record = make_task(
                    counter,
                    submitted_at=float(counter // 3),  # ties broken by identity
                    exec_time=rng.choice([0.5, 1.0, 2.0, None]),
                )
                tasks[record.identity] = record
            ongoing = make_task(900, state=TaskState.ONGOING, owner="k1")
            tasks[ongoing.identity] = ongoing
            return tasks

        scan_tasks = build_universe()
        indexed_tasks = build_universe()
        index = TaskIndex(indexed_tasks)
        # Same RNG stream (random) and same cursor (round-robin) on both sides.
        scan_policy = policy_cls().bind(MY_NAME, rng=RandomStreams(5))
        monitor = Monitor()
        indexed_policy = policy_cls().bind(
            MY_NAME, rng=RandomStreams(5), monitor=monitor
        )
        suspected = lambda owner: owner == "k1"  # noqa: E731
        scan_assignments = 0

        for step in range(61):
            server, now = SERVERS[step % 4], float(step)
            eligible = naive_eligible(scan_tasks, MY_NAME, suspected)
            if not eligible:
                assert indexed_policy.nothing_eligible(index, MY_NAME, suspected)
                with pytest.raises(SchedulingError):
                    indexed_policy.pick(index, server, MY_NAME, suspected, now=now)
                continue
            b = indexed_policy.pick(index, server, MY_NAME, suspected, now=now)
            if policy_cls in SCAN_CHOOSE:
                a = SCAN_CHOOSE[policy_cls](eligible)
            else:
                a = scan_policy.choose(eligible, server=server, now=now)
            a.state, a.owner, a.assigned_server = TaskState.ONGOING, MY_NAME, server
            scan_assignments += 1
            assert b.task is not None
            assert a.identity == b.task.identity
            index.note(b.task)
        assignments = monitor.counter(f"{indexed_policy.key}.assignments").value
        assert scan_assignments == assignments == 61


class IndexAudit(BaseComponent):
    """Recounts a coordinator's views every time it is about to yield.

    Joins a live run as a platform component and wraps each coordinator's
    database charges — the points where a handler that has just mutated the
    table parks itself and sibling processes (the watch loop, a replication
    round) get to read the views.  ``preload`` seeds every coordinator with
    that many already-propagated tasks (``mark_dirty=False``), the one
    insertion path that does not go through ``_mark_dirty``.
    """

    def __init__(self, preload: int = 0) -> None:
        super().__init__("test.index-audit")
        self.preload = preload
        self.grids: list = []
        self.checks = 0

    def setup(self, grid) -> None:
        self.grids.append(grid)

    def start(self) -> None:
        for n, coordinator in enumerate(self.grids[-1].coordinators):
            for name in ("charge_write", "charge_scan"):
                self._audit(coordinator, name)
            coordinator.preload_tasks(
                [make_call(c, user=f"preload{n}") for c in range(self.preload)],
                mark_dirty=False,
            )

    def _audit(self, coordinator, name: str) -> None:
        charge = getattr(coordinator.database, name)

        def audited(*args, **kwargs):
            self.check(coordinator)
            return charge(*args, **kwargs)

        setattr(coordinator.database, name, audited)

    def check(self, coordinator) -> None:
        assert_views_match(
            coordinator.tasks,
            coordinator.index,
            coordinator._owner_suspected,
            my_name=coordinator.name,
            results=coordinator.results,
        )
        self.checks += 1


def _without(method, line: str):
    """``method`` recompiled with ``line`` deleted (a one-line mutant)."""
    source = textwrap.dedent(inspect.getsource(method))
    assert source.count(line) == 1, (method, line)
    namespace: dict = {}
    exec(source.replace(line, "pass"), method.__globals__, namespace)
    return namespace[method.__name__]


class TestLiveRunAudit:
    """With one plane there is no reference arm to diverge from: a mutation
    path that misses its ``note`` loses the task.  So recount, live."""

    def _churn_run(self) -> IndexAudit:
        from repro.scenarios import GridTopology, WorkloadSpec, execute_benchmark

        audit = IndexAudit(preload=3)
        report = execute_benchmark(
            GridTopology(n_servers=8, n_coordinators=4, spread_servers=True),
            # 50 calls: ~1,180 checks (40 gave 1,040 while each task cost a
            # separate work request and its charges, 913 since).
            WorkloadSpec(n_calls=50, exec_time=20.0),
            protocol_overrides={
                "policy.replication": {
                    "name": "policy.repl.quorum",
                    "params": {"successors": 2},
                }
            },
            seed=5,
            horizon=20_000.0,
            components=[
                {
                    "name": "inject.churn",
                    "params": {"target": "servers", "mtbf": 100.0, "mttr": 60.0},
                },
                {
                    "name": "inject.rate",
                    "params": {"target": "coordinators", "faults_per_minute": 1.0},
                },
                audit,
            ],
        )
        (grid,) = audit.grids
        for coordinator in grid.coordinators:
            audit.check(coordinator)
        counters = grid.monitor.counters
        # The run must have been what it claims: churn, kills, merges, resets.
        assert report.outputs()["completed"] == 50
        assert counters["coordinator.rescheduled_on_suspicion"] > 0
        assert counters["coordinator.replicated_completions"] > 0
        assert counters["coordinator.quorum_commits"] > 0
        assert counters["faults.coordinator"] > 0 and counters["faults.server"] > 0
        return audit

    def test_views_equal_a_recount_through_churn_kills_and_quorum_rounds(self):
        assert self._churn_run().checks > 1000

    def test_per_task_maps_drain_as_tasks_finish(self):
        """A finished task leaves the activity and archive-fetch maps, however
        it finished: locally, through a replica merge, or by a fetched archive."""
        (grid,) = self._churn_run().grids
        for coordinator in grid.coordinators:
            tasks = coordinator.tasks
            assert all(
                tasks[key].state is TaskState.ONGOING
                for key in coordinator._task_activity
            ), coordinator.name
            assert not coordinator._archive_fetch_attempts.keys() & coordinator.results.keys()

    def test_views_equal_a_recount_in_a_crowd_cell(self):
        from repro.scenarios import SweepRunner, get_scenario, load_all

        load_all()
        spec = get_scenario("flash-crowd")
        audit = IndexAudit()
        SweepRunner(
            spec,
            scale="tiny",
            jobs=1,
            axes={"surge_factor": (100.0,)},
            params={"components": [*spec.components, audit]},
        ).run()
        for grid in audit.grids:
            for coordinator in grid.coordinators:
                audit.check(coordinator)
            assert grid.monitor.counter("coordinator.crowd_batches").value > 0
        assert audit.checks > 1000

    @pytest.mark.parametrize(
        "method, note",
        [
            ("_on_replica_state", "self.index.note(self.tasks[key], key)"),
            ("preload_tasks", "self.index.note(record, key)"),
        ],
        ids=["replica-merge", "preload"],
    )
    def test_the_audit_catches_a_dropped_note(self, method, note, monkeypatch):
        """Mutation check: lose one ``note`` and the recount must disagree."""
        from repro.core.coordinator import CoordinatorComponent

        mutant = _without(getattr(CoordinatorComponent, method), note)
        monkeypatch.setattr(CoordinatorComponent, method, mutant)
        with pytest.raises(AssertionError):
            self._churn_run()


class _CountingTable(dict):
    """A task table that counts how it is traversed (the O(dirty) shim)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.items_calls = 0
        self.getitem_calls = 0

    def items(self):
        self.items_calls += 1
        return super().items()

    def __getitem__(self, key):
        self.getitem_calls += 1
        return super().__getitem__(key)


class TestDeltaBuild:
    def _table(self, n=500) -> _CountingTable:
        table = _CountingTable()
        for counter in range(n):
            record = make_task(counter)
            table[record.identity] = record
        return table

    def test_incremental_build_touches_only_dirty_keys(self):
        table = self._table(500)
        dirty = [make_task(c).identity for c in (3, 42, 419)]
        table.items_calls = table.getitem_calls = 0
        state = build_state("k0", table, {}, [], only_keys=dirty)
        # Build cost is proportional to the dirty set: three key lookups,
        # zero table walks.
        assert table.items_calls == 0
        assert table.getitem_calls == len(dirty)
        assert [e.call.identity for e in state.entries] == dirty

    def test_full_build_still_walks_the_table(self):
        table = self._table(20)
        table.items_calls = table.getitem_calls = 0
        state = build_state("k0", table, {}, [])
        assert len(state.entries) == 20
        assert table.items_calls == 1

    def test_dirty_keys_missing_from_table_are_skipped(self):
        table = self._table(5)
        ghost = ("ghost", "s", 999)
        state = build_state(
            "k0", table, {}, [],
            only_keys=[ghost, make_task(2).identity],
        )
        assert len(state.entries) == 1

    def test_accumulated_size_matches_entry_walk(self):
        table = self._table(30)
        finished = table[make_task(4).identity]
        finished.state = TaskState.FINISHED
        state = build_state("k0", table, {("u", "s"): 7}, [("coordinator", "k1")])
        walked = ReplicaState(
            origin="k0",
            entries=state.entries,
            client_timestamps=state.client_timestamps,
            known_coordinators=state.known_coordinators,
        )
        assert state.entries_bytes is not None
        assert state.size_bytes == walked.size_bytes
        # 29 replayable records carry parameters, the finished one does not.
        assert state.entries_bytes == 30 * TASK_DESCRIPTION_BYTES + 29 * 100

    def test_each_round_snapshots_its_records_afresh(self):
        tasks: dict[tuple, TaskRecord] = {}
        for counter in range(4):
            record = make_task(counter)
            tasks[record.identity] = record
        index = TaskIndex(tasks)
        keys = list(tasks)
        first = build_state("k0", tasks, {}, [], only_keys=keys)
        second = build_state("k0", tasks, {}, [], only_keys=keys)
        assert first.entries == second.entries
        assert all(a is not b for a, b in zip(first.entries, second.entries))
        assert first.size_bytes == second.size_bytes
        # A transition shows in the next round, with its wire bytes.
        record = tasks[keys[0]]
        record.state = TaskState.FINISHED
        index.note(record, keys[0])
        third = build_state("k0", tasks, {}, [], only_keys=keys[:1])
        assert third.entries[0].state is TaskState.FINISHED
        assert third.entries_bytes == TASK_DESCRIPTION_BYTES  # no parameters
        assert type(third.entries[0]) is ReplicaEntry

    def test_the_index_keeps_no_replica_entries(self):
        tasks: dict[tuple, TaskRecord] = {}
        for counter in range(3):
            record = make_task(counter)
            tasks[record.identity] = record
        index = TaskIndex(tasks)
        for _ in range(2):
            build_state("k0", tasks, {}, [], only_keys=index.table_ordered(tasks))
        # No memo: nothing on the index is named for or holds an entry.
        assert not hasattr(index, "replica_entry")
        assert not [name for name in vars(index) if "entr" in name]

    def test_payload_entries_are_the_builders_immutable_objects(self):
        tasks: dict[tuple, TaskRecord] = {}
        record = make_task(1)
        tasks[record.identity] = record
        state = build_state("k0", tasks, {}, [])
        (entry,) = state.entries
        assert entry.call is record.call
        for name in entry._fields:
            with pytest.raises(AttributeError):
                setattr(entry, name, None)
        for spec in dataclasses.fields(entry.call):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(entry.call, spec.name, None)


class TestScenarioParallelism:
    def test_fig7_rows_identical_across_jobs(self):
        from repro.scenarios import load_all, run_scenario

        load_all()
        sequential = run_scenario("fig7", scale="tiny", jobs=1)
        parallel = run_scenario("fig7", scale="tiny", jobs=4)
        assert sequential.rows == parallel.rows
