"""TaskIndex equivalence and delta-replication regression tests (PR 10).

The coordinator's indexed data plane must be *behaviorally invisible*: every
view the :class:`~repro.core.taskindex.TaskIndex` maintains has to match what
the legacy full-table scan would compute, at every step of any mutation
sequence.  The property-style test here drives a seeded random sequence of
submit / assign / finish / merge / suspect / reschedule / requeue operations
through one table and asserts the index against a naive recomputation after
each op.  The delta-replication tests pin the other tentpole claim: an
incremental ``build_state`` touches only the dirty keys, never the table.
"""

from __future__ import annotations

import random

import pytest

from repro.core.protocol import (
    CallDescription,
    TASK_DESCRIPTION_BYTES,
    TaskRecord,
    identity_to_key,
)
from repro.core.replication import ReplicaState, build_state, merge_state
from repro.core.taskindex import TaskIndex
from repro.policies.scheduling import (
    FastestFirstSchedulerPolicy,
    FifoReschedulePolicy,
    RandomSchedulerPolicy,
    RoundRobinSchedulerPolicy,
    SchedulerPolicy,
    _sjf_key,
    fcfs_key,
)
from repro.sim.rng import RandomStreams
from repro.types import Address, CallIdentity, RPCId, SessionId, TaskState, UserId

MY_NAME = "k0"
OTHER_OWNERS = ("k1", "k2")
SERVERS = tuple(Address("server", f"s{i}") for i in range(4))


def make_call(counter: int, user: str = "u", exec_time: float | None = 1.0) -> CallDescription:
    return CallDescription(
        identity=CallIdentity(UserId(user), SessionId("s"), RPCId(counter)),
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


def naive_eligible(tasks, my_name, owner_suspected):
    """The legacy scan, recomputed from scratch (the reference truth)."""
    policy = FifoReschedulePolicy()
    return policy.eligible_tasks(tasks, my_name, owner_suspected)


class TestIndexEquivalence:
    """Drive random op sequences; assert every index view against the scan."""

    def _assert_views_match(self, tasks, index, suspected):
        owner_suspected = lambda owner: owner in suspected  # noqa: E731
        reference = naive_eligible(tasks, MY_NAME, owner_suspected)
        reference_keys = [identity_to_key(r.identity) for r in reference]

        extras, held = index.eligible_extras(MY_NAME, owner_suspected)
        indexed = index.eligible_list(extras)
        indexed_keys = [identity_to_key(r.identity) for r in indexed]
        assert indexed_keys == reference_keys

        # Heads: FIFO and fastest-first must agree with the sorted scan.
        fifo_head = FifoReschedulePolicy().choose_indexed(
            index, extras, server=SERVERS[0], now=0.0
        )
        assert (fifo_head is None) == (not reference)
        if reference:
            assert fifo_head is reference[0]
            sjf_head = FastestFirstSchedulerPolicy().choose_indexed(
                index, extras, server=SERVERS[0], now=0.0
            )
            assert sjf_head is min(reference, key=_sjf_key)

        # Per-state counters vs a full count.
        counts = {state: 0 for state in TaskState}
        for record in tasks.values():
            counts[record.state] += 1
        assert index.state_counts() == counts
        assert index.finished == counts[TaskState.FINISHED]

        # The held count equals the legacy per-record dedup bookkeeping.
        released = {identity_to_key(r.identity) for r in extras}
        expected_held = sum(
            1
            for key, record in tasks.items()
            if record.state is TaskState.ONGOING and key not in released
        )
        assert held == expected_held

        # Per-server and per-owner ongoing buckets vs a table walk.
        for server in SERVERS:
            expected = {
                key
                for key, record in tasks.items()
                if record.state is TaskState.ONGOING
                and record.assigned_server == server
            }
            assert {key for key, _ in index.ongoing_on_server(server)} == expected
        for owner in (MY_NAME,) + OTHER_OWNERS:
            expected = {
                key
                for key, record in tasks.items()
                if record.state is TaskState.ONGOING and record.owner == owner
            }
            assert {key for key, _ in index.ongoing_owned_by(owner)} == expected

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
                key = identity_to_key(record.identity)
                tasks[key] = record
                index.note(record, key)
                next_id += 1
            elif op == "assign":
                decision = policy.pick(
                    tasks,
                    server=rng.choice(SERVERS),
                    my_name=MY_NAME,
                    owner_suspected=owner_suspected,
                    now=now,
                    index=index,
                )
                if decision.task is not None:
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
                    incoming[identity_to_key(record.identity)] = record
                    next_id += 1
                upgradable = [
                    r for r in tasks.values() if r.state is not TaskState.FINISHED
                ]
                if upgradable:
                    donor = rng.choice(upgradable)
                    upgrade = TaskRecord.from_replica_entry(donor.to_replica_entry())
                    upgrade.state = TaskState.FINISHED
                    upgrade.owner = peer
                    incoming[identity_to_key(upgrade.identity)] = upgrade
                state = build_state(peer, incoming, {}, [], now=now)
                outcome = merge_state(tasks, {}, state)
                for identity in outcome.changed:
                    key = identity_to_key(identity)
                    index.note(tasks[key], key)
            elif op == "suspect":
                owner = rng.choice(OTHER_OWNERS)
                if owner in suspected:
                    suspected.discard(owner)
                else:
                    suspected.add(owner)
            elif op == "reschedule":
                reset = policy.reschedule_for_suspected_server(
                    tasks, rng.choice(SERVERS), MY_NAME, index=index
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

            self._assert_views_match(tasks, index, suspected)

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
        """Two identical universes, one indexed: every pick chooses the same task."""

        def build_universe():
            tasks: dict[tuple, TaskRecord] = {}
            rng = random.Random(99)
            for counter in range(60):
                record = make_task(
                    counter,
                    submitted_at=float(counter // 3),  # ties broken by identity
                    exec_time=rng.choice([0.5, 1.0, 2.0, None]),
                )
                tasks[identity_to_key(record.identity)] = record
            ongoing = make_task(900, state=TaskState.ONGOING, owner="k1")
            tasks[identity_to_key(ongoing.identity)] = ongoing
            return tasks

        scan_tasks = build_universe()
        indexed_tasks = build_universe()
        index = TaskIndex(indexed_tasks)
        scan_policy = policy_cls().bind(MY_NAME, rng=RandomStreams(5))
        indexed_policy = policy_cls().bind(MY_NAME, rng=RandomStreams(5))
        suspected = lambda owner: owner == "k1"  # noqa: E731

        for step in range(61):
            a = scan_policy.pick(
                scan_tasks, SERVERS[step % 4], MY_NAME, suspected, now=float(step)
            )
            b = indexed_policy.pick(
                indexed_tasks, SERVERS[step % 4], MY_NAME, suspected,
                now=float(step), index=index,
            )
            if a.task is None:
                assert b.task is None
                continue
            assert b.task is not None
            assert identity_to_key(a.task.identity) == identity_to_key(b.task.identity)
            index.note(b.task)
        assert scan_policy.assignments == indexed_policy.assignments
        assert scan_policy.dedup_holds == indexed_policy.dedup_holds


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
            table[identity_to_key(record.identity)] = record
        return table

    def test_incremental_build_touches_only_dirty_keys(self):
        table = self._table(500)
        dirty = [identity_to_key(make_task(c).identity) for c in (3, 42, 419)]
        table.items_calls = table.getitem_calls = 0
        state = build_state("k0", table, {}, [], only_keys=dirty)
        # Build cost is proportional to the dirty set: three key lookups,
        # zero table walks.
        assert table.items_calls == 0
        assert table.getitem_calls == len(dirty)
        assert [e["call"]["identity"] for e in state.entries] == dirty

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
            only_keys=[ghost, identity_to_key(make_task(2).identity)],
        )
        assert len(state.entries) == 1

    def test_accumulated_size_matches_entry_walk(self):
        table = self._table(30)
        finished = table[identity_to_key(make_task(4).identity)]
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

    def test_entry_cache_reused_until_transition(self):
        tasks: dict[tuple, TaskRecord] = {}
        record = make_task(1)
        key = identity_to_key(record.identity)
        tasks[key] = record
        index = TaskIndex(tasks)
        entry_a, bytes_a = index.replica_entry(key, record)
        entry_b, _ = index.replica_entry(key, record)
        assert entry_a is entry_b  # served from the cache
        assert bytes_a == TASK_DESCRIPTION_BYTES + record.call.params_bytes
        record.state = TaskState.FINISHED
        index.note(record, key)
        entry_c, bytes_c = index.replica_entry(key, record)
        assert entry_c is not entry_a
        assert entry_c["state"] == TaskState.FINISHED.value
        assert bytes_c == TASK_DESCRIPTION_BYTES  # finished: no parameters

    def test_cached_entries_flow_through_build_state(self):
        tasks: dict[tuple, TaskRecord] = {}
        for counter in range(4):
            record = make_task(counter)
            tasks[identity_to_key(record.identity)] = record
        index = TaskIndex(tasks)
        keys = list(tasks)
        first = build_state("k0", tasks, {}, [], only_keys=keys,
                            entry_for=index.replica_entry)
        second = build_state("k0", tasks, {}, [], only_keys=keys,
                             entry_for=index.replica_entry)
        assert [id(e) for e in first.entries] == [id(e) for e in second.entries]
        assert first.size_bytes == second.size_bytes

    def test_fresh_payload_skips_entry_copies_and_receiver_copies_back(self):
        tasks: dict[tuple, TaskRecord] = {}
        record = make_task(1)
        tasks[identity_to_key(record.identity)] = record
        state = build_state("k0", tasks, {}, [])
        assert state.fresh
        payload = state.to_payload()
        assert payload["entries"][0] is state.entries[0]  # no re-copy
        received = ReplicaState.from_payload(payload)
        assert received.entries[0] is not state.entries[0]  # receiver copies
        assert not received.fresh
        assert received.entries[0] == state.entries[0]

    def test_hand_assembled_state_still_copies_on_payload(self):
        entry = make_task(1).to_replica_entry()
        state = ReplicaState(origin="k0", entries=[entry])
        payload = state.to_payload()
        assert payload["entries"][0] is not entry
        assert payload["entries"][0] == entry


class TestScenarioParallelism:
    def test_fig7_rows_identical_across_jobs(self):
        from repro.scenarios import load_all, run_scenario

        load_all()
        sequential = run_scenario("fig7", scale="tiny", jobs=1)
        parallel = run_scenario("fig7", scale="tiny", jobs=4)
        assert sequential.rows == parallel.rows
