"""Client-facing data plane equivalence tests (PR 12).

PR 10 proved the *scheduling* views of the task table against the scan they
replaced (``tests/test_taskindex.py``).  These tests do the same for the
request paths clients and servers hit: result pulls, client and server
synchronisations, replica merges, the message log's byte totals and the
client's pending view.  Each fast path is checked against a naive reference
kept here — a table walk, a recount, the eager merge — after every step of a
seeded random op sequence.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import LoggingConfig
from repro.core.client import ClientComponent
from repro.core.coordinator import CoordinatorComponent
from repro.core.protocol import (
    TASK_DESCRIPTION_BYTES,
    CallDescription,
    ReplicaEntry,
    ResultRecord,
    TaskRecord,
)
from repro.core.registry import CoordinatorRegistry
from repro.core.services import ServiceSpec, default_registry
from repro.core.replication import (
    MergeOutcome,
    ReplicaState,
    build_state,
    merge_state,
)
from repro.core.synchronization import plan_client_sync, plan_server_sync
from repro.grid.builder import build_confined_cluster
from repro.msglog.garbage import GarbageCollector
from repro.msglog.log import MessageLog
from repro.net.message import Message, MessageType
from repro.net.transport import Network
from repro.nodes.node import Host
from repro.sim.core import Environment
from repro.sim.rng import RandomStreams
from repro.types import Address, CallIdentity, TaskState
from repro.scenarios.engine import GridTopology, WorkloadSpec, execute_benchmark
from repro.workloads.synthetic import SyntheticWorkload
from tests.support import (
    STATE_PRECEDENCE,
    PerfectLinkModel,
    check_log_integrity,
    log_keys,
)

K0 = Address("coordinator", "k0")
PEERS = (Address("coordinator", "k1"), Address("coordinator", "k2"))
SERVERS = tuple(Address("server", f"s{i}") for i in range(3))
CLIENT = Address("client", "c0")
SESSIONS = (("u0", "s"), ("u1", "s"))


def make_call(user: str, session: str, ts: int) -> CallDescription:
    return CallDescription(
        identity=CallIdentity(user, session, ts),
        service="sleep",
        params_bytes=100,
        result_bytes=40,
        exec_time=1.0,
    )


def make_result(key: tuple, server: Address = SERVERS[0]) -> ResultRecord:
    return ResultRecord(
        identity=make_call(*key).identity, size_bytes=40, produced_by=server
    )


class _CountingTable(dict):
    """A table that counts walks and row touches (the O(answer) shim)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reset()

    def reset(self) -> None:
        self.walks = 0
        self.touches = 0

    def items(self):
        self.walks += 1
        return super().items()

    def values(self):
        self.walks += 1
        return super().values()

    def keys(self):
        self.walks += 1
        return super().keys()

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def __getitem__(self, key):
        self.touches += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.touches += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.touches += 1
        return super().__contains__(key)


class Harness:
    """One coordinator whose handlers are driven synchronously.

    Handlers are generators that only ever yield simulated delays, so
    exhausting one runs it to completion at the current instant: the naive
    reference below is computed from the very tables the handler is about to
    read.  Outgoing messages are captured instead of sent.
    """

    def __init__(self, counting: bool = False) -> None:
        self.env = Environment()
        network = Network(self.env, PerfectLinkModel())
        self.host = Host(self.env, network, K0, rng=RandomStreams(0))
        if counting:
            self.host.persistent["coord:tasks"] = _CountingTable()
            self.host.persistent["coord:results"] = _CountingTable()
        self.coord = CoordinatorComponent(self.host, CoordinatorRegistry([K0, *PEERS]))
        self.sent: list[Message] = []
        self.host.send = self.sent.append

    def restart(self) -> None:
        """Crash and restart the host; ``start()`` rebuilds the volatile views."""
        self.host.crash()
        self.host.restart()

    def deliver(self, mtype: MessageType, source: Address, payload: dict) -> list[Message]:
        """Handle one request to completion; returns what it sent.

        ``cost`` is left holding the simulated seconds the handler charged:
        0 for a message handled in place (``_handle`` returned ``None``).
        """
        before = len(self.sent)
        message = Message(mtype=mtype, source=source, dest=K0, payload=payload)
        self.cost = sum(delay.delay for delay in self.coord._handle(message) or ())
        return self.sent[before:]

    # -- naive references: walk the tables -----------------------------------
    def reference_pull(self, user, session, wanted):
        coord = self.coord
        reply = [
            key
            for key in coord.results
            if key[:2] == (user, session) and (wanted is None or key[2] in wanted)
        ]
        retry_after = 2 * coord.config.detection.heartbeat_period
        fetches = []
        for key, task in coord.tasks.items():
            if key[:2] != (user, session):
                continue
            if wanted is not None and key[2] not in wanted:
                continue
            if task.state is not TaskState.FINISHED or key in coord.results:
                continue
            last = coord._archive_fetches_in_flight.get(key)
            if last is None or self.env.now - last >= retry_after:
                fetches.append(key)
        return reply, fetches

    def reference_client_sync(self, user, session, durable_keys):
        tasks = self.coord.tasks
        known = [k[2] for k in tasks if k[:2] == (user, session)]
        finished = [
            k[2]
            for k, t in tasks.items()
            if k[:2] == (user, session) and t.state is TaskState.FINISHED
        ]
        return plan_client_sync(durable_keys, known, finished)

    def reference_server_sync(self, server, server_keys):
        tasks = self.coord.tasks
        finished = [k for k, t in tasks.items() if t.state is TaskState.FINISHED]
        assigned = [
            k
            for k, t in tasks.items()
            if t.state is TaskState.ONGOING and t.assigned_server == server
        ]
        return plan_server_sync(server_keys, finished, assigned)


def _replica_entry(
    key: tuple, state: TaskState, owner: str, holder: str = ""
) -> ReplicaEntry:
    record = TaskRecord(
        call=make_call(*key),
        state=state,
        owner=owner,
        finished_at=1.0 if state is TaskState.FINISHED else None,
        archive_holder=holder,
    )
    return record.to_replica_entry()


def random_ops(rng: random.Random, coord: CoordinatorComponent, steps: int):
    """Seeded random traffic for one coordinator.

    Yields ``("deliver", mtype, source, payload)``, ``("restart",)`` or
    ``("tick", seconds)``; every choice is drawn from ``rng`` and from the
    coordinator's own tables at the moment the op is generated.
    """
    next_ts = dict.fromkeys(SESSIONS, 0)

    def fresh_key() -> CallIdentity:
        user, session = rng.choice(SESSIONS)
        ts = next_ts[user, session]
        next_ts[user, session] += 1
        return CallIdentity(user, session, ts)

    def some_timestamps(session_key) -> list[int]:
        horizon = next_ts[session_key] + 3  # a few timestamps nobody issued
        return rng.sample(range(horizon), rng.randint(0, horizon))

    for _step in range(steps):
        op = rng.choice(
            ["submit", "submit", "assign", "assign", "result", "merge", "archive",
             "restart", "tick", "pull", "pull", "client-sync", "server-sync"]
        )
        if op == "submit":
            key = fresh_key()
            payload = {"call": make_call(*key), "timestamp": key[2]}
            yield "deliver", MessageType.RPC_SUBMIT, CLIENT, payload
        elif op == "assign":
            yield "deliver", MessageType.WORK_REQUEST, rng.choice(SERVERS), {"window": 2.0}
        elif op == "result":
            ongoing = [
                (key, task)
                for key, task in coord.tasks.items()
                if task.state is TaskState.ONGOING
            ]
            if ongoing:
                key, task = rng.choice(ongoing)
                server = task.assigned_server
                payload = {"result": make_result(key, server)}
                yield "deliver", MessageType.TASK_RESULT, server, payload
        elif op == "merge":
            # A peer's abstract: tasks it finished (their archives stay on
            # the peer) — brand-new keys and an upgrade of one of ours.
            peer = rng.choice(PEERS)
            keys = [fresh_key() for _ in range(rng.randint(1, 3))]
            open_keys = [
                key
                for key, task in coord.tasks.items()
                if task.state is not TaskState.FINISHED
            ]
            if open_keys:
                keys.append(rng.choice(open_keys))
            rng.shuffle(keys)
            state = ReplicaState(
                origin=str(peer),
                entries=[
                    _replica_entry(key, TaskState.FINISHED, str(peer), str(peer))
                    for key in keys
                ],
            )
            payload = {"state": state, "round": 0}
            yield "deliver", MessageType.REPLICA_STATE, peer, payload
        elif op == "archive":
            waiting = unarchived(coord)
            if waiting:
                key = rng.choice(waiting)
                payload = {"identity": key}
                if rng.random() < 0.2:
                    payload["missing"] = True
                else:
                    payload["result"] = make_result(key)
                yield "deliver", MessageType.ARCHIVE_REPLY, rng.choice(PEERS), payload
        elif op == "restart":
            yield ("restart",)
        elif op == "tick":
            # Simulated time passes, so archive fetches become retryable.
            yield "tick", rng.choice([1.0, 4.0, 12.0])
        elif op == "pull":
            session_key = rng.choice(SESSIONS)
            payload = {"session": session_key}
            if rng.random() >= 0.15:  # else: no pending list = everything
                payload["pending"] = some_timestamps(session_key)
            yield "deliver", MessageType.RESULT_PULL, CLIENT, payload
        elif op == "client-sync":
            session_key = rng.choice(SESSIONS)
            payload = {"session": session_key, "durable_keys": some_timestamps(session_key)}
            yield "deliver", MessageType.CLIENT_SYNC, CLIENT, payload
        elif op == "server-sync":
            table = list(coord.tasks)
            keys = rng.sample(table, rng.randint(0, min(len(table), 6)))
            keys.append(CallIdentity("ghost", "s", 999))  # never seen here
            payload = {"result_keys": keys}
            yield "deliver", MessageType.SERVER_SYNC, rng.choice(SERVERS), payload


def unarchived(coord: CoordinatorComponent) -> list[tuple]:
    return [
        key
        for key, task in coord.tasks.items()
        if task.state is TaskState.FINISHED and key not in coord.results
    ]


class TestCoordinatorRequestEquivalence:
    """Random op sequences; every reply equals the table-walk reference."""

    def _check_pull(self, harness: Harness, payload: dict) -> None:
        user, session = payload["session"]
        wanted = set(payload["pending"]) if "pending" in payload else None
        reply_keys, fetch_keys = (
            harness.reference_pull(user, session, wanted)
            if wanted is None or wanted
            else ([], [])
        )
        sent = harness.deliver(MessageType.RESULT_PULL, CLIENT, payload)
        fetches = [m for m in sent if m.mtype is MessageType.ARCHIVE_FETCH]
        (reply,) = [m for m in sent if m.mtype is MessageType.RESULT_REPLY]
        # The coordinator's own archive objects, not copies.
        assert [id(r) for r in reply.payload["results"]] == [
            id(harness.coord.results[key]) for key in reply_keys
        ]
        assert [m.payload["identity"] for m in fetches] == fetch_keys
        assert reply.size_bytes == sum(
            harness.coord.results[key].size_bytes for key in reply_keys
        )

    def _check_client_sync(self, harness: Harness, payload: dict) -> None:
        plan = harness.reference_client_sync(*payload["session"], payload["durable_keys"])
        (reply,) = harness.deliver(MessageType.CLIENT_SYNC, CLIENT, payload)
        assert reply.payload["client_must_resend"] == plan.client_must_resend
        assert reply.payload["client_lost"] == plan.client_lost
        assert reply.payload["results_available"] == plan.results_available
        assert reply.payload["coordinator_max_timestamp"] >= plan.coordinator_max_timestamp

    def _check_server_sync(self, harness: Harness, server: Address, payload: dict) -> None:
        plan = harness.reference_server_sync(server, payload["result_keys"])
        (reply,) = harness.deliver(MessageType.SERVER_SYNC, server, payload)
        assert reply.payload["server_must_resend"] == plan.server_must_resend
        assert reply.payload["already_finished"] == plan.already_finished
        for key in plan.coordinator_must_requeue:
            assert harness.coord.tasks[key].state is TaskState.PENDING

    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_random_ops_match_table_walk_reference(self, seed):
        harness = Harness()
        coord = harness.coord
        for op, *args in random_ops(random.Random(seed), coord, steps=500):
            if op == "restart":
                harness.restart()
            elif op == "tick":
                harness.env.run(until=harness.env.now + args[0])
            elif args[0] is MessageType.RESULT_PULL:
                self._check_pull(harness, args[2])
            elif args[0] is MessageType.CLIENT_SYNC:
                self._check_client_sync(harness, args[2])
            elif args[0] is MessageType.SERVER_SYNC:
                self._check_server_sync(harness, args[1], args[2])
            else:
                harness.deliver(*args)
        # The sequence must have exercised what it claims to cover.
        assert coord.results and unarchived(coord)
        assert coord.monitor.counter("coordinator.archive_fetches").value > 0

    def test_results_enter_through_the_choke_point_only_once(self):
        harness = Harness()
        coord = harness.coord
        key = CallIdentity("u0", "s", 0)
        first, second = make_result(key, SERVERS[0]), make_result(key, SERVERS[1])
        coord._store_result(key, first)
        coord._store_result(key, second)  # archives are immutable: ignored
        assert coord.results[key] is first
        held, missing = coord.index.pull_view(("u0", "s"), None)
        assert held == [first] and missing == []

    def test_pull_naming_k_timestamps_touches_k_rows(self):
        harness = Harness(counting=True)
        coord = harness.coord
        n, k = 2000, 5
        for ts in range(n):
            key = CallIdentity("u0", "s", ts)
            record = TaskRecord(
                call=make_call(*key), state=TaskState.FINISHED, owner=coord.name
            )
            coord.tasks[key] = record
            coord.index.note(record, key)
            if ts % 2:  # odd archives held here, even ones on a peer
                coord._store_result(key, make_result(key))
        wanted = [10, 11, 500, 501, 1999]
        assert len(wanted) == k
        coord.tasks.reset()
        coord.results.reset()
        sent = harness.deliver(
            MessageType.RESULT_PULL, CLIENT, {"session": ("u0", "s"), "pending": wanted}
        )
        assert coord.tasks.walks == 0 and coord.results.walks == 0
        assert coord.tasks.touches + coord.results.touches <= 2 * k
        (reply,) = [m for m in sent if m.mtype is MessageType.RESULT_REPLY]
        assert [r.identity[2] for r in reply.payload["results"]] == [11, 501, 1999]
        fetched = [m.payload["identity"][2] for m in sent if m.mtype is MessageType.ARCHIVE_FETCH]
        assert fetched == [10, 500]

    def test_server_sync_looks_up_only_the_keys_the_server_sent(self):
        harness = Harness(counting=True)
        coord = harness.coord
        for ts in range(1000):
            key = CallIdentity("u0", "s", ts)
            record = TaskRecord(
                call=make_call(*key), state=TaskState.FINISHED, owner=coord.name
            )
            coord.tasks[key] = record
            coord.index.note(record, key)
        coord.tasks.reset()
        server_keys = [
            CallIdentity("u0", "s", 3),
            CallIdentity("u0", "s", 4),
            CallIdentity("nobody", "s", 1),
        ]
        (reply,) = harness.deliver(
            MessageType.SERVER_SYNC, SERVERS[0], {"result_keys": server_keys}
        )
        assert coord.tasks.walks == 0
        assert coord.tasks.touches <= 2 * len(server_keys)
        assert reply.payload["already_finished"] == server_keys[:2]
        assert reply.payload["server_must_resend"] == server_keys[2:]


class TestSharedDescription:
    def test_adopting_crowd_args_leaves_another_replicas_description_alone(self):
        # The batch's result reached the first coordinator before its
        # envelope: the task is registered without crowd args, then
        # replicated, so both coordinators hold one description object.
        key = CallIdentity("crowd:c", "shard0", 4)
        first, second = Harness(), Harness()
        first.deliver(
            MessageType.TASK_RESULT, SERVERS[0], {"result": make_result(key)}
        )
        state = first.coord._build_state(None)
        second.deliver(
            MessageType.REPLICA_STATE, PEERS[0], {"state": state, "round": 0}
        )
        shared = first.coord.tasks[key].call
        assert second.coord.tasks[key].call is shared and shared.args is None

        first.deliver(
            MessageType.CROWD_SUBMIT_BATCH,
            Address("crowd", "c"),
            {"crowd": "c", "shard": 0, "batch": 4, "count": 10},
        )
        adopted = first.coord.tasks[key].call
        assert adopted.args["reply_to"] == ["crowd", "c"]
        assert second.coord.tasks[key].call is shared and shared.args is None


# --------------------------------------------------------------- replica merge
def eager_merge_state(tasks, client_timestamps, state) -> MergeOutcome:
    """The merge as it was before it learned to skip: build, then compare."""
    outcome = MergeOutcome()
    for entry in state.entries:
        incoming = TaskRecord.from_replica_entry(entry)
        key = incoming.identity
        existing = tasks.get(key)
        if existing is None:
            tasks[key] = incoming
            outcome.new_tasks += 1
            outcome.changed.append(incoming.identity)
            if incoming.state is TaskState.FINISHED:
                outcome.newly_finished.append(incoming.identity)
            continue
        if STATE_PRECEDENCE[incoming.state] > STATE_PRECEDENCE[existing.state]:
            became_finished = (
                incoming.state is TaskState.FINISHED
                and existing.state is not TaskState.FINISHED
            )
            existing.state = incoming.state
            existing.owner = incoming.owner
            existing.assigned_server = incoming.assigned_server
            existing.attempts = max(existing.attempts, incoming.attempts)
            existing.finished_at = incoming.finished_at
            if incoming.archive_holder:
                existing.archive_holder = incoming.archive_holder
            outcome.updated_tasks += 1
            outcome.changed.append(existing.identity)
            if became_finished:
                outcome.newly_finished.append(existing.identity)
    for key, timestamp in state.client_timestamps.items():
        if timestamp > client_timestamps.get(key, 0):
            client_timestamps[key] = timestamp
            outcome.timestamps_advanced += 1
    return outcome


_STATES = st.sampled_from(list(TaskState))
_LOCAL = st.dictionaries(st.integers(0, 7), _STATES, max_size=8)
_INCOMING = st.lists(
    st.tuples(
        st.integers(0, 11),  # 8..11 are keys the local table never holds
        _STATES,
        st.sampled_from(["k1", "k2"]),
        st.integers(0, 3),
        st.sampled_from(["", "k1"]),
    ),
    max_size=12,
)
_TIMESTAMPS = st.dictionaries(
    st.sampled_from([("u", "s"), ("v", "s")]), st.integers(0, 9), max_size=2
)


def _local_table(states: dict[int, TaskState]) -> dict[tuple, TaskRecord]:
    table = {}
    for ts, state in states.items():
        record = TaskRecord(
            call=make_call("u", "s", ts), state=state, owner="k0", attempts=1
        )
        if state is TaskState.ONGOING:
            record.assigned_server = SERVERS[0]
        table[record.identity] = record
    return table


def _abstract(incoming, timestamps) -> ReplicaState:
    entries = []
    for ts, state, owner, attempts, holder in incoming:
        record = TaskRecord(
            call=make_call("u", "s", ts),
            state=state,
            owner=owner,
            attempts=attempts,
            assigned_server=SERVERS[1] if state is TaskState.ONGOING else None,
            finished_at=float(ts) if state is TaskState.FINISHED else None,
            archive_holder=holder,
        )
        entries.append(record.to_replica_entry())
    return ReplicaState(origin="k1", entries=entries, client_timestamps=dict(timestamps))


class TestSkippingMerge:
    @settings(max_examples=200, deadline=None)
    @given(local=_LOCAL, incoming=_INCOMING, mine=_TIMESTAMPS, theirs=_TIMESTAMPS)
    # equal precedence: nothing may change, nothing may be counted
    @example(
        local={0: TaskState.ONGOING},
        incoming=[(0, TaskState.ONGOING, "k1", 3, "k1")],
        mine={},
        theirs={},
    )
    # unknown key, then the same key again inside one abstract
    @example(
        local={},
        incoming=[(9, TaskState.PENDING, "k1", 0, ""), (9, TaskState.FINISHED, "k2", 1, "k1")],
        mine={},
        theirs={("u", "s"): 4},
    )
    # finished over ongoing, and the losing pending entry that follows it
    @example(
        local={2: TaskState.ONGOING},
        incoming=[(2, TaskState.FINISHED, "k1", 2, "k1"), (2, TaskState.PENDING, "k2", 0, "")],
        mine={("u", "s"): 7},
        theirs={("u", "s"): 3},
    )
    def test_same_outcome_and_table_as_the_eager_merge(self, local, incoming, mine, theirs):
        eager_table, eager_ts = _local_table(local), dict(mine)
        eager = eager_merge_state(eager_table, eager_ts, _abstract(incoming, theirs))
        table, timestamps = _local_table(local), dict(mine)
        outcome = merge_state(table, timestamps, _abstract(incoming, theirs))
        assert outcome == eager
        assert table == eager_table
        assert list(table) == list(eager_table)  # insertion order is table order
        assert timestamps == eager_ts

    def test_losing_entries_are_never_deserialised(self, monkeypatch):
        key = make_call("u", "s", 1).identity
        local = {key: TaskRecord(call=make_call("u", "s", 1), state=TaskState.FINISHED)}
        incoming = build_state(
            "k1", {key: TaskRecord(call=make_call("u", "s", 1), state=TaskState.ONGOING)}, {}, []
        )
        monkeypatch.setattr(
            TaskRecord,
            "from_replica_entry",
            classmethod(lambda cls, entry: pytest.fail("built a record that cannot win")),
        )
        assert merge_state(local, {}, incoming) == MergeOutcome()


# ------------------------------------------------------------------ message log
def _recount(log: MessageLog) -> tuple[int, int]:
    durable = sum(r.size_bytes for r in log.durable_records())
    buffered = sum(r.size_bytes for r in log._buffered.values())
    return durable, durable + buffered


class TestMessageLogTotals:
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_totals_equal_a_recount_after_every_operation(self, seed):
        rng = random.Random(seed)
        env = Environment()
        host = Host(env, Network(env, PerfectLinkModel()), CLIENT, rng=RandomStreams(0))
        log = MessageLog(host, "out")
        next_key = 0
        restarts = wipes = 0
        for _step in range(600):
            op = rng.choice(
                ["append", "append", "append", "durable", "durable", "forget",
                 "forget", "restart", "wipe"]
            )
            buffered = sorted(log_keys(log) - log.durable_keys())
            if op == "append":
                log.append(next_key, {"k": next_key}, rng.randint(0, 5000))
                next_key += 1
            elif op == "durable" and buffered:
                log.mark_durable(rng.choice(buffered))
            elif op == "forget" and len(log):
                log.forget(rng.choice(sorted(log_keys(log))))
                log.forget(-1)  # unknown keys are a no-op
            elif op == "restart" and rng.random() < 0.2:
                host.crash()
                host.restart()
                log = MessageLog(host, "out")  # buffered records are gone
                restarts += 1
            elif op == "wipe" and rng.random() < 0.1:
                log.wipe()
                wipes += 1
            assert (log._durable_total, log.total_bytes()) == _recount(log)
            check_log_integrity(log)
        assert restarts and wipes

    def test_wipe_loses_durable_records_for_the_next_incarnation_too(self):
        env = Environment()
        host = Host(env, Network(env, PerfectLinkModel()), CLIENT, rng=RandomStreams(0))
        log = MessageLog(host, "out")
        log.append(1, {}, 100)
        log.mark_durable(1)
        log.append(2, {}, 50)
        log.wipe()
        assert len(log) == 0 and log.total_bytes() == 0
        assert MessageLog(host, "out").total_bytes() == 0

    def test_idle_capacity_check_reads_the_log_size_once(self):
        class CountingLog(MessageLog):
            reads = 0

            def total_bytes(self) -> int:
                self.reads += 1
                return super().total_bytes()

        env = Environment()
        host = Host(env, Network(env, PerfectLinkModel()), CLIENT, rng=RandomStreams(0))
        log = CountingLog(host, "out")
        log.append(1, {}, 100)
        report = GarbageCollector(log, LoggingConfig(capacity_bytes=1000)).maybe_collect()
        assert not report.triggered
        assert report.bytes_before == report.bytes_after == 100
        assert log.reads == 1


# ---------------------------------------------------------------- client view
def _naive_pending(client: ClientComponent):
    return [h for h in client.handles.values() if not h.done]


class TestClientPendingView:
    def test_view_equals_filtered_handles_after_every_completion_and_restart(self):
        grid = build_confined_cluster(n_servers=3, n_coordinators=1, seed=5)
        grid.start()
        client = grid.client
        checks = {"completions": 0}
        complete = client._complete

        def checked_complete(result):
            complete(result)
            checks["completions"] += 1
            assert list(client._pending.values()) == _naive_pending(client)
            assert client.stats()["pending"] == len(_naive_pending(client))

        client._complete = checked_complete

        def submit(n):
            for _ in range(n):
                yield from client.call_async("sleep", exec_time=2.0)
                assert list(client._pending.values()) == _naive_pending(client)

        grid.run_until(grid.run_process(submit(12), name="submit"), timeout=1000.0)
        grid.run(until=grid.env.now + 4.0)  # some done, some still pending
        assert 0 < checks["completions"] < 12
        assert list(client._pending.values()) == _naive_pending(client) != []

        # A crash loses the volatile call table; the view restarts empty.
        host = client.host
        host.crash()
        host.restart()
        assert list(client._pending.values()) == _naive_pending(client) == []
        grid.run_until(grid.run_process(submit(5), name="resubmit"), timeout=1000.0)
        assert len(client._pending) == len(_naive_pending(client)) == 5
        grid.run(until=grid.env.now + 200.0)
        assert list(client._pending.values()) == _naive_pending(client) == []
        assert checks["completions"] >= 5

    def test_forget_handles_drops_the_view_with_the_handles(self):
        grid = build_confined_cluster(n_servers=2, n_coordinators=1, seed=1)
        grid.start()
        client = grid.client
        workload = SyntheticWorkload(n_calls=4, exec_time=50.0)
        grid.run_until(
            grid.run_process(workload.submit_only(client), name="submit"), timeout=1000.0
        )
        assert len(client._pending) == 4
        client.forget_handles()
        assert client.handles == {} and list(client._pending.values()) == []
        assert client.stats()["pending"] == 0


# ------------------------------------------------------------ held requests
WINDOW = 2.0


class TestHeldWorkRequest:
    """A work request that nothing is eligible for is held at no cost, and
    answered by the next submission or, at its window's end, by NO_WORK;
    one that gets work pays the overhead, the scan and the write as ever."""

    def ask_for_work(self, harness: Harness, server: Address = SERVERS[0]) -> list:
        return harness.deliver(MessageType.WORK_REQUEST, server, {"window": WINDOW})

    def submit(self, harness: Harness, ts: int) -> list:
        call = make_call("u0", "s", ts)
        return harness.deliver(
            MessageType.RPC_SUBMIT, CLIENT, {"call": call, "timestamp": ts}
        )

    def add_ongoing(self, harness: Harness, owner: Address, *stamps: int) -> None:
        coord = harness.coord
        for ts in stamps:
            key = CallIdentity("u0", "s", ts)
            record = TaskRecord(
                call=make_call(*key),
                state=TaskState.ONGOING,
                owner=str(owner),
                submitted_at=float(ts),
                assigned_server=SERVERS[1],
            )
            coord.tasks[key] = record
            coord.index.note(record, key)

    def no_work_times(self, harness: Harness) -> list:
        """Record when each NO_WORK is sent, and to whom."""
        times = []
        send = harness.host.send

        def timed(message):
            if message.mtype is MessageType.NO_WORK:
                times.append((harness.env.now, message.dest))
            send(message)

        harness.host.send = timed
        return times

    def test_an_empty_request_is_held_at_no_cost(self):
        harness = Harness()
        database = harness.coord.database
        assert self.ask_for_work(harness) == []
        assert harness.cost == 0.0
        assert (database.scans, database.writes, database.time_charged) == (0, 0, 0.0)
        # The server is still heard: it is watched from its first poll on.
        assert SERVERS[0] in harness.coord.known_servers

    def test_an_unanswered_hold_ends_with_a_free_no_work_at_its_window(self):
        harness = Harness()
        times = self.no_work_times(harness)
        harness.env.run(until=1.0)
        self.ask_for_work(harness)
        harness.env.run(until=1.0 + WINDOW - 1e-6)
        assert times == []
        harness.env.run(until=1.0 + WINDOW)
        assert times == [(1.0 + WINDOW, SERVERS[0])]
        assert harness.coord.database.scans == 0

    def test_a_submission_answers_a_held_request_in_its_own_handler(self):
        harness = Harness()
        coord = harness.coord
        self.ask_for_work(harness)
        model = coord.database.model
        message = Message(
            mtype=MessageType.RPC_SUBMIT,
            source=CLIENT,
            dest=K0,
            payload={"call": make_call("u0", "s", 1), "timestamp": 1},
        )
        handling = coord._handle(message)
        delays = [next(handling).delay]  # the overhead
        delays.append(next(handling).delay)  # the one sleep of every charge
        assert harness.sent == []  # nothing goes out before the sleep ends
        delays.extend(delay.delay for delay in handling)
        assert delays == pytest.approx([
            coord.config.request_processing_overhead,
            model.write_time(TASK_DESCRIPTION_BYTES + 100)
            + model.scan_time(1)
            + model.write_time(TASK_DESCRIPTION_BYTES),
        ])
        assign, ack = harness.sent
        assert (assign.mtype, assign.dest) == (MessageType.TASK_ASSIGN, SERVERS[0])
        assert assign.payload["call"].identity == CallIdentity("u0", "s", 1)
        assert ack.mtype is MessageType.SUBMIT_ACK
        assert coord.tasks[assign.payload["call"].identity].state is TaskState.ONGOING
        # The answered hold is gone: its window's end sends nothing.
        times = self.no_work_times(harness)
        harness.env.run(until=2 * WINDOW)
        assert times == []

    def test_a_restart_drops_held_requests(self):
        harness = Harness()
        times = self.no_work_times(harness)
        self.ask_for_work(harness)
        harness.restart()
        harness.env.run(until=2 * WINDOW)
        assert times == []
        assert [m.mtype for m in self.submit(harness, 1)] == [MessageType.SUBMIT_ACK]

    def test_a_newer_request_replaces_the_older(self):
        harness = Harness()
        times = self.no_work_times(harness)
        self.ask_for_work(harness)
        harness.env.run(until=1.0)
        self.ask_for_work(harness)
        harness.env.run(until=3 * WINDOW)
        # Only the newer request is answered, at its own window's end.
        assert times == [(1.0 + WINDOW, SERVERS[0])]

    def test_the_oldest_held_request_is_answered_first(self):
        harness = Harness()
        self.ask_for_work(harness, SERVERS[0])
        self.ask_for_work(harness, SERVERS[1])
        self.ask_for_work(harness, SERVERS[0])  # now newer than SERVERS[1]'s
        sent = self.submit(harness, 1)
        assert [(m.mtype, m.dest) for m in sent] == [
            (MessageType.TASK_ASSIGN, SERVERS[1]),
            (MessageType.SUBMIT_ACK, CLIENT),
        ]

    def test_a_suspected_servers_held_request_is_skipped(self):
        harness = Harness()
        coord = harness.coord
        timeout = coord.config.detection.suspicion_timeout
        long_window = {"window": 4 * timeout}
        harness.deliver(MessageType.WORK_REQUEST, SERVERS[0], long_window)
        harness.env.run(until=2 * timeout)
        harness.deliver(MessageType.WORK_REQUEST, SERVERS[1], long_window)
        assert coord.server_detector.is_suspected(SERVERS[0], harness.env.now)
        sent = self.submit(harness, 1)
        assert [(m.mtype, m.dest) for m in sent] == [
            (MessageType.TASK_ASSIGN, SERVERS[1]),
            (MessageType.SUBMIT_ACK, CLIENT),
        ]
        assert list(coord._held) == [SERVERS[0]]

    def test_a_duplicate_submission_answers_no_held_request(self):
        harness = Harness()
        self.submit(harness, 1)
        self.ask_for_work(harness, SERVERS[0])  # takes the pending task
        self.ask_for_work(harness, SERVERS[1])  # held
        assert [m.mtype for m in self.submit(harness, 1)] == [MessageType.SUBMIT_ACK]
        assert list(harness.coord._held) == [SERVERS[1]]

    def test_a_request_with_a_pending_task_pays_as_before(self):
        harness = Harness()
        coord = harness.coord
        coord.preload_tasks([make_call("u0", "s", 1)])
        keys = len(coord.database.keys)
        scans, writes = coord.database.scans, coord.database.writes
        (reply,) = self.ask_for_work(harness)
        assert reply.mtype is MessageType.TASK_ASSIGN
        model = coord.database.model
        assert harness.cost == pytest.approx(
            coord.config.request_processing_overhead
            + model.scan_time(keys)
            + model.write_time(TASK_DESCRIPTION_BYTES)
        )
        assert (coord.database.scans, coord.database.writes) == (scans + 1, writes + 1)

    def test_ongoing_tasks_of_a_live_owner_leave_the_request_held(self):
        harness = Harness()
        self.add_ongoing(harness, PEERS[0], 1, 2)
        assert self.ask_for_work(harness) == []
        assert harness.cost == 0.0
        assert harness.coord.database.scans == 0
        assert list(harness.coord._held) == [SERVERS[0]]

    def test_ongoing_tasks_of_a_suspected_owner_take_the_paid_path(self):
        harness = Harness()
        coord = harness.coord
        self.add_ongoing(harness, PEERS[0], 1, 2)
        coord.suspect_coordinator(PEERS[0])
        (reply,) = self.ask_for_work(harness)
        assert reply.mtype is MessageType.TASK_ASSIGN
        assert harness.cost == pytest.approx(
            coord.config.request_processing_overhead
            + coord.database.model.scan_time(0)
            + coord.database.model.write_time(TASK_DESCRIPTION_BYTES)
        )
        assert coord.tasks[CallIdentity("u0", "s", 1)].owner == coord.name


class TestFreeEmptyServerSync:
    """A sync with no results, from a server with nothing ongoing here, is
    answered in its turn at no cost; any other sync pays as before."""

    def test_an_empty_sync_is_free(self):
        harness = Harness()
        (reply,) = harness.deliver(MessageType.SERVER_SYNC, SERVERS[0], {"result_keys": []})
        assert reply.mtype is MessageType.COORD_SYNC_REPLY
        assert reply.payload["server_must_resend"] == reply.payload["already_finished"] == []
        assert harness.cost == 0.0 and harness.coord.database.scans == 0
        assert SERVERS[0] in harness.coord.known_servers

    def test_a_sync_from_a_server_with_ongoing_work_here_pays(self):
        harness = Harness()
        coord = harness.coord
        coord.preload_tasks([make_call("u0", "s", 1)])
        harness.deliver(MessageType.WORK_REQUEST, SERVERS[0], {"window": WINDOW})
        (reply,) = harness.deliver(MessageType.SERVER_SYNC, SERVERS[0], {"result_keys": []})
        # The server lost the task it was assigned: the sync re-queues it.
        assert coord.tasks[CallIdentity("u0", "s", 1)].state is TaskState.PENDING
        assert harness.cost == pytest.approx(
            coord.config.request_processing_overhead
            + coord.database.model.scan_time(len(coord.database.keys))
        )


# ------------------------------------------------------------ coordinator load
class TestCoordinatorLoad:
    """Two timestamps per handled message give the coordinator's load."""

    def test_busy_time_queue_wait_and_requests_by_type(self):
        harness = Harness()
        coord, env = harness.coord, harness.env
        coord.start()

        def land(mtype: MessageType, source: Address, payload: dict) -> None:
            message = Message(mtype=mtype, source=source, dest=K0, payload=payload)
            message.delivered_at = env.now
            harness.host.endpoint.mailbox.put(message)

        # Two pulls and a heart-beat land at one instant: the second pull
        # waits for the first one's handler, the heart-beat for both.
        pull = {"session": SESSIONS[0], "pending": None}
        land(MessageType.RESULT_PULL, CLIENT, pull)
        land(MessageType.RESULT_PULL, CLIENT, pull)
        land(MessageType.SERVER_HEARTBEAT, SERVERS[0], {})
        env.run(until=10.0)
        handler_s = coord.config.request_processing_overhead + coord.database.model.scan_time(0)
        load = coord.load(10.0)
        assert load["busy_s"] == pytest.approx(2 * handler_s)
        assert load["busy_share"] == pytest.approx(2 * handler_s / 10.0)
        assert load["requests"] == {"result-pull": 2, "server-heartbeat": 1}
        # Waits 0, one handler and two: read from 1 %-wide buckets.
        assert sum(coord.queue_waits.values()) == 3 and coord.queue_waits[0] == 1
        assert load["wait_p50_s"] == pytest.approx(handler_s, rel=0.01)
        assert load["wait_p99_s"] == pytest.approx(2 * handler_s, rel=0.01)

    def test_every_run_reports_each_coordinators_load(self):
        # Long enough for a replication round (every 5 s) to reach k1.
        report = execute_benchmark(
            GridTopology(n_servers=4, n_coordinators=2),
            WorkloadSpec(n_calls=32, exec_time=1.0),
            seed=1,
        )
        loads = report.outputs()["coordinators"]
        assert list(loads) == ["coordinator:cluster-k0", "coordinator:cluster-k1"]
        for load in loads.values():
            assert 0.0 < load["busy_share"] < 1.0
            assert 0.0 <= load["wait_p50_s"] <= load["wait_p99_s"]
            assert load["requests"]["replica-state"] > 0
        # The client and the unspread servers talk to cluster-k0 only.
        primary = loads["coordinator:cluster-k0"]["requests"]
        assert primary["rpc-submit"] == primary["task-result"] == 32
        assert "work-request" not in loads["coordinator:cluster-k1"]["requests"]


# ------------------------------------------------------------- one result object
class TestOneResultObject:
    """A result exists once: every holder files the object its server built."""

    def _run(self, produced):
        services = default_registry()
        services.register(ServiceSpec("rows", fn=lambda: produced))
        grid = build_confined_cluster(n_servers=2, n_coordinators=1, seed=3, services=services)
        grid.start()
        client = grid.client
        handles = []

        def application():
            for _ in range(4):
                handle = yield from client.call_async("rows", exec_time=1.0)
                handles.append(handle)
            yield from client.wait_all(handles)

        assert grid.run_until(grid.run_process(application(), name="app"), timeout=600.0)
        return grid, handles

    def test_server_coordinator_and_client_hold_one_object(self):
        produced = {"rows": [1, 2, [3, 4]]}
        grid, handles = self._run(produced)
        coordinator = grid.coordinators[0]
        for handle in handles:
            key = handle.description.identity
            result = handle.result
            assert coordinator.results[key] is result
            logged = [
                server.result_log.get(key).payload
                for server in grid.servers
                if key in server.result_log
            ]
            assert any(payload is result for payload in logged), key
            # Snapshotted once, when produced: no holder aliases the service's
            # own object.
            assert result.value == produced and result.value is not produced
            assert result.value["rows"][2] is not produced["rows"][2]

    def test_client_log_files_the_description_itself(self):
        grid, handles = self._run({"rows": []})
        for handle in handles:
            assert grid.client.log.get(handle.description.identity).payload is handle.description
