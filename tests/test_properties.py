"""Property-based tests (hypothesis) on the protocol's core invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LoggingConfig
from repro.core.protocol import CallDescription, TaskRecord, identity_to_key
from repro.core.registry import CoordinatorRegistry
from repro.core.replication import build_state, merge_state, state_precedence
from repro.core.session import Session
from repro.core.synchronization import merge_max_timestamps, plan_client_sync, plan_server_sync
from repro.msglog.garbage import GarbageCollector
from repro.msglog.log import MessageLog
from repro.net.transport import Network
from repro.nodes.node import Host
from repro.sim.core import Environment
from repro.sim.rng import RandomStreams
from repro.types import Address, CallIdentity, RPCId, SessionId, TaskState, UserId

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

key_sets = st.sets(st.integers(min_value=1, max_value=200), max_size=40)

task_states = st.sampled_from(list(TaskState))


def make_task(counter: int, state: TaskState, owner: str = "k0") -> TaskRecord:
    identity = CallIdentity(UserId("u"), SessionId("s"), RPCId(counter))
    call = CallDescription(identity=identity, service="sleep", params_bytes=10, exec_time=1.0)
    return TaskRecord(call=call, state=state, owner=owner, submitted_at=float(counter))


# ---------------------------------------------------------------------------
# Synchronization plans
# ---------------------------------------------------------------------------


class TestSyncPlanProperties:
    @given(client=key_sets, known=key_sets, finished=key_sets)
    @settings(max_examples=60, deadline=None)
    def test_client_sync_plan_partitions_are_disjoint_and_complete(self, client, known, finished):
        plan = plan_client_sync(client, known, finished & known)
        resend = set(plan.client_must_resend)
        lost = set(plan.client_lost)
        # What only the client has must be resent; what only the coordinator
        # has was lost by the client; nothing is in both sets.
        assert resend == client - known
        assert lost == known - client
        assert not (resend & lost)
        # The coordinator's max timestamp bounds everything it knows.
        assert all(k <= plan.coordinator_max_timestamp for k in known)

    @given(server=key_sets, finished=key_sets, assigned=key_sets)
    @settings(max_examples=60, deadline=None)
    def test_server_sync_plan_covers_every_server_key(self, server, finished, assigned):
        plan = plan_server_sync(server, finished, assigned)
        assert set(plan.server_must_resend) | set(plan.already_finished) == server
        assert set(plan.coordinator_must_requeue) == assigned - server - finished

    @given(
        mine=st.dictionaries(st.tuples(st.text(max_size=3), st.text(max_size=3)),
                             st.integers(min_value=0, max_value=100), max_size=10),
        theirs=st.dictionaries(st.tuples(st.text(max_size=3), st.text(max_size=3)),
                               st.integers(min_value=0, max_value=100), max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_timestamp_merge_is_monotone_and_idempotent(self, mine, theirs):
        merged = dict(mine)
        merge_max_timestamps(merged, theirs)
        for key, value in mine.items():
            assert merged[key] >= value
        for key, value in theirs.items():
            assert merged.get(key, 0) >= value
        again = dict(merged)
        assert merge_max_timestamps(again, theirs) == 0
        assert again == merged


# ---------------------------------------------------------------------------
# Replication merge
# ---------------------------------------------------------------------------


class TestReplicationProperties:
    @given(
        local_states=st.lists(task_states, min_size=1, max_size=15),
        incoming_states=st.lists(task_states, min_size=1, max_size=15),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_never_regresses_task_state(self, local_states, incoming_states):
        local = {}
        for index, state in enumerate(local_states):
            task = make_task(index, state)
            local[identity_to_key(task.identity)] = task
        before = {key: task.state for key, task in local.items()}

        incoming_tasks = {}
        for index, state in enumerate(incoming_states):
            task = make_task(index, state, owner="k1")
            incoming_tasks[identity_to_key(task.identity)] = task
        state_abstract = build_state("k1", incoming_tasks, {}, [])

        merge_state(local, {}, state_abstract)
        for key, old_state in before.items():
            assert state_precedence(local[key].state) >= state_precedence(old_state)

    @given(incoming_states=st.lists(task_states, min_size=1, max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_merge_is_idempotent(self, incoming_states):
        incoming_tasks = {}
        for index, state in enumerate(incoming_states):
            task = make_task(index, state, owner="k1")
            incoming_tasks[identity_to_key(task.identity)] = task
        abstract = build_state("k1", incoming_tasks, {}, [])
        local: dict = {}
        merge_state(local, {}, abstract)
        snapshot = {key: task.state for key, task in local.items()}
        outcome = merge_state(local, {}, abstract)
        assert outcome.new_tasks == 0 and outcome.updated_tasks == 0
        assert {key: task.state for key, task in local.items()} == snapshot


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------


class TestSessionProperties:
    @given(restores=st.lists(st.integers(min_value=0, max_value=1000), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_timestamps_strictly_increase_across_restores(self, restores):
        session = Session.open("alice")
        issued = []
        for restore in restores:
            issued.append(session.allocate().rpc.value)
            session.restore_counter(restore)
        issued.append(session.allocate().rpc.value)
        assert issued == sorted(issued)
        assert len(set(issued)) == len(issued)


# ---------------------------------------------------------------------------
# Registry / ring
# ---------------------------------------------------------------------------


class TestRegistryProperties:
    @given(
        n=st.integers(min_value=2, max_value=8),
        suspected=st.sets(st.integers(min_value=0, max_value=7), max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_ring_successor_is_never_self_and_never_suspected(self, n, suspected):
        coordinators = [Address("coordinator", f"k{i}") for i in range(n)]
        registry = CoordinatorRegistry(coordinators=list(coordinators))
        for index in suspected:
            if index < n:
                registry.suspect(coordinators[index])
        me = coordinators[0]
        successor = registry.ring_successor(me)
        if successor is not None:
            assert successor != me
            assert successor not in registry.suspected
        else:
            # Only possible when every other coordinator is suspected.
            assert all(c in registry.suspected for c in coordinators if c != me)

    @given(n=st.integers(min_value=1, max_value=8), switches=st.integers(min_value=0, max_value=20))
    @settings(max_examples=40, deadline=None)
    def test_switch_preferred_always_returns_a_member(self, n, switches):
        coordinators = [Address("coordinator", f"k{i}") for i in range(n)]
        registry = CoordinatorRegistry(coordinators=list(coordinators))
        for _ in range(switches):
            preferred = registry.switch_preferred(away_from=registry.preferred())
            assert preferred in coordinators


# ---------------------------------------------------------------------------
# Message log garbage collection
# ---------------------------------------------------------------------------


class TestGarbageCollectionProperties:
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=40),
        acked_mask=st.lists(st.booleans(), min_size=1, max_size=40),
        capacity=st.integers(min_value=500, max_value=20_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_gc_never_flushes_unacked_records(self, sizes, acked_mask, capacity):
        env = Environment()
        host = Host(env, Network(env), Address("client", "c"), rng=RandomStreams(0))
        log = MessageLog(host, "out")
        unacked = set()
        for index, size in enumerate(sizes):
            log.append(index, {}, size)
            log.mark_durable(index)
            if index < len(acked_mask) and acked_mask[index]:
                log.mark_acked(index)
            else:
                unacked.add(index)
        collector = GarbageCollector(log, LoggingConfig(capacity_bytes=capacity))
        collector.maybe_collect()
        # Every unacknowledged record must still be there.
        assert unacked <= log.keys()
        log.check_integrity()
