"""Property-based tests (hypothesis) on the protocol's core invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LoggingConfig
from repro.core.protocol import CallDescription, TaskRecord
from repro.core.registry import CoordinatorRegistry
from repro.core.replication import build_state, merge_state
from repro.core.session import Session
from repro.core.synchronization import merge_max_timestamps, plan_client_sync, plan_server_sync
from repro.msglog.garbage import GarbageCollector
from repro.msglog.log import MessageLog
from repro.net.transport import Network
from repro.nodes.node import Host
from repro.runtime import RealTimeDriver
from repro.sim.core import Environment
from repro.sim.rng import RandomStreams
from repro.types import Address, CallIdentity, TaskState
from tests.support import STATE_PRECEDENCE, PerfectLinkModel, check_log_integrity, log_keys

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

key_sets = st.sets(st.integers(min_value=1, max_value=200), max_size=40)

task_states = st.sampled_from(list(TaskState))


def make_task(counter: int, state: TaskState, owner: str = "k0") -> TaskRecord:
    identity = CallIdentity("u", "s", counter)
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
            local[task.identity] = task
        before = {key: task.state for key, task in local.items()}

        incoming_tasks = {}
        for index, state in enumerate(incoming_states):
            task = make_task(index, state, owner="k1")
            incoming_tasks[task.identity] = task
        state_abstract = build_state("k1", incoming_tasks, {}, [])

        merge_state(local, {}, state_abstract)
        for key, old_state in before.items():
            assert STATE_PRECEDENCE[local[key].state] >= STATE_PRECEDENCE[old_state]

    @given(incoming_states=st.lists(task_states, min_size=1, max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_merge_is_idempotent(self, incoming_states):
        incoming_tasks = {}
        for index, state in enumerate(incoming_states):
            task = make_task(index, state, owner="k1")
            incoming_tasks[task.identity] = task
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
            issued.append(session.allocate().rpc)
            session.restore_counter(restore)
        issued.append(session.allocate().rpc)
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
        host = Host(env, Network(env, PerfectLinkModel()), Address("client", "c"), rng=RandomStreams(0))
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
        assert unacked <= log_keys(log)
        check_log_integrity(log)


# ---------------------------------------------------------------------------
# The kernel's time model (README "Thinking about time")
# ---------------------------------------------------------------------------

#: how a node of a generated schedule asks to run: lane it lands on, by rule.
_URGENT, _TICK, _HEAP = 0, 1, 2

schedule_nodes = st.lists(
    st.tuples(
        st.integers(min_value=-1, max_value=30),  # parent (-1: scheduled up front)
        st.sampled_from(["spawn", "succeed", "call_at", "timeout", "cancellable"]),
        st.sampled_from([0.0, 0.0, 0.25, 1.0, 1.0, 2.5, 7.0, 300.0]),  # delay
        st.one_of(st.none(), st.integers(min_value=0, max_value=30)),  # cancels
    ),
    min_size=1,
    max_size=30,
)


def _lane(kind: str, delay: float) -> int:
    if kind == "spawn":
        return _URGENT
    if kind == "succeed" or (delay == 0.0 and kind != "cancellable"):
        return _TICK
    return _HEAP


def _reference_order(nodes, children):
    """Sorted-list scheduler: the whole contract in one sort key.

    Entries are ``(time, lane, seq)``: urgent before same-tick before heap
    at one timestamp, FIFO inside a lane, one clock.
    """
    pending: list[tuple] = []
    seq = 0
    fired = []

    def schedule(index, now):
        nonlocal seq
        _parent, kind, delay, _cancels = nodes[index]
        lane = _lane(kind, delay)
        pending.append((now if lane != _HEAP else now + delay, lane, seq, index))
        pending.sort()
        seq += 1

    for index in children[-1]:
        schedule(index, 0.0)
    while pending:
        now, _lane_rank, _seq, index = pending.pop(0)
        fired.append((now, index))
        target = nodes[index][3]
        if target is not None and nodes[target][1] in ("timeout", "cancellable"):
            pending[:] = [entry for entry in pending if entry[3] != target]
        for child in children[index]:
            schedule(child, now)
    return fired


def _kernel_order(nodes, children, paced=False):
    env = Environment()
    fired = []
    handles: dict[int, object] = {}

    def fire(index):
        fired.append((env.now, index))
        target = nodes[index][3]
        if target in handles:
            handles.pop(target).cancel()
        for child in children[index]:
            schedule(child)

    def body(index):
        fire(index)
        return
        yield  # pragma: no cover - makes this a generator

    def schedule(index):
        _parent, kind, delay, _cancels = nodes[index]
        if kind == "spawn":
            env.process(body(index))
        elif kind == "succeed":
            event = env.event()
            event.callbacks.append(lambda _event: fire(index))
            event.succeed()
        elif kind == "call_at":
            env.call_at(env.now + delay, fire, index)
        elif kind == "timeout":
            handles[index] = timer = env.timeout(delay)
            timer.callbacks.append(lambda _event: (handles.pop(index, None), fire(index)))
        else:
            handles[index] = env.call_at_cancellable(
                env.now + delay, lambda arg: (handles.pop(arg, None), fire(arg)), index
            )

    for index in children[-1]:
        schedule(index)
    if paced:
        # Every node is scheduled at most once, so nothing fires after the
        # sum of all delays.
        clock = [0.0]
        driver = RealTimeDriver(
            env,
            sleep=lambda duration: clock.__setitem__(0, clock[0] + duration),
            clock=lambda: clock[0],
        )
        driver.run(until=sum(delay for _parent, _kind, delay, _cancels in nodes))
        assert driver.events_processed == env.events_processed
    else:
        env.run()
    assert env.queue_stats()["live_entries"] == 0
    return fired


class TestTimeModel:
    @given(raw=schedule_nodes)
    @settings(max_examples=300, deadline=None)
    def test_lanes_fire_in_the_order_of_the_sorted_list_reference(self, raw):
        # Parents precede children, so every node is scheduled at most once.
        nodes = [
            (
                parent if parent < index else -1,
                kind,
                delay,
                cancels if cancels is not None and cancels < len(raw) else None,
            )
            for index, (parent, kind, delay, cancels) in enumerate(raw)
        ]
        children: dict[int, list[int]] = {index: [] for index in range(-1, len(nodes))}
        for index, (parent, *_rest) in enumerate(nodes):
            children[parent].append(index)
        expected = _reference_order(nodes, children)
        assert _kernel_order(nodes, children) == expected
        # The realtime driver paces run() one virtual instant at a time.
        assert _kernel_order(nodes, children, paced=True) == expected


# ---------------------------------------------------------------------------
# The one placement and the one cancel routine: tombstone bookkeeping
# ---------------------------------------------------------------------------

_timer_delays = st.one_of(
    st.floats(min_value=0.001, max_value=12.0),
    st.sampled_from([0.0005, 1.0, 4.0, 300.0]),  # exact ties, far future
)

timer_steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["timeout", "one-shot", "periodic", "call_at"]), _timer_delays),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=60)),
        st.tuples(st.just("run"), st.floats(min_value=0.0, max_value=9.0)),
    ),
    min_size=1,
    max_size=60,
)


def _check_dead_count(env):
    assert env.queue_stats()["dead_entries"] == sum(
        1 for entry in env._queue if entry[2] is not None and entry[2]._cancelled
    )


class TestLaneBookkeeping:
    @given(steps=timer_steps)
    @settings(max_examples=200, deadline=None)
    def test_place_and_unschedule_keep_the_tombstone_count_exact(self, steps):
        env = Environment()
        markers = []
        for kind, value in steps:
            if kind == "timeout":
                markers.append(env.timeout(value))
            elif kind == "one-shot":
                markers.append(env.call_at_cancellable(env.now + value, lambda _a: None))
            elif kind == "periodic":
                markers.append(env.call_periodic(value, lambda _a: None))
            elif kind == "call_at":
                env.call_at(env.now + value, lambda _a: None)
            elif kind == "cancel":
                if markers:
                    markers[value % len(markers)].cancel()
            else:
                env.run(until=env.now + value)
            _check_dead_count(env)
        for marker in markers:
            marker.cancel()
        _check_dead_count(env)
        env.run()
        assert env.queue_stats()["live_entries"] == 0
