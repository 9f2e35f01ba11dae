"""Unit tests for the core protocol building blocks (no full grid)."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest

from repro.core.protocol import (
    CallDescription,
    ResultRecord,
    TASK_DESCRIPTION_BYTES,
    TaskRecord,
)
from repro.core.registry import CoordinatorRegistry
from repro.core.replication import ReplicaState, build_state, merge_state
from repro.core.services import ServiceRegistry, ServiceSpec, default_registry
from repro.core.session import Session
from repro.core.synchronization import (
    merge_max_timestamps,
    plan_client_sync,
    plan_server_sync,
)
from repro.core.taskindex import TaskIndex
from repro.errors import ConfigurationError, SchedulingError, ServiceNotRegistered
from repro.policies.resolve import make_policy
from repro.policies.scheduling import FifoReschedulePolicy
from repro.types import Address, CallIdentity, TaskState


def make_identity(counter: int, user: str = "u", session: str = "s") -> CallIdentity:
    return CallIdentity(user, session, counter)


def make_task(counter: int, state: TaskState = TaskState.PENDING, owner: str = "k0") -> TaskRecord:
    call = CallDescription(
        identity=make_identity(counter), service="sleep", params_bytes=100, exec_time=1.0
    )
    return TaskRecord(call=call, state=state, owner=owner, submitted_at=float(counter))


class TestProtocolRecords:
    def test_wire_bytes_includes_description(self):
        call = CallDescription(identity=make_identity(1), service="s", params_bytes=100)
        assert call.wire_bytes == 100 + TASK_DESCRIPTION_BYTES

    def test_task_record_replica_roundtrip(self):
        task = make_task(5, state=TaskState.ONGOING)
        task.assigned_server = Address("server", "s3")
        task.archive_holder = "coordinator:k1"
        restored = TaskRecord.from_replica_entry(task.to_replica_entry())
        assert restored.identity == task.identity
        assert restored.state is TaskState.ONGOING
        assert restored.assigned_server == Address("server", "s3")
        assert restored.archive_holder == "coordinator:k1"

    def test_result_record_is_frozen_and_compares_by_value(self):
        result = ResultRecord(
            identity=make_identity(9), size_bytes=123,
            produced_by=Address("server", "s1"), produced_at=4.0, value=None,
        )
        with pytest.raises(FrozenInstanceError):
            result.value = {"late": True}
        # Slotted, and nothing besides the archive's own fields rides on it.
        assert not hasattr(result, "__dict__") and not hasattr(result, "meta")
        assert result == ResultRecord(
            identity=make_identity(9), size_bytes=123,
            produced_by=Address("server", "s1"), produced_at=4.0,
        )

    def test_identity_and_description_travel_by_reference(self):
        # One object per call: replica entries carry the identity and the
        # description themselves, so every record rebuilt from them files
        # the call under the same objects.
        identity = make_identity(7, user="alice", session="alice-s1")
        call = CallDescription(identity=identity, service="sleep", params_bytes=1)
        task = TaskRecord(call=call)
        restored = TaskRecord.from_replica_entry(task.to_replica_entry())
        assert restored.call is call and restored.identity is identity


class TestSession:
    def test_allocation_is_monotonic(self):
        session = Session.open("alice")
        timestamps = [session.allocate().rpc for _ in range(5)]
        assert timestamps == sorted(timestamps)
        assert len(set(timestamps)) == 5

    def test_restore_counter_never_reuses_timestamps(self):
        session = Session.open("alice")
        session.allocate()
        session.restore_counter(10)
        assert session.allocate().rpc == 11

    def test_restore_counter_never_goes_backwards(self):
        session = Session.open("alice")
        for _ in range(5):
            session.allocate()
        session.restore_counter(2)
        assert session.allocate().rpc == 6

    def test_sessions_have_unique_ids(self):
        assert Session.open("a").session_id != Session.open("a").session_id


class TestCoordinatorRegistry:
    def _registry(self, n=3):
        return CoordinatorRegistry(
            coordinators=[Address("coordinator", f"k{i}") for i in range(n)]
        )

    def test_preferred_defaults_to_first(self):
        registry = self._registry()
        assert registry.preferred() == Address("coordinator", "k0")

    def test_switch_away_from_suspected(self):
        registry = self._registry()
        new = registry.switch_preferred(away_from=Address("coordinator", "k0"))
        assert new == Address("coordinator", "k1")
        assert Address("coordinator", "k0") in registry.suspected

    def test_rehabilitate_clears_suspicion(self):
        registry = self._registry()
        registry.switch_preferred(away_from=Address("coordinator", "k0"))
        registry.rehabilitate(Address("coordinator", "k0"))
        assert Address("coordinator", "k0") not in registry.suspected

    def test_all_suspected_falls_back_to_round_robin(self):
        registry = self._registry(2)
        registry.suspect(Address("coordinator", "k0"))
        registry.suspect(Address("coordinator", "k1"))
        assert registry.switch_preferred() is not None
        assert not registry.suspected  # forgiveness reset

    def test_set_preferred_requires_membership(self):
        registry = self._registry()
        with pytest.raises(ConfigurationError):
            registry.set_preferred(Address("coordinator", "unknown"))

    def test_merge_adds_only_new(self):
        registry = self._registry(2)
        added = registry.merge(
            [Address("coordinator", "k1"), Address("coordinator", "k9")]
        )
        assert added == 1
        assert len(registry.coordinators) == 3

    def test_ring_successor_skips_suspected(self):
        registry = self._registry(3)
        me = Address("coordinator", "k0")
        assert registry.ring_successor(me) == Address("coordinator", "k1")
        registry.suspect(Address("coordinator", "k1"))
        assert registry.ring_successor(me) == Address("coordinator", "k2")

    def test_ring_successor_alone_is_none(self):
        registry = CoordinatorRegistry(coordinators=[Address("coordinator", "k0")])
        assert registry.ring_successor(Address("coordinator", "k0")) is None

    def test_empty_registry_preferred_is_none(self):
        registry = CoordinatorRegistry(coordinators=[])
        assert registry.preferred() is None
        assert registry.switch_preferred() is None

    def test_duplicate_entries_deduplicated(self):
        a = Address("coordinator", "k0")
        registry = CoordinatorRegistry(coordinators=[a, a])
        assert len(registry.coordinators) == 1


def indexed(*records: TaskRecord) -> TaskIndex:
    return TaskIndex({r.identity: r for r in records})


class TestScheduler:
    SERVER = Address("server", "s0")

    def test_fcfs_picks_oldest_pending(self):
        scheduler = FifoReschedulePolicy()
        index = indexed(*(make_task(i) for i in (3, 1, 2)))
        decision = scheduler.pick(index, self.SERVER, "k0", lambda _o: False, now=10.0)
        assert decision.task is not None
        assert decision.task.identity.rpc == 1
        assert decision.task.state is TaskState.ONGOING
        assert decision.task.assigned_server == self.SERVER

    def test_finished_tasks_never_scheduled(self):
        scheduler = FifoReschedulePolicy()
        index = indexed(make_task(1, state=TaskState.FINISHED))
        assert scheduler.nothing_eligible(index, "k0", lambda _o: True)
        with pytest.raises(SchedulingError):
            scheduler.pick(index, self.SERVER, "k0", lambda _o: False, now=0.0)

    def test_ongoing_foreign_task_held_until_owner_suspected(self):
        scheduler = FifoReschedulePolicy()
        index = indexed(make_task(1, state=TaskState.ONGOING, owner="coordinator:other"))
        assert scheduler.nothing_eligible(index, "k0", lambda _o: False)
        with pytest.raises(SchedulingError):
            scheduler.pick(index, self.SERVER, "k0", lambda _o: False, now=0.0)
        assert not scheduler.nothing_eligible(index, "k0", lambda _o: True)
        released = scheduler.pick(index, self.SERVER, "k0", lambda _o: True, now=0.0)
        assert released.task is not None
        assert released.task.owner == "k0"

    def test_own_ongoing_task_not_rescheduled_by_pick(self):
        scheduler = FifoReschedulePolicy()
        index = indexed(make_task(1, state=TaskState.ONGOING, owner="k0"))
        assert scheduler.nothing_eligible(index, "k0", lambda _o: True)
        with pytest.raises(SchedulingError):
            scheduler.pick(index, self.SERVER, "k0", lambda _o: True, now=0.0)

    def test_reschedule_for_suspected_server(self):
        scheduler = FifoReschedulePolicy()
        task = make_task(1, state=TaskState.ONGOING, owner="k0")
        task.assigned_server = self.SERVER
        reset = scheduler.reschedule_for_suspected_server(indexed(task), self.SERVER, "k0")
        assert len(reset) == 1
        assert task.state is TaskState.PENDING
        assert task.assigned_server is None

    def test_reschedule_respects_config_switch(self):
        scheduler = make_policy(
            "scheduler",
            {"name": "policy.sched.fifo-reschedule", "params": {"reschedule": False}},
        )
        assert isinstance(scheduler, FifoReschedulePolicy)
        task = make_task(1, state=TaskState.ONGOING, owner="k0")
        task.assigned_server = self.SERVER
        assert scheduler.reschedule_for_suspected_server(indexed(task), self.SERVER, "k0") == []
        assert task.state is TaskState.ONGOING

    def test_attempts_incremented_on_assignment(self):
        scheduler = FifoReschedulePolicy()
        task = make_task(1)
        scheduler.pick(indexed(task), self.SERVER, "k0", lambda _o: False, now=0.0)
        assert task.attempts == 1


class TestReplication:
    def test_build_state_full_and_incremental(self):
        tasks = {make_task(i).identity: make_task(i) for i in range(4)}
        full = build_state("k0", tasks, {}, [], only_keys=None)
        assert len(full.entries) == 4
        some_key = next(iter(tasks))
        partial = build_state("k0", tasks, {}, [], only_keys={some_key})
        assert len(partial.entries) == 1

    def test_state_snapshots_the_tables_it_lists(self):
        tasks = {make_task(1).identity: make_task(1)}
        timestamps = {("u", "s"): 3}
        coordinators = [("coordinator", "k1")]
        state = build_state("k0", tasks, timestamps, coordinators)
        assert len(state.entries) == 1
        assert state.client_timestamps == timestamps
        assert state.known_coordinators == coordinators
        # The abstract travels as is, so it must not alias the sender's
        # live tables.
        assert state.client_timestamps is not timestamps
        assert state.known_coordinators is not coordinators

    def test_state_keeps_session_keys_whole(self):
        # A user id may contain any separator: the (user, session) keys
        # travel as the tuples they are, so a backup that takes over answers
        # the session's true maximum timestamp.
        timestamps = {("a//b", "a//b-s1"): 7, ("u", "s"): 3}
        state = build_state("k0", {}, timestamps, [])
        assert state.size_bytes == 64 * len(timestamps)
        backup: dict = {}
        merge_state({}, backup, state)
        assert backup[("a//b", "a//b-s1")] == 7

    def test_size_excludes_params_of_finished_tasks(self):
        pending = make_task(1)
        finished = make_task(2, state=TaskState.FINISHED)
        tasks = {
            pending.identity: pending,
            finished.identity: finished,
        }
        state = build_state("k0", tasks, {}, [])
        assert state.size_bytes == 2 * TASK_DESCRIPTION_BYTES + pending.call.params_bytes

    def test_merge_adds_new_tasks(self):
        source_task = make_task(1)
        state = build_state(
            "k0", {source_task.identity: source_task}, {}, []
        )
        local: dict = {}
        outcome = merge_state(local, {}, state)
        assert outcome.new_tasks == 1
        assert len(local) == 1

    def test_merge_respects_state_precedence(self):
        key = make_task(1).identity
        local = {key: make_task(1, state=TaskState.FINISHED)}
        incoming = build_state("k1", {key: make_task(1, state=TaskState.PENDING)}, {}, [])
        outcome = merge_state(local, {}, incoming)
        assert outcome.updated_tasks == 0
        assert local[key].state is TaskState.FINISHED

    def test_merge_reports_newly_finished(self):
        key = make_task(1).identity
        local = {key: make_task(1, state=TaskState.ONGOING)}
        incoming = build_state("k1", {key: make_task(1, state=TaskState.FINISHED)}, {}, [])
        outcome = merge_state(local, {}, incoming)
        assert len(outcome.newly_finished) == 1
        assert local[key].state is TaskState.FINISHED

    def test_merge_is_idempotent(self):
        key = make_task(1).identity
        incoming = build_state("k1", {key: make_task(1, state=TaskState.FINISHED)}, {}, [])
        local: dict = {}
        merge_state(local, {}, incoming)
        outcome = merge_state(local, {}, incoming)
        assert outcome.new_tasks == 0
        assert outcome.updated_tasks == 0
        assert outcome.newly_finished == []

    def test_merge_advances_timestamps_monotonically(self):
        timestamps = {("u", "s"): 5}
        state = ReplicaState(origin="k1", client_timestamps={("u", "s"): 3})
        outcome = merge_state({}, timestamps, state)
        assert outcome.timestamps_advanced == 0
        assert timestamps[("u", "s")] == 5


class TestSynchronizationPlans:
    def test_client_sync_plan_partitions_keys(self):
        plan = plan_client_sync(
            client_durable_keys=[1, 2, 3],
            coordinator_known_keys=[2, 3, 4],
            coordinator_finished_keys=[3, 4],
        )
        assert plan.client_must_resend == [1]
        assert plan.client_lost == [4]
        assert plan.results_available == [3, 4]
        assert plan.coordinator_max_timestamp == 4

    def test_client_sync_plan_in_sync(self):
        plan = plan_client_sync([1, 2], [1, 2], [])
        assert not plan.client_must_resend and not plan.client_lost

    def test_server_sync_plan(self):
        plan = plan_server_sync(
            server_result_keys=[("u", "s", 1), ("u", "s", 2)],
            coordinator_finished_keys=[("u", "s", 2)],
            coordinator_assigned_keys=[("u", "s", 3)],
        )
        assert plan.server_must_resend == [("u", "s", 1)]
        assert plan.already_finished == [("u", "s", 2)]
        assert plan.coordinator_must_requeue == [("u", "s", 3)]

    def test_merge_max_timestamps_only_moves_forward(self):
        mine = {("u", "s"): 5, ("u", "t"): 1}
        advanced = merge_max_timestamps(mine, {("u", "s"): 3, ("u", "t"): 4, ("v", "s"): 2})
        assert advanced == 2
        assert mine == {("u", "s"): 5, ("u", "t"): 4, ("v", "s"): 2}


class TestServices:
    def test_default_registry_contains_benchmark_services(self):
        registry = default_registry()
        assert registry.has("sleep")
        assert registry.has("echo")
        assert registry.has("network-validation")

    def test_unknown_service_raises(self):
        with pytest.raises(ServiceNotRegistered):
            ServiceRegistry().get("nope")

    def test_register_and_execute(self):
        registry = ServiceRegistry()
        registry.register(ServiceSpec("add", fn=lambda a, b: a + b))
        assert registry.get("add").execute((2, 3)) == 5
        assert registry.get("add").execute({"a": 1, "b": 2}) == 3

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceSpec(name="")
        with pytest.raises(ConfigurationError):
            ServiceSpec(name="x", default_exec_time=-1.0)

    def test_execute_without_callable_is_identity(self):
        spec = ServiceSpec(name="sim-only")
        assert spec.execute({"x": 1}) == {"x": 1}
