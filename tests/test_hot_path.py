"""Contracts the per-message fast paths lean on.

Each path replaced a slower one in place; the slower definition lives on here
as the reference model the fast one must agree with.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FaultDetectionConfig
from repro.core.registry import CoordinatorRegistry
from repro.detect.emitter import HeartbeatEmitter
from repro.grid.builder import build_confined_cluster
from repro.net.message import Message, MessageType
from repro.net.partition import PartitionManager
from repro.net.transport import Network
from repro.nodes.node import Host
from repro.scenarios import GridTopology, WorkloadSpec, execute_benchmark
from repro.sim.core import AnyOf, Environment
from repro.sim.rng import RandomStreams, jitter_factor
from repro.sim.store import Store
from repro.types import Address
from tests.support import PerfectLinkModel

A = Address("client", "a")
B = Address("server", "b")
C = Address("server", "c")


class TestAddress:
    def test_hashes_and_compares_as_its_tuple(self):
        # The dataclass it replaced hashed (kind, name) by hand: same values,
        # so set / dict iteration order did not move.
        assert hash(B) == hash(("server", "b"))
        assert B == Address("server", "b") and B != C
        assert len({B, Address("server", "b"), C}) == 2

    def test_equals_the_plain_tuple(self):
        """Tuple semantics are the price of C-level hashing: documented here."""
        assert B == ("server", "b")
        assert {B: 1}[("server", "b")] == 1

    def test_orders_lexicographically_by_kind_then_name(self):
        shuffled = [C, A, Address("coordinator", "z"), B]
        assert sorted(shuffled) == [A, Address("coordinator", "z"), B, C]
        assert A < B < C

    def test_str_and_repr_are_unchanged(self):
        assert str(B) == f"{B}" == "server:b"
        assert repr(B) == "Address(kind='server', name='b')"

    def test_survives_pickling_and_payload_reconstruction(self):
        clone = pickle.loads(pickle.dumps(B))
        assert clone == B and type(clone) is Address
        # Payloads carry addresses as a (kind, name) pair; the receiver
        # rebuilds the address and uses it as a key.
        table = {B: "endpoint"}
        assert table[Address(*["server", "b"])] == "endpoint"
        assert table[Address(*(B.kind, B.name))] == "endpoint"


class TestJitterFactor:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_draws_exactly_what_uniform_draws(self, seed, fraction):
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(1000):
            drawn = jitter_factor(ours, fraction)
            assert type(drawn) is float
            assert drawn == float(reference.uniform(1.0 - fraction, 1.0 + fraction))
        # One double each per draw: the streams stay in lockstep.
        assert ours.bit_generator.state == reference.bit_generator.state


@pytest.fixture
def wired():
    """A zero-latency network with A and B attached; returns (env, network, b)."""
    env = Environment()
    network = Network(env, PerfectLinkModel(), rng=RandomStreams(1))
    network.register(A)
    return env, network, network.register(B)


def _ping() -> Message:
    return Message(MessageType.PING, A, B)


class TestPartitionGate:
    def test_allows_is_never_entered_without_a_rule(self, wired, monkeypatch):
        env, network, b = wired
        entered = []
        real = PartitionManager.allows

        def counting(self, source, dest):
            entered.append((source, dest))
            return real(self, source, dest)

        monkeypatch.setattr(PartitionManager, "allows", counting)
        for _ in range(5):
            network.send(_ping())
        env.run()
        assert b.delivered == 5 and entered == []
        # ...and is consulted again as soon as one exists, at both ends.
        network.partitions.hide(C, from_source=A)
        network.send(_ping())
        env.run()
        assert b.delivered == 6 and entered == [(A, B), (A, B)]

    def test_a_rule_installed_mid_flight_blocks_delivery_and_next_send(self, wired):
        env, network, b = wired
        network.send(_ping())  # in flight: no rule existed at send time
        network.partitions.hide(B, from_source=A)
        network.send(_ping())  # dropped at send
        env.run()
        assert b.delivered == 0
        assert network.stats()["net.dropped.partition"] == 2

    def test_active_turns_on_with_the_first_rule(self):
        partitions = PartitionManager()
        assert not partitions.active and partitions.allows(A, B)
        partitions.hide(A, from_source=B)
        assert partitions.active and partitions.allows(A, B)
        assert not partitions.allows(B, A)


def _reference_preferred(registry: CoordinatorRegistry) -> Address | None:
    """The list-based definition ``preferred()`` used to execute."""
    if not registry.coordinators:
        return None
    candidates = registry.unsuspected()
    if not candidates:
        return None
    current = registry.coordinators[
        registry._preferred_index % len(registry.coordinators)
    ]
    return current if current in candidates else candidates[0]


class TestRegistryFastPaths:
    @settings(max_examples=200, deadline=None)
    @given(
        size=st.integers(min_value=0, max_value=5),
        steps=st.lists(
            st.tuples(
                st.sampled_from(["suspect", "rehabilitate", "switch", "merge"]),
                st.integers(min_value=0, max_value=6),
            ),
            max_size=30,
        ),
    )
    def test_preferred_and_by_name_agree_with_the_list_walk(self, size, steps):
        pool = [Address("coordinator", f"k{i}") for i in range(7)]
        registry = CoordinatorRegistry(pool[:size])
        for action, index in steps:
            target = pool[index]
            if action == "switch":
                registry.switch_preferred(target if index % 2 else None)
            elif action == "merge":
                registry.merge([target])
            else:
                getattr(registry, action)(target)
            assert registry.preferred() == _reference_preferred(registry)
            for address in pool:
                known = address if address in registry.coordinators else None
                assert registry.by_name(str(address)) == known

    def test_by_name_survives_the_list_being_replaced(self):
        k0, k1 = Address("coordinator", "k0"), Address("coordinator", "k1")
        registry = CoordinatorRegistry([k0, k1])
        assert registry.by_name("coordinator:k0") == k0
        registry.coordinators = [k1]  # what the partitioned-views component does
        assert registry.by_name("coordinator:k0") is None
        assert registry.by_name("coordinator:k1") == k1


class TestHeartbeatSnapshot:
    @pytest.mark.parametrize(
        "payload, mutate",
        [
            (
                {"working_on": ["u", "s", 3], "session": ("u", "s"), "load": 0.5},
                lambda p: p["working_on"].append(4),
            ),
            (
                {"abstract": {"known": [["coordinator", "k0"]]}},
                lambda p: p["abstract"]["known"][0].append("k1"),
            ),
        ],
        ids=["flat", "nested"],
    )
    def test_mutation_after_the_beat_reaches_no_sent_message(self, payload, mutate):
        env = Environment()
        network = Network(env, PerfectLinkModel(), rng=RandomStreams(1))
        host = Host(env, network, B, rng=RandomStreams(2))
        target = Host(env, network, A, rng=RandomStreams(3))
        expected = pickle.loads(pickle.dumps(payload))
        expected["incarnation"] = 0
        emitter = HeartbeatEmitter(
            host=host,
            config=FaultDetectionConfig(),
            mtype=MessageType.SERVER_HEARTBEAT,
            targets=lambda: [A],
            payload=lambda: payload,
        )
        assert emitter.beat_now() == 1
        mutate(payload)
        env.run()
        assert target.endpoint.mailbox.items[0].payload == expected
        assert "incarnation" not in payload  # the stamp went on the copy


class TestDirectWaitLeavesNothingBehind:
    """A wait that ends any other way than its expiry cancels the expiry."""

    def test_kill_mid_wait_reclaims_the_expiry(self):
        env = Environment()
        reply = env.event()

        def requester():
            yield from env.wait_any([reply], timeout=30.0)

        before = env.queue_stats()["live_entries"]
        process = env.process(requester())
        env.run(until=1.0)
        assert env.queue_stats()["live_entries"] == before + 1 and reply.callbacks
        process.kill("crash")
        env.run(until=2.0)
        after = env.queue_stats()
        # The expiry is tombstoned: nothing live is left in the heap, and the
        # long-lived event lost its waiter.
        assert after["live_entries"] == before and not process.is_alive
        assert after["heap_size"] == after["dead_entries"]
        assert reply.callbacks == []
        env.run()
        assert env.now == 2.0  # no stray expiry dragged the clock to the deadline


class TestEventBudget:
    def test_steady_backlog_shape_stays_within_its_events_per_message(self, monkeypatch):
        """A count, not a timing: the smoke-scale ``steady-backlog`` cell.

        4.9 kernel events per delivered message before waits and mailboxes
        stopped paying for intermediate events, about 3.4 since, and 2.9
        since an empty work answer sleeps through no charge.  A result ack
        that carries the next task cut events 16,702 -> 13,755 and messages
        5,791 -> 4,705 alike, so the ratio stays 2.9; so did holding an idle
        server's work request (12,091 events, 4,137 messages).  The
        fault-free path builds no ``AnyOf`` (every race is one event against
        a time-out) and a batch wake has no finalize callback left to queue.
        """
        races = []
        real_init = AnyOf.__init__

        def counting_init(self, env, events):
            races.append(type(self))
            real_init(self, env, events)

        monkeypatch.setattr(AnyOf, "__init__", counting_init)
        report = execute_benchmark(
            GridTopology(n_servers=64, spread_servers=True),
            WorkloadSpec(n_calls=200, exec_time=1.0),
            seed=7,
            horizon=50_000.0,
            record_kernel=True,
        )
        assert report.completed == report.submitted == 200
        delivered = report.counters["net.delivered"]
        assert report.kernel["events_processed"] / delivered <= 3.0
        assert races == []
        assert not hasattr(Store, "_finalize_batch")


class TestHandlerEndpoints:
    def test_pure_dispatchers_hold_no_receive_process_and_rearm_on_restart(self):
        """Server and client dispatch on delivery; the coordinator keeps its
        process because its handlers sleep (it is the service queue)."""
        grid = build_confined_cluster(
            n_servers=2, n_coordinators=1, seed=1, spread_servers=False
        )
        grid.start()
        grid.run(until=5.0)

        def receivers(host):
            return [p.name for p in host.alive_processes() if p.name.endswith(":recv")]

        server, client = grid.hosts_of("servers")[0], grid.hosts_of("clients")[0]
        (coordinator,) = grid.hosts_of("coordinators")
        assert receivers(server) == receivers(client) == []
        assert server.endpoint.handler and client.endpoint.handler
        assert len(receivers(coordinator)) == 1 and coordinator.endpoint.handler is None
        heard = server.endpoint.delivered
        assert heard > 0 and len(server.endpoint.mailbox.items) == 0

        server.crash()
        assert server.endpoint.handler is None
        grid.run(until=20.0)
        assert server.endpoint.delivered == heard  # down: dropped, never dispatched
        server.restart()
        assert server.endpoint.handler is not None
        grid.run(until=60.0)
        assert server.endpoint.delivered > heard and len(server.endpoint.mailbox.items) == 0
