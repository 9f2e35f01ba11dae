"""Tests for the network substrate (messages, latency models, transport, partitions)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.net.latency import (
    CompositeLinkModel,
    InternetLinkModel,
    LanLinkModel,
)
from repro.net.message import (
    ENVELOPE_OVERHEAD_BYTES,
    Message,
    MessageType,
)
from repro.net.partition import PartitionManager
from repro.net.topology import Site, SiteMap
from repro.net.transport import Network
from repro.grid.deployment import internet_testbed_spec
from repro.nodes.node import Host
from repro.sim.monitor import Monitor
from repro.sim.rng import RandomStreams
from repro.types import Address
from tests.support import PerfectLinkModel


A = Address("client", "a")
B = Address("server", "b")


class TestMessage:
    def test_wire_bytes_adds_envelope(self):
        message = Message(MessageType.PING, A, B, size_bytes=100)
        assert message.wire_bytes == 100 + ENVELOPE_OVERHEAD_BYTES

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Message(MessageType.PING, A, B, size_bytes=-1)

    def test_reply_swaps_endpoints(self):
        message = Message(MessageType.PING, A, B)
        reply = message.reply(MessageType.PONG, size_bytes=5)
        assert reply.source == B and reply.dest == A
        assert reply.mtype is MessageType.PONG


class TestLatencyModels:
    def test_lan_transfer_scales_with_size(self):
        model = LanLinkModel(jitter=0.0)
        rng = RandomStreams(0).stream("x")
        small = model.transfer_time(A, B, 1_000, rng)
        large = model.transfer_time(A, B, 10_000_000, rng)
        assert large > small
        assert small >= model.latency

    def test_lan_invalid_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            LanLinkModel(bandwidth_bps=0)

    def test_internet_slower_than_lan_for_bulk(self):
        rng = RandomStreams(0)
        lan = LanLinkModel(jitter=0.0)
        wan = InternetLinkModel(stall_probability=0.0)
        size = 5_000_000
        lan_time = lan.transfer_time(A, B, size, rng.stream("a"))
        wan_time = wan.transfer_time(A, B, size, rng.stream("b"))
        assert wan_time > lan_time

    def test_internet_loss_probability_exposed(self):
        wan = InternetLinkModel(loss=0.01)
        assert wan.loss_probability(A, B) == 0.01

    def test_composite_picks_intra_or_inter(self):
        def composite(site_of_b):
            return CompositeLinkModel(
                site_of={A: "x", B: site_of_b},
                intra_site=PerfectLinkModel(latency=0.001),
                inter_site=PerfectLinkModel(latency=0.5),
            )

        rng = RandomStreams(0).stream("x")
        assert composite("y").resolve_link(A, B).transfer_time(A, B, 0, rng) == 0.5
        assert composite("x").resolve_link(A, B).transfer_time(A, B, 0, rng) == 0.001


class TestSiteMap:
    def test_place_and_lookup(self):
        site_map = SiteMap()
        site_map.add_site(Site("lille"))
        site_map.place(A, "lille")
        assert site_map.membership[A] == "lille"

    def test_place_on_unknown_site_rejected(self):
        site_map = SiteMap()
        with pytest.raises(ConfigurationError):
            site_map.place(A, "nowhere")

    def test_single_site_helper(self):
        site_map = SiteMap.single_site("cluster")
        site_map.place(A, "cluster")
        site_map.place(B, "cluster")
        link = site_map.link_model().resolve_link(A, B)
        assert link is site_map.intra_site_model is site_map.inter_site_model

    def test_every_inter_site_pair_shares_one_wan_model(self):
        # The transatlantic hop to Wisconsin is not modelled: Lille reaches
        # Wisconsin through the same WAN model, at the same median, as Orsay.
        site_map = internet_testbed_spec().site_map
        lille, orsay, wisconsin = (Address("server", name) for name in ("l", "o", "w"))
        for address, site in ((lille, "lille"), (orsay, "orsay"), (wisconsin, "wisconsin")):
            site_map.place(address, site)
        composite = site_map.link_model()
        assert composite.resolve_link(lille, wisconsin) is composite.resolve_link(lille, orsay)
        assert composite.resolve_link(lille, wisconsin) is site_map.inter_site_model

class TestPartitionManager:
    def test_allows_by_default(self):
        partitions = PartitionManager()
        assert partitions.allows(A, B)

    def test_one_way_hide(self):
        partitions = PartitionManager()
        partitions.hide(B, from_source=A)
        assert not partitions.allows(A, B)
        assert partitions.allows(B, A)

    def test_reachability_graph_excludes_blocked_edges(self):
        partitions = PartitionManager()
        partitions.hide(B, from_source=A)
        graph = partitions.reachability_graph([A, B])
        assert not graph.has_edge(A, B)
        assert graph.has_edge(B, A)


class TestNetwork:
    def test_register_and_duplicate_rejected(self, env):
        network = Network(env, PerfectLinkModel())
        network.register(A)
        with pytest.raises(ConfigurationError):
            network.register(A)

    def test_message_delivery(self, env):
        network = Network(env, PerfectLinkModel())
        network.register(A)
        endpoint_b = network.register(B)
        received = []
        endpoint_b.handler = received.append
        network.send(Message(MessageType.PING, A, B, size_bytes=10))
        env.run()
        assert network.stats()["net.delivered"] == 1
        assert len(received) == 1

    def test_unknown_destination_is_counted_dropped(self, env):
        network = Network(env, PerfectLinkModel())
        network.register(A)
        network.send(Message(MessageType.PING, A, B))
        env.run()
        assert network.stats()["net.dropped.unknown_dest"] == 1

    def test_partition_blocks_delivery(self, env):
        network = Network(env, PerfectLinkModel())
        network.register(A)
        network.register(B)
        network.partitions.hide(A, from_source=B)
        network.partitions.hide(B, from_source=A)
        network.send(Message(MessageType.PING, A, B))
        env.run()
        assert network.stats()["net.delivered"] == 0
        assert network.stats()["net.dropped.partition"] >= 1

    def test_down_endpoint_drops_message(self, env):
        network = Network(env, PerfectLinkModel())
        network.register(A)
        network.register(B)
        network.set_endpoint_up(B, False)
        network.send(Message(MessageType.PING, A, B))
        env.run()
        assert network.stats()["net.delivered"] == 0
        assert network.stats()["net.dropped.endpoint_down"] == 1

    def test_endpoint_down_drops_its_handler(self, env):
        network = Network(env, PerfectLinkModel())
        network.register(A)
        endpoint_b = network.register(B)
        received = []
        endpoint_b.handler = received.append
        network.send(Message(MessageType.PING, A, B))
        env.run()
        assert len(received) == 1
        endpoint_b.mark_down()
        assert endpoint_b.handler is None
        endpoint_b.mark_up()
        network.send(Message(MessageType.PING, A, B))
        env.run()
        # Delivered to the new incarnation, which installed no handler: dropped.
        assert network.stats()["net.delivered"] == 2 and len(received) == 1

    def test_lossy_link_eventually_drops(self, env):
        class AlwaysLossy(PerfectLinkModel):
            def loss_probability(self, source, dest):
                return 1.0

        network = Network(env, link_model=AlwaysLossy())
        network.register(A)
        network.register(B)
        for _ in range(5):
            network.send(Message(MessageType.PING, A, B))
        env.run()
        assert network.stats()["net.delivered"] == 0
        assert network.stats()["net.dropped.loss"] == 5

    def test_message_sent_while_down_not_delivered_after_restart(self, env):
        network = Network(env, PerfectLinkModel())
        network.register(A)
        endpoint_b = network.register(B)
        network.set_endpoint_up(B, False)
        network.send(Message(MessageType.PING, A, B))
        # The endpoint restarts before the message lands: the message was
        # addressed to the previous incarnation and must not leak into the
        # new one's handler.
        network.set_endpoint_up(B, True)
        received = []
        endpoint_b.handler = received.append
        env.run()
        assert network.stats()["net.delivered"] == 0
        assert received == []
        assert network.stats()["net.dropped.stale_incarnation"] == 1

    def test_restart_mid_flight_drops_in_flight_traffic(self, env):
        network = Network(env, link_model=LanLinkModel(jitter=0.0))
        network.register(A)
        network.register(B)
        network.send(Message(MessageType.PING, A, B, size_bytes=10_000))
        # Crash + restart while the message is still in flight.
        network.set_endpoint_up(B, False)
        network.set_endpoint_up(B, True)
        env.run()
        assert network.stats()["net.delivered"] == 0
        assert network.stats()["net.dropped.stale_incarnation"] == 1

    def test_mark_up_on_live_endpoint_is_a_noop(self, env):
        network = Network(env, link_model=LanLinkModel(jitter=0.0))
        network.register(A)
        endpoint_b = network.register(B)
        network.send(Message(MessageType.PING, A, B, size_bytes=10_000))
        # A defensive re-assert of "up" must not invalidate in-flight traffic.
        network.set_endpoint_up(B, True)
        env.run()
        assert endpoint_b.incarnation == 0
        assert network.stats()["net.delivered"] == 1

    def test_same_incarnation_delivery_unaffected(self, env):
        network = Network(env, PerfectLinkModel())
        network.register(A)
        network.register(B)
        network.send(Message(MessageType.PING, A, B))
        env.run()
        assert network.stats()["net.delivered"] == 1
        assert network.stats()["net.dropped.stale_incarnation"] == 0

    def test_loss_stream_consumed_uniformly(self, env):
        """Lossless sends still consume the loss stream draw-for-draw.

        This pins the determinism contract: toggling a lossy link model on a
        *different* pair does not reshuffle the loss stream consumed by the
        sends that follow.
        """
        rng_a = RandomStreams(7)
        rng_b = RandomStreams(7)
        network = Network(env, PerfectLinkModel(), rng=rng_a)
        network.register(A)
        network.register(B)
        for _ in range(5):
            network.send(Message(MessageType.PING, A, B))
        # Five sends must have consumed exactly five draws from "net.loss".
        reference = rng_b.stream("net.loss")
        _ = [reference.random() for _ in range(5)]
        assert rng_a.stream("net.loss").random() == reference.random()

    def test_counts_on_the_monitor_it_was_built_with(self, env):
        monitor = Monitor()
        network = Network(env, PerfectLinkModel(), monitor=monitor)
        network.register(A)
        network.register(B)
        network.send(Message(MessageType.PING, A, B, size_bytes=10))
        env.run()
        assert network.monitor is monitor
        assert monitor.count("net.sent") == monitor.count("net.delivered") == 1
        assert monitor.count("net.bytes_sent") == 10 + ENVELOPE_OVERHEAD_BYTES

    def test_each_pair_resolves_its_route_once(self, env):
        resolved = []

        class CountingComposite(CompositeLinkModel):
            def resolve_link(self, source, dest):
                resolved.append((source, dest))
                return super().resolve_link(source, dest)

        network = Network(
            env,
            link_model=CountingComposite(
                site_of={A: "x", B: "y"},
                intra_site=PerfectLinkModel(),
                inter_site=PerfectLinkModel(latency=0.5),
            ),
        )
        network.register(A)
        network.register(B)
        for _ in range(3):
            network.send(Message(MessageType.PING, A, B))
            network.send(Message(MessageType.PONG, B, A))
        env.run()
        assert resolved == [(A, B), (B, A)]
        assert network.stats()["net.delivered"] == 6

    def test_a_dropped_message_is_left_as_sent(self, env):
        network = Network(env, PerfectLinkModel())
        network.register(A)
        network.register(B)
        hidden = network.register(Address("server", "c")).address
        network.partitions.hide(B, from_source=hidden)
        blocked = Message(MessageType.PING, hidden, B, payload={"n": 1})
        network.send(blocked)
        network.set_endpoint_up(B, False)
        refused = Message(MessageType.PING, A, B, payload={"n": 2})
        network.send(refused)
        network.set_endpoint_up(B, True)
        network.send(Message(MessageType.PING, A, B, payload={"n": 3}))
        env.run()
        stats = network.stats()
        assert stats["net.dropped.partition"] == 1 and stats["net.delivered"] == 1
        assert stats["net.dropped.stale_incarnation"] == 1
        assert (blocked.mtype, blocked.source, blocked.dest, blocked.payload) == (
            MessageType.PING, hidden, B, {"n": 1}
        )
        assert (refused.mtype, refused.source, refused.dest, refused.payload) == (
            MessageType.PING, A, B, {"n": 2}
        )

    def test_delivery_hook_invoked(self, env):
        network = Network(env, PerfectLinkModel())
        network.register(A)
        network.register(B)
        seen = []
        network.add_delivery_hook(lambda m: seen.append(m.mtype))
        network.send(Message(MessageType.PING, A, B))
        env.run()
        assert seen == [MessageType.PING]

    def test_transfer_time_orders_delivery_by_size(self, env):
        network = Network(env, link_model=LanLinkModel(jitter=0.0), rng=RandomStreams(1))
        network.register(A)
        endpoint_b = network.register(B)
        received = []
        endpoint_b.handler = received.append
        network.send(Message(MessageType.PING, A, B, size_bytes=10_000_000))
        network.send(Message(MessageType.PONG, A, B, size_bytes=10))
        env.run()
        assert [m.mtype for m in received] == [MessageType.PONG, MessageType.PING]


class TestCrashedMailboxAndHandlers:
    """Crash / restart against handler endpoints."""

    def _handled_host(self, env):
        network = Network(env, link_model=LanLinkModel(jitter=0.0))
        network.register(A)
        host = Host(env, network, B)
        handled = []

        def start(_host=None):
            host.on_message(lambda message: handled.append((env.now, message.payload["n"])))

        host.on_restart(start)
        start()
        return network, host, handled

    def test_handler_endpoint_never_dispatches_while_down(self, env):
        network, host, handled = self._handled_host(env)
        network.send(Message(MessageType.PING, A, B, payload={"n": 0}))
        env.run()
        assert [n for _, n in handled] == [0]
        network.send(Message(MessageType.PING, A, B, payload={"n": 1}))  # in flight
        host.crash()
        assert host.endpoint.handler is None  # volatile, like a receive process
        network.send(Message(MessageType.PING, A, B, payload={"n": 2}))
        env.run()
        assert [n for _, n in handled] == [0]
        assert network.stats()["net.dropped.endpoint_down"] == 2
        with pytest.raises(ConfigurationError):
            host.on_message(print)

    def test_handler_endpoint_drops_stale_incarnation_traffic_across_a_restart(self, env):
        network, host, handled = self._handled_host(env)
        network.send(Message(MessageType.PING, A, B, payload={"n": 0}))  # to incarnation 0
        host.crash()
        network.send(Message(MessageType.PING, A, B, payload={"n": 1}))  # sent while down
        host.restart()  # on_restart installs the handler again
        network.send(Message(MessageType.PING, A, B, payload={"n": 2}))
        env.run()
        assert [n for _, n in handled] == [2]
        assert network.stats()["net.dropped.endpoint_down"] == 0
        assert network.stats()["net.dropped.stale_incarnation"] == 2

    def test_handler_runs_after_the_delivery_hooks(self, env):
        network, host, handled = self._handled_host(env)
        order = []
        network.add_delivery_hook(lambda message: order.append("hook"))
        host.on_message(lambda message: order.append("handler"))
        network.send(Message(MessageType.PING, A, B))
        env.run()
        assert order == ["hook", "handler"]
