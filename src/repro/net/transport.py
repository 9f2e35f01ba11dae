"""Connection-less message transport over the simulation kernel.

The :class:`Network` is the only way components exchange data.  Its semantics
reflect the paper's platform assumptions:

* **best effort** — messages can be lost (link model) or blocked (partitions);
* **asynchronous** — per-message delays are unbounded in distribution tail;
* **connection-less** — a send is fire-and-forget; the sender learns nothing
  from the transport itself (no broken-connection fault detection);
* **volatile endpoints** — a message arriving at a crashed endpoint is lost;
  a crashed endpoint's mailbox is emptied (its volatile state is gone).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigurationError
from repro.net.latency import LinkModel, PerfectLinkModel
from repro.net.message import Message
from repro.net.partition import PartitionManager
from repro.sim.core import Environment
from repro.sim.monitor import Monitor
from repro.sim.rng import RandomStreams
from repro.sim.store import Store
from repro.types import Address

__all__ = ["Endpoint", "Network"]


class Endpoint:
    """A component's attachment point to the network (its mailbox)."""

    def __init__(self, env: Environment, address: Address) -> None:
        self.env = env
        self.address = address
        self.mailbox: Store = Store(env)
        #: when set, ``handler(message)`` runs on delivery (after the delivery
        #: hooks) and nothing is queued: for components whose receive loop
        #: would only dispatch.  It must not block, and it dies with the
        #: incarnation (mark_down), exactly as a receive process would.
        self.handler: Callable[[Message], None] | None = None
        self.up = True
        #: bumped on every mark_up(): a message stamped with an older
        #: incarnation at send time is dropped at delivery time, so traffic
        #: addressed to a dead incarnation cannot leak into the next one.
        self.incarnation = 0
        #: number of messages delivered to this endpoint since creation.
        self.delivered = 0
        #: number of messages dropped because the endpoint was down.
        self.dropped_down = 0
        #: number of messages dropped because they crossed a restart.
        self.dropped_stale = 0

    def recv_many(self):
        """Event triggering with the same-tick *batch* of delivered messages.

        The value is a list in delivery (FIFO) order.  Same-tick deliveries
        are coalesced: the first one wakes the receiver and those landing
        before the kernel resumes it join the same list — the drain path of
        a receiver that blocks while it handles (the coordinator).  Messages
        already queued trigger immediately (with the whole backlog).
        """
        return self.mailbox.get_all()

    def mark_down(self) -> int:
        """Crash semantics: drop queued messages and refuse new deliveries.

        The dropped messages include a batch already woken but not yet handed
        to its receiver.  Returns how many were dropped.
        """
        self.up = False
        self.handler = None
        return len(self.mailbox.drain())

    def mark_up(self) -> None:
        """Restart semantics: accept deliveries again (mailbox starts empty).

        The restarted endpoint is a *new incarnation*: anything still in
        flight from before (sent while it was down, or to its previous life)
        is dropped on arrival rather than delivered to the fresh mailbox.
        Idempotent — re-asserting "up" on a live endpoint must not invalidate
        its in-flight traffic.
        """
        if self.up:
            return
        self.up = True
        self.incarnation += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "down"
        return f"<Endpoint {self.address} {state} queued={len(self.mailbox)}>"


class Network:
    """The shared transport connecting every component of a scenario."""

    def __init__(
        self,
        env: Environment,
        link_model: LinkModel | None = None,
        rng: RandomStreams | None = None,
        monitor: Monitor | None = None,
        partitions: PartitionManager | None = None,
    ) -> None:
        self.env = env
        #: the link cost model, bound for the network's lifetime: the route
        #: cache below is never invalidated.
        self.link_model: LinkModel = link_model or PerfectLinkModel()
        self.rng = rng or RandomStreams(0)
        self.monitor = monitor or Monitor()
        self.partitions = partitions or PartitionManager()
        self._endpoints: dict[Address, Endpoint] = {}
        #: hooks called with every delivered message: the observation point
        #: for delivered traffic (fig6 counts log records through it).
        self._delivery_hooks: list[Callable[[Message], None]] = []
        #: per-(source, dest) cache of (transfer_time, loss_probability):
        #: the link-model resolution (e.g. the composite's site lookups) is
        #: paid once per pair, not once per message.
        self._routes: dict[tuple[Address, Address], tuple] = {}
        # Hot-path handles, resolved once per network instead of once per
        # message.
        self._loss_random = self.rng.bound("net.loss", "random")
        self._delay_stream = self.rng.stream("net.delay")
        self._c_sent = self.monitor.counter("net.sent")
        self._c_bytes_sent = self.monitor.counter("net.bytes_sent")
        self._c_delivered = self.monitor.counter("net.delivered")
        self._c_bytes_delivered = self.monitor.counter("net.bytes_delivered")

    # -- endpoint management ---------------------------------------------------
    def register(self, address: Address) -> Endpoint:
        """Create and register the endpoint for ``address``."""
        if address in self._endpoints:
            raise ConfigurationError(f"{address} already registered")
        endpoint = Endpoint(self.env, address)
        self._endpoints[address] = endpoint
        return endpoint

    def endpoint(self, address: Address) -> Endpoint:
        """Look up a registered endpoint."""
        try:
            return self._endpoints[address]
        except KeyError:
            raise ConfigurationError(f"{address} is not registered") from None

    def addresses(self) -> list[Address]:
        """All registered addresses."""
        return list(self._endpoints)

    def set_endpoint_up(self, address: Address, up: bool) -> None:
        """Mark an endpoint up/down (called by the node substrate)."""
        endpoint = self.endpoint(address)
        if up:
            endpoint.mark_up()
        else:
            endpoint.mark_down()

    def add_delivery_hook(self, hook: Callable[[Message], None]) -> None:
        """Register a callable invoked with every delivered message.

        Hooks run before the endpoint's handler.  Every send builds a fresh
        :class:`Message` and nothing recycles it, so a hook may keep the
        messages it sees and read them after the run.
        """
        self._delivery_hooks.append(hook)

    # -- sending -----------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Fire-and-forget send of ``message``.

        The message is lost when: the link model rolls a loss, the partition
        manager blocks the pair (checked both at send and at delivery time),
        the destination endpoint is down at delivery time, or the endpoint
        restarted in between (incarnation mismatch).

        Event-allocation-free per message: the delivery is a bare ``call_at``
        callback entry carrying an (message, incarnation) pair — no
        per-message Timeout/Event/closure — the loss roll and delay draw use
        the pre-bound stream handles, the link model is resolved through the
        per-pair route cache, and the counters are pre-resolved handles.
        """
        env = self.env
        now = message.sent_at = env.now
        self._c_sent.value += 1.0
        wire = message.wire_bytes
        self._c_bytes_sent.value += wire

        dest_endpoint = self._endpoints.get(message.dest)
        if dest_endpoint is None:
            self.monitor.incr("net.dropped.unknown_dest")
            return
        # Read live: a rule installed mid-run must block the very next send.
        partitions = self.partitions
        if partitions.active and not partitions.allows(message.source, message.dest):
            self.monitor.incr("net.dropped.partition")
            return

        # Determinism: consume exactly one draw from the dedicated loss
        # stream for every send, whether or not the pair is lossy, so that
        # reconfiguring the link model never reshuffles the stream for the
        # sends that follow (sweeps compare like with like).
        loss_roll = self._loss_random()
        route = self._routes.get((message.source, message.dest))
        if route is None:
            route = self._resolve_route(message.source, message.dest)
        loss_probability = route[1]
        if loss_probability > 0.0 and loss_roll < loss_probability:
            self.monitor.incr("net.dropped.loss")
            return

        delay = route[0](message.source, message.dest, wire, self._delay_stream)
        # Capture the destination's incarnation at send time (per delivery,
        # not on the message — a caller may legally re-send the same Message
        # object): a restart while in flight invalidates the delivery.  The
        # delivery time rides along, so stamping it costs no clock read.
        when = now + delay if delay > 0.0 else now
        env.call_at(when, self._deliver, (message, dest_endpoint.incarnation, when))

    def _resolve_route(self, source: Address, dest: Address) -> tuple:
        """Resolve and cache the (transfer_time, loss_probability) for a pair.

        Composite models resolve to the concrete per-pair leaf model once, so
        the per-message path skips the site lookups entirely.
        """
        model = self.link_model
        resolve = getattr(model, "resolve_link", None)
        leaf = model if resolve is None else resolve(source, dest)
        route = (leaf.transfer_time, float(leaf.loss_probability(source, dest)))
        self._routes[(source, dest)] = route
        return route

    def _deliver(self, in_flight: "tuple[Message, int | None, float]") -> None:
        message, send_incarnation, when = in_flight
        endpoint = self._endpoints.get(message.dest)
        if endpoint is None:  # pragma: no cover - endpoint removed mid-flight
            self.monitor.incr("net.dropped.unknown_dest")
            return
        partitions = self.partitions
        if partitions.active and not partitions.allows(message.source, message.dest):
            self.monitor.incr("net.dropped.partition")
            return
        if not endpoint.up:
            endpoint.dropped_down += 1
            self.monitor.incr("net.dropped.endpoint_down")
            return
        if send_incarnation is not None and endpoint.incarnation != send_incarnation:
            # Sent to a previous life of this endpoint (it was down, or it
            # restarted, in between): the volatile destination that message
            # was addressed to no longer exists.
            endpoint.dropped_stale += 1
            self.monitor.incr("net.dropped.stale_incarnation")
            return
        message.delivered_at = when
        endpoint.delivered += 1
        self._c_delivered.value += 1.0
        self._c_bytes_delivered.value += message.wire_bytes
        handler = endpoint.handler
        if handler is None:
            endpoint.mailbox.put(message)
        for hook in self._delivery_hooks:
            hook(message)
        if handler is not None:
            handler(message)

    # -- convenience -------------------------------------------------------------
    def stats(self) -> dict[str, float]:
        """Snapshot of the transport counters."""
        keys = [
            "net.sent",
            "net.delivered",
            "net.bytes_sent",
            "net.bytes_delivered",
            "net.dropped.loss",
            "net.dropped.partition",
            "net.dropped.endpoint_down",
            "net.dropped.stale_incarnation",
            "net.dropped.unknown_dest",
        ]
        return {key: self.monitor.count(key) for key in keys}
