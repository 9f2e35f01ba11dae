"""The half of a client or a server that faces its coordinator.

RPC-V's interactions are connection-less, and clients and servers use them
the same way: they talk only to their *preferred coordinator*, re-send a
request that got no reply within ``request_retry`` seconds, move to another
coordinator once the current one is suspected, and then resynchronise from
their own log.  :class:`CoordinatorLink`, the base class of both components,
does that once: the heart-beat and detector lifecycle, the dispatch of every
incoming message, the one request primitive with its waiter table, and the
one time-out and switch rule.  README's "Requests and retries" section says
what a time-out does for each kind of request.
"""

from __future__ import annotations

from typing import Any

from repro.config import ClientConfig, PolicyConfig, ServerConfig
from repro.core.registry import CoordinatorRegistry
from repro.detect import FailureDetector, HeartbeatEmitter
from repro.net.message import Message, MessageType
from repro.nodes.node import Host
from repro.sim.core import Event
from repro.sim.monitor import Monitor
from repro.types import Address

__all__ = ["CoordinatorLink"]


class CoordinatorLink:
    """Requests, time-outs, coordinator switches and heart-beats of one role.

    A subclass sets :attr:`role` (the prefix of its counters and traces) and
    :attr:`heartbeat_type`, and provides ``_init_volatile`` (the state a
    crash loses), ``_spawn_loops``, ``_heartbeat_payload``, ``_on_message``
    (after a message woke its request) and the ``synchronize(coordinator)``
    generator a switch spawns.
    """

    role: str
    heartbeat_type: MessageType
    config: ClientConfig | ServerConfig
    detector: FailureDetector

    def __init__(
        self,
        host: Host,
        registry: CoordinatorRegistry,
        config: ClientConfig | ServerConfig,
        monitor: Monitor | None,
        policies: PolicyConfig | None,
    ) -> None:
        self.host = host
        self.env = host.env
        self.address: Address = host.address
        #: component name (the address string).
        self.name = str(host.address)
        self.registry = registry
        self.config = config
        config.validate()
        self.monitor = monitor or host.monitor
        #: the ``policy.*`` selection this component's policies come from.
        self.policies = policies or PolicyConfig()
        #: (coordinator, reply type), or submission timestamp -> waiting
        #: requests, oldest first (see _request).
        self._waiters: dict[Any, list[Event]] = {}
        self.started = False
        self._heartbeat: HeartbeatEmitter | None = None
        host.on_restart(lambda _host: self.start())

    # ------------------------------------------------------------- lifecycle
    def setup(self, grid) -> None:
        """Component lifecycle hook: the grid tier wiring already bound
        everything this component needs."""

    def start(self) -> None:
        """(Re)start on the host: called once by the grid and
        again by the host on every restart."""
        self._init_volatile()
        self._waiters = {}
        self.started = True
        if self._heartbeat is not None:
            self._heartbeat.stop()
        for coordinator in self.registry.known():
            self.detector.watch(coordinator, self.env.now)
        self.host.on_message(self._dispatch)
        self._spawn_loops()
        self._heartbeat = HeartbeatEmitter(
            host=self.host,
            config=self.config.detection,
            mtype=self.heartbeat_type,
            targets=lambda: [self.registry.preferred()],
            payload=self._heartbeat_payload,
        )
        self._heartbeat.start()

    def stop(self) -> None:
        """Retire the component: cancel the heart-beat timer (idempotent).

        The host's simulation processes are not killed — that would be a
        crash, not a shutdown — they simply stop mattering once the
        environment stops advancing.
        """
        self.started = False
        if self._heartbeat is not None:
            self._heartbeat.stop()

    def preferred_coordinator(self) -> Address | None:
        """The coordinator this component currently talks to."""
        return self.registry.preferred()

    # ------------------------------------------------------------- requests
    def _dispatch(self, message: Message) -> None:
        # Any message proves its sender alive; a reply wakes the oldest
        # request waiting in its slot, which names the reply's sender
        # except for a submission's ack.  Identity tests pick the slot,
        # since a table lookup would hash the enum member in Python.
        source = message.source
        self.detector.heard_from(source, self.env.now)
        self.registry.rehabilitate(source)
        if self._waiters:
            mtype = message.mtype
            if mtype is MessageType.SUBMIT_ACK:
                slot = int(message.payload.get("timestamp", 0))
            elif mtype is MessageType.NO_WORK:
                slot = (source, MessageType.TASK_ASSIGN)
            else:
                slot = (source, mtype)
            waiters = self._waiters.get(slot)
            if waiters:
                waiter = waiters.pop(0)
                if not waiters:
                    del self._waiters[slot]
                waiter.succeed(message)
        self._on_message(message)

    def _request(
        self, message: Message, expect: MessageType, key: Any = None, hold: float = 0.0
    ):
        """Send ``message``; wait ``request_retry`` seconds for its reply,
        plus ``hold``, the time the coordinator may keep it open before
        answering (a work request's window).

        The reply is the first ``expect`` message (``TASK_ASSIGN`` also
        stands for ``NO_WORK``) from ``message.dest`` to arrive while this
        request is the oldest one waiting for it.  A ``SUBMIT_ACK`` is
        matched by its ``key`` instead, the submission's timestamp, from
        whichever coordinator sends it: any ack means the call is
        registered.  A request that times out leaves the table, so a late
        reply cannot resume it.  Generator returning the reply message, or
        ``None`` on time-out.
        """
        slot = (message.dest, expect) if key is None else key
        waiter = self.env.event()
        self._waiters.setdefault(slot, []).append(waiter)
        self.host.send(message)
        yield from self.env.wait_any(
            [waiter], timeout=self.config.request_retry + hold
        )
        if waiter.triggered:
            return waiter.value
        waiters = self._waiters.get(slot)
        if waiters is not None and waiter in waiters:
            waiters.remove(waiter)
            if not waiters:
                del self._waiters[slot]
        return None

    def _timed_out(self, coordinator: Address, counter: str) -> None:
        """A request to ``coordinator`` went unanswered: count it under
        ``counter``, and switch away once the detector suspects it.

        Under the default fixed-timeout detection that is silence beyond
        ``suspicion_timeout`` seconds; until then the caller re-sends to the
        same coordinator.  A time-out from a coordinator this component has
        already left switches nothing: the caller re-sends to the preferred
        one.
        """
        self.monitor.incr(counter)
        if coordinator == self.registry.preferred() and self.detector.is_suspected(
            coordinator, self.env.now
        ):
            self.switch_coordinator(away_from=coordinator)

    def switch_coordinator(self, away_from: Address | None = None) -> Address | None:
        """Suspect ``away_from`` (the preferred coordinator by default) and
        move to another one; a move resynchronises with the new one."""
        previous = self.registry.preferred()
        new = self.registry.switch_preferred(away_from=away_from or previous)
        if new is not None and new != previous:
            self.monitor.incr(f"{self.role}.coordinator_switches")
            self.monitor.trace(
                self.env.now,
                f"{self.role}-switch",
                **{self.role: self.name},
                from_coordinator=str(previous) if previous else None,
                to_coordinator=str(new),
            )
            self.host.spawn(self.synchronize(new), name=f"{self.name}:sync")
        return new
