"""Built-in registered components beyond fault injection.

These are declarative building blocks a :class:`~repro.scenarios.spec.
ScenarioSpec` can name in its ``components:`` list (or code can pass to
``build_grid(components=...)`` / ``grid.add_component(...)``) without touching
any wiring code:

* ``net.partition-schedule`` — timed partitions/heals over the partition
  manager (split-brain and one-way visibility rules);
* ``detect.heartbeat``       — an auxiliary heart-beat beacon from one tier
  of hosts to arbitrary targets.

The fault injectors (``inject.rate``, ``inject.churn``,
``inject.correlated``, ``inject.script``) live with the hosts they kill, in
:mod:`repro.nodes.faultgen`.

Every class here follows the same shape: a constructor taking only plain
(JSON-able) parameters, a ``setup(builder)`` pulling the substrate off the
:class:`~repro.platform.builder.Builder`, and ``start``/``stop`` driving the
underlying mechanism.  They double as reference implementations for custom
components (see ``examples/custom_component.py``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.detect.heartbeat import HeartbeatEmitter
from repro.errors import ConfigurationError
from repro.net.message import MessageType
from repro.platform.component import BaseComponent
from repro.platform.registry import component

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.platform.builder import Builder

__all__ = ["HeartbeatBeacon", "PartitionSchedule"]


@component("net.partition-schedule")
class PartitionSchedule(BaseComponent):
    """Timed partition/heal events over the partition manager.

    ``events`` entries (times relative to the component's start):

    * ``{"time": t, "action": "partition", "partition": "name",
      "group_a": [...], "group_b": [...]}`` — install a named symmetric
      partition; groups are host-name lists or tier selectors
      (``"servers"`` / ``"coordinators"`` / ``"clients"``);
    * ``{"time": t, "action": "heal", "partition": "name"}`` — remove it;
    * ``{"time": t, "action": "hide", "dest": "x", "source": "y"}`` /
      ``{"time": t, "action": "unhide", ...}`` — visibility rules.  ``dest``
      and ``source`` may each be one host name or a tier selector
      (``"servers"`` / ``"coordinators"`` / ``"clients"``), expanding to the
      cross product; ``"bidirectional": true`` hides each pair both ways
      (the mutually inconsistent views of Figure 11);
    * ``{"time": t, "action": "heal-all"}`` — remove everything.
    """

    _ACTIONS = ("partition", "heal", "hide", "unhide", "heal-all")

    def __init__(
        self,
        events: Sequence[Mapping[str, Any]] = (),
        name: str | None = None,
    ) -> None:
        super().__init__(name or "partition-schedule")
        for event in events:
            if event.get("action") not in self._ACTIONS:
                raise ConfigurationError(
                    f"unknown partition action {event.get('action')!r} "
                    f"(one of: {', '.join(self._ACTIONS)})"
                )
            if "time" not in event:
                raise ConfigurationError(
                    f"partition event {dict(event)!r} has no 'time'"
                )
        self.events = sorted((dict(e) for e in events), key=lambda e: e["time"])
        #: events applied so far (the ``faults_injected`` output): a run
        #: under a partition schedule is a faulted run.
        self.injected = 0
        self._builder: "Builder | None" = None

    def setup(self, builder: "Builder") -> None:
        self._builder = builder

    def _addresses(self, group: Any) -> list:
        """A group spec -> addresses: a tier selector, one host name, or a list."""
        builder = self._builder
        assert builder is not None
        if isinstance(group, str):
            try:
                return [host.address for host in builder.hosts(group)]
            except ConfigurationError:
                return [builder.host(group).address]
        return [builder.host(entry).address for entry in group]

    def _apply(self, event: Mapping[str, Any]) -> None:
        builder = self._builder
        assert builder is not None
        partitions = builder.partitions
        action = event["action"]
        if action == "partition":
            partitions.partition(
                str(event.get("partition", self.name)),
                self._addresses(event["group_a"]),
                self._addresses(event["group_b"]),
            )
        elif action == "heal":
            partitions.heal(str(event.get("partition", self.name)))
        elif action in ("hide", "unhide"):
            rule = partitions.hide if action == "hide" else partitions.unhide
            for dest in self._addresses(event["dest"]):
                for source in self._addresses(event["source"]):
                    if dest == source:
                        continue
                    rule(dest, from_source=source)
                    if event.get("bidirectional"):
                        rule(source, from_source=dest)
        else:  # heal-all
            partitions.heal_all()
        self.injected += 1

    def start(self) -> None:
        builder = self._builder
        assert builder is not None, "setup() must run before start()"
        if not self.events:
            return
        env = builder.env
        immediate = [e for e in self.events if e["time"] <= 0]
        timed = [e for e in self.events if e["time"] > 0]
        # Zero-time events apply synchronously so a partition declared "from
        # the start" is in force before the first message is ever routed.
        for event in immediate:
            self._apply(event)
        if timed:
            def driver():
                start = env.now
                for event in timed:
                    delay = start + float(event["time"]) - env.now
                    if delay > 0:
                        yield env.timeout(delay)
                    self._apply(event)

            env.process(driver(), name=f"{self.name}:driver")


@component("detect.heartbeat")
class HeartbeatBeacon(BaseComponent):
    """Auxiliary heart-beat emitters from one tier to arbitrary targets.

    Attaches one :class:`~repro.detect.heartbeat.HeartbeatEmitter` per host
    of ``tier``, beating to ``targets`` (a tier selector or explicit host
    names) every ``period`` seconds — e.g. an out-of-band liveness signal a
    custom detection policy consumes.  The protocol components' own emitters
    are untouched; this is *extra* signal.  A host crash reclaims its
    emitter's pending beat (the emitter's own crash hook) and a restart
    re-arms it (the beacon's restart hook), so the beacon keeps beating
    through churn exactly like the tier components' emitters do.
    """

    def __init__(
        self,
        tier: str = "servers",
        targets: str | Sequence[str] = "coordinators",
        period: float | None = None,
        mtype: str = MessageType.PING.value,
        name: str | None = None,
    ) -> None:
        super().__init__(name or f"heartbeat-{tier}")
        self.tier = tier
        self.targets = targets
        self.period = period
        self.mtype = MessageType(mtype)
        self.emitters: list[HeartbeatEmitter] = []
        self._running = False

    def setup(self, builder: "Builder") -> None:
        detection = builder.config.server.detection
        if self.period is not None:
            detection = replace(detection, heartbeat_period=self.period)
        if isinstance(self.targets, str):
            target_addresses = lambda: [
                host.address for host in builder.hosts(self.targets)
            ]
        else:
            fixed = [builder.host(entry).address for entry in self.targets]
            target_addresses = lambda: fixed
        self.emitters = [
            HeartbeatEmitter(
                host=host,
                config=detection,
                mtype=self.mtype,
                targets=target_addresses,
            )
            for host in builder.hosts(self.tier)
        ]

    def start(self) -> None:
        self._running = True
        for emitter in self.emitters:
            if emitter.host.up:
                emitter.start()
            # Crashed hosts stop beating through the emitter's own crash
            # hook; the restart hook re-arms the beat when they return (and
            # arms hosts that were already down at start time).
            emitter.host.add_restart_hook(self._on_host_restart)

    def stop(self) -> None:
        self._running = False
        for emitter in self.emitters:
            emitter.host.remove_restart_hook(self._on_host_restart)
            emitter.stop()

    def _on_host_restart(self, host) -> None:
        if not self._running:
            return
        for emitter in self.emitters:
            if emitter.host is host:
                emitter.start()

    @property
    def sent(self) -> int:
        """Total beats sent across every emitter."""
        return sum(emitter.sent for emitter in self.emitters)
