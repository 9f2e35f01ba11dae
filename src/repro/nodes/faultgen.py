"""Controllable fault generator.

The paper built "a fault generator, running as a remotely controllable
daemon [that], upon order, or from its own initiative with respect to its
configuration, kills abruptly the RPC-V component of the hosting machine".
This module reproduces its modes as three registered components, one class
each:

* ``inject.rate`` (:class:`FaultGenerator`) — autonomous Poisson kills and
  restarts over one tier, parameterised by the aggregate fault frequency
  exactly as swept in Figure 7;
* ``inject.churn`` (:class:`ChurnInjector`) — per-host volatility driven by
  a :class:`~repro.nodes.churn.ChurnModel` (desktop-grid churn);
* ``inject.script`` (:class:`FaultScript`) — an explicit timetable of
  kill/restart events and condition-triggered steps, used for the labelled
  scenarios of Figures 10 and 11.

Every class is a component in the structural sense of
:class:`repro.platform.component.Component`: a plain ``name`` attribute, a
constructor taking only plain (JSON-able) parameters and validating them, a
``setup(grid)`` binding the environment, hosts, RNG streams and monitor
off the :class:`~repro.grid.builder.Grid`, and ``start``/``stop``
driving the injection loop.  Every injector counts the live hosts it kills
in a plain ``injected`` attribute (the ``faults_injected`` output of a
benchmark cell).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.nodes.churn import ChurnModel, ExponentialChurn, TraceChurn
from repro.nodes.node import Host
from repro.platform.registry import component
from repro.sim.core import ProcessKilled

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.grid.builder import Grid

__all__ = [
    "ChurnInjector",
    "FaultGenerator",
    "FaultScript",
]


@component("inject.rate")
class FaultGenerator:
    """Injects independent, exponentially-distributed faults over one tier.

    ``faults_per_minute`` is the aggregate rate over the tier's hosts (the
    x-axis of Figure 7); each fault picks a victim uniformly at random, kills
    it abruptly, then restarts it after ``restart_delay`` seconds (set to
    ``float('inf')`` for permanent failures).
    """

    def __init__(
        self,
        target: str = "servers",
        faults_per_minute: float = 0.0,
        restart_delay: float = 5.0,
        name: str | None = None,
    ) -> None:
        if faults_per_minute < 0:
            raise ConfigurationError("faults_per_minute must be non-negative")
        if restart_delay < 0:
            raise ConfigurationError("restart_delay must be non-negative")
        self.name = name or f"faultgen-{target}"
        self.target = target
        self.faults_per_minute = faults_per_minute
        self.restart_delay = restart_delay
        #: faults injected so far (the ``faults_injected`` output).
        self.injected = 0
        self._running = False

    def setup(self, grid: "Grid") -> None:
        self.env = grid.env
        self.hosts = grid.hosts_of(self.target)
        self.rng = grid.rng
        self.monitor = grid.monitor

    # -- autonomous operation -----------------------------------------------------
    def start(self) -> None:
        """Start injecting faults (no-op at rate 0)."""
        if self.faults_per_minute <= 0 or not self.hosts or self._running:
            return
        self._running = True
        self.env.process(self._run(), name=f"{self.name}:driver")

    def stop(self) -> None:
        """Stop injecting further faults (in-flight restarts still happen)."""
        self._running = False

    def _run(self):
        mean_gap = 60.0 / self.faults_per_minute
        while self._running:
            gap = self.rng.exponential(f"{self.name}.gap", mean_gap)
            yield self.env.timeout(gap)
            if not self._running:  # pragma: no cover - stopped meanwhile
                return
            victims = [h for h in self.hosts if h.up]
            if not victims:  # pragma: no cover - every target down
                continue
            victim = self.rng.choice(f"{self.name}.victim", victims)
            self.kill(victim)

    # -- manual orders ("upon order") ------------------------------------------------
    def kill(self, host: Host) -> None:
        """Kill ``host`` now; schedule its restart unless permanently down."""
        if not host.up:  # pragma: no cover - an order for a host already down
            return
        self.injected += 1
        self.monitor.incr("faultgen.kills")
        host.crash(cause=self.name)
        if self.restart_delay != float("inf"):
            self.env.process(
                self._restart_later(host, self.restart_delay),
                name=f"{self.name}:restart",
            )

    def _restart_later(self, host: Host, delay: float):
        try:
            yield self.env.timeout(delay)
        except ProcessKilled:  # pragma: no cover - defensive
            return
        if not host.up:
            host.restart()
            self.monitor.incr("faultgen.restarts")


@component("inject.churn")
class ChurnInjector:
    """Per-host volatility: every host of a tier churns independently.

    Unlike :class:`FaultGenerator` (one aggregate Poisson rate over the tier),
    every host lives through its own up-time / down-time cycle drawn from the
    model, as a volatile desktop-grid node would: it crashes when its up-time
    expires and returns after its down-time — or never, when the model draws a
    permanent departure.

    The availability schedule comes from, in order of precedence: a
    ``trace`` CSV file of absolute ``node,up,down``
    availability intervals (see :meth:`repro.nodes.churn.TraceChurn.from_csv`;
    ``trace_mode`` decides whether an exhausted trace wraps or clamps the
    node down permanently), inline deterministic ``trace_pairs``
    (``[[up, down], ...]`` durations), or the exponential MTBF/MTTR model.
    """

    def __init__(
        self,
        target: str = "servers",
        mtbf: float = 600.0,
        mttr: float = 30.0,
        permanent_fraction: float = 0.0,
        trace: str | None = None,
        trace_mode: str = "wrap",
        trace_pairs: Sequence[Sequence[float]] | None = None,
        name: str | None = None,
    ) -> None:
        self.name = name or f"churn-{target}"
        self.target = target
        if trace is not None:
            self.model = TraceChurn.from_csv(trace, mode=trace_mode)
        elif trace_pairs is not None:
            self.model = TraceChurn(
                pairs=[(float(up), float(down)) for up, down in trace_pairs],
                mode=trace_mode,
            )
        else:
            self.model = ExponentialChurn(
                mtbf=mtbf, mttr=mttr, permanent_fraction=permanent_fraction
            )
        #: departures injected so far (the ``faults_injected`` output).
        self.injected = 0
        self._running = False

    def setup(self, grid: "Grid") -> None:
        self.env = grid.env
        self.hosts = grid.hosts_of(self.target)
        self.rng = grid.rng
        self.monitor = grid.monitor

    def start(self) -> None:
        """Start one volatility loop per host (idempotent)."""
        if self._running or not self.hosts:  # pragma: no cover - started twice, or no host
            return
        self._running = True
        for host in self.hosts:
            self.env.process(
                self._host_loop(host), name=f"{self.name}:{host.address}"
            )

    def stop(self) -> None:
        """Stop injecting further churn (in-flight restarts still happen)."""
        self._running = False

    def _host_loop(self, host: Host):
        node = str(host.address)
        while self._running:
            uptime = self.model.uptime(self.rng, node)
            if uptime == float("inf"):
                return
            yield self.env.timeout(uptime)
            if not self._running:  # pragma: no cover - stopped meanwhile
                return
            downtime = self.model.downtime(self.rng, node)
            if host.up:
                self.injected += 1
                self.monitor.incr("churn.departures")
                host.crash(cause=self.name)
            if downtime == float("inf"):  # pragma: no cover - a trace's permanent departure
                self.monitor.incr("churn.permanent")
                return
            yield self.env.timeout(downtime)
            if not host.up:
                host.restart()
                self.monitor.incr("churn.returns")


@component("inject.script")
class FaultScript:
    """Deterministic kill/restart scripts (the Figs. 10-11 style).

    Two declarative forms, combinable:

    ``events`` — an absolute timetable: ``{"time": ..., "action": "kill" |
    "restart", "target": "<host>"}`` records, times relative to the
    component's start.

    ``steps`` — a *sequential conditional program*, for scripts that trigger
    on system state rather than wall-clock time (Figure 10 kills the primary
    once ~40 % of the campaign has completed).  Steps run in order; each may
    carry:

    * ``"until"``: a condition polled every ``"poll"`` seconds (default 10)
      before the step's action fires —
      ``{"kind": "finished-count", "coordinator": "lille", "at_least": N}``
      (that coordinator knows ≥ N finished tasks) or
      ``{"kind": "caught-up", "coordinator": "lille", "reference": "orsay",
      "margin": M}`` (lille's count is within M of orsay's);
    * ``"after"``: a plain delay in seconds (instead of, or with, nothing);
    * ``"do"``: ``"kill"`` / ``"restart"`` (needs ``"target"``) or ``"note"``
      (record only);
    * ``"label"`` / ``"note"``: recorded with the firing time in
      :attr:`recorded` — the labelled event log the figures annotate.

    Both forms name a host the way :meth:`Grid.host
    <repro.grid.builder.Grid.host>` does: its full address
    (``"server:s000"``) or its bare name (``"s000"``).  An unknown target
    fails at setup, before anything runs.
    """

    _CONDITIONS = ("finished-count", "caught-up")

    def __init__(
        self,
        events: Sequence[Mapping[str, Any]] = (),
        steps: Sequence[Mapping[str, Any]] = (),
        name: str | None = None,
    ) -> None:
        self.name = name or "fault-script"
        timetable: list[tuple[float, str, str]] = []
        for event in events:
            action = event.get("action")
            if action not in ("kill", "restart"):
                raise ConfigurationError(
                    f"unknown scripted action {action!r} (kill or restart)"
                )
            if not event.get("target"):
                raise ConfigurationError(
                    f"scripted event {dict(event)!r} needs a 'target'"
                )
            try:
                time = float(event["time"])
            except (KeyError, TypeError, ValueError):
                raise ConfigurationError(
                    f"scripted event {dict(event)!r} needs a numeric 'time'"
                ) from None
            if time < 0:
                raise ConfigurationError("scripted event time must be non-negative")
            timetable.append((time, action, str(event["target"])))
        #: the timetable as ``(time, action, target)``, in firing order.
        self.events = sorted(timetable, key=lambda event: event[0])
        self.steps = [dict(step) for step in steps]
        for step in self.steps:
            do = step.get("do")
            if do not in (None, "kill", "restart", "note"):
                raise ConfigurationError(
                    f"unknown step action {do!r} (kill, restart or note)"
                )
            if do in ("kill", "restart") and not step.get("target"):
                raise ConfigurationError(f"step {step!r} needs a 'target'")
            try:
                step["poll"] = float(step.get("poll", 10.0))
                if step.get("after") is not None:
                    step["after"] = float(step["after"])
            except (TypeError, ValueError) as error:
                raise ConfigurationError(
                    f"step {step!r} has a non-numeric timing value: {error}"
                ) from None
            until = step.get("until")
            if until is None:
                continue
            if not isinstance(until, Mapping):
                raise ConfigurationError(
                    f"step condition must be a mapping, got {until!r}"
                )
            kind = until.get("kind")
            if kind not in self._CONDITIONS:
                raise ConfigurationError(
                    f"unknown step condition {kind!r} "
                    f"(one of: {', '.join(self._CONDITIONS)})"
                )
            required = (
                ("coordinator", "at_least")
                if kind == "finished-count"
                else ("coordinator", "reference")
            )
            missing = [key for key in required if key not in until]
            if missing:
                raise ConfigurationError(
                    f"step condition {dict(until)!r} is missing "
                    f"{', '.join(missing)}"
                )
            # Coerce the numeric threshold now (steps often come from
            # hand-written JSON/YAML specs): a malformed value must fail
            # here, not as a TypeError at the first in-simulation poll.
            until = step["until"] = dict(until)
            try:
                if kind == "finished-count":
                    until["at_least"] = float(until["at_least"])
                else:
                    until["margin"] = float(until.get("margin", 0))
            except (TypeError, ValueError) as error:
                raise ConfigurationError(
                    f"step condition {dict(until)!r} has a non-numeric "
                    f"threshold: {error}"
                ) from None
        #: labelled events the steps recorded, in firing order.
        self.recorded: list[dict[str, Any]] = []
        #: live hosts killed so far, by either form (``faults_injected``).
        self.injected = 0

    def setup(self, grid: "Grid") -> None:
        self.env = grid.env
        self.grid = grid
        self.monitor = grid.monitor
        # Fail fast on a target no host of this grid matches: events and
        # steps resolve alike, through grid.host.
        targets = [target for _, _, target in self.events]
        targets += [str(step["target"]) for step in self.steps if step.get("target")]
        self._hosts: dict[str, Host] = {}
        unknown = set()
        for target in targets:
            try:
                self._hosts[target] = grid.host(target)
            except ConfigurationError:  # pragma: no cover - a typo in the script
                unknown.add(target)
        if unknown:
            raise ConfigurationError(
                f"fault script targets unknown hosts: {sorted(unknown)}"
            )
        # The coordinator names inside step conditions get the same fail-fast
        # treatment — a typo must not surface mid-simulation at the first poll.
        coordinators = {c.address.name for c in self.grid.coordinators}
        for step in self.steps:
            until = step.get("until")
            if until is None:
                continue
            named = {
                str(until[key])
                for key in ("coordinator", "reference")
                if key in until
            }
            missing = named - coordinators
            if missing:
                raise ConfigurationError(
                    f"step condition references unknown coordinators: "
                    f"{sorted(missing)} (known: {sorted(coordinators)})"
                )

    def start(self) -> None:
        if self.events:
            self.env.process(self._run_events(), name=self.name)
        if self.steps:
            self.env.process(self._run_steps(), name=f"{self.name}:steps")

    def stop(self) -> None:
        """Nothing to reclaim: the drivers run their scripts to the end."""

    def _run_events(self):
        env = self.env
        start = env.now
        for time, action, target in self.events:
            delay = max(0.0, start + time - env.now)
            if delay:
                yield env.timeout(delay)
            self._act(action, target)

    def _act(self, action: str, target: str) -> None:
        """Kill or restart ``target``; a kill of a down host injects nothing."""
        host = self._hosts[target]
        self.monitor.incr(f"faultscript.{action}s")
        if action == "restart":
            host.restart()
        elif host.up:
            self.injected += 1
            host.crash(cause=self.name)

    # ------------------------------------------------------------ step driver
    def _satisfied(self, condition: Mapping[str, Any]) -> bool:
        kind = condition["kind"]
        coordinator = self.grid.coordinator_by_name(str(condition["coordinator"]))
        if kind == "finished-count":
            return coordinator.finished_count() >= condition["at_least"]
        # caught-up: coordinator's count within margin of the reference's.
        reference = self.grid.coordinator_by_name(str(condition["reference"]))
        margin = condition.get("margin", 0)
        return coordinator.finished_count() >= reference.finished_count() - margin

    def _run_steps(self):
        env = self.env
        for step in self.steps:
            until = step.get("until")
            if until is not None:
                # __init__ coerced poll/after to floats (fail-fast contract).
                while not self._satisfied(until):
                    yield env.timeout(step["poll"])
            after = step.get("after")
            if after:
                yield env.timeout(after)
            do = step.get("do")
            if do in ("kill", "restart"):
                self._act(do, str(step["target"]))
            if step.get("label") is not None or step.get("note") is not None:
                record: dict[str, Any] = {}
                if step.get("label") is not None:
                    record["label"] = step["label"]
                if step.get("note") is not None:
                    record["event"] = step["note"]
                record["time"] = env.now
                self.recorded.append(record)
