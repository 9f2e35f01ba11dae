"""Volatile hosts.

A :class:`Host` is one machine of the grid.  It owns:

* a network :class:`~repro.net.transport.Endpoint` (its mailbox),
* a :class:`~repro.nodes.disk.DiskModel` and a *persistent* key/value space
  that survives crashes (this is where message logs and databases live),
* the set of simulation processes currently running on it.

``crash()`` kills every process, empties the mailbox and bumps the
*incarnation* counter; ``restart()`` brings the endpoint back up and invokes
the restart callback installed by the component, which rebuilds its volatile
state from the persistent space — exactly the paper's fault model ("every
restarting component restarts from the beginning of its execution or from its
last local state").
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import Any

from repro.errors import ConfigurationError
from repro.net.transport import Endpoint, Network
from repro.nodes.disk import DiskModel
from repro.sim.core import Environment, Process
from repro.sim.monitor import Monitor
from repro.sim.rng import RandomStreams
from repro.types import Address

__all__ = ["Host"]


class Host:
    """One volatile machine hosting exactly one protocol component."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        address: Address,
        disk: DiskModel | None = None,
        rng: RandomStreams | None = None,
        monitor: Monitor | None = None,
    ) -> None:
        self.env = env
        self.network = network
        self.address = address
        self.disk = disk or DiskModel()
        self.rng = rng or RandomStreams(0)
        self.monitor = monitor or Monitor()
        self.endpoint: Endpoint = network.register(address)

        #: True while the machine (and its component) is up.
        self.up = True
        #: incremented on every restart; lets stale callbacks detect they
        #: belong to a previous incarnation.
        self.incarnation = 0
        #: data that survives crashes (disk contents: logs, databases, ...).
        self.persistent: dict[str, Any] = {}
        #: data lost on crash (rebuilt by the component on restart).
        self.volatile: dict[str, Any] = {}

        self._processes: list[Process] = []
        self._restart_callback: Callable[["Host"], None] | None = None
        #: crash hooks (e.g. heartbeat emitters reclaiming their pending
        #: kernel-lane timers); removable.
        self._crash_hooks: list[Callable[["Host"], None]] = []

        # availability bookkeeping
        #: instant of the last crash or restart (creation before either).
        self.last_transition = env.now
        self.total_uptime = 0.0
        self.total_downtime = 0.0
        self.crash_count = 0

    # -- component wiring --------------------------------------------------------
    def on_restart(self, callback: Callable[["Host"], None]) -> None:
        """Install the component's restart hook (called by ``restart()``)."""
        self._restart_callback = callback

    def add_crash_hook(self, hook: Callable[["Host"], None]) -> None:
        """Register an additional crash hook (idempotent; see remove_crash_hook).

        Used by helpers that schedule kernel callback-lane work on behalf of
        this host (e.g. heartbeat emitters) so a crash reclaims their pending
        entries the same way it kills the host's processes.
        """
        if hook not in self._crash_hooks:
            self._crash_hooks.append(hook)

    def remove_crash_hook(self, hook: Callable[["Host"], None]) -> None:
        """Deregister a crash hook installed with add_crash_hook (idempotent)."""
        try:
            self._crash_hooks.remove(hook)
        except ValueError:
            pass

    # -- process management --------------------------------------------------------
    def spawn(
        self, generator: Generator, name: str | None = None
    ) -> Process:
        """Start a simulation process belonging to this host.

        The process is killed if the host crashes.
        """
        if not self.up:
            raise ConfigurationError(f"cannot spawn on crashed host {self.address}")
        process = self.env.process(generator, name=name or f"{self.address}:proc")
        self._processes.append(process)
        self._processes = [p for p in self._processes if p.is_alive]
        return process

    def alive_processes(self) -> list[Process]:
        """Processes of this host that have not terminated yet."""
        self._processes = [p for p in self._processes if p.is_alive]
        return list(self._processes)

    # -- crash / restart --------------------------------------------------------
    def crash(self, cause: Any = "fault-injection") -> None:
        """Abrupt failure: kill processes, drop mailbox and volatile state."""
        if not self.up:
            return
        self.up = False
        self.crash_count += 1
        now = self.env.now
        self.total_uptime += now - self.last_transition
        self.last_transition = now

        for process in self.alive_processes():
            process.kill(cause)
        self._processes.clear()
        self.volatile.clear()
        self.network.set_endpoint_up(self.address, False)
        self.monitor.incr(f"faults.{self.address.kind}")
        self.monitor.trace(now, "crash", address=str(self.address), cause=str(cause))
        for hook in list(self._crash_hooks):  # hooks may deregister themselves
            hook(self)

    def restart(self) -> None:
        """Restart after a crash; the component rebuilds from persistent state."""
        if self.up:
            return
        now = self.env.now
        self.total_downtime += now - self.last_transition
        self.last_transition = now
        self.up = True
        self.incarnation += 1
        self.network.set_endpoint_up(self.address, True)
        self.monitor.incr(f"restarts.{self.address.kind}")
        self.monitor.trace(now, "restart", address=str(self.address))
        if self._restart_callback is not None:
            self._restart_callback(self)

    # -- timed local operations ---------------------------------------------------
    def sleep(self, duration: float):
        """Timeout event for ``duration`` seconds of local (in)activity."""
        return self.env.timeout(max(duration, 0.0))

    def disk_write(self, size_bytes: int) -> Generator:
        """Process fragment: a synchronous disk write of ``size_bytes``."""
        yield self.env.timeout(self.disk.sync_write_time(size_bytes))

    def disk_read(self, size_bytes: int) -> Generator:
        """Process fragment: a disk read of ``size_bytes``."""
        yield self.env.timeout(self.disk.read_time(size_bytes))

    # -- messaging ---------------------------------------------------------------
    def send(self, message) -> None:
        """Send a message through the network (no-op while crashed)."""
        if not self.up:
            return
        self.network.send(message)

    def recv_many(self):
        """Event for the same-tick batch of delivered messages (FIFO list).

        One receiver resume per tick however many messages land — the
        batched-wakeup drain path (see :meth:`Endpoint.recv_many`).
        """
        return self.endpoint.recv_many()

    def on_message(self, handler: Callable[[Any], None]) -> None:
        """Handle deliveries in place instead of receiving them in a process.

        ``handler(message)`` runs from the delivery callback; like a spawned
        receive loop it is gone after a crash, so ``start()`` installs it.
        """
        if not self.up:
            raise ConfigurationError(f"cannot receive on crashed host {self.address}")
        self.endpoint.handler = handler

    # -- reporting ---------------------------------------------------------------
    def availability(self) -> float:
        """Fraction of elapsed time this host has been up so far."""
        now = self.env.now
        up = self.total_uptime
        down = self.total_downtime
        if self.up:
            up += now - self.last_transition
        else:
            down += now - self.last_transition
        total = up + down
        return 1.0 if total == 0 else up / total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "down"
        return f"<Host {self.address} {state} incarnation={self.incarnation}>"
