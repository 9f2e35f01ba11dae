"""Heart-beat emission.

Connection-less interactions preclude using broken connections as a fault
signal, so RPC-V relies on periodic "heart beat" messages.  The emitter is a
small timer-driven helper a component attaches to its host; the target list
is a callable so that it always reflects the component's *current* preferred
coordinator (which changes on suspicion) and so that piggy-backed payloads
(coordinator list merges, state abstracts) are computed fresh at each beat.

Three scale-minded properties of the emitter:

* **one periodic handle per emitter** — the beat loop rides the kernel's
  :meth:`~repro.sim.core.Environment.call_periodic` lane: a single
  :class:`~repro.sim.core.TimerHandle` re-arms itself in place after
  every beat, one heap push per next tick instead of a process + Timeout
  event (or even a fresh cancel token) per beat.  Every target of a beat
  shares that single handle; the per-target work is just the message
  sends;
* **nothing left behind** — :meth:`HeartbeatEmitter.stop` cancels the
  handle, and a host crash does the same through the host's crash hooks, so
  retired emitters leave no entry in the kernel schedule;
* **one payload per beat** — the payload callable is evaluated once per beat
  and snapshotted so nested mutables (coordinator lists, state abstracts) are
  frozen in time instead of aliasing the sender's live state across every
  target and across the wire.  Already-immutable payloads (None, scalars,
  frozen mappings) skip the deep copy entirely — it is pure overhead on the
  hot beat path.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.config import FaultDetectionConfig
from repro.errors import ConfigurationError
from repro.net.message import Message, MessageType, snapshot_payload
from repro.nodes.node import Host
from repro.sim.core import TimerHandle
from repro.sim.rng import jitter_factor

__all__ = ["HeartbeatEmitter"]


class HeartbeatEmitter:
    """Periodically sends heart-beat messages from a host to dynamic targets."""

    def __init__(
        self,
        host: Host,
        config: FaultDetectionConfig,
        mtype: MessageType,
        targets: Callable[[], Iterable],
        payload: Callable[[], Any] | None = None,
        jitter_fraction: float = 0.1,
    ) -> None:
        self.host = host
        self.config = config
        self.mtype = mtype
        self.targets = targets
        self.payload = payload or (lambda: {})
        self.jitter_fraction = jitter_fraction
        self.stopped = False
        self._handle: TimerHandle | None = None
        self._rng = host.rng.stream(f"heartbeat.{host.address}")

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Arm the periodic beat handle (host must be up)."""
        if not self.host.up:
            raise ConfigurationError(
                f"cannot start heartbeat on crashed host {self.host.address}"
            )
        self.stopped = False
        # Desynchronise emitters so every component does not beat in lockstep;
        # each subsequent beat draws its jittered period from _next_interval.
        # (uniform(0, period), drawn as the one double it is made of)
        initial = self.config.heartbeat_period * self._rng.random()
        self._handle = self.host.env.call_periodic(
            None, self._tick, first_delay=initial, interval_fn=self._next_interval
        )
        # A crash must reclaim the pending tick the same way it kills the
        # host's processes; the hook removes itself through stop().
        self.host.add_crash_hook(self._on_host_crash)

    def stop(self) -> None:
        """Retire the emitter: cancel the pending beat tick.

        Idempotent; safe to call on an emitter whose host already crashed
        (the crash hook then already reclaimed the tick).
        """
        if self.stopped:
            return
        self.stopped = True
        self.host.remove_crash_hook(self._on_host_crash)
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.cancel()

    def _on_host_crash(self, _host: Host) -> None:
        self.stop()

    def _next_interval(self) -> float:
        """Next-beat delay: the configured period with multiplicative jitter.

        Evaluated by the kernel after each beat runs — the same position in
        the RNG stream a hand-rolled re-arming callback would draw at.
        """
        return self.config.heartbeat_period * jitter_factor(
            self._rng, self.jitter_fraction
        )

    def _tick(self, _arg: Any = None) -> None:
        # stop() cancels the handle, and a crash stops the emitter before it
        # returns: a tick never finds the emitter stopped or its host down.
        self.beat_now()

    def beat_now(self) -> int:
        """Send one round of heart-beats immediately; returns how many.

        The payload is snapshotted once for the whole round: all targets
        share one frozen-in-time payload instead of aliasing the emitter's
        live nested state (immutable payloads skip the copy).
        """
        count = 0
        payload = snapshot_payload(self.payload())
        if type(payload) is dict:
            # Stamp the sender's incarnation so receivers can tell a fresh
            # restart from a continuation of the silent incarnation (the
            # detector resets last-heard state on an incarnation bump).
            payload["incarnation"] = self.host.incarnation
        for target in self.targets():
            if target is None or target == self.host.address:
                continue
            self.host.send(
                Message(
                    mtype=self.mtype,
                    source=self.host.address,
                    dest=target,
                    payload=payload,
                    size_bytes=64,
                )
            )
            count += 1
        return count
