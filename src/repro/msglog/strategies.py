"""Client-side message-logging engine (Figure 4).

The *mechanism* lives here — the durable log, the overhead accounting, the
crash-safe durability callback — while the *strategy* (when durability may
delay the communication) is a pluggable :class:`~repro.policies.logging.
LoggingPolicy` from the ``policy.log.*`` family:

* ``policy.log.pessimistic-blocking``    — durable before the communication
  starts (≈ +30 % in the paper);
* ``policy.log.pessimistic-nonblocking`` — the communication may not
  *complete* before the record is durable;
* ``policy.log.optimistic``              — background write; a crash before
  it completes loses the record.

The engine exposes two process fragments, :meth:`LoggingEngine.before_send`
and :meth:`LoggingEngine.after_send`, that the client wraps around its
communication; the returned :class:`LogToken` carries the durability event
between the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.msglog.log import MessageLog
from repro.nodes.node import Host
from repro.sim.core import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.policies.logging import LoggingPolicy

__all__ = ["LogToken", "LoggingEngine"]


@dataclass
class LogToken:
    """Links the pre-send and post-send halves of one logged communication."""

    key: Any
    size_bytes: int
    #: event triggering once the record is durable (None when it already is,
    #: or when the strategy never waits for durability).
    durability_event: Event | None = None
    #: whether the strategy requires waiting on the event after the send.
    must_wait_after: bool = False


class LoggingEngine:
    """Applies one logging policy around every logged communication."""

    def __init__(
        self,
        host: Host,
        log: MessageLog,
        policy: "LoggingPolicy",
    ) -> None:
        self.host = host
        self.log = log
        self.policy = policy
        #: cumulative simulated time the strategy added in front of / behind
        #: communications (reported by the Fig. 4 experiment).
        self.blocking_overhead = 0.0

    # -- process fragments ---------------------------------------------------------
    def before_send(self, key: Any, payload: Any, size_bytes: int):
        """Log ``payload`` under ``key`` and pay any pre-send cost.

        Yields simulation events; returns a :class:`LogToken` (via the
        generator's return value) for :meth:`after_send`.
        """
        token = yield from self.policy.before_send(self, key, payload, size_bytes)
        return token

    def after_send(self, token: LogToken):
        """Pay any post-communication cost mandated by the strategy."""
        result = yield from self.policy.after_send(self, token)
        return result

    # -- helpers ----------------------------------------------------------------------
    def _make_durable(self, key: Any, incarnation: int | None = None) -> None:
        # The host may have crashed while the write was in flight (or even
        # crashed and restarted): in either case the buffered record of the
        # old incarnation must not become durable retroactively.
        if not self.host.up or (  # pragma: no cover - crashed mid-write
            incarnation is not None and incarnation != self.host.incarnation
        ):
            return
        record = self.log.get(key)
        if record is not None and not record.durable:
            self.log.mark_durable(key)

    def ack(self, key: Any) -> None:
        """Mark a record acknowledged by the peer (GC eligibility)."""
        self.log.mark_acked(key)
