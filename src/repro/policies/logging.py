"""Client-side logging policies (``policy.log.*``) — the Figure 4 strategies.

The three strategies differ only in *when* the disk write of the log record
is allowed to delay the communication:

* ``policy.log.pessimistic-blocking``    — the communication may not start
  before the log record is durable (full synchronous write up front, ≈ +30 %
  in the paper);
* ``policy.log.pessimistic-nonblocking`` — the communication starts
  immediately but may not *complete* before the log record is durable
  (small, variable overhead attributed to disc-cache management);
* ``policy.log.optimistic``              — the write happens in the
  background at low priority; the communication is never delayed, but a
  crash before the background write completes loses the record (hence the
  more expensive recovery when both the client and the coordinator crash).

Each policy implements the two process fragments the
:class:`~repro.msglog.strategies.LoggingEngine` wraps around a
communication — ``before_send`` (returns the :class:`LogToken` linking the
halves) and ``after_send`` — operating through the engine's host, log and
overhead accounting.  The engine stays the single mechanism object; the
policy owns the strategy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.msglog.strategies import LogToken
from repro.platform.registry import component
from repro.policies.base import PolicyBase
from repro.sim.core import ProcessKilled
from repro.types import LoggingStrategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.msglog.strategies import LoggingEngine

__all__ = [
    "LoggingPolicy",
    "PessimisticBlockingLogging",
    "PessimisticNonBlockingLogging",
    "OptimisticLogging",
]


class LoggingPolicy(PolicyBase):
    """When the durability of a log record may delay the communication."""

    key = "policy.log.base"
    #: which of Fig. 4's three strategies this policy implements (Fig. 4's
    #: rows are keyed by it).
    strategy: LoggingStrategy

    def before_send(
        self, engine: "LoggingEngine", key: Any, payload: Any, size_bytes: int
    ):
        """Log ``payload`` under ``key`` and pay any pre-send cost.

        Generator; returns the :class:`~repro.msglog.strategies.LogToken`
        for :meth:`after_send`.
        """
        raise NotImplementedError
        yield  # pragma: no cover - generator marker

    def after_send(self, engine: "LoggingEngine", token: "LogToken"):
        """Pay any post-communication cost mandated by the strategy."""
        if token.must_wait_after and token.durability_event is not None:
            if not token.durability_event.processed:
                start = engine.host.env.now
                try:
                    yield token.durability_event
                except ProcessKilled:  # pragma: no cover - host crash mid-wait
                    raise
                engine.blocking_overhead += engine.host.env.now - start
                self.incr("post_send_waits")
        return None


@component("policy.log.pessimistic-blocking")
class PessimisticBlockingLogging(LoggingPolicy):
    """Durable before the communication starts (full synchronous write)."""

    key = "policy.log.pessimistic-blocking"
    strategy = LoggingStrategy.PESSIMISTIC_BLOCKING

    def before_send(self, engine, key, payload, size_bytes):
        engine.log.append(key, payload, size_bytes)
        self.incr("records")
        cost = engine.host.disk.sync_write_time(size_bytes)
        engine.blocking_overhead += cost
        yield engine.host.sleep(cost)
        engine.log.mark_durable(key)
        return LogToken(key=key, size_bytes=size_bytes)


@component("policy.log.pessimistic-nonblocking")
class PessimisticNonBlockingLogging(LoggingPolicy):
    """Write concurrently; the communication may not complete before it does."""

    key = "policy.log.pessimistic-nonblocking"
    strategy = LoggingStrategy.PESSIMISTIC_NON_BLOCKING

    def before_send(self, engine, key, payload, size_bytes):
        engine.log.append(key, payload, size_bytes)
        self.incr("records")
        # The write proceeds concurrently with the communication; the
        # synchronous remainder is charged when the communication ends.
        host = engine.host
        rng = host.rng.stream(f"disk.cache.{host.address}")
        sync_part = host.disk.cached_write_sync_time(size_bytes, rng)
        durability_event = host.env.timeout(sync_part)
        incarnation = host.incarnation
        durability_event.callbacks.append(
            lambda _e, k=key, i=incarnation: engine._make_durable(k, i)
        )
        return LogToken(
            key=key,
            size_bytes=size_bytes,
            durability_event=durability_event,
            must_wait_after=True,
        )
        yield  # pragma: no cover - generator marker


@component("policy.log.optimistic")
class OptimisticLogging(LoggingPolicy):
    """Background write at low priority; the communication is never delayed."""

    key = "policy.log.optimistic"
    strategy = LoggingStrategy.OPTIMISTIC

    def before_send(self, engine, key, payload, size_bytes):
        engine.log.append(key, payload, size_bytes)
        self.incr("records")
        host = engine.host
        # A negligible foreground cost is still paid (the paper observes
        # "negligible overhead", not zero), and durability arrives much later.
        foreground = host.disk.background_write_foreground_time(size_bytes)
        if foreground > 0:
            engine.blocking_overhead += foreground
            yield host.sleep(foreground)
        completion = host.disk.background_write_completion_time(size_bytes)
        durability_event = host.env.timeout(completion)
        incarnation = host.incarnation
        durability_event.callbacks.append(
            lambda _e, k=key, i=incarnation: engine._make_durable(k, i)
        )
        return LogToken(key=key, size_bytes=size_bytes, durability_event=durability_event)
