"""Garbage collection of message logs.

Logging capacity is bounded, so the system must decide "whether flushing some
logs, that may be potentially useful for avoiding re-executions, or stopping
computations".  The collector implemented here is the safe variant used by the
experiments:

* only **acknowledged** records are ever flushed (never the only remaining
  copy of information the peer has not confirmed — protocol invariant 7);
* collection is triggered locally when the configured capacity is exceeded,
  or explicitly by the user.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import LoggingConfig
from repro.msglog.log import MessageLog

__all__ = ["GCReport", "GarbageCollector"]


@dataclass
class GCReport:
    """Outcome of one collection pass."""

    triggered: bool
    records_flushed: int = 0
    bytes_flushed: int = 0
    bytes_before: int = 0
    bytes_after: int = 0


class GarbageCollector:
    """Capacity-driven collector over one :class:`MessageLog`."""

    def __init__(self, log: MessageLog, config: LoggingConfig) -> None:
        self.log = log
        self.config = config
        self.collections = 0
        self.total_flushed_bytes = 0

    def maybe_collect(self) -> GCReport:
        """Run a collection pass if (and only if) the log is over capacity."""
        size = self.log.total_bytes()
        if size <= self.config.capacity_bytes:
            return GCReport(triggered=False, bytes_before=size, bytes_after=size)
        return self.collect()

    def collect(self) -> GCReport:
        """Flush acknowledged records, oldest first, down to the target size."""
        before = self.log.total_bytes()
        target = int(self.config.capacity_bytes * (1.0 - self.config.gc_target_fraction))
        flushed = 0
        flushed_bytes = 0

        # Oldest acknowledged records first: they are the least useful for a
        # future resynchronisation.
        candidates = sorted(
            (r for r in self.log.durable_records() if r.acked),
            key=lambda r: (r.acked_at if r.acked_at is not None else r.created_at),
        )
        current = before
        for record in candidates:
            if current <= target:
                break
            self.log.forget(record.key)
            current -= record.size_bytes
            flushed += 1
            flushed_bytes += record.size_bytes

        self.collections += 1
        self.total_flushed_bytes += flushed_bytes
        return GCReport(
            triggered=True,
            records_flushed=flushed,
            bytes_flushed=flushed_bytes,
            bytes_before=before,
            bytes_after=self.log.total_bytes(),
        )
