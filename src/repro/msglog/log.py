"""The sender-based message log.

A :class:`MessageLog` lives on one host.  Records move through three
durability states:

* **buffered** — accepted by the log but not yet on disk; lost if the host
  crashes (this is the window the optimistic strategy gambles on);
* **durable** — written to the host's persistent space; survives crashes;
* **acknowledged** — the peer has confirmed it holds the information (e.g.
  the coordinator acknowledged an RPC submission), so the record is now only
  needed for fast resynchronisation and may be garbage collected.

Client and server logs both key their records on the call's
:class:`~repro.types.CallIdentity`; a client log holds one session, so its
key order is the RPC counter (timestamp) order.  A record files the object
it logs by reference — a client's :class:`~repro.core.protocol.CallDescription`,
a server's :class:`~repro.core.protocol.ResultRecord`, both immutable — so a
logged call or result exists once, however many holders share it.  The
synchronisation protocol only ever compares keys and re-sends payloads, so
the log is otherwise schema-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import LogCorruption
from repro.nodes.node import Host

__all__ = ["LogRecord", "MessageLog"]


@dataclass(slots=True)
class LogRecord:
    """One logged message."""

    key: Any
    #: the logged object itself, never a copy.
    payload: Any
    size_bytes: int
    created_at: float
    durable: bool = False
    acked: bool = False
    durable_at: float | None = None
    acked_at: float | None = None


class MessageLog:
    """Per-host message log with explicit durability tracking."""

    def __init__(self, host: Host, name: str) -> None:
        self.host = host
        self.name = name
        storage_key = f"msglog:{name}"
        #: durable records — stored in the host's persistent space so they
        #: survive crashes.
        self._durable: dict[Any, LogRecord] = host.persistent.setdefault(storage_key, {})
        #: buffered records — volatile; simply not re-created after a crash.
        self._buffered: dict[Any, LogRecord] = {}
        #: running byte totals, kept by every method that moves a record, so
        #: the capacity check on each submission is O(1).  The durable total
        #: is recounted once here: a rebuilt log (host restart) inherits the
        #: persistent records of its previous incarnation.
        self._durable_total = sum(r.size_bytes for r in self._durable.values())
        self._buffered_total = 0

    # -- writing -----------------------------------------------------------------
    def append(self, key: Any, payload: Any, size_bytes: int) -> LogRecord:
        """Accept ``payload`` in the buffered (not yet durable) state."""
        if key in self._buffered or key in self._durable:
            raise LogCorruption(f"duplicate log key {key!r} in log {self.name!r}")
        record = LogRecord(
            key=key,
            payload=payload,
            size_bytes=int(size_bytes),
            created_at=self.host.env.now,
        )
        self._buffered[key] = record
        self._buffered_total += record.size_bytes
        return record

    def mark_durable(self, key: Any) -> None:
        """Promote a buffered record to durable (it reached the disk)."""
        record = self._buffered.pop(key, None)
        if record is None:
            if key in self._durable:
                return
            raise LogCorruption(f"mark_durable on unknown key {key!r}")
        record.durable = True
        record.durable_at = self.host.env.now
        self._durable[key] = record
        self._buffered_total -= record.size_bytes
        self._durable_total += record.size_bytes

    def mark_acked(self, key: Any) -> None:
        """Record that the peer acknowledged holding this information."""
        record = self._durable.get(key) or self._buffered.get(key)
        if record is None:  # pragma: no cover - collected by the log GC
            # An ack for a record we no longer hold (already GC'ed) is fine.
            return
        record.acked = True
        record.acked_at = self.host.env.now

    def forget(self, key: Any) -> None:
        """Drop a record entirely (garbage collection only)."""
        record = self._durable.pop(key, None)
        if record is not None:
            self._durable_total -= record.size_bytes
        record = self._buffered.pop(key, None)
        if record is not None:
            self._buffered_total -= record.size_bytes

    def wipe(self) -> None:
        """Lose every record, durable ones included (simulated log loss)."""
        self._durable.clear()
        self._buffered.clear()
        self._durable_total = self._buffered_total = 0

    # -- reading -----------------------------------------------------------------
    def get(self, key: Any) -> LogRecord | None:
        """The record under ``key`` (durable or buffered), if any."""
        return self._durable.get(key) or self._buffered.get(key)

    def durable_records(self) -> list[LogRecord]:
        """All durable records, ordered by key."""
        return [self._durable[k] for k in sorted(self._durable, key=_sort_key)]

    def durable_keys(self) -> set[Any]:
        """Keys of durable records."""
        return set(self._durable)

    def unacked_durable(self) -> list[LogRecord]:
        """Durable records not yet acknowledged (what a sync must replay)."""
        return [r for r in self.durable_records() if not r.acked]

    def max_durable_key(self, default: Any = None) -> Any:
        """Largest durable key (the client's last registered timestamp)."""
        if not self._durable:
            return default
        return max(self._durable, key=_sort_key)

    # -- sizes --------------------------------------------------------------------
    def total_bytes(self) -> int:
        """Bytes of payload held in any state (O(1): running totals)."""
        return self._durable_total + self._buffered_total

    def __len__(self) -> int:
        return len(self._durable) + len(self._buffered)

    def __contains__(self, key: Any) -> bool:
        return key in self._durable or key in self._buffered


def _sort_key(key: Any):
    """Total order on log keys: numbers (a client's timestamps), then call
    identities (a server's results)."""
    if isinstance(key, (int, float)):
        return (0, key)
    return (1, key)
