"""Protocol message envelope (and the envelope free-list).

Every exchange between components is a :class:`Message`: a typed, sized
envelope whose payload is a plain dictionary of identifiers and values, with
the application bytes it stands for declared in ``size_bytes``.  The *size* is
what the network, disk and database cost models act upon; the content is what
the protocol state machines act upon.

High-rate protocol-internal traffic (heartbeats, pings) can recycle its
envelopes through a :class:`MessagePool` instead of allocating a fresh slotted
dataclass per send.  Pooling is **opt-in per message**: only envelopes
acquired from a pool ever return to it, and only code that provably does not
retain the message past its handling may release it (see the pooling contract
in the README).  User-constructed messages are never pooled — ``release()``
on them is a no-op — so correctness never depends on callers knowing about
the pool.
"""

from __future__ import annotations

import copy
import enum
import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any

from repro.types import Address, CallIdentity

__all__ = [
    "MessageType",
    "Message",
    "MessagePool",
    "default_pool",
    "snapshot_payload",
]

_MESSAGE_SEQ = itertools.count(1)


#: payload leaves that are immutable all the way down (a call identity is a
#: tuple of two strings and an int, and travels by reference).
_IMMUTABLE_SCALARS = (
    type(None), bool, int, float, complex, str, bytes, frozenset, CallIdentity
)


def snapshot_payload(value: Any) -> Any:
    """A frozen-in-time copy of ``value``: no mutable state shared with it.

    Scalars are immutable, and a :class:`types.MappingProxyType` is treated
    as frozen by contract (whoever wraps a mapping in a proxy for the wire is
    promising not to mutate the underlying values).  A flat dict of scalars
    and lists / tuples of scalars — every payload the protocol itself builds
    — is copied directly; anything nested deeper is deep-copied.
    """
    if isinstance(value, _IMMUTABLE_SCALARS) or isinstance(value, MappingProxyType):
        return value
    if type(value) is not dict:
        return copy.deepcopy(value)
    flat = {}
    for key, item in value.items():
        if type(item) in (list, tuple) and all(
            isinstance(leaf, _IMMUTABLE_SCALARS) for leaf in item
        ):
            item = type(item)(item)
        elif not isinstance(item, _IMMUTABLE_SCALARS):
            return copy.deepcopy(value)
        flat[key] = item
    return flat


#: Fixed per-message envelope overhead in bytes (headers, identifiers, the
#: ~300-byte task descriptions of Fig. 5 are dominated by this kind of data).
ENVELOPE_OVERHEAD_BYTES = 256


class MessageType(enum.Enum):
    """Every message type exchanged by the RPC-V protocol."""

    # client -> coordinator
    RPC_SUBMIT = "rpc-submit"
    RESULT_PULL = "result-pull"
    CLIENT_SYNC = "client-sync"
    CLIENT_HEARTBEAT = "client-heartbeat"

    # coordinator -> client
    SUBMIT_ACK = "submit-ack"
    RESULT_REPLY = "result-reply"
    COORD_SYNC_REPLY = "coord-sync-reply"

    # server -> coordinator
    WORK_REQUEST = "work-request"
    TASK_RESULT = "task-result"
    SERVER_HEARTBEAT = "server-heartbeat"
    SERVER_SYNC = "server-sync"

    # coordinator -> server
    TASK_ASSIGN = "task-assign"
    TASK_RESULT_ACK = "task-result-ack"
    NO_WORK = "no-work"

    # coordinator <-> coordinator
    REPLICA_STATE = "replica-state"
    REPLICA_ACK = "replica-ack"
    REPLICA_PULL = "replica-pull"
    COORD_HEARTBEAT = "coord-heartbeat"
    ARCHIVE_FETCH = "archive-fetch"
    ARCHIVE_REPLY = "archive-reply"

    # crowd tier <-> coordinator (aggregated envelopes; see repro.crowd)
    CROWD_SUBMIT_BATCH = "crowd-submit-batch"
    CROWD_SUBMIT_ACK = "crowd-submit-ack"
    CROWD_RESULT_BATCH = "crowd-result-batch"
    CROWD_HEARTBEAT = "crowd-heartbeat"

    # generic
    PING = "ping"
    PONG = "pong"


@dataclass(slots=True)
class Message:
    """One connection-less protocol message."""

    mtype: MessageType
    source: Address
    dest: Address
    payload: dict[str, Any] = field(default_factory=dict)
    #: application bytes carried (arguments, results, archives, state deltas).
    size_bytes: int = 0
    #: unique, monotonically increasing message identifier (debugging, logs).
    msg_id: int = field(default_factory=lambda: next(_MESSAGE_SEQ))
    #: virtual time at which the message was handed to the network.
    sent_at: float | None = None
    #: owning pool for recycled envelopes; None (the default) marks an
    #: ordinary user-held message that is never pooled.
    _pool: "MessagePool | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("message size must be non-negative")

    def release(self) -> bool:
        """Return a pooled envelope to its pool; no-op for ordinary messages.

        Only the owner of the handling context may call this (transport drop
        paths, receivers of protocol-internal traffic that do not retain the
        message).  Returns True when the envelope actually went back.
        """
        pool = self._pool
        if pool is None:
            return False
        return pool.release(self)

    @property
    def wire_bytes(self) -> int:
        """Total bytes on the wire (payload plus envelope overhead)."""
        return self.size_bytes + ENVELOPE_OVERHEAD_BYTES

    def reply(
        self,
        mtype: MessageType,
        payload: dict[str, Any] | None = None,
        size_bytes: int = 0,
    ) -> "Message":
        """Build a reply addressed back to this message's source."""
        return Message(
            mtype=mtype,
            source=self.dest,
            dest=self.source,
            payload=payload or {},
            size_bytes=size_bytes,
        )

    def describe(self) -> str:
        """Compact one-line description used in traces."""
        return (
            f"{self.mtype.value} {self.source}->{self.dest} "
            f"({self.size_bytes} B, id={self.msg_id})"
        )


class MessagePool:
    """A size-bucketed free list of :class:`Message` envelopes.

    Buckets are keyed by *payload shape* — the tuple of payload keys — so an
    acquire for a given protocol message kind (heartbeats all carry the same
    fields) almost always finds an envelope whose last life had the same
    shape.  Re-acquired envelopes get a **fresh** ``msg_id`` from the global
    sequence: id monotonicity (and uniqueness within a run) survives pooling.

    The contract (see the README's pooling section): only pool-acquired
    envelopes return to the pool; only the handling context that provably
    does not retain the message may :meth:`release` it; after release the
    envelope contents must not be read — the next acquire rewrites them.
    """

    __slots__ = ("max_per_bucket", "hits", "misses", "releases", "dropped", "_buckets")

    def __init__(self, max_per_bucket: int = 1024) -> None:
        self.max_per_bucket = max_per_bucket
        self.hits = 0
        self.misses = 0
        self.releases = 0
        self.dropped = 0
        self._buckets: dict[tuple, list[Message]] = {}

    def acquire(
        self,
        mtype: MessageType,
        source: Address,
        dest: Address,
        payload: dict[str, Any] | None = None,
        size_bytes: int = 0,
    ) -> Message:
        """Build (or recycle) an envelope; fields are fully rewritten."""
        if payload is None:
            payload = {}
        bucket = self._buckets.get(tuple(payload))
        if bucket:
            self.hits += 1
            message = bucket.pop()
            message.mtype = mtype
            message.source = source
            message.dest = dest
            message.payload = payload
            message.size_bytes = size_bytes
            message.msg_id = next(_MESSAGE_SEQ)
            message.sent_at = None
            return message
        self.misses += 1
        return Message(
            mtype=mtype,
            source=source,
            dest=dest,
            payload=payload,
            size_bytes=size_bytes,
            _pool=self,
        )

    def release(self, message: Message) -> bool:
        """Return ``message`` to its shape bucket (full buckets drop it)."""
        if message._pool is not self:
            return False
        bucket = self._buckets.setdefault(tuple(message.payload), [])
        if len(bucket) >= self.max_per_bucket:
            self.dropped += 1
            return False
        self.releases += 1
        bucket.append(message)
        return True

    def stats(self) -> dict[str, float]:
        """Hit-rate and churn counters (benchmarks / diagnostics)."""
        acquires = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "releases": self.releases,
            "dropped": self.dropped,
            "pooled": sum(len(b) for b in self._buckets.values()),
            "hit_rate": self.hits / acquires if acquires else 0.0,
        }


_DEFAULT_POOL: MessagePool | None = None


def default_pool() -> MessagePool:
    """The process-wide pool used by protocol-internal traffic."""
    global _DEFAULT_POOL
    if _DEFAULT_POOL is None:
        _DEFAULT_POOL = MessagePool()
    return _DEFAULT_POOL
