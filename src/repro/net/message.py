"""Protocol message envelope.

Every exchange between components is a :class:`Message`: a typed, sized
envelope whose payload is a plain dictionary of identifiers and values, with
the application bytes it stands for declared in ``size_bytes``.  The *size* is
what the network, disk and database cost models act upon; the content is what
the protocol state machines act upon.

Every send builds a fresh envelope and nothing recycles it, so whoever holds
a delivered message (a delivery hook, a trace, a test) can read it at any
later point and see what was delivered.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any

from repro.types import Address, CallIdentity

__all__ = [
    "MessageType",
    "Message",
    "snapshot_payload",
]


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
    #: virtual time at which the message was handed to the network.
    sent_at: float | None = None
    #: virtual time at which the network delivered it to its destination.
    delivered_at: float | None = None

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("message size must be non-negative")

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
