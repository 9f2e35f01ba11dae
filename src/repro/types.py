"""Common identifiers, enumerations and small value types.

The paper identifies every RPC execution by the triple *(user ID, session ID,
RPC ID)*; a session corresponds to one login of the user into the system and
ends on logout.  Those identifiers — not network addresses — are what clients
use to retrieve results after a disconnection, which is why they live in their
own module shared by every tier.  :class:`CallIdentity` holds the triple, and
it is also the key every tier files the call under: there is no second
representation to convert to.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, NewType

__all__ = [
    "ComponentKind",
    "TaskState",
    "RPCStatus",
    "LoggingStrategy",
    "Address",
    "UserId",
    "SessionId",
    "RPCId",
    "CallIdentity",
]


class ComponentKind(enum.Enum):
    """The three tiers of the RPC-V architecture."""

    CLIENT = "client"
    COORDINATOR = "coordinator"
    SERVER = "server"


class TaskState(enum.Enum):
    """Coordinator-side state of one task (one scheduled instance of a call).

    The paper's replica de-duplication policy is phrased exactly in these
    terms: *finished* tasks are never rescheduled by a replica, *ongoing*
    tasks only when the predecessor coordinator is suspected, *pending* tasks
    always.
    """

    PENDING = "pending"
    ONGOING = "ongoing"
    FINISHED = "finished"


class RPCStatus(enum.Enum):
    """Client-visible status of one RPC call."""

    SUBMITTED = "submitted"
    RUNNING = "running"
    COMPLETED = "completed"
    UNKNOWN = "unknown"


class LoggingStrategy(enum.Enum):
    """The three client-side message-logging strategies compared in Fig. 4."""

    OPTIMISTIC = "optimistic"
    PESSIMISTIC_BLOCKING = "pessimistic-blocking"
    PESSIMISTIC_NON_BLOCKING = "pessimistic-non-blocking"


class Address(NamedTuple):
    """Logical address of a component endpoint on the simulated network.

    A plain ``(kind, name)`` tuple with field names: every endpoint, route,
    detector, registry and task-bucket lookup keys on addresses, so hashing
    and equality run in C.  It therefore compares equal to the bare tuple.
    """

    kind: str
    name: str

    def __str__(self) -> str:
        return f"{self.kind}:{self.name}"


# Identifier aliases, for annotations only: at run time a user id is a plain
# ``str``, a session id a ``str`` and an RPC id an ``int``.
UserId = NewType("UserId", str)
SessionId = NewType("SessionId", str)
#: the RPC id doubles as the client's submission *timestamp* (the paper tags
#: every client message with a unique counter value used by the
#: synchronization protocol).
RPCId = NewType("RPCId", int)


class CallIdentity(NamedTuple):
    """The full (user, session, rpc) triple identifying one call system-wide.

    One object per call: the client's session allocates it, and every table
    that holds the call — coordinator tasks, results and dirty marks, the
    task index, client handles and logs, server logs — keys on that same
    object, which travels by reference inside message payloads.  A plain
    tuple, so hashing and equality run in C, and ordering is field by field
    (the FCFS tie-break relies on it).
    """

    user: UserId
    session: SessionId
    rpc: RPCId

    def __str__(self) -> str:
        return f"{self.user}/{self.session}/{self.rpc}"
