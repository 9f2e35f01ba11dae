"""Common identifiers, enumerations and small value types.

The paper identifies every RPC execution by the triple *(user ID, session ID,
RPC ID)*; a session corresponds to one login of the user into the system and
ends on logout.  Those identifiers — not network addresses — are what clients
use to retrieve results after a disconnection, which is why they live in their
own module shared by every tier.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

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


# Identifier newtypes.  Plain ints/strs wrapped in frozen dataclasses so that
# mixing them up is a type error in tests, while staying hashable and cheap.


@dataclass(frozen=True, order=True)
class UserId:
    """Unique identifier of a user of the system."""

    value: str

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class SessionId:
    """Unique identifier of one login session of a user."""

    value: str

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class RPCId:
    """Unique identifier of one RPC submission within a session.

    The integer part doubles as the client's submission *timestamp* (the
    paper tags every client message with a unique counter value used by the
    synchronization protocol).
    """

    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, order=True)
class CallIdentity:
    """The full (user, session, rpc) triple identifying one call system-wide."""

    user: UserId
    session: SessionId
    rpc: RPCId

    def __str__(self) -> str:
        return f"{self.user}/{self.session}/{self.rpc}"
