"""Wire-level records of the RPC-V protocol.

These dataclasses are the payloads carried inside
:class:`~repro.net.message.Message` envelopes and stored in coordinator
databases, client logs and server logs.  They are deliberately plain and
dictionary-convertible: components exchange *descriptions* (a job is "very
close to a remote execution call": command line plus an optional archive), not
live objects.

The one exception is the call's :class:`~repro.types.CallIdentity`: an
immutable tuple, carried in payloads as is and read back as is.  Every table
keys on it, so a call has exactly one identity object, from the session
that allocated it to every coordinator replica and server log that files it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.net.message import snapshot_payload
from repro.types import Address, CallIdentity, TaskState

__all__ = [
    "TASK_DESCRIPTION_BYTES",
    "CallDescription",
    "TaskRecord",
    "ResultRecord",
]

#: Size of one job/task *description* (identifiers, command line, states) on
#: the wire and in the database — the ~300-byte records of Figure 5.
TASK_DESCRIPTION_BYTES = 300


@dataclass(slots=True)
class CallDescription:
    """What the client submits: one RPC call."""

    identity: CallIdentity
    service: str
    #: size of the marshalled parameters / input archive, in bytes.
    params_bytes: int
    #: expected size of the result archive, in bytes (workload model).
    result_bytes: int = 128
    #: simulated execution time of the service, in seconds (None when a real
    #: callable is attached through the service registry).
    exec_time: float | None = None
    #: opaque application arguments (used by the live runtime and examples).
    args: Any = None

    def to_payload(self) -> dict[str, Any]:
        """Dictionary form carried inside protocol messages."""
        return {
            "identity": self.identity,
            "service": self.service,
            "params_bytes": self.params_bytes,
            "result_bytes": self.result_bytes,
            "exec_time": self.exec_time,
            "args": self.args,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "CallDescription":
        """Rebuild a description from its dictionary form."""
        return cls(
            identity=payload["identity"],
            service=payload["service"],
            params_bytes=int(payload["params_bytes"]),
            result_bytes=int(payload.get("result_bytes", 128)),
            exec_time=payload.get("exec_time"),
            args=payload.get("args"),
        )

    @property
    def wire_bytes(self) -> int:
        """Bytes this submission puts on the wire (description + parameters)."""
        return TASK_DESCRIPTION_BYTES + self.params_bytes


@dataclass(slots=True)
class TaskRecord:
    """Coordinator-side record of one task (one instance of a call)."""

    call: CallDescription
    state: TaskState = TaskState.PENDING
    #: coordinator that created / currently owns this task.
    owner: str = ""
    assigned_server: Address | None = None
    attempts: int = 0
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    #: whether this coordinator holds the result archive locally.
    has_archive: bool = False
    #: name of the coordinator that received the result archive (archives are
    #: never replicated, so other coordinators fetch it from there on demand).
    archive_holder: str = ""

    @property
    def identity(self) -> CallIdentity:
        """Identity of the underlying call."""
        return self.call.identity

    def to_replica_entry(self) -> dict[str, Any]:
        """Dictionary form shipped inside REPLICA_STATE messages."""
        return {
            "call": self.call.to_payload(),
            "state": self.state.value,
            "owner": self.owner,
            "assigned_server": (
                (self.assigned_server.kind, self.assigned_server.name)
                if self.assigned_server
                else None
            ),
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "archive_holder": self.archive_holder,
        }

    @classmethod
    def from_replica_entry(cls, entry: dict[str, Any]) -> "TaskRecord":
        """Rebuild a task record from a replica-state entry."""
        server = entry.get("assigned_server")
        return cls(
            call=CallDescription.from_payload(entry["call"]),
            state=TaskState(entry["state"]),
            owner=entry.get("owner", ""),
            assigned_server=Address(*server) if server else None,
            attempts=int(entry.get("attempts", 0)),
            submitted_at=float(entry.get("submitted_at", 0.0)),
            finished_at=entry.get("finished_at"),
            archive_holder=entry.get("archive_holder", ""),
        )


@dataclass(slots=True)
class ResultRecord:
    """The result archive of one finished task."""

    identity: CallIdentity
    size_bytes: int
    produced_by: Address | None = None
    produced_at: float = 0.0
    #: opaque result value (live runtime / examples); simulations carry None.
    value: Any = None
    meta: dict[str, Any] = field(default_factory=dict)

    def to_payload(self) -> dict[str, Any]:
        """Dictionary form carried in RESULT_REPLY / TASK_RESULT messages.

        Built field by field (``dataclasses.asdict`` deep-copies recursively,
        identity and address included); ``value`` and ``meta`` are still
        copied, so a payload never aliases the record.
        """
        producer = self.produced_by
        return {
            "identity": self.identity,
            "size_bytes": self.size_bytes,
            "produced_by": (producer.kind, producer.name) if producer else None,
            "produced_at": self.produced_at,
            "value": snapshot_payload(self.value),
            "meta": snapshot_payload(self.meta),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "ResultRecord":
        """Rebuild a result record from its dictionary form."""
        produced_by = payload.get("produced_by")
        return cls(
            identity=payload["identity"],
            size_bytes=int(payload["size_bytes"]),
            produced_by=Address(*produced_by) if produced_by else None,
            produced_at=float(payload.get("produced_at", 0.0)),
            value=payload.get("value"),
            meta=dict(payload.get("meta", {})),
        )

