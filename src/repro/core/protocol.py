"""Wire-level records of the RPC-V protocol.

These records are the payloads carried inside
:class:`~repro.net.message.Message` envelopes and stored in coordinator
databases, client logs and server logs.  Components exchange *descriptions*
(a job is "very close to a remote execution call": command line plus an
optional archive), not live objects.

A call and its result travel as immutable objects, carried in payloads by
reference and never re-serialised:

* its :class:`~repro.types.CallIdentity`, the tuple every table keys on;
* its :class:`CallDescription`, a frozen dataclass: the client builds one per
  call, and submissions, assignments, client logs and every coordinator's
  task table share that object;
* a :class:`ReplicaEntry` per task in a state abstract: a tuple snapshot of
  one :class:`TaskRecord` that holds the description, the state and the
  server address themselves;
* its :class:`ResultRecord`, a frozen dataclass built once by the server that
  ran the call: the server's result log, the upload, the coordinator's
  result table, result and archive replies and the client's handle all hold
  that object.

So a grid holds one identity, one description and one result object per
call, however many replicas and logs file it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

from repro.types import Address, CallIdentity, TaskState

__all__ = [
    "TASK_DESCRIPTION_BYTES",
    "CallDescription",
    "ReplicaEntry",
    "TaskRecord",
    "ResultRecord",
]

#: Size of one job/task *description* (identifiers, command line, states) on
#: the wire and in the database — the ~300-byte records of Figure 5.
TASK_DESCRIPTION_BYTES = 300


@dataclass(slots=True, frozen=True)
class CallDescription:
    """What the client submits: one RPC call, shared by reference."""

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

    def to_replica_entry(self) -> ReplicaEntry:
        """The snapshot of this record shipped inside REPLICA_STATE messages.

        Built as one tuple, skipping the named tuple's keyword ``__new__``:
        every replication round snapshots each record it lists.
        """
        return tuple.__new__(
            ReplicaEntry,
            (
                self.call,
                self.state,
                self.owner,
                self.assigned_server,
                self.attempts,
                self.submitted_at,
                self.finished_at,
                self.archive_holder,
            ),
        )

    @classmethod
    def from_replica_entry(cls, entry: ReplicaEntry) -> "TaskRecord":
        """A new task record with the fields of a replica entry."""
        return cls(
            call=entry.call,
            state=entry.state,
            owner=entry.owner,
            assigned_server=entry.assigned_server,
            attempts=entry.attempts,
            submitted_at=entry.submitted_at,
            finished_at=entry.finished_at,
            archive_holder=entry.archive_holder,
        )


class ReplicaEntry(NamedTuple):
    """One task as a state abstract lists it: an immutable record snapshot."""

    call: CallDescription
    state: TaskState
    owner: str
    assigned_server: Address | None
    attempts: int
    submitted_at: float
    finished_at: float | None
    archive_holder: str

    @property
    def wire_bytes(self) -> int:
        """The description, plus the parameters a backup needs to run the
        task again (a finished task carries none)."""
        if self.state is TaskState.FINISHED:
            return TASK_DESCRIPTION_BYTES
        return TASK_DESCRIPTION_BYTES + self.call.params_bytes


@dataclass(slots=True, frozen=True)
class ResultRecord:
    """The result archive of one finished task, shared by reference."""

    identity: CallIdentity
    size_bytes: int
    produced_by: Address | None = None
    produced_at: float = 0.0
    #: opaque result value (live runtime / examples); simulations carry None.
    #: The producer snapshots it once, so no holder aliases the service's
    #: own objects.
    value: Any = None
