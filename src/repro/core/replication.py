"""Passive replication of coordinator state over the virtual ring.

Each coordinator periodically sends "an abstract of its state to the successor
in the list"; if the successor does not acknowledge, it is suspected, the
local list is updated and the next coordinator is contacted.  The state
abstract contains job/task descriptions (including the call parameters needed
to re-execute them) and the maximum known client timestamps — but **not** the
result file archives, which are never replicated.

An abstract lists one immutable :class:`~repro.core.protocol.ReplicaEntry`
per task, and an entry holds the call's description by reference.  Building,
sending and merging an abstract copy no task data: a round's
:class:`ReplicaState` is itself the message payload, built once and never
changed after, so every receiver reads the sender's entry objects, and a task
new to a receiver shares the sender's
:class:`~repro.core.protocol.CallDescription`.

This module is pure data manipulation (building and merging state abstracts);
the sending/acknowledging machinery lives in the coordinator component so the
timing behaviour is visible to the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.protocol import ReplicaEntry, TaskRecord
from repro.core.synchronization import merge_max_timestamps
from repro.types import TaskState

__all__ = ["ReplicaState", "MergeOutcome", "build_state", "merge_state"]

#: ordering used when merging conflicting task states.
_PRECEDENCE = {TaskState.PENDING: 0, TaskState.ONGOING: 1, TaskState.FINISHED: 2}


@dataclass
class ReplicaState:
    """One state abstract, as propagated to the ring successor."""

    origin: str
    entries: list[ReplicaEntry] = field(default_factory=list)
    #: max known client timestamp per (user, session) — ``identity[:2]``
    #: of the session's calls; the tuple keys travel as they are.
    client_timestamps: dict[tuple[str, str], int] = field(default_factory=dict)
    #: coordinator list piggy-backed for registry merging.
    known_coordinators: list[tuple[str, str]] = field(default_factory=list)
    #: wire bytes of ``entries``, accumulated while building (``None`` means
    #: unknown — e.g. a hand-assembled state — and :attr:`size_bytes` falls
    #: back to walking the entries).
    entries_bytes: int | None = None

    @property
    def size_bytes(self) -> int:
        """Bytes of the abstract on the wire.

        Every task contributes its description; tasks that still need to be
        (re)executable at the backup also carry their parameters.  Results are
        never included.
        """
        if self.entries_bytes is not None:
            total = self.entries_bytes
        else:
            total = sum(entry.wire_bytes for entry in self.entries)
        total += 64 * len(self.client_timestamps)
        total += 32 * len(self.known_coordinators)
        return total


@dataclass
class MergeOutcome:
    """What applying one state abstract changed at the receiving coordinator."""

    new_tasks: int = 0
    updated_tasks: int = 0
    newly_finished: list = field(default_factory=list)
    #: identities of every task added or whose state advanced (these must be
    #: propagated further around the ring by the receiver).
    changed: list = field(default_factory=list)
    timestamps_advanced: int = 0


def build_state(
    origin: str,
    tasks: dict[Any, TaskRecord],
    client_timestamps: dict[tuple[str, str], int],
    known_coordinators: list[tuple[str, str]],
    only_keys: Iterable[Any] | None = None,
) -> ReplicaState:
    """Build the state abstract for the given tasks.

    ``only_keys`` restricts the abstract to an incremental set (the dirty
    tasks since the last acknowledged propagation); ``None`` means full
    state.  The dirty keys are iterated **directly** — an incremental round
    with 3 dirty tasks in a 100k-task table lists 3 records, not a
    filtered table walk — in the caller-given order (the coordinator passes
    them in table order, so delta and full abstracts list entries
    identically).  Keys no longer in the table are skipped.

    Every round snapshots its records afresh (one tuple each, nothing kept
    between rounds: most entries are listed once), and accumulates the wire
    size as it goes, so :attr:`ReplicaState.size_bytes` never re-walks them.
    """
    if only_keys is None:
        records: Iterable[tuple[Any, TaskRecord]] = tasks.items()
    else:
        records = ((key, tasks[key]) for key in only_keys if key in tasks)
    entries = []
    entries_bytes = 0
    for _key, record in records:
        entry = record.to_replica_entry()
        entries.append(entry)
        entries_bytes += entry.wire_bytes
    return ReplicaState(
        origin=origin,
        entries=entries,
        client_timestamps=dict(client_timestamps),
        known_coordinators=list(known_coordinators),
        entries_bytes=entries_bytes,
    )


def merge_state(
    tasks: dict[Any, TaskRecord],
    client_timestamps: dict[tuple[str, str], int],
    state: ReplicaState,
) -> MergeOutcome:
    """Merge an incoming state abstract into the local task table.

    Conflicts are resolved by state precedence: a finished task never goes
    back to ongoing/pending, an ongoing task never goes back to pending.
    An entry that cannot win (known key, precedence not higher) is skipped
    before anything is built — on a quorum ring most of an abstract is
    already known — and only a key new here pays for a :class:`TaskRecord`.
    Returns what changed, including the identities that became finished
    (used by the completed-task curves of Figures 9-11).
    """
    outcome = MergeOutcome()
    for entry in state.entries:
        key = entry.call.identity
        existing = tasks.get(key)
        if existing is None:
            tasks[key] = TaskRecord.from_replica_entry(entry)
            outcome.new_tasks += 1
            outcome.changed.append(key)
            if entry.state is TaskState.FINISHED:
                outcome.newly_finished.append(key)
            continue
        # The identity test spares the common case, a task already finished
        # here, the enum hash of the table lookup.
        if (
            existing.state is TaskState.FINISHED
            or _PRECEDENCE[entry.state] <= _PRECEDENCE[existing.state]
        ):
            continue
        existing.state = entry.state
        existing.owner = entry.owner
        existing.assigned_server = entry.assigned_server
        existing.attempts = max(existing.attempts, entry.attempts)
        existing.finished_at = entry.finished_at
        if entry.archive_holder:
            existing.archive_holder = entry.archive_holder
        outcome.updated_tasks += 1
        outcome.changed.append(existing.identity)
        if entry.state is TaskState.FINISHED:
            outcome.newly_finished.append(existing.identity)
    outcome.timestamps_advanced = merge_max_timestamps(
        client_timestamps, state.client_timestamps
    )
    return outcome
