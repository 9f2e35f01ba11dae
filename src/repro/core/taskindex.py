"""Incrementally maintained indexes over a coordinator's task and result tables.

The coordinator keeps every task it has ever heard of in one persistent
``dict`` — the paper's database of job descriptions.  Answering requests
by rescanning that table (sort it for the FCFS head of every work request,
recount it for every monitor sample, walk it for a suspected server's
handful of ongoing tasks) turns the busiest part of the protocol into
quadratic aggregate work at paper-scale backlogs, so the coordinator reads
maintained views instead.

:class:`TaskIndex` is the **single choke point for task state
transitions**.  Every coordinator path that mutates a record (submission,
assignment, result commit, replica merge, crowd batch expansion,
reschedule) calls :meth:`TaskIndex.note` afterwards.  The index keeps no
shadow copy of the table: a key's prior state is the view that holds it
(the pending set, an ongoing bucket, else finished), so ``note`` compares
the record with that view and moves the key between:

* a FCFS-ordered **pending heap** (lazy deletion: entries are skimmed when
  their key is no longer pending) so the FIFO scheduling head is O(log n);
* a second (exec_time, fcfs) heap, built lazily the first time the
  fastest-first policy asks, so SJF scheduling is O(log n) too;
* **per-state counters** so the finished and pending counts are O(1);
* **per-server ongoing buckets** so rescheduling a suspected server
  touches only that server's tasks;
* **per-owner ongoing buckets** so the replica de-duplication rule
  ("ongoing tasks are only eligible when their owner is suspected") is
  answered per distinct owner instead of per task;
* **per-(user, session) table positions** so a client synchronisation
  reads its own session, not the table, and a replication round or a
  result pull lists its keys in table order;
* a per-session **"finished, archive not held here" bucket** so a result
  pull finds the archives it still has to fetch without a table walk.

The result-archive table has a choke point of its own,
:meth:`TaskIndex.note_result`: the coordinator stores every archive through
one method, which files it in a **per-session result view** stamped with an
insertion sequence.  A pull naming k timestamps then costs O(k): it
intersects them with the session view and restores ``coord:results``
insertion order from the stamps.

The eligible order produced through the index is bit-identical to a
sorted scan of the table (the reference in ``tests/test_taskindex.py``):
FCFS keys are unique per task (submission time plus call identity), so any
stable source of the same candidate set sorts to the same sequence.  The
random and round-robin policies still materialize the full eligible list
(they index into it by position), which keeps their per-pick cost at
O(p log p) over the pending set — finished and held-ongoing records stay
out of it entirely.

The index is volatile: a restarted coordinator rebuilds it from the
persistent table in ``start()``.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.core.protocol import TaskRecord
from repro.errors import SchedulingError
from repro.policies.scheduling import _sjf_key, fcfs_key
from repro.types import CallIdentity, TaskState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.types import Address

__all__ = ["TaskIndex"]


class TaskIndex:
    """Derived views of one coordinator's task table, updated per transition."""

    def __init__(
        self,
        tasks: dict[CallIdentity, TaskRecord],
        results: dict[CallIdentity, Any] | None = None,
    ) -> None:
        #: the coordinator's persistent tables (shared references, never
        #: copied): task descriptions and the result archives held locally.
        self.tasks = tasks
        self.results: dict[CallIdentity, Any] = {} if results is None else results
        self.rebuild()

    # ------------------------------------------------------------- lifecycle
    def rebuild(self) -> None:
        """Re-derive everything from the tables (restart / first start)."""
        self._counts: dict[TaskState, int] = {state: 0 for state in TaskState}
        #: live pending records (insertion-ordered; the heaps may hold stale
        #: duplicates, membership here is what makes a heap entry valid).
        self._pending: dict[CallIdentity, TaskRecord] = {}
        self._pending_heap: list[tuple[tuple, CallIdentity]] = []
        #: (exec_time, fcfs) heap for fastest-first; None until first used.
        self._fast_heap: list[tuple[tuple, CallIdentity]] | None = None
        #: ongoing key -> (owner, assigned_server) it is filed under in the
        #: two buckets below (the record itself may have moved on since).
        self._ongoing: dict[CallIdentity, tuple] = {}
        self._ongoing_by_owner: dict[str, dict[CallIdentity, TaskRecord]] = {}
        self._ongoing_by_server: dict[Any, dict[CallIdentity, TaskRecord]] = {}
        #: (user, session) -> {timestamp: table position}, in table order,
        #: for every key ever noted.  Replication rounds and result pulls
        #: sort keys by the position, so delta abstracts list entries exactly
        #: as a full table scan would (table keys are never deleted).
        self._by_session: dict[tuple, dict[Any, int]] = {}
        self._next_position = 0
        #: (user, session) -> {timestamp: task key} of the finished tasks
        #: whose archive is not in ``results`` (it lives on another
        #: coordinator and is fetched when the client pulls).
        self._unarchived: dict[tuple, dict[Any, CallIdentity]] = {}
        #: (user, session) -> {timestamp: (insertion sequence, result)}.
        self._results_by_session: dict[tuple, dict[Any, tuple[int, Any]]] = {}
        self._next_result_seq = 0
        for key, result in self.results.items():
            self.note_result(key, result)
        for key, record in self.tasks.items():
            self.note(record, key)

    # ------------------------------------------------------------ choke point
    def note(
        self, record: TaskRecord, key: CallIdentity | None = None
    ) -> CallIdentity:
        """Record that ``record`` was added or mutated; update every view.

        This is the state-transition choke point: any code that changes a
        task record's state, owner, assignment, or replicated content must
        call it (component authors: mutate, then ``note``).  Returns the
        table key.
        """
        if key is None:
            key = record.identity
        state = record.state
        # The key's prior state is the view that holds it: pending, an
        # ongoing bucket, or else (once seen) finished.
        if key in self._pending:
            if state is TaskState.PENDING:
                return key
            self._counts[TaskState.PENDING] -= 1
            del self._pending[key]  # heap entries are skimmed lazily
        elif (filed := self._ongoing.get(key)) is not None:
            if state is TaskState.ONGOING and filed == (
                record.owner,
                record.assigned_server,
            ):
                return key
            self._counts[TaskState.ONGOING] -= 1
            del self._ongoing[key]
            owners_servers = (self._ongoing_by_owner, self._ongoing_by_server)
            for buckets, name in zip(owners_servers, filed):
                bucket = buckets.get(name)
                if bucket is not None:
                    bucket.pop(key, None)
                    if not bucket:
                        del buckets[name]
        else:
            positions = self._by_session.setdefault(key[:2], {})
            if key[2] not in positions:
                positions[key[2]] = self._next_position
                self._next_position += 1
            elif state is TaskState.FINISHED:
                return key
            else:
                # Merges rank FINISHED highest, and re-queues and reschedules
                # take only ongoing tasks: a finished task never goes back.
                raise SchedulingError(f"finished task {key} noted as {state.name}")
        self._counts[state] += 1
        if state is TaskState.PENDING:
            self._pending[key] = record
            heapq.heappush(self._pending_heap, (fcfs_key(record), key))
            if self._fast_heap is not None:
                heapq.heappush(self._fast_heap, (_sjf_key(record), key))
        elif state is TaskState.ONGOING:
            owner, server = self._ongoing[key] = (record.owner, record.assigned_server)
            self._ongoing_by_owner.setdefault(owner, {})[key] = record
            if server is not None:
                self._ongoing_by_server.setdefault(server, {})[key] = record
        elif key not in self.results:
            self._unarchived.setdefault(key[:2], {})[key[2]] = key
        return key

    def _drop_unarchived(self, key: CallIdentity) -> None:
        bucket = self._unarchived.get(key[:2])
        if bucket is not None and bucket.pop(key[2], None) is not None and not bucket:
            del self._unarchived[key[:2]]

    def _position(self, key: CallIdentity) -> int:
        """``key``'s position in the task table's insertion order."""
        return self._by_session[key[:2]][key[2]]

    def note_result(self, key: CallIdentity, result: Any) -> None:
        """Record that ``result`` was just stored under ``key`` in ``results``.

        The result table's choke point: archives enter ``coord:results``
        through one coordinator method, which calls this right after the
        insert.  Keys are never overwritten or deleted, so the sequence
        stamp is the key's position in the table's iteration order.
        """
        self._results_by_session.setdefault(key[:2], {})[key[2]] = (
            self._next_result_seq,
            result,
        )
        self._next_result_seq += 1
        self._drop_unarchived(key)

    # -------------------------------------------------------------- counters
    @property
    def finished(self) -> int:
        """Tasks known finished — O(1)."""
        return self._counts[TaskState.FINISHED]

    @property
    def pending(self) -> int:
        return self._counts[TaskState.PENDING]

    # ------------------------------------------------------------ scheduling
    def eligible_extras(
        self, my_name: str, owner_suspected: Callable[[str], bool]
    ) -> list[TaskRecord]:
        """Ongoing tasks of suspected other owners.

        The de-duplication rule withholds every other ongoing task.
        ``owner_suspected`` is consulted once per distinct owner with live
        ongoing tasks (the detector latches suspicion state, so asking once
        is equivalent to asking once per task).
        """
        extras: list[TaskRecord] = []
        for owner, bucket in self._ongoing_by_owner.items():
            if owner == my_name or not bucket:
                continue
            if owner_suspected(owner):
                extras.extend(bucket.values())
        return extras

    def pending_head(self) -> TaskRecord | None:
        """The FCFS-first pending record, O(log n) amortized."""
        heap = self._pending_heap
        pending = self._pending
        while heap and heap[0][1] not in pending:
            heapq.heappop(heap)
        return pending[heap[0][1]] if heap else None

    def fastest_head(self) -> TaskRecord | None:
        """The SJF-first pending record (exec_time, then FCFS)."""
        heap = self._fast_heap
        if heap is None:
            heap = self._fast_heap = [
                (_sjf_key(record), key) for key, record in self._pending.items()
            ]
            heapq.heapify(heap)
        pending = self._pending
        while heap and heap[0][1] not in pending:
            heapq.heappop(heap)
        return pending[heap[0][1]] if heap else None

    def eligible_list(self, extras: list[TaskRecord]) -> list[TaskRecord]:
        """The full FCFS-sorted eligible list (pending plus ``extras``).

        FCFS keys are unique, so this equals a sorted table scan bit for
        bit.  Positional policies (random, round-robin) need the
        materialized list; FIFO and fastest-first use the heap heads.
        """
        eligible = list(self._pending.values())
        if extras:
            eligible.extend(extras)
        eligible.sort(key=fcfs_key)
        return eligible

    def ongoing_on_server(
        self, server: "Address"
    ) -> list[tuple[CallIdentity, TaskRecord]]:
        """Snapshot of (key, record) ongoing on ``server`` (any owner)."""
        bucket = self._ongoing_by_server.get(server)
        return list(bucket.items()) if bucket else []

    def ongoing_owned_by(
        self, owner: str
    ) -> list[tuple[CallIdentity, TaskRecord]]:
        """Snapshot of (key, record) ongoing and owned by ``owner``."""
        bucket = self._ongoing_by_owner.get(owner)
        return list(bucket.items()) if bucket else []

    # ------------------------------------------------------- client requests
    def session_keys(self, session: tuple) -> list[CallIdentity]:
        """Task keys of one ``(user, session)``, in table order."""
        return [CallIdentity(*session, ts) for ts in self._by_session.get(session, ())]

    def pull_view(
        self, session: tuple, wanted: set | None
    ) -> tuple[list[Any], list[CallIdentity]]:
        """What a result pull for ``wanted`` timestamps (None = all) matches.

        Returns the result archives held here, in ``coord:results``
        insertion order, and the keys of the finished tasks whose archive is
        held elsewhere, in table order — exactly the two sequences the
        full-table walks produced.  Cost is O(min(k, session)) lookups plus
        a sort of the hits, independent of the table size.
        """
        held = _select(self._results_by_session.get(session), wanted)
        held.sort(key=itemgetter(0))
        missing = _select(self._unarchived.get(session), wanted)
        missing.sort(key=self._position)
        return [result for _seq, result in held], missing

    # ----------------------------------------------------------- replication
    def table_ordered(self, keys: Iterable[CallIdentity]) -> list[CallIdentity]:
        """``keys`` sorted by table insertion order.

        A delta replication round ships only the dirty keys, but lists them
        in the order a full table scan would have produced, so incremental
        and full abstracts list entries in one order.
        O(d log d) in the dirty-set size, independent of the table.
        """
        return sorted(keys, key=self._position)


def _select(view: dict | None, wanted: set | None) -> list:
    """Values of ``view`` filed under a ``wanted`` key, smaller side driving."""
    if not view:
        return []
    if wanted is None:
        return list(view.values())
    if len(wanted) < len(view):
        return [view[ts] for ts in wanted if ts in view]
    return [value for ts, value in view.items() if ts in wanted]
