"""Coordinator-side scheduling policies (``policy.sched.*``).

The paper's coordinator uses "a basic first-come first-serve scheduling
policy" together with a simple replica-coordination scheme that prevents most
duplicate executions when several server partitions talk to different
coordinators:

* **finished** tasks are never scheduled by a coordinator replica;
* **ongoing** tasks are not scheduled until the replica suspects the
  disconnection of its predecessor (the coordinator that assigned them);
* **pending** tasks are scheduled.

Scheduling is pull-based (servers request work), so "scheduling" here means
answering one server's work request with the most appropriate eligible task.
The de-duplication scheme above is shared by every policy; what varies is
:meth:`SchedulerPolicy.choose` — which eligible task answers the request:

* ``policy.sched.fifo-reschedule`` — the paper's FCFS order (oldest
  submission first);
* ``policy.sched.random``          — uniform over the eligible set, drawn
  from a deterministic per-coordinator stream;
* ``policy.sched.round-robin``     — a rotating cursor over the FCFS order,
  spreading assignments across the backlog;
* ``policy.sched.fastest-first``   — shortest declared execution time first
  (ties broken FCFS), the classic SJF heuristic.

Every policy takes ``reschedule=`` (the "on suspicion" replication switch the
baselines ablate) and is registered in the platform registry, so scenario
specs and ``--set policy.scheduler=...`` select one by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.platform.registry import component
from repro.policies.base import PolicyBase
from repro.types import Address, TaskState

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle through
    # repro.core.__init__, which itself imports the policy layer)
    from repro.core.protocol import TaskRecord
    from repro.core.taskindex import TaskIndex

__all__ = [
    "SchedulingDecision",
    "SchedulerPolicy",
    "FifoReschedulePolicy",
    "RandomSchedulerPolicy",
    "RoundRobinSchedulerPolicy",
    "FastestFirstSchedulerPolicy",
    "fcfs_key",
]


@dataclass
class SchedulingDecision:
    """Outcome of one work request."""

    task: TaskRecord | None
    reason: str = ""


def fcfs_key(record: TaskRecord) -> tuple:
    """The paper's FCFS order: submission time, then call identity.

    Unique per task (the identity is unique), so every FCFS sort is total:
    any source of the same candidate set — a table scan or the task
    index's pending heap — produces the same order bit for bit.  The
    identity is a tuple, so the tie-break on equal submission times is
    user, then session, then RPC id.
    """
    return (record.submitted_at, record.call.identity)


class SchedulerPolicy(PolicyBase):
    """Shared machinery: eligibility, assignment bookkeeping, rescheduling.

    Subclasses implement :meth:`choose` — pick one task from the non-empty,
    FCFS-ordered eligible list.
    """

    key = "policy.sched.base"

    def __init__(self, reschedule: bool = True) -> None:
        super().__init__()
        #: re-schedule all tasks of a suspected server ("on suspicion"
        #: replication) — the switch the degraded baselines turn off.
        self.reschedule = bool(reschedule)

    # -------------------------------------------------------------- assignment
    def pick(
        self,
        index: "TaskIndex",
        server: Address,
        my_name: str,
        owner_suspected: Callable[[str], bool],
        now: float,
    ) -> SchedulingDecision:
        """Answer one work request from ``server``.

        The eligible candidates come from the structures ``index`` (the
        coordinator's :class:`TaskIndex`) maintains: every pending task,
        plus the ongoing tasks of other coordinators this one suspects —
        every other ongoing task is withheld.  The caller is responsible
        for routing the mutation back through the index (the coordinator
        does so via ``_mark_dirty``).
        """
        extras = self.eligible(index, my_name, owner_suspected)
        if extras is None:
            return SchedulingDecision(task=None, reason="no eligible task")
        task = self.choose_indexed(index, extras, server=server, now=now)
        task.state = TaskState.ONGOING
        task.owner = my_name
        task.assigned_server = server
        task.attempts += 1
        task.started_at = now
        self.incr("assignments")
        return SchedulingDecision(task=task, reason=self.key)

    def eligible(
        self,
        index: "TaskIndex",
        my_name: str,
        owner_suspected: Callable[[str], bool],
    ) -> list[TaskRecord] | None:
        """The one eligibility test: the released ongoing tasks.

        Returns the ongoing tasks released besides the pending ones, or
        ``None`` when nothing at all is eligible (none pending, none
        released).  :meth:`pick` and :meth:`nothing_eligible` both ask it,
        so a request held without the charges is one a pick would not
        answer.
        """
        extras = index.eligible_extras(my_name, owner_suspected)
        if not index.pending and not extras:
            return None
        return extras

    def nothing_eligible(
        self,
        index: "TaskIndex",
        my_name: str,
        owner_suspected: Callable[[str], bool],
    ) -> bool:
        """Whether :meth:`eligible` finds nothing for a request.

        The coordinator asks it before charging a work request anything.
        A pending task is always eligible, so it answers ``False`` without
        asking the detector about any owner.
        """
        return not index.pending and self.eligible(
            index, my_name, owner_suspected
        ) is None

    def choose(
        self, eligible: list[TaskRecord], server: Address, now: float
    ) -> TaskRecord:
        """Pick one task from the non-empty, FCFS-ordered eligible list."""
        raise NotImplementedError

    def choose_indexed(
        self,
        index: "TaskIndex",
        extras: list[TaskRecord],
        server: Address,
        now: float,
    ) -> TaskRecord | None:
        """Pick one task through the index (``None`` when nothing is eligible).

        The default materializes the FCFS-sorted eligible list — positional
        policies (random, round-robin) need it — and hands it to
        :meth:`choose`.  FIFO and fastest-first override this with their
        heap heads.
        """
        eligible = index.eligible_list(extras)
        if not eligible:
            return None
        return self.choose(eligible, server=server, now=now)

    # ------------------------------------------------------------ rescheduling
    def reschedule_for_suspected_server(
        self, index: "TaskIndex", server: Address, my_name: str
    ) -> list[TaskRecord]:
        """"On suspicion" replication: re-queue every ongoing task of ``server``.

        Returns the tasks that were reset to PENDING (empty when the policy
        has rescheduling disabled).  Only the suspected server's ongoing
        bucket is touched, not the table; the caller routes the resets back
        through the index when marking them dirty.
        """
        if not self.reschedule:
            return []
        reset: list[TaskRecord] = []
        for _key, record in index.ongoing_on_server(server):
            if record.owner == my_name:
                record.state = TaskState.PENDING
                record.assigned_server = None
                reset.append(record)
        if reset:
            self.incr("reschedules", len(reset))
        return reset


@component("policy.sched.fifo-reschedule")
class FifoReschedulePolicy(SchedulerPolicy):
    """First-come first-served (the paper's policy): oldest submission first."""

    key = "policy.sched.fifo-reschedule"

    def choose_indexed(
        self,
        index: "TaskIndex",
        extras: list[TaskRecord],
        server: Address,
        now: float,
    ) -> TaskRecord | None:
        # O(log n): the pending heap head, against the (rare, small) extras.
        head = index.pending_head()
        if extras:
            best_extra = min(extras, key=fcfs_key)
            if head is None or fcfs_key(best_extra) < fcfs_key(head):
                return best_extra
        return head


@component("policy.sched.random")
class RandomSchedulerPolicy(SchedulerPolicy):
    """Uniform over the eligible set, from a deterministic per-owner stream."""

    key = "policy.sched.random"

    def choose(
        self, eligible: list[TaskRecord], server: Address, now: float
    ) -> TaskRecord:
        index = int(self.stream(self.owner).integers(0, len(eligible)))
        return eligible[index]


@component("policy.sched.round-robin")
class RoundRobinSchedulerPolicy(SchedulerPolicy):
    """A rotating cursor over the FCFS order: spread work over the backlog."""

    key = "policy.sched.round-robin"

    def __init__(self, reschedule: bool = True) -> None:
        super().__init__(reschedule=reschedule)
        self._cursor = 0

    def choose(
        self, eligible: list[TaskRecord], server: Address, now: float
    ) -> TaskRecord:
        task = eligible[self._cursor % len(eligible)]
        self._cursor += 1
        return task


@component("policy.sched.fastest-first")
class FastestFirstSchedulerPolicy(SchedulerPolicy):
    """Shortest declared execution time first (SJF), FCFS tie-break.

    Calls that declare no ``exec_time`` sort last (they could run forever,
    so known-short work goes out first).
    """

    key = "policy.sched.fastest-first"

    def choose_indexed(
        self,
        index: "TaskIndex",
        extras: list[TaskRecord],
        server: Address,
        now: float,
    ) -> TaskRecord | None:
        # O(log n): the (exec_time, fcfs) heap head, against the extras.
        # The SJF key embeds the unique FCFS key, so there are no ties and
        # the heap head equals choose()'s min() over the full list.
        head = index.fastest_head()
        if extras:
            best_extra = min(extras, key=_sjf_key)
            if head is None or _sjf_key(best_extra) < _sjf_key(head):
                return best_extra
        return head


def _sjf_key(record: TaskRecord) -> tuple:
    """Fastest-first order: declared exec time (unknown last), FCFS tie-break."""
    return (
        record.call.exec_time if record.call.exec_time is not None else float("inf"),
        fcfs_key(record),
    )
