"""What a coordinator's task index costs per task.

Every coordinator holds the whole task table (passive replication), so each
byte the :class:`~repro.core.taskindex.TaskIndex` keeps per task is paid once
per coordinator.  The index holds views of the table, not a copy of it: a
key's prior state is the view that holds it, and one position per key
serves both session order and table order.
"""

from __future__ import annotations

import tracemalloc

from repro.core.protocol import CallDescription, TaskRecord
from repro.core.taskindex import TaskIndex
from repro.types import Address, CallIdentity, TaskState

SERVERS = tuple(Address("server", f"s{i}") for i in range(4))
#: one task in four per state, the last quarter finished with its archive
#: held elsewhere.
STATES = (TaskState.PENDING, TaskState.ONGOING, TaskState.FINISHED, TaskState.FINISHED)


def _tables(n: int) -> tuple[dict, dict]:
    """``n`` tasks over two sessions, in every state, and the held archives."""
    tasks: dict[CallIdentity, TaskRecord] = {}
    results: dict[CallIdentity, object] = {}
    for counter in range(n):
        key = CallIdentity("u", ("a", "b")[counter % 2], counter + 1)
        record = TaskRecord(
            call=CallDescription(
                identity=key, service="sleep", params_bytes=100, exec_time=1.0
            ),
            state=STATES[counter % 4],
            owner=("k0", "k1")[counter % 3 == 0],
            submitted_at=float(counter),
        )
        if record.state is TaskState.ONGOING:
            record.assigned_server = SERVERS[counter % 4]
        elif counter % 4 == 2:
            results[key] = object()
        tasks[key] = record
    return tasks, results


def test_index_bytes_per_task():
    """Pinned from a measured 171 B per task; a shadow (state, owner,
    server) tuple plus a separate table-order map per key cost 273 B."""
    n = 10_000
    tasks, results = _tables(n)
    tracemalloc.start()
    try:
        floor = tracemalloc.get_traced_memory()[0]
        index = TaskIndex(tasks, results)
        per_task = (tracemalloc.get_traced_memory()[0] - floor) / n
    finally:
        tracemalloc.stop()
    assert index.state_counts() == {
        TaskState.PENDING: n // 4,
        TaskState.ONGOING: n // 4,
        TaskState.FINISHED: n // 2,
    }
    assert per_task < 200, per_task
