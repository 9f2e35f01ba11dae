"""Coordinator database cost model and the keys it has charged for.

In XtremWeb the coordinator keeps job and task *descriptions* in a MySQL
database (file archives live on the filesystem and are never replicated).
Figure 5 shows that coordinator replication time is dominated by database
operation time at the backup for small records, and grows linearly with the
number of task descriptions because tasks are replicated one after the other.
The model therefore charges a fixed per-operation cost plus a per-byte cost,
and the :class:`Database` object accounts for the time those operations
take.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError

__all__ = ["DatabaseModel", "Database"]


@dataclass
class DatabaseModel:
    """Per-operation timing model of the coordinator's description store."""

    #: fixed cost of an INSERT/UPDATE of one description, seconds.  The
    #: confined-cluster coordinators (IDE disks, 2004 MySQL) pay a few ms per
    #: row; the real-life coordinators "exhibit better performance on database
    #: operations" so deployments may lower this.
    write_op_latency: float = 0.004
    #: additional cost per byte of description payload, seconds/byte.
    per_byte: float = 2.0e-8
    #: cost of scanning the task table once (used by schedulers and syncs).
    scan_latency: float = 0.002

    def __post_init__(self) -> None:
        if min(self.write_op_latency, self.scan_latency) < 0:
            raise ConfigurationError("database latencies must be non-negative")
        if self.per_byte < 0:
            raise ConfigurationError("per_byte must be non-negative")

    def write_time(self, size_bytes: int) -> float:
        """Cost of inserting/updating one record of ``size_bytes``."""
        return self.write_op_latency + size_bytes * self.per_byte

    def scan_time(self, n_records: int) -> float:
        """Cost of scanning ``n_records`` records (index walk)."""
        return self.scan_latency + 0.00002 * n_records


class Database:
    """The coordinator's description table, as the cost model sees it.

    Only the keys are kept: a write's cost depends on the record's size and a
    scan's on how many distinct keys were ever written, and nothing reads a
    stored value back.  Callers are expected to ``yield
    env.timeout(db.charge_...)`` around their operations — the coordinator
    component does exactly that — so that the time cost shows up in the
    simulation.  Contents survive crashes: the database sits on the
    coordinator's persistent storage.
    """

    def __init__(self, model: DatabaseModel | None = None) -> None:
        self.model = model or DatabaseModel()
        #: every key written so far (what a scan walks).
        self.keys: set[Any] = set()
        #: cumulative simulated time charged by this database (reporting).
        self.time_charged = 0.0
        #: operation counters.
        self.writes = 0
        self.scans = 0

    # -- operations (return the time they cost; caller yields the timeout) ----
    def charge_write(self, key: Any, size_bytes: int) -> float:
        """Insert or update the record under ``key``; returns the time cost."""
        self.keys.add(key)
        self.writes += 1
        cost = self.model.write_time(size_bytes)
        self.time_charged += cost
        return cost

    def charge_scan(self) -> float:
        """Charge one full scan of the table; returns the time cost."""
        self.scans += 1
        cost = self.model.scan_time(len(self.keys))
        self.time_charged += cost
        return cost
