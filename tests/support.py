"""Fakes and reference oracles the tests share; nothing in ``src/`` uses them.

* :class:`PerfectLinkModel` — a zero-latency, lossless link for transport
  and protocol unit tests (the product always builds a site map's links);
* :func:`check_log_integrity` and :func:`log_keys` — the impossible record
  states and every key of a :class:`~repro.msglog.log.MessageLog`, read
  from outside;
* :data:`STATE_PRECEDENCE` — the replica merge order the merge must respect;
* :func:`fail_event` — trigger an event with an exception, as a process
  that raised does, for the kernel's failure-propagation tests;
* :func:`count_charges` — count a coordinator database's paid scans and
  writes from outside.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.errors import LogCorruption
from repro.types import TaskState


@dataclass
class PerfectLinkModel:
    """Zero-latency (or fixed-latency), infinite-bandwidth, lossless link."""

    latency: float = 0.0

    def transfer_time(self, source, dest, size_bytes, rng) -> float:
        return self.latency

    def loss_probability(self, source, dest) -> float:
        return 0.0


def check_log_integrity(log) -> None:
    """Raise :class:`LogCorruption` on impossible record states of ``log``."""
    for key, record in log._durable.items():
        if not record.durable:
            raise LogCorruption(f"record {key!r} in durable store but not durable")
    for key, record in log._buffered.items():
        if record.durable:
            raise LogCorruption(f"record {key!r} durable but still buffered")
        if key in log._durable:
            raise LogCorruption(f"record {key!r} present in both stores")


#: merge precedence of a task state: finished beats ongoing beats pending.
STATE_PRECEDENCE = {TaskState.PENDING: 0, TaskState.ONGOING: 1, TaskState.FINISHED: 2}


def fail_event(event, exception: BaseException):
    """Trigger ``event`` with ``exception`` in the current tick.

    Every waiter gets the exception thrown in; unless a waiter or the test
    sets ``event._defused``, ``run()`` re-raises it once the event fires.
    """
    event._ok = False
    event._value = exception
    event.env._tick.append(event)
    return event


def log_keys(log) -> set:
    """Keys of every record of ``log``, durable or buffered."""
    return set(log._durable) | set(log._buffered)


def count_charges(database) -> Counter:
    """Count each ``charge_scan`` / ``charge_write`` of ``database`` from now
    on, as ``counts["scan"]`` / ``counts["write"]``."""
    counts: Counter = Counter()
    for kind in ("scan", "write"):
        charge = getattr(database, f"charge_{kind}")

        def counted(*args, charge=charge, kind=kind):
            counts[kind] += 1
            return charge(*args)

        setattr(database, f"charge_{kind}", counted)
    return counts
