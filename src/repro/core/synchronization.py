"""Timestamp-based synchronization.

"Synchronization with a coordinator determines received and lost messages,
which are resent."  Three flavours exist, differing by what local information
each side holds:

* **client ↔ coordinator** — the client tags every submission with its RPC
  counter; the coordinator tracks the maximum timestamp it registered per
  session.  Synchronisation compares the two and replays what one side is
  missing.  Figure 6 measures the asymmetry: rebuilding the coordinator from
  the *client's* logs only needs a local log-list read before pushing, while
  rebuilding the client from the *coordinator's* logs costs an extra round
  trip to fetch the list first.
* **coordinator ↔ coordinator** — exchanged inside the replica state: the max
  timestamp per known client.
* **server ↔ coordinator** — servers hold non-contiguous timestamps (only the
  calls they executed), so the comparison is a peer-wise set difference of
  log keys.

The functions here compute the *plans* (what must be resent) as pure data;
the components execute the plans and pay the corresponding costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = [
    "ClientSyncPlan",
    "ServerSyncPlan",
    "plan_client_sync",
    "plan_server_sync",
    "merge_max_timestamps",
]


@dataclass
class ClientSyncPlan:
    """Outcome of comparing a client's durable log with a coordinator's view."""

    #: timestamps the client holds durably but the coordinator never registered
    #: (the client must re-send these submissions from its log).
    client_must_resend: list[int] = field(default_factory=list)
    #: timestamps the coordinator registered that the client lost (optimistic
    #: logging crash window): the client application must roll back to just
    #: after the last registered call and must *not* reuse these timestamps.
    client_lost: list[int] = field(default_factory=list)
    #: timestamps whose results the coordinator already holds (the client can
    #: collect them immediately instead of waiting for the poll loop).
    results_available: list[int] = field(default_factory=list)
    #: max timestamp registered on the coordinator side.
    coordinator_max_timestamp: int = 0


def plan_client_sync(
    client_durable_keys: Iterable[int],
    coordinator_known_keys: Iterable[int],
    coordinator_finished_keys: Iterable[int],
) -> ClientSyncPlan:
    """Compare client-side durable timestamps with the coordinator's registry."""
    client_keys = {int(k) for k in client_durable_keys}
    coord_keys = {int(k) for k in coordinator_known_keys}
    finished = {int(k) for k in coordinator_finished_keys}
    return ClientSyncPlan(
        client_must_resend=sorted(client_keys - coord_keys),
        client_lost=sorted(coord_keys - client_keys),
        results_available=sorted(finished & (client_keys | coord_keys)),
        coordinator_max_timestamp=max(coord_keys, default=0),
    )


@dataclass
class ServerSyncPlan:
    """Outcome of comparing a server's result log with a coordinator's tasks."""

    #: result keys the server holds that the coordinator has not registered as
    #: finished: the server must (re)send these results.
    server_must_resend: list[Any] = field(default_factory=list)
    #: result keys the coordinator already knows as finished: the server can
    #: mark them acknowledged and garbage collect them.
    already_finished: list[Any] = field(default_factory=list)
    #: task keys the coordinator believes are assigned to this server but the
    #: server does not hold (lost on crash): the coordinator should re-queue
    #: them.
    coordinator_must_requeue: list[Any] = field(default_factory=list)


def plan_server_sync(
    server_result_keys: Iterable[Any],
    coordinator_finished_keys: Iterable[Any],
    coordinator_assigned_keys: Iterable[Any],
) -> ServerSyncPlan:
    """Peer-wise comparison of the server's log with the coordinator's view."""
    server_keys = set(server_result_keys)
    finished = set(coordinator_finished_keys)
    assigned = set(coordinator_assigned_keys)
    return ServerSyncPlan(
        server_must_resend=sorted(server_keys - finished, key=repr),
        already_finished=sorted(server_keys & finished, key=repr),
        coordinator_must_requeue=sorted(assigned - server_keys - finished, key=repr),
    )


def merge_max_timestamps(
    mine: dict[tuple[str, str], int], theirs: dict[tuple[str, str], int]
) -> int:
    """Advance ``mine`` with any larger timestamps from ``theirs``.

    Returns the number of sessions whose timestamp advanced.  Timestamps only
    ever move forward — the monotonicity invariant the property tests check.
    """
    advanced = 0
    for key, value in theirs.items():
        if value > mine.get(key, 0):
            mine[key] = value
            advanced += 1
    return advanced
