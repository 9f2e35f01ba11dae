"""Coordinator replication policies (``policy.repl.*``).

The mechanism lives on the coordinator and in :mod:`repro.core.replication`:
:meth:`~repro.core.coordinator.CoordinatorComponent.replicate` is the one
round routine — build the abstract of the change log, push it to the given
peers, retire what the round carried once enough of them acknowledged — and
:meth:`~repro.core.coordinator.CoordinatorComponent.replicate_once` runs it
against the ring successor, suspecting a silent one.  What a policy owns is
the *cadence*: when rounds happen, to whom, and what triggers them.

* ``policy.repl.passive-periodic`` — the paper's protocol: one round every
  ``period`` seconds (60 s on the Internet testbed, one heart-beat period on
  the confined cluster);
* ``policy.repl.none``             — never replicate (the Ninf/RCS-style and
  NetSolve-style baselines);
* ``policy.repl.on-commit``        — eager: a round fires as soon as state
  becomes dirty (new submission, assignment, completion, requeue), with an
  optional ``min_interval`` damping successive rounds.  Trades bandwidth and
  database writes for a near-zero replica lag.

A policy is installed from the coordinator's ``start()`` — once per
incarnation, so a crashed-and-restarted coordinator re-arms its cadence the
same way its first incarnation did.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.platform.registry import component
from repro.policies.base import PolicyBase
from repro.sim.core import ProcessKilled

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.coordinator import CoordinatorComponent

__all__ = [
    "ReplicationPolicy",
    "PassivePeriodicReplication",
    "NoReplication",
    "OnCommitReplication",
    "QuorumReplication",
]

#: the longest a quorum round backs off a silent successor, in rounds.
MAX_BACKOFF_ROUNDS = 4


class ReplicationPolicy(PolicyBase):
    """When (and whether) a coordinator propagates state to its successor."""

    key = "policy.repl.base"

    def install(self, coordinator: "CoordinatorComponent") -> None:
        """Arm the cadence on ``coordinator`` (called from its ``start()``)."""

    def on_dirty(self, coordinator: "CoordinatorComponent", key: object) -> None:
        """Notification: a change to ``key`` entered the coordinator's change log."""


@component("policy.repl.passive-periodic")
class PassivePeriodicReplication(ReplicationPolicy):
    """One replication round every ``period`` seconds (the paper's protocol)."""

    key = "policy.repl.passive-periodic"

    def __init__(self, period: float | None = None, name: str | None = None) -> None:
        super().__init__(name)
        #: seconds between rounds; ``None`` defers to the coordinator's
        #: :class:`~repro.config.ReplicationConfig` period.
        self.period = period

    def install(self, coordinator: "CoordinatorComponent") -> None:
        coordinator.host.spawn(
            self._loop(coordinator), name=f"{coordinator.name}:replication"
        )

    def _loop(self, coordinator: "CoordinatorComponent"):
        period = (
            self.period
            if self.period is not None
            else coordinator.config.replication.period
        )
        try:
            while True:
                yield coordinator.host.sleep(period)
                yield from coordinator.replicate_once()
                self.incr("rounds")
        except ProcessKilled:  # pragma: no cover - host crash
            return


@component("policy.repl.none")
class NoReplication(ReplicationPolicy):
    """Never replicate: the coordinator is a single point of failure."""

    key = "policy.repl.none"


@component("policy.repl.on-commit")
class OnCommitReplication(ReplicationPolicy):
    """Replicate eagerly: a round fires as soon as state becomes dirty.

    The driver sleeps on an event while every logged change has been
    acknowledged; :meth:`on_dirty` wakes it.  ``min_interval`` (seconds)
    spaces successive rounds so a submission burst coalesces into one
    abstract per interval instead of one per task.
    """

    key = "policy.repl.on-commit"

    def __init__(
        self,
        min_interval: float = 0.0,
        backoff: float | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if min_interval < 0:
            from repro.errors import ConfigurationError

            raise ConfigurationError("min_interval must be non-negative")
        if backoff is not None and backoff <= 0:
            from repro.errors import ConfigurationError

            raise ConfigurationError("backoff must be positive")
        self.min_interval = float(min_interval)
        #: seconds to wait after a round that went nowhere (no ring
        #: successor); ``None`` falls back to the coordinator's configured
        #: replication period.
        self.backoff = backoff
        self._wake = None
        #: whether the coordinator holds changes no round has retired yet.
        self._owed = False

    def install(self, coordinator: "CoordinatorComponent") -> None:
        self._wake = None
        # start() has just logged every task for the post-restart resync.
        self._owed = bool(coordinator.tasks)
        coordinator.host.spawn(
            self._loop(coordinator), name=f"{coordinator.name}:replication"
        )

    def on_dirty(self, coordinator: "CoordinatorComponent", key: object) -> None:
        self._owed = True
        wake = self._wake
        if wake is not None and not wake.triggered:
            wake.succeed(None)

    def _loop(self, coordinator: "CoordinatorComponent"):
        env = coordinator.env
        try:
            while True:
                if not self._owed:
                    self._wake = env.event()
                    yield self._wake
                    self._wake = None
                # An acknowledged round retires everything it carried; a
                # change made meanwhile sets the flag again via on_dirty.
                self._owed = False
                before = env.now
                if not (yield from coordinator.replicate_once()):
                    self._owed = True
                self.incr("rounds")
                if self.min_interval > 0:
                    yield coordinator.host.sleep(self.min_interval)
                elif env.now == before:
                    # The round went nowhere without consuming time (no ring
                    # successor): back off by this policy's own interval —
                    # only falling back to the passive period when none was
                    # configured — instead of spinning on the same simulated
                    # instant.
                    yield coordinator.host.sleep(
                        self.backoff
                        if self.backoff is not None
                        else coordinator.config.replication.period
                    )
        except ProcessKilled:  # pragma: no cover - host crash
            return


@component("policy.repl.quorum")
class QuorumReplication(ReplicationPolicy):
    """Replicate to ``successors`` ring successors; commit on majority acks.

    Each round pushes the state abstract to up to ``successors`` ring
    successors in parallel and counts the epoch *committed* — only then are
    its changes retired — once ⌈(successors+1)/2⌉ acks arrive.  A successor
    with an outstanding un-acked push is backed off exponentially (per
    successor, in units of the round period, up to
    :data:`MAX_BACKOFF_ROUNDS`) and suspected after two consecutive misses,
    so one silent replica neither stalls the round nor keeps absorbing
    state pushes it never acknowledges.

    On restart (a fresh incarnation of a crashed coordinator), the policy
    first pulls the replicated state back from the surviving successors and
    elects the freshest replica before resuming the push cadence.
    """

    key = "policy.repl.quorum"

    def __init__(
        self,
        successors: int = 2,
        period: float | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        from repro.errors import ConfigurationError

        if successors < 1:
            raise ConfigurationError("successors must be >= 1")
        self.successors = int(successors)
        self.period = period
        # per-successor outstanding-push backoff state.
        self._next_allowed: dict = {}
        self._misses: dict = {}

    def quorum_for(self, n_targets: int) -> int:
        """Acks needed to commit a round pushed to ``n_targets`` successors."""
        return max(1, min((self.successors + 2) // 2, n_targets))

    def install(self, coordinator: "CoordinatorComponent") -> None:
        self._next_allowed = {}
        self._misses = {}
        coordinator.host.spawn(
            self._loop(coordinator), name=f"{coordinator.name}:replication"
        )

    def _loop(self, coordinator: "CoordinatorComponent"):
        env = coordinator.env
        period = (
            self.period
            if self.period is not None
            else coordinator.config.replication.period
        )
        try:
            if coordinator.host.incarnation > 0:
                yield from self._recover(coordinator)
            while True:
                yield coordinator.host.sleep(period)
                ring = coordinator.registry.ring_successors(
                    coordinator.address, self.successors
                )
                targets = [
                    t for t in ring if self._next_allowed.get(t, 0.0) <= env.now
                ]
                if not targets:
                    self.incr("skipped_rounds")
                    continue
                quorum = self.quorum_for(len(targets))
                acks = yield from coordinator.replicate(targets, quorum)
                committed = len(acks) >= quorum
                coordinator.monitor.incr(
                    "coordinator.quorum_commits"
                    if committed
                    else "coordinator.quorum_aborts"
                )
                self.incr("rounds")
                self.incr("commits" if committed else "aborts")
                for target in targets:
                    if target in acks:
                        self._misses.pop(target, None)
                        self._next_allowed.pop(target, None)
                        continue
                    misses = self._misses.get(target, 0) + 1
                    self._misses[target] = misses
                    rounds = min(2 ** (misses - 1), MAX_BACKOFF_ROUNDS)
                    self._next_allowed[target] = env.now + rounds * period
                    self.incr("push_backoffs")
                    if misses >= 2:
                        coordinator.suspect_coordinator(target)
        except ProcessKilled:  # pragma: no cover - host crash
            return

    def _recover(self, coordinator: "CoordinatorComponent"):
        """Pull state back from the surviving successors, elect the freshest."""
        targets = coordinator.registry.ring_successors(
            coordinator.address, self.successors
        )
        if not targets:
            return
        coordinator.pull_replicas(targets)
        self.incr("recovery_pulls", len(targets))
        # One heart-beat period is ample for the pulled abstracts to land on
        # a healthy network; stragglers still merge through the normal
        # REPLICA_STATE path afterwards.
        yield coordinator.host.sleep(coordinator.config.detection.heartbeat_period)
        origin = coordinator.elect_freshest_origin()
        if origin is not None:
            self.incr("recoveries")
