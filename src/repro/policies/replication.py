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
    "QuorumReplication",
]

#: the longest a quorum round backs off a silent successor, in rounds.
MAX_BACKOFF_ROUNDS = 4


class ReplicationPolicy(PolicyBase):
    """When (and whether) a coordinator propagates state to its successor."""

    key = "policy.repl.base"

    def install(self, coordinator: "CoordinatorComponent") -> None:
        """Arm the cadence on ``coordinator`` (called from its ``start()``)."""


@component("policy.repl.passive-periodic")
class PassivePeriodicReplication(ReplicationPolicy):
    """One replication round every ``period`` seconds (the paper's protocol)."""

    key = "policy.repl.passive-periodic"

    def __init__(self, period: float | None = None) -> None:
        super().__init__()
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
    waits one heart-beat period for it to merge before resuming the push
    cadence.
    """

    key = "policy.repl.quorum"

    def __init__(
        self,
        successors: int = 2,
        period: float | None = None,
    ) -> None:
        super().__init__()
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
                if not targets:  # pragma: no cover - every successor backed off
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
        """Pull state back from the surviving successors and let it merge.

        Counts a recovery when some peer's state abstract has reached this
        coordinator (in this incarnation or an earlier one).
        """
        targets = coordinator.registry.ring_successors(
            coordinator.address, self.successors
        )
        if not targets:  # pragma: no cover - every successor suspected
            return
        coordinator.pull_replicas(targets)
        self.incr("recovery_pulls", len(targets))
        # One heart-beat period is ample for the pulled abstracts to land on
        # a healthy network; stragglers still merge through the normal
        # REPLICA_STATE path afterwards.
        yield coordinator.host.sleep(coordinator.config.detection.heartbeat_period)
        if coordinator.heard_a_replica:
            self.incr("recoveries")
