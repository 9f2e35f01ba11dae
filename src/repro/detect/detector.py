"""Timeout-based unreliable failure detector.

The detector keeps, per monitored address, the last time anything was heard
from it; an address is *suspected* once its ``policy.detect.*`` rule says the
silence is too long (30 s in the paper's confined experiments, against a 5 s
heart-beat).  Because the network is asynchronous the suspicion can be wrong.

A detector that knows the grid's components (``peers``) scores each
suspicion, for metrics only, by what the subject's :class:`~repro.nodes.node.Host`
records at that instant — after Chen, Toueg & Aguilera's QoS metrics:

* ``<scope>.suspected_crashed`` — the subject is down; ``now`` minus its
  crash instant is added to ``<scope>.detection_s`` (the detection time T_D);
* ``<scope>.suspected_restarted`` — it crashed and came back since it was
  last heard, so the incarnation the detector watched is gone;
* ``<scope>.suspected_left`` — an up server that now addresses another
  coordinator: its silence towards this one is expected;
* ``<scope>.wrong_suspicions`` — anything else is a mistake.  When hearing
  from the subject ends it, ``<scope>.mistakes_ended`` counts it and its
  length is added to ``<scope>.mistake_s`` (the mistake duration T_M).

A mistake that no rehabilitation ends is never measured: one still open at
the end of the run, one the watching component forgot by restarting, and
one whose subject crashed meanwhile (it ended at a crash instant the host no
longer records once it restarts).  ``wrong_suspicions - mistakes_ended``
counts them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.config import FaultDetectionConfig
from repro.types import Address

__all__ = ["FailureDetector"]


def _exact(seconds: float) -> float:
    """``seconds`` on a 2**-20 s grid, where sums are exact.

    A coordinator scores the subjects of one watch tick in hash order, so a
    duration counter's total must not depend on the order it was added in.
    """
    return round(seconds * 1048576.0) / 1048576.0


@dataclass
class FailureDetector:
    """Per-component unreliable failure detector."""

    config: FaultDetectionConfig
    #: the ``policy.detect.*`` strategy owning the suspicion rule (duck-typed
    #: to avoid importing :mod:`repro.policies` here): ``observe(subject,
    #: gap)``, ``forget(subject)`` and ``suspects(subject, silence, config)``.
    policy: Any
    #: optional monitor whose ``<scope>.*`` counters mirror suspicion
    #: transitions (counters survive the owning component's restarts, while
    #: this detector instance does not).
    monitor: Any = None
    scope: str = "detect"
    #: the watching component's address and the grid's components by
    #: address, read only to score suspicions (the protocol never does).
    owner: Address | None = None
    peers: Mapping[Address, Any] = field(default_factory=dict)

    last_heard: dict[Address, float] = field(default_factory=dict)
    #: per-subject highest incarnation seen (only for subjects whose
    #: messages carry one).
    incarnations: dict[Address, int] = field(default_factory=dict)
    _suspected: set[Address] = field(default_factory=set)
    #: subject -> instant a suspicion scored as a mistake was latched.
    _mistaken: dict[Address, float] = field(default_factory=dict)

    # -- observations -------------------------------------------------------------
    def watch(self, subject: Address, now: float) -> None:
        """Start monitoring ``subject`` (counts as hearing from it now)."""
        self.last_heard.setdefault(subject, now)

    def heard_from(
        self, subject: Address, now: float, incarnation: int | None = None
    ) -> None:
        """Record that any message (heart-beat or not) arrived from ``subject``.

        Hearing from a suspected component rehabilitates it: on an
        asynchronous network a suspicion is only ever an opinion.

        When the message carries an ``incarnation`` higher than the last one
        seen, the subject restarted: its silence window belongs to the dead
        incarnation, so the gap across the restart must neither feed the
        policy's inter-arrival statistics nor be inherited as last-heard
        state by the fresh incarnation.
        """
        previous = self.last_heard.get(subject)
        restarted = False
        if incarnation is not None:
            known = self.incarnations.get(subject)
            if known is None or incarnation > known:
                self.incarnations[subject] = incarnation
                restarted = known is not None
        if restarted:
            self.policy.forget(subject)
        elif previous is not None and now > previous:
            self.policy.observe(subject, now - previous)
        self.last_heard[subject] = now
        if subject in self._suspected:
            self._suspected.discard(subject)
            self._record(now, subject, suspected=False)

    # -- queries --------------------------------------------------------------------
    def silence(self, subject: Address, now: float) -> float:
        """Seconds since anything was heard from ``subject`` (inf if never)."""
        last = self.last_heard.get(subject)
        return float("inf") if last is None else now - last

    def is_suspected(self, subject: Address, now: float) -> bool:
        """Evaluate (and latch) the suspicion status of ``subject``."""
        if subject not in self.last_heard:
            return False
        silence = self.silence(subject, now)
        suspected = bool(self.policy.suspects(subject, silence, self.config))
        if suspected and subject not in self._suspected:
            self._suspected.add(subject)
            self._record(now, subject, suspected=True)
        # Built-in policies suspect more the longer the silence; a plug-in
        # one may stop suspecting without news.
        elif not suspected and subject in self._suspected:  # pragma: no cover - plug-in policy
            self._suspected.discard(subject)
            self._record(now, subject, suspected=False)
        return suspected

    # -- accounting -------------------------------------------------------------------
    def _record(self, now: float, subject: Address, suspected: bool) -> None:
        monitor = self.monitor
        if monitor is None:
            return
        scope = self.scope
        if not suspected:
            monitor.incr(f"{scope}.rehabilitations")
            since = self._mistaken.pop(subject, None)
            if since is not None and self.peers[subject].host.last_transition <= since:
                monitor.incr(f"{scope}.mistakes_ended")
                monitor.incr(f"{scope}.mistake_s", _exact(now - since))
            return
        monitor.incr(f"{scope}.suspicions")
        peer = self.peers.get(subject)
        if peer is None:
            return  # not a component of this grid: nothing to score against
        host = peer.host
        # Servers (and clients) address one coordinator at a time.
        addressing = getattr(peer, "preferred_coordinator", lambda: None)()
        if not host.up:
            monitor.incr(f"{scope}.suspected_crashed")
            monitor.incr(f"{scope}.detection_s", _exact(now - host.last_transition))
        elif host.incarnation and host.last_transition > self.last_heard[subject]:
            monitor.incr(f"{scope}.suspected_restarted")
        elif addressing is not None and addressing != self.owner:
            monitor.incr(f"{scope}.suspected_left")
        else:
            monitor.incr(f"{scope}.wrong_suspicions")
            self._mistaken[subject] = now
