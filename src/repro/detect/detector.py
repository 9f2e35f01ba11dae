"""Timeout-based unreliable failure detector.

The detector keeps, per monitored address, the last time anything was heard
from it; an address is *suspected* once that silence exceeds the suspicion
timeout (30 s in the paper's confined experiments, against a 5 s heart-beat).
Because the network is asynchronous the suspicion can be wrong in both
directions; the detector therefore also supports accounting of wrong
suspicions against ground truth when the caller provides it (used by the
detector-ablation experiment).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.config import FaultDetectionConfig
from repro.types import Address

__all__ = ["SuspicionEvent", "FailureDetector"]


@dataclass(frozen=True)
class SuspicionEvent:
    """One transition of the detector's opinion about an address."""

    time: float
    subject: Address
    suspected: bool
    #: whether the subject was actually down at that time (None if unknown).
    correct: bool | None = None


@dataclass
class FailureDetector:
    """Per-component unreliable failure detector."""

    config: FaultDetectionConfig = field(default_factory=FaultDetectionConfig)
    #: optional ground-truth oracle, address -> is-up (metrics only; the
    #: protocol itself never consults it).
    ground_truth: Callable[[Address], bool] | None = None
    #: optional ``policy.detect.*`` strategy (duck-typed to avoid importing
    #: :mod:`repro.policies` here): ``observe(subject, gap)``,
    #: ``forget(subject)`` and ``suspects(subject, silence, config)``.
    #: ``None`` keeps the historical fixed-timeout rule byte-for-byte.
    policy: Any = None
    #: optional monitor whose ``<scope>.*`` counters mirror suspicion
    #: transitions (counters survive the owning component's restarts, while
    #: this detector instance does not).
    monitor: Any = None
    scope: str = "detect"

    last_heard: dict[Address, float] = field(default_factory=dict)
    #: per-subject highest incarnation seen (only for subjects whose
    #: messages carry one).
    incarnations: dict[Address, int] = field(default_factory=dict)
    _suspected: set[Address] = field(default_factory=set)
    history: list[SuspicionEvent] = field(default_factory=list)
    wrong_suspicions: int = 0

    # -- observations -------------------------------------------------------------
    def watch(self, subject: Address, now: float) -> None:
        """Start monitoring ``subject`` (counts as hearing from it now)."""
        self.last_heard.setdefault(subject, now)

    def unwatch(self, subject: Address) -> None:
        """Stop monitoring ``subject`` entirely."""
        self.last_heard.pop(subject, None)
        self.incarnations.pop(subject, None)
        self._suspected.discard(subject)
        if self.policy is not None:
            self.policy.forget(subject)

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
        if self.policy is not None:
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
        if self.policy is not None:
            suspected = bool(self.policy.suspects(subject, silence, self.config))
        else:
            suspected = silence > self.config.suspicion_timeout
        if suspected and subject not in self._suspected:
            self._suspected.add(subject)
            self._record(now, subject, suspected=True)
        elif not suspected and subject in self._suspected:
            self._suspected.discard(subject)
            self._record(now, subject, suspected=False)
        return suspected

    def suspected_set(self, now: float) -> set[Address]:
        """All currently suspected addresses (re-evaluated at ``now``)."""
        return {a for a in list(self.last_heard) if self.is_suspected(a, now)}

    def unsuspected(self, candidates: Iterable[Address], now: float) -> list[Address]:
        """Filter ``candidates`` down to those not currently suspected."""
        return [a for a in candidates if not self.is_suspected(a, now)]

    def monitored(self) -> list[Address]:
        """All addresses currently being monitored."""
        return list(self.last_heard)

    # -- accounting -------------------------------------------------------------------
    def _record(self, now: float, subject: Address, suspected: bool) -> None:
        correct: bool | None = None
        if self.ground_truth is not None:
            actually_up = self.ground_truth(subject)
            correct = (suspected and not actually_up) or (not suspected and actually_up)
            if suspected and actually_up:
                self.wrong_suspicions += 1
        if self.monitor is not None:
            self.monitor.incr(
                f"{self.scope}.suspicions" if suspected
                else f"{self.scope}.rehabilitations"
            )
            if suspected and correct is False:
                self.monitor.incr(f"{self.scope}.wrong_suspicions")
        self.history.append(
            SuspicionEvent(time=now, subject=subject, suspected=suspected, correct=correct)
        )

    def suspicion_transitions(self) -> int:
        """Number of opinion changes so far."""
        return len(self.history)
