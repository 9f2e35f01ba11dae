"""Failure-detection policies (``policy.detect.*``).

The mechanism — tracking last-heard timestamps, latching suspicion
transitions and scoring each suspicion — stays in
:class:`~repro.detect.detector.FailureDetector`.  What a policy owns is the
*rule*: given the current silence for a subject (and whatever gap statistics
the policy accumulated from past heartbeats), is the subject suspected?

* ``policy.detect.fixed-timeout``    — the paper's detector: suspect after a
  fixed ``suspicion_timeout`` seconds of silence.  Stateless; byte-identical
  to the historical flag-driven rule and therefore the default.
* ``policy.detect.adaptive-timeout`` — Jacobson-style RTO estimation over
  inter-heartbeat gaps: suspect when silence exceeds ``mean + k * var``
  (EWMA smoothed), floored at two heartbeat periods and ceilinged at the
  configured fixed timeout, so adaptation can only *tighten* detection.
* ``policy.detect.phi-accrual``      — Hayashibara-style accrual detection:
  a sliding window of gaps yields a suspicion level
  ``phi = -log10 P(gap > silence)`` under a normal fit; suspect when phi
  crosses ``threshold``.

Every policy sees the same heartbeat stream (``observe``), the same
new-incarnation resets (``forget``), and answers through the same
``suspects`` seam, so the ``detector-ablation`` scenario compares them on
identical inputs.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict

from repro.errors import ConfigurationError
from repro.platform.registry import component
from repro.policies.base import PolicyBase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import FaultDetectionConfig

__all__ = [
    "DetectionPolicy",
    "FixedTimeoutDetection",
    "AdaptiveTimeoutDetection",
    "PhiAccrualDetection",
]


class DetectionPolicy(PolicyBase):
    """When a silent subject tips over into suspicion."""

    key = "policy.detect.base"

    def observe(self, subject: object, gap: float) -> None:
        """Record one inter-arrival gap (seconds) for ``subject``."""

    def forget(self, subject: object) -> None:
        """Drop accumulated statistics for ``subject`` (new incarnation)."""

    def suspects(
        self, subject: object, silence: float, config: "FaultDetectionConfig"
    ) -> bool:
        """Whether ``silence`` seconds without news makes ``subject`` suspect."""
        raise NotImplementedError


@component("policy.detect.fixed-timeout")
class FixedTimeoutDetection(DetectionPolicy):
    """Suspect after a fixed silence threshold (the paper's detector)."""

    key = "policy.detect.fixed-timeout"

    def __init__(self, timeout: float | None = None) -> None:
        super().__init__()
        if timeout is not None and timeout <= 0:
            raise ConfigurationError("timeout must be positive")
        #: seconds of silence before suspicion; ``None`` defers to the
        #: detector's :class:`~repro.config.FaultDetectionConfig` timeout.
        self.timeout = timeout

    def suspects(
        self, subject: object, silence: float, config: "FaultDetectionConfig"
    ) -> bool:
        timeout = self.timeout if self.timeout is not None else config.suspicion_timeout
        return silence > timeout


@component("policy.detect.adaptive-timeout")
class AdaptiveTimeoutDetection(DetectionPolicy):
    """Jacobson-style adaptive timeout over inter-heartbeat gaps.

    Per subject, an EWMA of the gap (``srtt``) and its mean deviation
    (``rttvar``) yield a threshold ``srtt + k * rttvar``.  The threshold is
    floored at ``floor`` (default: two heartbeat periods, so one lost beat
    never trips it) and ceilinged at the configured fixed timeout, so the
    adaptive detector is never *slower* than the paper's.  Until
    ``min_samples`` gaps have been seen the fixed rule applies.
    """

    key = "policy.detect.adaptive-timeout"

    def __init__(
        self,
        k: float = 4.0,
        alpha: float = 0.125,
        beta: float = 0.25,
        min_samples: int = 3,
        floor: float | None = None,
    ) -> None:
        super().__init__()
        if k <= 0 or not 0 < alpha < 1 or not 0 < beta < 1:
            raise ConfigurationError(
                "adaptive-timeout needs k > 0 and alpha, beta in (0, 1)"
            )
        self.k = float(k)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.min_samples = int(min_samples)
        #: explicit lower bound on the threshold; ``None`` derives
        #: ``2 * heartbeat_period`` from the detector's config at query time.
        self.floor = floor
        # subject -> (srtt, rttvar, n_samples)
        self._estimates: Dict[object, tuple[float, float, int]] = {}

    def observe(self, subject: object, gap: float) -> None:
        state = self._estimates.get(subject)
        if state is None:
            self._estimates[subject] = (gap, gap / 2.0, 1)
            return
        srtt, rttvar, n = state
        rttvar = (1.0 - self.beta) * rttvar + self.beta * abs(srtt - gap)
        srtt = (1.0 - self.alpha) * srtt + self.alpha * gap
        self._estimates[subject] = (srtt, rttvar, n + 1)

    def forget(self, subject: object) -> None:
        self._estimates.pop(subject, None)

    def threshold(self, subject: object, config: "FaultDetectionConfig") -> float:
        """The current silence threshold for ``subject`` (seconds)."""
        state = self._estimates.get(subject)
        if state is None or state[2] < self.min_samples:
            return config.suspicion_timeout
        srtt, rttvar, _ = state
        floor = self.floor if self.floor is not None else 2.0 * config.heartbeat_period
        adaptive = max(srtt + self.k * rttvar, floor)
        return min(adaptive, config.suspicion_timeout)

    def suspects(
        self, subject: object, silence: float, config: "FaultDetectionConfig"
    ) -> bool:
        return silence > self.threshold(subject, config)


@component("policy.detect.phi-accrual")
class PhiAccrualDetection(DetectionPolicy):
    """Accrual detection: suspicion as a continuous level, thresholded.

    A sliding window of the last ``window`` inter-heartbeat gaps is fit with
    a normal distribution; the suspicion level for a silence ``t`` is
    ``phi(t) = -log10 P(gap > t)``.  A subject is suspected once
    ``phi >= threshold`` (8 ~= "one wrong suspicion per 10^8 checks" under
    the fit).  Below ``min_samples`` observed gaps the fixed-timeout rule
    applies, and silences beyond the configured fixed timeout are always
    suspect regardless of the fit — the accrual detector may fire earlier
    than the paper's, never later.
    """

    key = "policy.detect.phi-accrual"

    def __init__(
        self,
        threshold: float = 8.0,
        window: int = 100,
        min_samples: int = 10,
        min_std: float = 0.1,
    ) -> None:
        super().__init__()
        if threshold <= 0 or window < 2 or min_samples < 2 or min_std <= 0:
            raise ConfigurationError(
                "phi-accrual needs threshold > 0, window >= 2, "
                "min_samples >= 2, min_std > 0"
            )
        self.threshold = float(threshold)
        self.window = int(window)
        self.min_samples = int(min_samples)
        self.min_std = float(min_std)
        self._gaps: Dict[object, Deque[float]] = {}

    def observe(self, subject: object, gap: float) -> None:
        gaps = self._gaps.get(subject)
        if gaps is None:
            gaps = self._gaps[subject] = deque(maxlen=self.window)
        gaps.append(gap)

    def forget(self, subject: object) -> None:
        self._gaps.pop(subject, None)

    def phi(self, subject: object, silence: float) -> float | None:
        """The suspicion level for ``subject``; ``None`` below min_samples."""
        gaps = self._gaps.get(subject)
        if gaps is None or len(gaps) < self.min_samples:
            return None
        n = len(gaps)
        mean = sum(gaps) / n
        variance = sum((g - mean) ** 2 for g in gaps) / n
        std = max(math.sqrt(variance), self.min_std)
        # P(gap > silence) under the normal fit, via the complementary
        # error function (numerically stable far into the tail).
        tail = 0.5 * math.erfc((silence - mean) / (std * math.sqrt(2.0)))
        if tail <= 0.0:
            return float("inf")
        return -math.log10(tail)

    def suspects(
        self, subject: object, silence: float, config: "FaultDetectionConfig"
    ) -> bool:
        if silence > config.suspicion_timeout:
            return True
        level = self.phi(subject, silence)
        if level is None:
            return False
        return level >= self.threshold
