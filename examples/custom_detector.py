#!/usr/bin/env python3
"""A custom failure detector in ~30 lines, with zero edits to the detector.

The suspicion *rule* is a pluggable ``policy.detect.*`` strategy; the
mechanism (last-heard bookkeeping, suspicion latching, scoring each
suspicion by what happened to its subject) stays in ``FailureDetector``.
This example adds a **max-gap** accrual variant — suspect once the silence
beats the worst inter-heartbeat gap seen so far, with a safety margin — and
scores it against the built-ins through the ``detector-ablation`` cell (a
small Internet testbed whose servers churn), selecting it by registry key
and by dotted import path (both work anywhere a policy entry does,
including ``--set policy.detection=...`` on the CLI).
"""

from collections import deque

from repro.platform import component
from repro.policies import DetectionPolicy
from repro.scenarios.robustness import detector_ablation_cell


# --------------------------------------------------------------- the detector
@component("example.detect.max-gap")
class MaxGapDetection(DetectionPolicy):
    """Suspect when silence exceeds ``margin x`` the largest recent gap."""

    key = "example.detect.max-gap"

    def __init__(self, margin=2.0, window=64):
        super().__init__()
        self.margin = float(margin)
        self.window = int(window)
        self._gaps = {}

    def observe(self, subject, gap):
        if gap > 0:
            self._gaps.setdefault(subject, deque(maxlen=self.window)).append(gap)

    def forget(self, subject):  # new incarnation: its silences prove nothing
        self._gaps.pop(subject, None)

    def suspects(self, subject, silence, config):
        if silence > config.suspicion_timeout:
            return True  # never slower than the paper's fixed rule
        gaps = self._gaps.get(subject)
        return bool(gaps) and silence > self.margin * max(gaps)


# ------------------------------------------------------------- the comparison
DETECTORS = (
    "policy.detect.fixed-timeout",
    "policy.detect.phi-accrual",
    "example.detect.max-gap",  # ours, by registry key — no other wiring
    # The same class again via its dotted import path, with a looser margin.
    {"name": f"{__name__}:MaxGapDetection", "params": {"margin": 3.0}},
)

if __name__ == "__main__":
    print("5 s heart-beats, 60 s timeout, 3 churning testbed servers for 20 minutes:")
    for entry in DETECTORS:
        label = entry["name"] if isinstance(entry, dict) else entry
        outputs = detector_ablation_cell(
            seed=3, detection_policy=entry,
            heartbeat_period=5.0, timeout_multiplier=12.0,
            servers_per_site=1, horizon=1200.0,
        )
        print(
            f"  {label:42s} T_D {outputs['detection_s']:5.1f}s over "
            f"{outputs['crashed']:g} crashes, {outputs['mistakes']:g} mistakes"
        )
    print("ok: a custom detector is a class + @component key, nothing else")
