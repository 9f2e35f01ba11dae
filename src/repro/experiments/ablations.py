"""Ablation experiments (not in the paper, motivated by DESIGN.md).

* ``ablation-baselines`` — what the RPC-V combination buys: the Fig. 7
  workload under coordinator faults, comparing full RPC-V against the
  baselines of :mod:`repro.baselines` (no coordinator replication, and a
  NetSolve-style configuration with server-side fault tolerance only).
* ``ablation-detector`` — the heart-beat period / suspicion timeout
  trade-off: detection latency versus wrong suspicions on a WAN-like link.
"""

from __future__ import annotations

from typing import Any

from repro.config import FaultDetectionConfig
from repro.detect import FailureDetector
from repro.policies.resolve import make_policy
from repro.scenarios.engine import benchmark_cell
from repro.scenarios.reducers import grouped, mean
from repro.scenarios.registry import scenario
from repro.scenarios.spec import Axis, CellResult, ScenarioSpec
from repro.sim.rng import RandomStreams
from repro.types import Address

__all__ = ["detector_cell"]

_SYSTEMS = ("rpc-v", "no-replication", "netsolve-style")


def _baseline_rows(results: list[CellResult]) -> list[dict[str, Any]]:
    """One row per system: mean makespan and completion ratio over the seeds."""
    rows: list[dict[str, Any]] = []
    for (system,), cells in grouped(results, ("protocol_preset",)).items():
        params = cells[0].params
        rows.append(
            {
                "system": system,
                "faults_per_minute": params["faults_per_minute"],
                "fault_target": params["fault_target"],
                "mean_makespan_seconds": mean(c.outputs["makespan"] for c in cells),
                "mean_completion_ratio": mean(
                    c.outputs["completed"] / max(c.outputs["submitted"], 1)
                    for c in cells
                ),
            }
        )
    return rows


@scenario("ablation-baselines")
def _ablation_baselines() -> ScenarioSpec:
    return ScenarioSpec(
        name="ablation-baselines",
        title="RPC-V vs degraded baselines under coordinator faults",
        cell=benchmark_cell,
        description=(
            "The Fig. 7 workload under faults, with the protocol swept over "
            "the full RPC-V configuration and the two degraded baselines."
        ),
        base=dict(
            n_calls=96,
            exec_time=10.0,
            # Both stay cell parameters: the reducer reports them per row.
            fault_target="coordinators",
            faults_per_minute=4.0,
            horizon=4000.0,
        ),
        axes=(Axis("protocol_preset", _SYSTEMS),),
        seeds=(7, 11),
        outputs=("makespan", "submitted", "completed"),
        components=(
            {
                "name": "inject.rate",
                "params": {
                    "target": "$fault_target",
                    "faults_per_minute": "$faults_per_minute",
                    "restart_delay": 5.0,
                },
            },
        ),
        scales={
            "tiny": dict(n_calls=24, exec_time=5.0, seeds=(7,), horizon=3000.0),
        },
        reduce=_baseline_rows,
    )


def detector_cell(
    heartbeat_period: float,
    timeout_multiplier: float,
    message_loss: float = 0.02,
    latency_sigma: float = 0.8,
    observation_seconds: float = 3600.0,
    crash_at: float = 1800.0,
    seed: int = 0,
    detection_policy: Any = "policy.detect.fixed-timeout",
) -> dict[str, Any]:
    """One (heart-beat period, suspicion timeout) detector replay.

    A single monitored peer emits heart-beats over a lossy, heavy-tailed link
    and actually crashes at ``crash_at``; the cell replays the arrival trace
    through a :class:`~repro.detect.FailureDetector` and reports how long the
    real crash took to be suspected and how many wrong suspicions happened
    before it.  The trace is drawn from streams keyed by the period, so every
    multiplier for one period sees the identical trace.  ``detection_policy``
    is the ``policy.detect.*`` entry whose suspicion rule is scored, so the
    same replay compares adaptive or accrual detectors.
    """
    rng = RandomStreams(seed)
    subject = Address("server", "watched")
    period = heartbeat_period
    arrivals: list[float] = []
    t = 0.0
    while t < crash_at:
        t += period
        if float(rng.stream(f"loss.{period}").random()) < message_loss:
            continue  # heart-beat lost
        delay = 0.05 * float(rng.stream(f"lat.{period}").lognormal(0.0, latency_sigma))
        arrivals.append(t + delay)
    arrivals.sort()

    timeout = period * timeout_multiplier
    config = FaultDetectionConfig(heartbeat_period=period, suspicion_timeout=timeout)
    policy = make_policy("detection", detection_policy)
    policy.bind(owner="detector-cell", rng=rng, monitor=None)
    detector = FailureDetector(config, policy=policy)
    detector.watch(subject, 0.0)
    wrong = 0
    detection_time = None
    check_times = [i * period / 2 for i in range(int(observation_seconds * 2 / period))]
    arrival_index = 0
    for now in check_times:
        while arrival_index < len(arrivals) and arrivals[arrival_index] <= now:
            detector.heard_from(subject, arrivals[arrival_index])
            arrival_index += 1
        suspected = detector.is_suspected(subject, now)
        if suspected and now < crash_at:
            wrong += 1
        if suspected and now >= crash_at and detection_time is None:
            detection_time = now - crash_at
    return {
        "suspicion_timeout": timeout,
        "wrong_suspicion_checks": wrong,
        "detection_latency_seconds": (
            detection_time if detection_time is not None else float("inf")
        ),
    }


def _detector_rows(results: list[CellResult]) -> list[dict[str, Any]]:
    """One row per (period, multiplier) cell, in sweep order."""
    return [
        {
            "heartbeat_period": result.params["heartbeat_period"],
            "suspicion_timeout": result.outputs["suspicion_timeout"],
            "wrong_suspicion_checks": result.outputs["wrong_suspicion_checks"],
            "detection_latency_seconds": result.outputs["detection_latency_seconds"],
        }
        for result in results
    ]


@scenario("ablation-detector")
def _ablation_detector() -> ScenarioSpec:
    return ScenarioSpec(
        name="ablation-detector",
        title="Heart-beat period / suspicion timeout trade-off",
        cell=detector_cell,
        description=(
            "Detection latency versus wrong suspicions when replaying one "
            "lossy heavy-tailed heart-beat trace per period."
        ),
        base=dict(
            message_loss=0.02,
            latency_sigma=0.8,
            observation_seconds=3600.0,
            crash_at=1800.0,
        ),
        axes=(
            Axis("heartbeat_period", (1.0, 5.0, 15.0)),
            Axis("timeout_multiplier", (2.0, 6.0, 12.0)),
        ),
        seeds=(0,),
        outputs=(
            "suspicion_timeout",
            "wrong_suspicion_checks",
            "detection_latency_seconds",
        ),
        scales={
            "tiny": dict(
                heartbeat_period=(1.0, 15.0),
                timeout_multiplier=(2.0, 12.0),
                observation_seconds=1200.0,
                crash_at=600.0,
            ),
        },
        reduce=_detector_rows,
    )
