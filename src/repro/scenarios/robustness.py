"""Robustness scenarios: survival as the measured product.

Three sweeps interrogate the protocol's fault tolerance directly instead of
measuring throughput around incidental faults:

* ``detector-ablation-v2`` — the ``policy.detect.*`` family crossed with the
  replication policy under trace-driven churn, scoring wrong suspicions and
  suspicion transitions per detector;
* ``quorum-survival`` — passive-periodic vs quorum replication as the
  coordinator tier grows more volatile (survival-vs-volatility curves);
* ``fault-search`` — an adversarial sweep of scripted fault timing against
  the protocol's own phases (mid-replication push, mid-commit at the ack
  source, the detector-blind window right after a heartbeat), reduced to the
  worst-case survival row per phase.

All three declare ``paired_axes``: cells that differ only in the policy under
test must report identical fault-stream fingerprints (common random numbers),
so any survival difference is attributable to the policy, not to schedule
noise.  The runner enforces this after every sweep.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConfigurationError
from repro.scenarios.engine import benchmark_cell
from repro.scenarios.reducers import grouped, mean
from repro.scenarios.registry import scenario
from repro.scenarios.spec import Axis, CellResult, ScenarioSpec

__all__ = [
    "DETECTION_POLICIES",
    "DETECTOR_ABLATION_V2",
    "FAULT_SEARCH",
    "QUORUM_SURVIVAL",
    "REPLICATION_POLICIES",
    "fault_search_cell",
]

#: every built-in failure-detection policy, in sweep order.
DETECTION_POLICIES = (
    "policy.detect.fixed-timeout",
    "policy.detect.adaptive-timeout",
    "policy.detect.phi-accrual",
)

#: the replication policies a survival sweep compares.
REPLICATION_POLICIES = (
    "policy.repl.passive-periodic",
    "policy.repl.quorum",
)


def _completion(cell: CellResult) -> float:
    return cell.outputs["completed"] / max(cell.outputs["submitted"], 1)


# --------------------------------------------------------- detector-ablation-v2
def _detector_rows(results: list[CellResult]) -> list[dict[str, Any]]:
    """One row per (detector, replication) arm: suspicion quality + survival."""
    rows: list[dict[str, Any]] = []
    keys = ("detection_policy", "replication_policy")
    for (detector, replication), cells in grouped(results, keys).items():
        rows.append(
            {
                "detection_policy": detector,
                "replication_policy": replication,
                "mean_wrong_suspicions": mean(
                    c.outputs["wrong_suspicions"] for c in cells
                ),
                "mean_suspicion_transitions": mean(
                    c.outputs["suspicion_transitions"] for c in cells
                ),
                "mean_makespan_seconds": mean(c.outputs["makespan"] for c in cells),
                "min_completion_ratio": min(_completion(c) for c in cells),
                "departures": sum(c.outputs["faults_injected"] for c in cells),
            }
        )
    return rows


@scenario("detector-ablation-v2")
def _detector_ablation_v2() -> ScenarioSpec:
    return ScenarioSpec(
        name="detector-ablation-v2",
        title="Failure-detection policies under trace-driven churn",
        figure=None,
        description=(
            "Sweep the policy.detect.* family (fixed timeout, Jacobson "
            "adaptive timeout, phi-accrual) against both replication "
            "policies while the servers replay a deterministic availability "
            "trace whose outages exceed the suspicion timeout: every "
            "detector must transition, and none may suspect a live node.  "
            "Both axes are paired, so each arm sees the identical fault "
            "schedule."
        ),
        cell=benchmark_cell,
        base=dict(
            n_calls=48,
            exec_time=5.0,
            n_servers=4,
            n_coordinators=2,
            # Up 45 s / down 90 s: outages far beyond the 30 s suspicion
            # timeout, so suspicions are of genuinely-down nodes.  The
            # workload (48 x 5 s over 4 servers, ~60 s ideal) outlives the
            # first outage, so every detector gets exercised mid-run.
            churn_pairs=[[45.0, 90.0], [60.0, 75.0]],
            horizon=2500.0,
            crn_seed=101,
            record_detection=True,
            record_fault_streams=True,
        ),
        axes=(
            Axis("detection_policy", DETECTION_POLICIES),
            Axis("replication_policy", REPLICATION_POLICIES),
        ),
        seeds=(3, 5),
        outputs=(
            "makespan",
            "completed",
            "faults_injected",
            "wrong_suspicions",
            "suspicion_transitions",
        ),
        components=(
            {
                "name": "inject.churn",
                "params": {"target": "servers", "trace_pairs": "$churn_pairs"},
            },
        ),
        paired_axes=("detection_policy", "replication_policy"),
        scales={
            "tiny": dict(
                n_calls=16, exec_time=5.0, n_servers=2, n_coordinators=2,
                churn_pairs=[[15.0, 60.0], [25.0, 50.0]],
                seeds=(3,), horizon=1500.0,
            ),
        },
        reduce=_detector_rows,
    )


DETECTOR_ABLATION_V2 = _detector_ablation_v2


# ------------------------------------------------------------- quorum-survival
def _survival_rows(results: list[CellResult]) -> list[dict[str, Any]]:
    """Survival-vs-volatility: one row per (replication policy, MTBF) point."""
    rows: list[dict[str, Any]] = []
    keys = ("replication_policy", "mtbf")
    for (replication, mtbf), cells in grouped(results, keys).items():
        rows.append(
            {
                "replication_policy": replication,
                "coordinator_mtbf_seconds": mtbf,
                "min_completion_ratio": min(_completion(c) for c in cells),
                "mean_completion_ratio": mean(_completion(c) for c in cells),
                "mean_makespan_seconds": mean(c.outputs["makespan"] for c in cells),
                "departures": sum(c.outputs["faults_injected"] for c in cells),
                "all_finished": all(c.outputs["finished_in_time"] for c in cells),
            }
        )
    return rows


@scenario("quorum-survival")
def _quorum_survival() -> ScenarioSpec:
    return ScenarioSpec(
        name="quorum-survival",
        title="Quorum vs passive replication as coordinators grow volatile",
        figure=None,
        description=(
            "The coordinator tier churns (exponential up/down cycles) while "
            "the replication-policy axis compares the paper's passive "
            "periodic push against quorum replication with freshest-replica "
            "recovery.  The replication axis is paired: both arms live "
            "through the same coordinator outages, so the survival gap is "
            "the policy's."
        ),
        cell=benchmark_cell,
        base=dict(
            n_calls=36,
            exec_time=5.0,
            n_servers=6,
            n_coordinators=3,
            mttr=15.0,
            horizon=4000.0,
            crn_seed=202,
            record_fault_streams=True,
            run_full_horizon=True,
        ),
        axes=(
            Axis("replication_policy", REPLICATION_POLICIES),
            Axis("mtbf", (480.0, 180.0, 90.0)),
        ),
        seeds=(3, 5),
        outputs=("makespan", "completed", "faults_injected", "finished_in_time"),
        components=(
            {
                "name": "inject.churn",
                "params": {"target": "coordinators", "mtbf": "$mtbf", "mttr": "$mttr"},
            },
        ),
        paired_axes=("replication_policy",),
        scales={
            "tiny": dict(
                n_calls=12, exec_time=4.0, n_servers=3, n_coordinators=3,
                mtbf=(120.0, 45.0), mttr=10.0, seeds=(3,), horizon=1200.0,
            ),
        },
        reduce=_survival_rows,
    )


QUORUM_SURVIVAL = _quorum_survival


# ---------------------------------------------------------------- fault-search
def fault_search_cell(
    seed: int = 0,
    phase: str = "mid-replication",
    offset: float = 0.0,
    replication_period: float = 5.0,
    heartbeat_period: float = 2.0,
    down_for: float = 60.0,
    replication_policy: Any = None,
    detection_policy: Any = None,
    n_calls: int = 24,
    exec_time: float = 5.0,
    n_servers: int = 4,
    n_coordinators: int = 3,
    horizon: float = 2500.0,
    crn_seed: int | None = None,
    record_fault_streams: bool = False,
) -> dict[str, Any]:
    """One adversarial cell: a scripted outage aimed at a protocol phase.

    The kernel derives the kill time from the protocol's own schedule (which
    it pins through protocol overrides, so the aim stays true):

    * ``mid-replication`` — kill the primary ``offset`` seconds into its
      fourth replication round, while pushed state is in flight;
    * ``mid-commit`` — kill the primary's ring successor at the same point,
      so pushes/acks die at the receiving end mid-commit;
    * ``detector-blind`` — kill the primary right after a heartbeat went
      out, maximising the window in which every detector is necessarily
      blind.

    The victim restarts ``down_for`` seconds later.  Offsets sweep the
    timing within the targeted phase; the reducer keeps the worst case.
    """
    if n_coordinators < 2:
        raise ConfigurationError("fault-search needs at least two coordinators")
    primary = "coordinator:cluster-k0"
    successor = "coordinator:cluster-k1"
    if phase == "mid-replication":
        target, at = primary, 3 * replication_period + offset
    elif phase == "mid-commit":
        target, at = successor, 3 * replication_period + offset
    elif phase == "detector-blind":
        target, at = primary, 4 * heartbeat_period + offset
    else:
        raise ConfigurationError(
            f"unknown fault-search phase {phase!r} "
            "(mid-replication, mid-commit or detector-blind)"
        )
    events = [
        {"time": at, "action": "kill", "target": target},
        {"time": at + down_for, "action": "restart", "target": target},
    ]
    return benchmark_cell(
        seed=seed,
        n_calls=n_calls,
        exec_time=exec_time,
        n_servers=n_servers,
        n_coordinators=n_coordinators,
        horizon=horizon,
        replication_policy=replication_policy,
        detection_policy=detection_policy,
        protocol_overrides={
            "coordinator.replication.period": replication_period,
            "coordinator.detection.heartbeat_period": heartbeat_period,
        },
        components=[{"name": "inject.script", "params": {"events": events}}],
        crn_seed=crn_seed,
        record_fault_streams=record_fault_streams,
    )


def _worst_case_rows(results: list[CellResult]) -> list[dict[str, Any]]:
    """The worst surviving cell per (phase, replication policy) arm."""
    rows: list[dict[str, Any]] = []
    keys = ("phase", "replication_policy")
    for (phase, replication), cells in grouped(results, keys).items():
        worst = min(cells, key=lambda c: (_completion(c), -c.outputs["makespan"]))
        rows.append(
            {
                "phase": phase,
                "replication_policy": replication,
                "worst_offset": worst.params.get("offset"),
                "worst_seed": worst.seed,
                "completion_ratio": _completion(worst),
                "makespan_seconds": worst.outputs["makespan"],
                "completed": worst.outputs["completed"],
                "submitted": worst.outputs["submitted"],
                "faults_injected": worst.outputs["faults_injected"],
            }
        )
    return rows


@scenario("fault-search")
def _fault_search() -> ScenarioSpec:
    return ScenarioSpec(
        name="fault-search",
        title="Adversarial fault timing against the protocol's phases",
        figure=None,
        description=(
            "Instead of random churn, aim scripted coordinator outages at "
            "the protocol's own schedule — mid-replication, mid-commit at "
            "the ring successor, and the detector-blind window after a "
            "heartbeat — sweeping sub-period offsets and keeping the "
            "worst-case survival row per phase and replication policy."
        ),
        cell=fault_search_cell,
        base=dict(
            n_calls=24,
            exec_time=5.0,
            n_servers=4,
            n_coordinators=3,
            replication_period=5.0,
            heartbeat_period=2.0,
            down_for=60.0,
            horizon=2500.0,
            crn_seed=303,
            record_fault_streams=True,
        ),
        axes=(
            Axis("phase", ("mid-replication", "mid-commit", "detector-blind")),
            Axis("offset", (0.1, 1.0, 2.4)),
            Axis("replication_policy", REPLICATION_POLICIES),
        ),
        seeds=(3,),
        outputs=("makespan", "completed", "submitted", "finished_in_time"),
        paired_axes=("replication_policy",),
        scales={
            "tiny": dict(
                n_calls=12, exec_time=4.0, n_servers=2,
                offset=(0.1,), down_for=40.0, horizon=1500.0,
            ),
        },
        reduce=_worst_case_rows,
    )


FAULT_SEARCH = _fault_search
