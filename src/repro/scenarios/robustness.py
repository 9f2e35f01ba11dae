"""Robustness scenarios: survival as the measured product.

Three sweeps interrogate the protocol's fault tolerance directly instead of
measuring throughput around incidental faults:

* ``detector-ablation`` — the ``policy.detect.*`` family crossed with the
  heart-beat period and the timeout multiplier on a small Internet testbed
  whose servers churn, each suspicion scored by what happened to its subject
  and summed up as detection time, mistake rate, mistake duration and query
  accuracy;
* ``quorum-survival`` — passive-periodic vs quorum replication as the
  coordinator tier grows more volatile (survival-vs-volatility curves);
* ``fault-search`` — an adversarial sweep of scripted fault timing against
  the protocol's own phases (mid-replication push, mid-commit at the ack
  source, the detector-blind window right after a heartbeat), reduced to the
  worst-case survival row per phase.

The last two declare ``paired_axes``: cells that differ only in the policy
under test must report identical fault-stream fingerprints (common random
numbers), so any survival difference is attributable to the policy, not to
schedule noise.  The runner enforces this after every sweep.  The detector
sweep needs no pairing: its churn is a fixed trace that draws nothing.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import ConfigurationError
from repro.scenarios.engine import (
    GridTopology,
    WorkloadSpec,
    benchmark_cell,
    execute_benchmark,
)
from repro.scenarios.reducers import grouped, mean
from repro.scenarios.registry import scenario
from repro.scenarios.spec import Axis, CellResult, ScenarioSpec

__all__ = [
    "DETECTION_POLICIES",
    "DETECTOR_ABLATION",
    "FAULT_SEARCH",
    "QUORUM_SURVIVAL",
    "REPLICATION_POLICIES",
    "detector_ablation_cell",
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


# ------------------------------------------------------------ detector-ablation
#: the sites of the Internet testbed, each given the same server count.
_TESTBED_SITES = ("lille", "wisconsin", "orsay")

#: every server's ``[up, down]`` cycle: outages below, near and above the
#: paper's 30 s timeout, and one beyond the longest (15 s x 12) so that
#: every arm detects crashes.
_CHURN_PAIRS = ((120.0, 10.0), (120.0, 25.0), (120.0, 90.0), (120.0, 240.0))

#: the backlog outlasts any horizon swept, so between crashes only their
#: heart-beats speak for the busy servers.
_BACKLOG = WorkloadSpec(n_calls=400, exec_time=60.0)


def _up_seconds(pairs: Sequence[Sequence[float]], horizon: float) -> float:
    """Seconds a host replaying ``pairs`` (wrapping) is up before ``horizon``."""
    up = now = 0.0
    while now < horizon:
        for up_for, down_for in pairs:
            up += min(up_for, max(horizon - now, 0.0))
            now += up_for + down_for
    return up


def detector_ablation_cell(
    seed: int = 0,
    detection_policy: Any = "policy.detect.fixed-timeout",
    heartbeat_period: float = 5.0,
    timeout_multiplier: float = 6.0,
    servers_per_site: int = 2,
    horizon: float = 3600.0,
    wan_loss: float = 0.002,
) -> dict[str, Any]:
    """One detector arm on the Internet testbed while its servers churn.

    Every tier beats every ``heartbeat_period`` seconds and suspects after
    ``timeout_multiplier`` periods of silence under ``detection_policy``;
    every server replays ``_CHURN_PAIRS`` (``[up, down]`` seconds,
    wrapping) up to the ``horizon`` under the never-ending ``_BACKLOG``.
    The WAN between sites loses each message with probability
    ``wan_loss`` (the testbed's 0.2 % by default).
    Each suspicion of a server is scored by what happened to it (see
    :mod:`repro.detect.detector`), and the QoS metrics of Chen, Toueg &
    Aguilera follow from those counters: the mean detection time T_D,
    mistakes per observed (up) server-hour (1/T_MR), the mean mistake
    duration T_M and the query accuracy P_A.  The coordinators' opinions
    of each other (``detect.coordinators.*``) are not scored here.

    T_M and P_A see only the mistakes a rehabilitation ended;
    ``open_mistakes`` counts the others, whose time P_A leaves out, so a
    non-zero count means P_A is optimistic.
    """
    timeout = heartbeat_period * timeout_multiplier
    overrides: dict[str, Any] = {"policy.detection": detection_policy}
    for tier in ("coordinator", "server", "client"):
        overrides[f"{tier}.detection.heartbeat_period"] = heartbeat_period
        overrides[f"{tier}.detection.suspicion_timeout"] = timeout
    report = execute_benchmark(
        topology=GridTopology(
            kind="internet",
            servers_per_site=dict.fromkeys(_TESTBED_SITES, servers_per_site),
            wan_loss=wan_loss,
        ),
        workload=_BACKLOG,
        protocol_overrides=overrides,
        seed=seed,
        horizon=horizon,
        components=[
            {
                "name": "inject.churn",
                "params": {"target": "servers", "trace_pairs": _CHURN_PAIRS},
            }
        ],
        run_full_horizon=True,
    )
    count = {
        name: report.counters.get(f"detect.{name}", 0)
        for name in (
            "suspicions", "suspected_crashed", "suspected_restarted",
            "suspected_left", "wrong_suspicions", "mistakes_ended",
            "detection_s", "mistake_s",
        )
    }
    mistakes, ended = count["wrong_suspicions"], count["mistakes_ended"]
    n_servers = len(_TESTBED_SITES) * servers_per_site
    observed_s = n_servers * _up_seconds(_CHURN_PAIRS, horizon)
    return {
        "suspicion_timeout": timeout,
        "suspicions": count["suspicions"],
        "crashed": count["suspected_crashed"],
        "restarted": count["suspected_restarted"],
        "left": count["suspected_left"],
        "mistakes": mistakes,
        "open_mistakes": mistakes - ended,
        "detection_s": (
            count["detection_s"] / count["suspected_crashed"]
            if count["suspected_crashed"] else float("nan")
        ),
        "mistakes_per_server_hour": 3600.0 * mistakes / observed_s,
        "mistake_s": count["mistake_s"] / ended if ended else 0.0,
        "query_accuracy": 1.0 - count["mistake_s"] / observed_s,
        "coordinators": report.coordinators,
    }


def _detector_rows(results: list[CellResult]) -> list[dict[str, Any]]:
    """One row per (detector, period, multiplier) arm, over the seeds.

    Counts and rates are means over the seeds; T_D and T_M are means per
    crash and per ended mistake, so they pool the seeds weighted by those
    counts (a seed without ended mistakes has no T_M).
    """

    def pooled(cells: list[CellResult], name: str, weight: Any) -> float:
        weights = [weight(c.outputs) for c in cells]
        if not sum(weights):
            return cells[0].outputs[name]
        total = sum(c.outputs[name] * w for c, w in zip(cells, weights) if w)
        return total / sum(weights)

    rows: list[dict[str, Any]] = []
    keys = ("detection_policy", "heartbeat_period", "timeout_multiplier")
    for (detector, period, multiplier), cells in grouped(results, keys).items():
        row = {
            "detection_policy": detector,
            "heartbeat_period": period,
            "timeout_multiplier": multiplier,
            "suspicion_timeout": cells[0].outputs["suspicion_timeout"],
        }
        for name in (
            "suspicions", "crashed", "restarted", "left", "mistakes", "open_mistakes",
        ):
            row[name] = mean(c.outputs[name] for c in cells)
        row["detection_s"] = pooled(cells, "detection_s", lambda o: o["crashed"])
        row["mistakes_per_server_hour"] = mean(
            c.outputs["mistakes_per_server_hour"] for c in cells
        )
        row["mistake_s"] = pooled(
            cells, "mistake_s", lambda o: o["mistakes"] - o["open_mistakes"]
        )
        row["query_accuracy"] = mean(c.outputs["query_accuracy"] for c in cells)
        rows.append(row)
    return rows


@scenario("detector-ablation")
def _detector_ablation() -> ScenarioSpec:
    return ScenarioSpec(
        name="detector-ablation",
        title="Failure detectors: detection time against mistakes on a WAN",
        figure=None,
        description=(
            "Sweep the policy.detect.* family against the heart-beat period "
            "and the suspicion timeout (a multiple of the period, applied to "
            "every tier) on a small Internet testbed whose WAN loses, "
            "jitters and stalls messages, while every server replays outages "
            "below, near and above the paper's 30 s timeout.  Each "
            "suspicion is scored by what happened to its subject (crashed, "
            "restarted, left for another coordinator, or a mistake): a "
            "longer timeout must detect crashes later, and the paper's "
            "fixed 30 s rule (5 s x 6) must make no mistake."
        ),
        cell=detector_ablation_cell,
        base=dict(servers_per_site=2, horizon=3600.0),
        axes=(
            Axis("detection_policy", DETECTION_POLICIES),
            Axis("heartbeat_period", (1.0, 5.0, 15.0)),
            Axis("timeout_multiplier", (2.0, 6.0, 12.0)),
        ),
        seeds=(3, 5),
        outputs=(
            "suspicion_timeout", "suspicions", "crashed", "restarted", "left",
            "mistakes", "open_mistakes", "detection_s", "mistakes_per_server_hour",
            "mistake_s", "query_accuracy",
        ),
        scales={
            "tiny": dict(servers_per_site=1, horizon=1200.0, seeds=(3,)),
        },
        reduce=_detector_rows,
    )


DETECTOR_ABLATION = _detector_ablation


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
