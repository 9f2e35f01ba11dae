"""Tests for the robustness layer: detection policies, quorum replication,
the trace fault space, and common-random-numbers pairing."""

from __future__ import annotations

import pytest

from repro.config import FaultDetectionConfig, PolicyConfig, ProtocolConfig
from repro.core.protocol import CallDescription
from repro.detect import FailureDetector
from repro.errors import ConfigurationError
from repro.grid.builder import build_confined_cluster
from repro.nodes.churn import TraceChurn
from repro.policies import (
    AdaptiveTimeoutDetection,
    FixedTimeoutDetection,
    PhiAccrualDetection,
    QuorumReplication,
)
from repro.scenarios.engine import benchmark_cell
from repro.scenarios.runner import SweepRunner, run_scenario
from repro.scenarios.spec import Axis, CellResult, ScenarioSpec
from repro.sim.rng import RandomStreams
from repro.types import Address, CallIdentity


def _call(rpc: int = 1, exec_time: float = 1.0) -> CallDescription:
    return CallDescription(
        identity=CallIdentity("u", "s", rpc),
        service="sleep",
        params_bytes=64,
        exec_time=exec_time,
    )


# --------------------------------------------------------------------- churn
class TestTraceChurn:
    def test_empty_trace_is_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceChurn(pairs=())

    def test_empty_trace_file_is_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("# only a comment\n\n")
        with pytest.raises(ConfigurationError, match="no intervals"):
            TraceChurn.from_csv(str(path))

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ConfigurationError, match="wrap or clamp"):
            TraceChurn(pairs=[(1.0, 1.0)], mode="bounce")

    def test_overlapping_intervals_are_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("s0,0,50\ns0,40,90\n")
        with pytest.raises(ConfigurationError, match="overlapping"):
            TraceChurn.from_csv(str(path))

    def test_degenerate_interval_is_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("s0,30,30\n")
        with pytest.raises(ConfigurationError, match="up < down"):
            TraceChurn.from_csv(str(path))

    def test_malformed_row_is_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("s0,ten,20\n")
        with pytest.raises(ConfigurationError, match="non-numeric"):
            TraceChurn.from_csv(str(path))

    def test_wrap_cycles_the_pairs(self):
        rng = RandomStreams(0)
        model = TraceChurn(pairs=[(10.0, 5.0), (20.0, 2.0)], mode="wrap")
        seen = [
            (model.uptime(rng, "n"), model.downtime(rng, "n")) for _ in range(4)
        ]
        assert seen == [(10.0, 5.0), (20.0, 2.0), (10.0, 5.0), (20.0, 2.0)]

    def test_clamp_departs_permanently(self):
        rng = RandomStreams(0)
        model = TraceChurn(pairs=[(10.0, 5.0)], mode="clamp")
        assert model.uptime(rng, "n") == 10.0
        assert model.downtime(rng, "n") == 5.0
        # The trace is exhausted: the node never crashes again.
        assert model.uptime(rng, "n") == float("inf")

    def test_from_csv_converts_absolute_intervals(self, tmp_path):
        path = tmp_path / "trace.csv"
        # Up [30, 60] and [100, 120]: starts down, 40 s gap between intervals.
        path.write_text("s0,30,60\ns0,100,120\n")
        model = TraceChurn.from_csv(str(path), mode="wrap")
        rng = RandomStreams(0)
        # Lead pair: down until the first interval starts.
        assert (model.uptime(rng, "s0"), model.downtime(rng, "s0")) == (0.0, 30.0)
        assert (model.uptime(rng, "s0"), model.downtime(rng, "s0")) == (30.0, 40.0)
        # Wrap: the final downtime returns to the first interval's start.
        assert (model.uptime(rng, "s0"), model.downtime(rng, "s0")) == (20.0, 30.0)
        # The lead pair does not repeat on later cycles.
        assert (model.uptime(rng, "s0"), model.downtime(rng, "s0")) == (30.0, 40.0)

    def test_from_csv_clamp_never_returns(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("s0,0,60\n")
        model = TraceChurn.from_csv(str(path), mode="clamp")
        rng = RandomStreams(0)
        assert model.uptime(rng, "s0") == 60.0
        assert model.downtime(rng, "s0") == float("inf")

    def test_full_address_falls_back_to_bare_name(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("s000,0,25\n")
        model = TraceChurn.from_csv(str(path))
        rng = RandomStreams(0)
        assert model.uptime(rng, "server:s000") == 25.0

    def test_uncovered_node_never_churns(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("s000,0,25\n")
        model = TraceChurn.from_csv(str(path))
        rng = RandomStreams(0)
        assert model.uptime(rng, "server:s999") == float("inf")


# --------------------------------------------------------- detection policies
class TestDetectionPolicies:
    config = FaultDetectionConfig(heartbeat_period=5.0, suspicion_timeout=30.0)

    def test_fixed_timeout_defers_to_the_config(self):
        policy = FixedTimeoutDetection()
        assert not policy.suspects("x", 29.9, self.config)
        assert policy.suspects("x", 30.1, self.config)

    def test_fixed_timeout_explicit_override(self):
        policy = FixedTimeoutDetection(timeout=10.0)
        assert policy.suspects("x", 10.1, self.config)

    def test_adaptive_uses_fixed_rule_below_min_samples(self):
        policy = AdaptiveTimeoutDetection(min_samples=3)
        policy.observe("x", 5.0)
        assert not policy.suspects("x", 29.0, self.config)
        assert policy.suspects("x", 31.0, self.config)

    def test_adaptive_tightens_after_regular_gaps(self):
        policy = AdaptiveTimeoutDetection(k=4.0, min_samples=3)
        for _ in range(20):
            policy.observe("x", 5.0)
        threshold = policy.threshold("x", self.config)
        # Regular 5 s gaps: the learned threshold sits at the floor
        # (2 heart-beat periods), far under the 30 s fixed timeout.
        assert threshold < 30.0
        assert threshold >= 10.0
        assert policy.suspects("x", threshold + 0.1, self.config)

    def test_adaptive_forget_resets_the_estimate(self):
        policy = AdaptiveTimeoutDetection(min_samples=1)
        policy.observe("x", 5.0)
        policy.forget("x")
        assert not policy.suspects("x", 29.0, self.config)

    def test_phi_never_slower_than_the_fixed_timeout(self):
        policy = PhiAccrualDetection()
        # No samples at all: silence beyond the fixed timeout still suspects.
        assert policy.suspects("x", 30.1, self.config)

    def test_phi_suspects_early_on_improbable_silence(self):
        policy = PhiAccrualDetection(threshold=8.0, min_samples=10)
        for _ in range(50):
            policy.observe("x", 5.0)
        assert not policy.suspects("x", 5.5, self.config)
        # 20 s of silence against a tight 5 s rhythm: phi blows through the
        # threshold long before the 30 s fixed timeout.
        assert policy.suspects("x", 20.0, self.config)

    def test_parameters_are_validated(self):
        with pytest.raises(ConfigurationError):
            AdaptiveTimeoutDetection(k=-1.0)
        with pytest.raises(ConfigurationError):
            PhiAccrualDetection(window=0)
        with pytest.raises(ConfigurationError):
            QuorumReplication(successors=0)


# ------------------------------------------------------------ detector resets
class TestIncarnationReset:
    def test_restart_within_silence_window_resets_the_detector(self):
        config = FaultDetectionConfig(heartbeat_period=5.0, suspicion_timeout=30.0)
        policy = AdaptiveTimeoutDetection(min_samples=1)
        detector = FailureDetector(config, policy=policy)
        subject = Address("server", "s0")
        detector.watch(subject, 0.0)
        detector.heard_from(subject, 5.0, incarnation=0)
        detector.heard_from(subject, 10.0, incarnation=0)
        # The node dies silently, restarts, and is heard again 100 s later
        # under a fresh incarnation: the 90 s silence belongs to the dead
        # incarnation and must not poison the gap estimate.
        detector.heard_from(subject, 100.0, incarnation=1)
        assert "server:s0" not in policy._estimates or not policy._estimates.get(
            str(subject)
        )
        assert not detector.is_suspected(subject, 101.0)

    def test_same_incarnation_still_observes_gaps(self):
        config = FaultDetectionConfig(heartbeat_period=5.0, suspicion_timeout=30.0)
        policy = AdaptiveTimeoutDetection(min_samples=1)
        detector = FailureDetector(config, policy=policy)
        subject = Address("server", "s0")
        detector.watch(subject, 0.0)
        detector.heard_from(subject, 5.0, incarnation=0)
        detector.heard_from(subject, 10.0, incarnation=0)
        assert policy._estimates  # the 5 s gap was learned


# --------------------------------------------------------- quorum replication
class TestQuorumReplication:
    def _protocol(self, **params) -> ProtocolConfig:
        protocol = ProtocolConfig()
        protocol.policy = PolicyConfig(
            replication={"name": "policy.repl.quorum", "params": params}
        )
        return protocol

    def test_quorum_for_clamps_to_available_targets(self):
        policy = QuorumReplication(successors=2)
        assert policy.quorum_for(2) == 2
        assert policy.quorum_for(1) == 1  # a lone survivor still commits

    def test_quorum_is_a_majority_of_the_successors(self):
        for successors in range(1, 7):
            policy = QuorumReplication(successors=successors)
            assert policy.quorum_for(successors) == successors // 2 + 1
            # Fewer reachable successors than a majority: all of them.
            for reachable in range(1, successors // 2 + 1):
                assert policy.quorum_for(reachable) == reachable

    def test_rounds_commit_and_reach_the_backups(self):
        grid = build_confined_cluster(
            n_servers=2,
            n_coordinators=3,
            protocol=self._protocol(period=2.0),
            seed=3,
        )
        grid.start()
        assert isinstance(grid.coordinators[0].replication_policy, QuorumReplication)
        grid.coordinators[0].preload_tasks([_call()])
        grid.run(until=30.0)
        assert grid.monitor.count("coordinator.quorum_commits") >= 1
        assert grid.monitor.count("policy.repl.quorum.rounds") >= 1
        # Majority commit: both ring successors saw the state abstract.
        assert len(grid.coordinators[1].tasks) == 1
        assert len(grid.coordinators[2].tasks) == 1

    def test_ring_successors_skip_suspected_coordinators(self):
        grid = build_confined_cluster(
            n_servers=2, n_coordinators=3, protocol=self._protocol(), seed=3
        )
        grid.start()
        coordinator = grid.coordinators[0]
        ring = coordinator.registry.ring_successors(coordinator.address, 2)
        assert len(ring) == 2
        coordinator.registry.suspect(ring[0])
        assert coordinator.registry.ring_successors(coordinator.address, 2) == [
            ring[1]
        ]


# ------------------------------------------------------------------ CRN seeds
class TestCommonRandomNumbers:
    def test_crn_streams_pair_across_master_seeds(self):
        one = RandomStreams(1, crn_seed=7)
        two = RandomStreams(2, crn_seed=7)
        assert [one.exponential("crn.faults", 10.0) for _ in range(5)] == [
            two.exponential("crn.faults", 10.0) for _ in range(5)
        ]
        assert one.fingerprint(("crn.",)) == two.fingerprint(("crn.",))
        # Non-CRN streams still differ with the master seed.
        assert one.exponential("work", 10.0) != two.exponential("work", 10.0)

    def test_without_crn_seed_the_master_seed_keys_everything(self):
        one = RandomStreams(1)
        two = RandomStreams(2)
        assert one.exponential("crn.faults", 10.0) != two.exponential(
            "crn.faults", 10.0
        )

    def test_spawn_propagates_the_crn_seed(self):
        parent = RandomStreams(1, crn_seed=7)
        assert parent.spawn("child").crn_seed == 7

    def test_fingerprint_reflects_draw_counts(self):
        one = RandomStreams(1, crn_seed=7)
        two = RandomStreams(2, crn_seed=7)
        one.exponential("crn.faults", 10.0)
        assert one.fingerprint(("crn.",)) != two.fingerprint(("crn.",))


# ---------------------------------------------------------------- paired axes
def test_paired_axes_must_name_real_axes():
    with pytest.raises(ConfigurationError, match="paired_axes"):
        ScenarioSpec(
            name="bad-pairing",
            title="t",
            cell=benchmark_cell,
            axes=(Axis("x", (1, 2)),),
            paired_axes=("nope",),
        )


def _paired_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="paired-probe",
        title="CRN pairing probe",
        cell=benchmark_cell,
        base=dict(
            n_calls=4,
            exec_time=1.0,
            n_servers=2,
            n_coordinators=2,
            horizon=120.0,
            run_full_horizon=True,
            record_fault_streams=True,
            crn_seed=11,
        ),
        components=(
            {
                "name": "inject.rate",
                "params": {
                    "target": "servers",
                    "faults_per_minute": 6.0,
                    "restart_delay": 2.0,
                },
            },
        ),
        axes=(
            Axis(
                "scheduler_policy",
                ("policy.sched.fifo-reschedule", "policy.sched.round-robin"),
            ),
        ),
        seeds=(1,),
        paired_axes=("scheduler_policy",),
    )


class TestPairedSweeps:
    def test_paired_arms_share_identical_fault_streams(self):
        result = SweepRunner(_paired_spec(), jobs=1).run()
        streams = [cell["outputs"]["fault_streams"] for cell in result.cells]
        assert streams[0] == streams[1]
        assert streams[0]  # the rate injector did draw from its streams

    def test_manifest_stamps_paired_axes(self):
        spec = _paired_spec()
        assert spec.manifest()["paired_axes"] == ["scheduler_policy"]
        plain = ScenarioSpec(name="plain", title="t", cell=benchmark_cell)
        assert "paired_axes" not in plain.manifest()

    def test_divergent_fault_streams_fail_the_sweep(self):
        runner = SweepRunner(_paired_spec(), jobs=1)
        results = [
            CellResult(
                index=i,
                params={"scheduler_policy": policy, "other": 1},
                seed=1,
                outputs={"fault_streams": {"crn.x": fingerprint}},
            )
            for i, (policy, fingerprint) in enumerate(
                [("a", "aaaa"), ("b", "bbbb")]
            )
        ]
        with pytest.raises(ConfigurationError, match="diverge"):
            runner._assert_paired(results)

    def test_missing_fingerprints_fail_the_sweep(self):
        runner = SweepRunner(_paired_spec(), jobs=1)
        results = [
            CellResult(
                index=i,
                params={"scheduler_policy": policy},
                seed=1,
                outputs={"makespan": 1.0},
            )
            for i, policy in enumerate(["a", "b"])
        ]
        with pytest.raises(ConfigurationError, match="record_fault_streams"):
            runner._assert_paired(results)

    def test_unknown_runner_paired_axis_is_rejected(self):
        with pytest.raises(ConfigurationError, match="not axes"):
            SweepRunner(_paired_spec(), jobs=1, paired_axes=("nope",))


def test_fault_search_rows_count_the_scripted_kill():
    rows = run_scenario("fault-search", scale="tiny", jobs=1).rows
    assert rows and all(row["faults_injected"] == 1 for row in rows), rows
