"""Tests for the pluggable policy layer (policy.* registry, wiring, sweeps)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.baselines import (
    POLICY_BUNDLES,
    no_fault_tolerance_protocol,
    protocol_from_bundle,
    rpcv_protocol,
)
from repro.config import POLICY_AXES, PolicyConfig, ProtocolConfig
from repro.core.taskindex import TaskIndex
from repro.errors import ConfigurationError
from repro.grid.builder import build_confined_cluster
from repro.platform.registry import create_component, resolve_component
from repro.policies import (
    FastestFirstSchedulerPolicy,
    FifoReschedulePolicy,
    FixedTimeoutDetection,
    NoReplication,
    OptimisticLogging,
    PassivePeriodicReplication,
    PessimisticNonBlockingLogging,
    RandomSchedulerPolicy,
    RoundRobinSchedulerPolicy,
    SchedulerPolicy,
    make_policy,
)
from repro.scenarios import ScenarioSpec, run_scenario
from repro.scenarios.engine import (
    GridTopology,
    WorkloadSpec,
    benchmark_cell,
    execute_benchmark,
    resolve_protocol,
)
from repro.scenarios.library import SCHEDULER_POLICIES
from repro.scenarios.runner import SweepRunner
from repro.sim.rng import RandomStreams
from repro.types import Address, LoggingStrategy, TaskState
from tests.test_core_units import indexed, make_task

SERVER = Address("server", "s0")

#: a fast benchmark_cell parameterisation shared by the equivalence tests.
MICRO = dict(
    n_calls=8, exec_time=2.0, n_servers=4, n_coordinators=2, horizon=1500.0,
    seed=7,
)


class TestRegistryRoundTrip:
    def test_all_policies_are_registered(self):
        for name in (
            *SCHEDULER_POLICIES,
            "policy.repl.passive-periodic", "policy.repl.none",
            "policy.repl.quorum", "policy.log.pessimistic-blocking",
            "policy.log.pessimistic-nonblocking", "policy.log.optimistic",
        ):
            assert resolve_component(name).key == name

    def test_create_component_round_trip(self):
        policy = create_component("policy.sched.round-robin", {"reschedule": False})
        assert isinstance(policy, RoundRobinSchedulerPolicy)
        assert policy.reschedule is False
        assert policy.key == "policy.sched.round-robin"

    def test_unknown_policy_fails_with_known_names(self):
        with pytest.raises(ConfigurationError, match="unknown component"):
            create_component("policy.sched.telepathic")

    def test_entry_shapes(self):
        assert isinstance(
            make_policy("scheduler", "policy.sched.random"), RandomSchedulerPolicy
        )
        assert isinstance(
            make_policy(
                "scheduler",
                {"name": "policy.sched.fastest-first", "params": {"reschedule": False}},
            ),
            FastestFirstSchedulerPolicy,
        )
        for malformed in ({"params": {}}, "", None, 5):
            with pytest.raises(ConfigurationError, match="name"):
                make_policy("scheduler", malformed)
            with pytest.raises(ConfigurationError, match=r"policy\.scheduler"):
                PolicyConfig(scheduler=malformed).validate()
        with pytest.raises(ConfigurationError, match="not a SchedulerPolicy"):
            make_policy("scheduler", "policy.repl.none")


class TestDefaultDerivation:
    """What ``PolicyConfig()`` selects, and which tier tunables it reads."""

    def test_scheduler_defaults_track_the_flags(self):
        # No flag is left to track: the default entry *is* the paper's rule,
        # and the reschedule switch is that entry's own parameter.
        policy = make_policy("scheduler", PolicyConfig().scheduler)
        assert isinstance(policy, FifoReschedulePolicy)
        assert policy.reschedule is True
        off = make_policy(
            "scheduler",
            {"name": PolicyConfig().scheduler, "params": {"reschedule": False}},
        )
        assert off.reschedule is False

    def test_replication_defaults_track_the_flags(self):
        # The default entry sets no period of its own, so the coordinator's
        # ``replication.period`` tunable is what the rounds follow.
        protocol = ProtocolConfig()
        protocol.coordinator.replication.period = 7.0
        grid = build_confined_cluster(
            n_servers=1, n_coordinators=2, protocol=protocol, seed=1
        )
        grid.start()
        policy = grid.coordinators[0].replication_policy
        assert isinstance(policy, PassivePeriodicReplication)
        assert policy.period is None
        grid.run(until=6.9)
        assert grid.monitor.count("policy.repl.passive-periodic.rounds") == 0
        grid.run(until=8.0)
        assert grid.monitor.count("policy.repl.passive-periodic.rounds") >= 1

    def test_logging_defaults_track_the_strategy(self):
        default = make_policy("logging", PolicyConfig().logging)
        assert isinstance(default, PessimisticNonBlockingLogging)
        assert default.strategy is LoggingStrategy.PESSIMISTIC_NON_BLOCKING
        optimistic = make_policy("logging", "policy.log.optimistic")
        assert isinstance(optimistic, OptimisticLogging)
        assert optimistic.strategy is LoggingStrategy.OPTIMISTIC

    def test_no_entry_is_unset(self):
        policy = PolicyConfig()
        assert None not in [getattr(policy, axis) for axis in POLICY_AXES]
        assert ProtocolConfig().validate().policy == PolicyConfig()


class TestSchedulerVariants:
    def _tasks(self, n=5) -> TaskIndex:
        tasks = []
        for i in range(1, n + 1):
            task = make_task(i)
            # later submissions shorter
            task.call = replace(task.call, exec_time=float(n + 1 - i))
            tasks.append(task)
        return indexed(*tasks)

    def test_fifo_picks_oldest(self):
        decision = FifoReschedulePolicy().pick(
            self._tasks(), SERVER, "k0", lambda _o: False, now=0.0
        )
        assert decision.task.identity.rpc == 1

    def test_fastest_first_picks_shortest(self):
        decision = FastestFirstSchedulerPolicy().pick(
            self._tasks(), SERVER, "k0", lambda _o: False, now=0.0
        )
        assert decision.task.identity.rpc == 5  # shortest exec_time

    def test_round_robin_rotates(self):
        policy = RoundRobinSchedulerPolicy()
        tasks = self._tasks(3)
        first = policy.pick(tasks, SERVER, "k0", lambda _o: False, now=0.0)
        # Reset so the same eligible set is offered again.
        first.task.state = TaskState.PENDING
        tasks.note(first.task)
        second = policy.pick(tasks, SERVER, "k0", lambda _o: False, now=0.0)
        assert first.task.identity.rpc == 1
        assert second.task.identity.rpc == 2

    def test_random_is_deterministic_per_bound_stream(self):
        def picks():
            policy = RandomSchedulerPolicy().bind(owner="k0", rng=RandomStreams(42))
            sequence = []
            for _ in range(6):
                tasks = self._tasks()
                decision = policy.pick(tasks, SERVER, "k0", lambda _o: False, now=0.0)
                sequence.append(decision.task.identity.rpc)
            return sequence

        assert picks() == picks()

    def test_random_requires_a_bound_rng(self):
        with pytest.raises(ConfigurationError, match="never bound"):
            RandomSchedulerPolicy().pick(
                self._tasks(), SERVER, "k0", lambda _o: False, now=0.0
            )

    def test_reschedule_switch(self):
        task = make_task(1, state=TaskState.ONGOING, owner="k0")
        task.assigned_server = SERVER
        held = FifoReschedulePolicy(reschedule=False)
        assert held.reschedule_for_suspected_server(indexed(task), SERVER, "k0") == []
        released = FifoReschedulePolicy()
        assert len(released.reschedule_for_suspected_server(indexed(task), SERVER, "k0")) == 1


#: what runs on a built grid, per (preset, platform) — written out, not
#: derived: (scheduler class, reschedule, replication class, effective
#: period, logging class, strategy, detection class, effective timeout).
#: ``None`` is "no preset": the platform's own defaults.
RESOLVED_POLICIES = {
    (None, "confined"): (
        FifoReschedulePolicy, True, PassivePeriodicReplication, 5.0,
        PessimisticNonBlockingLogging, LoggingStrategy.PESSIMISTIC_NON_BLOCKING,
        FixedTimeoutDetection, 30.0,
    ),
    (None, "internet"): (
        FifoReschedulePolicy, True, PassivePeriodicReplication, 60.0,
        PessimisticNonBlockingLogging, LoggingStrategy.PESSIMISTIC_NON_BLOCKING,
        FixedTimeoutDetection, 30.0,
    ),
    # The rpc-v bundle spells its period out, so it wins on both platforms.
    ("rpc-v", "confined"): (
        FifoReschedulePolicy, True, PassivePeriodicReplication, 5.0,
        PessimisticNonBlockingLogging, LoggingStrategy.PESSIMISTIC_NON_BLOCKING,
        FixedTimeoutDetection, 30.0,
    ),
    ("rpc-v", "internet"): (
        FifoReschedulePolicy, True, PassivePeriodicReplication, 5.0,
        PessimisticNonBlockingLogging, LoggingStrategy.PESSIMISTIC_NON_BLOCKING,
        FixedTimeoutDetection, 30.0,
    ),
    ("no-replication", "confined"): (
        FifoReschedulePolicy, False, NoReplication, None,
        OptimisticLogging, LoggingStrategy.OPTIMISTIC,
        FixedTimeoutDetection, 30.0,
    ),
    ("no-replication", "internet"): (
        FifoReschedulePolicy, False, NoReplication, None,
        OptimisticLogging, LoggingStrategy.OPTIMISTIC,
        FixedTimeoutDetection, 30.0,
    ),
    ("netsolve-style", "confined"): (
        FifoReschedulePolicy, True, NoReplication, None,
        OptimisticLogging, LoggingStrategy.OPTIMISTIC,
        FixedTimeoutDetection, 30.0,
    ),
    ("netsolve-style", "internet"): (
        FifoReschedulePolicy, True, NoReplication, None,
        OptimisticLogging, LoggingStrategy.OPTIMISTIC,
        FixedTimeoutDetection, 30.0,
    ),
}

SMALL_TOPOLOGIES = {
    "confined": GridTopology(kind="confined", n_servers=1, n_coordinators=2),
    "internet": GridTopology(kind="internet", servers_per_site={"lille": 1}),
}


@pytest.fixture
def built_grids(monkeypatch):
    """Every grid ``execute_benchmark`` builds while the test runs."""
    grids = []
    build = GridTopology.build

    def recording_build(self, protocol, seed):
        grids.append(build(self, protocol, seed))
        return grids[-1]

    monkeypatch.setattr(GridTopology, "build", recording_build)
    return grids


class TestResolvedPolicies:
    @pytest.mark.parametrize(("preset", "kind"), list(RESOLVED_POLICIES))
    def test_every_preset_resolves_to_the_written_out_policies(
        self, built_grids, preset, kind
    ):
        report = execute_benchmark(
            SMALL_TOPOLOGIES[kind],
            WorkloadSpec(n_calls=1, exec_time=0.5),
            protocol=preset,
            horizon=600.0,
        )
        assert report.completed == 1
        (grid,) = built_grids
        coordinator = grid.coordinators[0]
        scheduler = coordinator.scheduler
        replication = coordinator.replication_policy
        period = getattr(replication, "period", None)
        if isinstance(replication, PassivePeriodicReplication) and period is None:
            period = coordinator.config.replication.period
        logging = grid.client.logging
        detectors = [
            coordinator.server_detector,
            coordinator.coordinator_detector,
            grid.servers[0].detector,
        ]
        assert len({type(d.policy) for d in detectors}) == 1
        detection = detectors[0].policy
        timeout = detection.timeout
        if timeout is None:
            timeout = coordinator.config.detection.suspicion_timeout
        assert (
            type(scheduler), scheduler.reschedule, type(replication), period,
            type(logging.policy), logging.policy.strategy, type(detection), timeout,
        ) == RESOLVED_POLICIES[preset, kind]

    @pytest.mark.parametrize("kind", ["confined", "internet"])
    def test_the_default_preset_means_the_platforms_own_defaults(
        self, built_grids, kind
    ):
        for preset in (None, "default"):
            execute_benchmark(
                SMALL_TOPOLOGIES[kind],
                WorkloadSpec(n_calls=1, exec_time=0.5),
                protocol=preset,
                horizon=600.0,
            )
        unnamed, named = built_grids
        assert named.spec.protocol == unnamed.spec.protocol
        assert named.spec.protocol.coordinator.replication.period == (
            5.0 if kind == "confined" else 60.0
        )


class TestPresetBundleEquivalence:
    def test_presets_carry_their_bundles(self):
        protocol = rpcv_protocol()
        assert protocol.policy.replication == {
            "name": "policy.repl.passive-periodic", "params": {"period": 5.0},
        }
        no_ft = no_fault_tolerance_protocol()
        assert no_ft.policy.replication["name"] == "policy.repl.none"
        assert no_ft.policy.scheduler["params"] == {"reschedule": False}
        assert no_ft.policy.logging["name"] == "policy.log.optimistic"
        # An axis a bundle leaves out keeps its default.
        assert no_ft.policy.detection == PolicyConfig().detection
        # The bundles are shared module data: a protocol owns a copy.
        no_ft.policy.scheduler["params"]["reschedule"] = True
        assert no_fault_tolerance_protocol().policy.scheduler["params"] == {
            "reschedule": False
        }

    def test_unknown_bundle_and_axis_raise(self):
        with pytest.raises(ConfigurationError, match="unknown policy bundle"):
            protocol_from_bundle("xtremweb")
        with pytest.raises(ConfigurationError, match="unknown policy bundle axes"):
            protocol_from_bundle({"sched": "policy.sched.random"})

    def test_preset_rows_equal_explicit_policy_bundle_rows(self):
        """A preset and its bundle spelled out as overrides run identically."""
        preset = benchmark_cell(protocol_preset="no-replication", **MICRO)
        bundle = POLICY_BUNDLES["no-fault-tolerance"]
        explicit = benchmark_cell(
            scheduler_policy=bundle["scheduler"],
            replication_policy=bundle["replication"],
            logging_policy=bundle["logging"],
            **MICRO,
        )
        assert preset == explicit

    def test_policy_override_path_reaches_the_grid(self):
        protocol = resolve_protocol(
            None, {"policy.scheduler": "policy.sched.round-robin"}
        )
        grid = build_confined_cluster(
            n_servers=1, n_coordinators=1, protocol=protocol, seed=1
        )
        grid.start()
        assert grid.coordinators[0].scheduler.key == "policy.sched.round-robin"

    def test_bad_policy_override_fails_fast(self):
        with pytest.raises(ConfigurationError, match="unknown component"):
            resolve_protocol(None, {"policy.scheduler": "policy.sched.nope"})

    def test_bad_policy_override_fails_before_any_grid_is_built(self, built_grids):
        # Without a preset too: the path every benchmark_cell sweep takes.
        with pytest.raises(ConfigurationError, match="unknown component"):
            execute_benchmark(
                GridTopology(),
                WorkloadSpec(n_calls=1),
                protocol_overrides={"policy.scheduler": "policy.sched.nope"},
            )
        assert built_grids == []

    def test_an_override_replaces_the_entry_whole(self):
        # The degraded preset's reschedule=False belonged to the entry that
        # was replaced; an ablation wanting both spells the parameter out.
        swapped = resolve_protocol(
            "no-replication", {"policy.scheduler": "policy.sched.random"}
        )
        policy = make_policy("scheduler", swapped.policy.scheduler)
        assert isinstance(policy, RandomSchedulerPolicy)
        assert policy.reschedule is True
        both = resolve_protocol(
            "no-replication",
            {"policy.scheduler": {
                "name": "policy.sched.random", "params": {"reschedule": False},
            }},
        )
        assert make_policy("scheduler", both.policy.scheduler).reschedule is False
        # The untouched axes keep their bundle entries.
        assert swapped.policy.replication["name"] == "policy.repl.none"

    @pytest.mark.parametrize(
        "path",
        [
            "coordinator.scheduler.policy",
            "coordinator.replication.enabled",
            "client.logging.strategy",
            "server.slots",
        ],
    )
    def test_the_removed_flag_paths_are_unknown(self, path):
        with pytest.raises(ConfigurationError, match="unknown protocol path"):
            resolve_protocol("rpc-v", {path: False})

    def test_overrides_select_the_effective_policies(self):
        assert ProtocolConfig().policy.scheduler == "policy.sched.fifo-reschedule"
        protocol = resolve_protocol(
            None,
            {"policy.scheduler": "policy.sched.round-robin",
             "policy.replication": "policy.repl.none"},
        )
        assert protocol.policy.scheduler == "policy.sched.round-robin"
        assert protocol.policy.replication == "policy.repl.none"


class TestSchedAblationScenario:
    def test_tiny_rows_are_distinct_per_policy_and_deterministic(self):
        sequential = run_scenario("sched-ablation", scale="tiny", jobs=1)
        parallel = run_scenario("sched-ablation", scale="tiny", jobs=2)
        assert sequential.rows == parallel.rows
        assert [row["scheduler_policy"] for row in sequential.rows] == list(
            SCHEDULER_POLICIES
        )
        makespans = [row["mean_makespan_seconds"] for row in sequential.rows]
        assert len(set(makespans)) == len(makespans), "policies produced equal rows"

    def test_policy_counters_reach_the_cells(self):
        outputs = benchmark_cell(
            scheduler_policy="policy.sched.random", exec_time_spread=2.0, **MICRO
        )
        assert outputs["completed"] == MICRO["n_calls"]


class TestCellErrors:
    def test_cell_errors_propagate(self):
        spec = ScenarioSpec(name="error-sweep", title="t", cell=_error_cell, seeds=(0,))
        with pytest.raises(ValueError, match="boom"):
            SweepRunner(spec, jobs=1).run()


def _error_cell(seed: int = 0, **_: object) -> dict:
    raise ValueError("boom")


class TestScriptedStepsAndPartitionedViews:
    def test_scripted_steps_fire_on_conditions(self):
        grid = build_confined_cluster(n_servers=2, n_coordinators=2, seed=5)
        script = grid.add_component(
            "inject.script",
            {
                "steps": [
                    {"do": "note", "label": 1, "note": "armed"},
                    {"after": 3.0, "do": "kill", "target": "server:s000",
                     "label": 2, "note": "killed"},
                    {"after": 2.0, "do": "restart", "target": "server:s000",
                     "label": 3, "note": "restarted"},
                ]
            },
        )
        grid.start()
        grid.run(until=10.0)
        assert [record["label"] for record in script.recorded] == [1, 2, 3]
        assert script.recorded[1]["time"] == pytest.approx(3.0)
        assert grid.hosts[Address("server", "s000")].up

    def test_scripted_steps_validate(self):
        with pytest.raises(ConfigurationError, match="unknown step action"):
            create_component("inject.script", {"steps": [{"do": "explode"}]})
        with pytest.raises(ConfigurationError, match="unknown step condition"):
            create_component(
                "inject.script",
                {"steps": [{"do": "note", "until": {"kind": "vibes"}}]},
            )
        with pytest.raises(ConfigurationError, match="missing at_least"):
            create_component(
                "inject.script",
                {"steps": [{"do": "note", "until": {
                    "kind": "finished-count", "coordinator": "x"}}]},
            )

    def test_scripted_steps_fail_fast_on_unknown_condition_coordinators(self):
        grid = build_confined_cluster(n_servers=1, n_coordinators=2, seed=5)
        with pytest.raises(ConfigurationError, match="unknown coordinators"):
            grid.add_component(
                "inject.script",
                {"steps": [{
                    "until": {"kind": "finished-count", "coordinator": "lile",
                              "at_least": 1},
                    "do": "note",
                }]},
            )

    def test_partition_schedule_tier_hide_is_bidirectional(self):
        grid = build_confined_cluster(n_servers=2, n_coordinators=2, seed=5)
        hidden = grid.coordinators[0].address
        grid.add_component(
            "net.partition-schedule",
            {
                "events": [
                    {"time": 0, "action": "hide", "dest": str(hidden),
                     "source": "servers", "bidirectional": True},
                ]
            },
        )
        grid.start()
        for server in grid.servers:
            assert not grid.partitions.allows(server.address, hidden)
            assert not grid.partitions.allows(hidden, server.address)
