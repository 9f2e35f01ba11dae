"""Tests for the component platform (grid lifecycle, registry, library)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.grid.builder import build_confined_cluster
from repro.platform import (
    BaseComponent,
    component,
    create_component,
    resolve_component,
)
from repro.nodes.faultgen import ChurnInjector, FaultGenerator, FaultScript
from repro.platform.library import PartitionSchedule
from repro.policies import make_policy
from repro.scenarios.engine import interpolate_params
from repro.scenarios.runner import SweepRunner
from repro.scenarios.spec import Axis, ScenarioSpec


class Recorder(BaseComponent):
    """Test component recording its lifecycle transitions into a shared log."""

    def __init__(self, name: str, log: list[str]):
        super().__init__(name)
        self.log = log

    def setup(self, grid):
        self.log.append(f"setup:{self.name}")

    def start(self):
        self.log.append(f"start:{self.name}")

    def stop(self):
        self.log.append(f"stop:{self.name}")


class TestGridLifecycle:
    def _tiers_logged(self, grid, log):
        """Make every tier component log its start and stop into ``log``."""
        for tier in (*grid.coordinators, *grid.servers, *grid.clients):
            for phase in ("start", "stop"):
                method = getattr(tier, phase)

                def logged(method=method, phase=phase, name=tier.name):
                    log.append(f"{phase}:{name}")
                    method()

                setattr(tier, phase, logged)

    def test_tiers_start_in_order_then_extras_and_stop_in_reverse(self):
        log: list[str] = []
        grid = build_confined_cluster(n_servers=2, n_coordinators=2)
        assert grid.phase == "built"
        assert list(grid.components) == [
            "coordinator:cluster-k0", "coordinator:cluster-k1",
            "server:s000", "server:s001", "client:c0",
        ]
        assert grid.components["client:c0"] is grid.client
        self._tiers_logged(grid, log)
        for name in ("a", "b"):
            grid.add_component(Recorder(name, log))
        assert log == ["setup:a", "setup:b"]
        grid.start()
        assert log[2:] == [
            "start:coordinator:cluster-k0", "start:coordinator:cluster-k1",
            "start:server:s000", "start:server:s001", "start:client:c0",
            "start:a", "start:b",
        ]
        assert grid.phase == "running" and grid.client.started
        del log[:]
        grid.stop()
        assert log == [
            "stop:b", "stop:a", "stop:client:c0", "stop:server:s001",
            "stop:server:s000", "stop:coordinator:cluster-k1",
            "stop:coordinator:cluster-k0",
        ]
        assert grid.phase == "stopped"
        assert grid.client._heartbeat.stopped

    def test_a_late_join_is_set_up_and_started(self):
        log: list[str] = []
        grid = build_confined_cluster(n_servers=1, n_coordinators=1)
        grid.add_component(Recorder("a", log))
        grid.start()
        grid.add_component(Recorder("late", log))
        assert log == ["setup:a", "start:a", "setup:late", "start:late"]
        grid.stop()
        # The late component started last, so it stops first.
        assert log[-2:] == ["stop:late", "stop:a"]

    def test_a_child_added_in_setup_starts_after_its_parent(self):
        log: list[str] = []
        grid = build_confined_cluster(n_servers=1, n_coordinators=1)

        class Parent(Recorder):
            def setup(self, grid):
                super().setup(grid)
                grid.add_component(Recorder("child", log))

        grid.add_component(Parent("parent", log))
        assert log == ["setup:parent", "setup:child"]
        grid.start()
        assert log[2:] == ["start:parent", "start:child"]

    def test_duplicate_names_and_stopped_adds_raise(self):
        log: list[str] = []
        grid = build_confined_cluster(n_servers=1, n_coordinators=1)
        grid.add_component(Recorder("a", log))
        with pytest.raises(ConfigurationError, match="already registered"):
            grid.add_component(Recorder("a", log))
        with pytest.raises(ConfigurationError, match="already registered"):
            grid.add_component(Recorder("client:c0", log))
        grid.start()
        grid.stop()
        with pytest.raises(ConfigurationError, match="stopped"):
            grid.add_component(Recorder("b", log))
        with pytest.raises(ConfigurationError, match="stopped"):
            grid.start()

    def test_contract_errors(self):
        grid = build_confined_cluster(n_servers=1, n_coordinators=1)
        with pytest.raises(ConfigurationError, match="Component"):
            grid.add_component(object())
        # A bare name is not an entry: entries are {"name", "params"} mappings.
        with pytest.raises(ConfigurationError, match="Component"):
            grid.add_component("inject.churn")
        with pytest.raises(ConfigurationError, match="unknown component"):
            grid.add_component({"name": "no-such-component"})
        assert len(grid.components) == 3

    def test_setup_receives_the_grid_itself(self):
        seen = []

        class Probe(Recorder):
            def setup(self, grid):
                seen.append(grid)

        grid = build_confined_cluster(n_servers=1, n_coordinators=1)
        grid.add_component(Probe("probe", []))
        assert seen == [grid]

    def test_a_policy_does_not_join_a_grid(self):
        # Policies belong to one protocol component each (make_policy); they
        # are not platform components.
        grid = build_confined_cluster(n_servers=1, n_coordinators=1)
        with pytest.raises(ConfigurationError, match="Component"):
            grid.add_component(make_policy("scheduler", "policy.sched.random"))
        with pytest.raises(ConfigurationError, match="Component protocol"):
            grid.add_component({"name": "policy.sched.random"})

    def test_idempotent_start_and_stop(self):
        log: list[str] = []
        grid = build_confined_cluster(n_servers=1, n_coordinators=1)
        grid.add_component(Recorder("a", log))
        grid.start()
        grid.start()
        grid.stop()
        grid.stop()
        assert log == ["setup:a", "start:a", "stop:a"]

    def test_entries_join_by_name_with_params(self):
        grid = build_confined_cluster(n_servers=2, n_coordinators=1)
        churn = grid.add_component(
            {"name": "inject.churn",
             "params": {"target": "servers", "mtbf": 30.0, "mttr": 5.0}}
        )
        schedule = grid.add_component({
            "name": "net.partition-schedule",
            "params": {"events": [{"time": 0, "action": "hide",
                                   "dest": "clients", "source": "servers"}]},
        })
        assert grid.components["churn-servers"] is churn
        assert grid.components["partition-schedule"] is schedule
        assert len(churn.hosts) == 2  # setup ran
        grid.start()
        grid.run(until=120.0)
        assert churn.injected > 0
        assert schedule.injected == 1


class TestComponentRegistry:
    def test_builtins_are_registered(self):
        for name in (
            "inject.rate", "inject.churn", "inject.script",
            "net.partition-schedule",
        ):
            assert resolve_component(name).__module__.startswith("repro.")

    def test_retired_knobs_are_refused_by_name(self):
        # The quorum, back-off cap, crowd suspicion and heart-beat cadence
        # are fixed rules now, and churn draws only from ExponentialChurn or
        # a trace; a scenario still naming an old knob fails loudly.
        for name, params in (
            ("policy.repl.quorum", {"quorum": 1}),
            ("policy.repl.quorum", {"max_backoff_rounds": 8}),
            ("tier.crowd", {"suspect_after": 3}),
            ("tier.crowd", {"heartbeat_every": 0}),
            ("inject.churn", {"model": "weibull"}),
        ):
            with pytest.raises(ConfigurationError, match="rejected its parameters"):
                create_component(name, params)

    def test_create_with_params(self):
        built = create_component(
            "inject.rate", {"target": "coordinators", "faults_per_minute": 3.0}
        )
        assert isinstance(built, FaultGenerator)
        assert built.name == "faultgen-coordinators"

    def test_dotted_path_fallback(self):
        for path in (
            "repro.nodes.faultgen.ChurnInjector",
            "repro.nodes.faultgen:ChurnInjector",
        ):
            assert resolve_component(path) is ChurnInjector

    def test_unknown_name_lists_known(self):
        with pytest.raises(ConfigurationError, match="inject.rate"):
            resolve_component("no-such-component")

    def test_bad_params_are_configuration_errors(self):
        with pytest.raises(ConfigurationError, match="rejected its parameters"):
            create_component("inject.rate", {"bogus": 1})

    def test_duplicate_registration_raises(self):
        @component("test.dup-probe")
        class Probe(BaseComponent):
            pass

        with pytest.raises(ConfigurationError, match="already registered"):
            component("test.dup-probe")(Recorder)

    def test_a_registration_forgets_remembered_lookups(self):
        # resolve_component remembers its answers; a name registered after a
        # failed lookup must not be shadowed by it, and every registration
        # forgets what was remembered.
        with pytest.raises(ConfigurationError, match="unknown component"):
            resolve_component("test.late-probe")
        component("test.late-probe")(Recorder)
        assert resolve_component("test.late-probe") is Recorder
        assert resolve_component.cache_info().currsize > 0
        component("test.later-probe")(BaseComponent)
        assert resolve_component.cache_info().currsize == 0
        assert resolve_component("test.later-probe") is BaseComponent
        assert resolve_component("test.late-probe") is Recorder


class TestHostLookup:
    def test_host_selectors(self):
        grid = build_confined_cluster(n_servers=3, n_coordinators=2)
        assert len(grid.hosts_of("servers")) == 3
        assert len(grid.hosts_of("coordinators")) == 2
        assert len(grid.hosts_of("clients")) == 1
        assert grid.hosts_of("servers")[0] is grid.servers[0].host
        for tier in ("printers", "all"):
            with pytest.raises(ConfigurationError, match="unknown host tier"):
                grid.hosts_of(tier)

    def test_host_by_address_full_name_or_bare_name(self):
        grid = build_confined_cluster(n_servers=3, n_coordinators=2)
        server = grid.servers[0].host
        assert grid.host(server.address) is server
        assert grid.host("server:s000") is server
        assert grid.host("s001").address.name == "s001"
        with pytest.raises(ConfigurationError, match="no host"):
            grid.host("mainframe")


class TestLibraryComponents:
    def test_scripted_faults_follow_the_timetable(self):
        grid = build_confined_cluster(n_servers=2, n_coordinators=1)
        grid.add_component(FaultScript(events=[
            {"time": 5.0, "action": "kill", "target": "server:s000"},
            {"time": 12.0, "action": "restart", "target": "server:s000"},
        ]))
        grid.start()
        host = grid.host("server:s000")
        grid.run(until=8.0)
        assert not host.up
        grid.run(until=15.0)
        assert host.up

    def test_scripted_faults_reject_unknown_targets(self):
        grid = build_confined_cluster(n_servers=1, n_coordinators=1)
        with pytest.raises(ConfigurationError, match="unknown hosts"):
            grid.add_component({
                "name": "inject.script",
                "params": {"events": [{"time": 1.0, "action": "kill",
                                       "target": "ghost"}]},
            })

    def test_partition_schedule_hides_one_way_at_start(self):
        grid = build_confined_cluster(n_servers=2, n_coordinators=1)
        grid.add_component(PartitionSchedule(events=[
            {"time": 0, "action": "hide", "dest": "coordinators",
             "source": "servers"},
        ]))
        grid.start()
        server = grid.servers[0].address
        coordinator = grid.coordinators[0].address
        # The rules are in force synchronously at start, one way only.
        assert not grid.partitions.allows(server, coordinator)
        assert grid.partitions.allows(coordinator, server)

    def test_partition_schedule_rejects_unknown_actions(self):
        with pytest.raises(ConfigurationError, match="unknown partition action"):
            PartitionSchedule(events=[{"time": 0.0, "action": "explode"}])

    def test_partition_schedule_rejects_a_timed_rule(self):
        for event in ({"action": "hide"}, {"time": 10.0, "action": "hide"}):
            with pytest.raises(ConfigurationError, match="'time': 0"):
                PartitionSchedule(events=[event])


class TestInterpolation:
    def test_placeholders_resolve_recursively(self):
        resolved = interpolate_params(
            [{"name": "x", "params": {"rate": "$rate", "nested": ["$seed"]}}],
            {"rate": 4.0, "seed": 7},
        )
        assert resolved == [{"name": "x", "params": {"rate": 4.0, "nested": [7]}}]

    def test_unknown_placeholder_raises(self):
        with pytest.raises(ConfigurationError, match="unknown cell parameter"):
            interpolate_params({"rate": "$missing"}, {"seed": 1})

    def test_dollar_escape(self):
        assert interpolate_params("$$literal", {}) == "$literal"


#: counts how often the custom injector below actually armed, across cells.
_CUSTOM_STARTS: list[str] = []


@component("test.first-server-killer")
class FirstServerKiller(BaseComponent):
    """Minimal custom injector: kill the first server once at ``at`` seconds."""

    def __init__(self, at: float = 10.0):
        super().__init__("first-server-killer")
        self.at = at
        self.injected = 0

    def setup(self, grid):
        self.env = grid.env
        self.victim = grid.hosts_of("servers")[0]

    def start(self):
        _CUSTOM_STARTS.append(self.name)

        def kill():
            yield self.env.timeout(self.at)
            if self.victim.up:
                self.injected += 1
                self.victim.crash(cause=self.name)

        self.env.process(kill(), name=self.name)


class TestCustomComponentFromSpec:
    def test_spec_components_drive_a_custom_injector(self):
        """A new injector is a class + decorator + spec entry — no grid edits."""
        from repro.scenarios.engine import benchmark_cell

        spec = ScenarioSpec(
            name="custom-injector-sweep",
            title="custom injector",
            cell=benchmark_cell,
            base=dict(n_calls=6, exec_time=2.0, n_servers=2, n_coordinators=1,
                      horizon=600.0),
            axes=(Axis("kill_at", (4.0, 1e9)),),
            seeds=(1,),
            components=(
                {"name": "test.first-server-killer", "params": {"at": "$kill_at"}},
            ),
        )
        _CUSTOM_STARTS.clear()
        result = SweepRunner(spec, jobs=1).run()
        assert len(_CUSTOM_STARTS) == 2
        by_kill_at = {row["kill_at"]: row for row in result.rows}
        # The early kill is survived (rescheduling) and counted; the
        # never-firing kill injects nothing.
        assert by_kill_at[4.0]["faults_injected"] == 1
        assert by_kill_at[4.0]["completed"] == 6
        assert by_kill_at[1e9]["faults_injected"] == 0
        # The spec hash covers the components list.
        without = spec.with_overrides(components=())
        assert spec.spec_hash() != without.spec_hash()
