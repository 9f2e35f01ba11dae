"""Tests for the component platform (manager, builder, registry, library)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.grid.builder import build_confined_cluster, build_grid
from repro.grid.deployment import confined_cluster_spec
from repro.platform import (
    BaseComponent,
    ComponentManager,
    component,
    component_names,
    create_component,
    resolve_component,
)
from repro.nodes.faultgen import ChurnInjector, FaultGenerator, FaultScript
from repro.platform.library import PartitionSchedule
from repro.scenarios.engine import interpolate_params
from repro.scenarios.runner import SweepRunner
from repro.scenarios.spec import Axis, ScenarioSpec


class Recorder(BaseComponent):
    """Test component recording its lifecycle transitions into a shared log."""

    def __init__(self, name: str, log: list[str]):
        super().__init__(name)
        self.log = log

    def setup(self, builder):
        self.log.append(f"setup:{self.name}")

    def start(self):
        self.log.append(f"start:{self.name}")

    def stop(self):
        self.log.append(f"stop:{self.name}")


class TestComponentManager:
    def test_lifecycle_ordering(self):
        log: list[str] = []
        manager = ComponentManager()
        for name in ("a", "b", "c"):
            manager.add(Recorder(name, log))
        assert manager.phase == "registration"
        manager.setup_all(object())
        assert log == ["setup:a", "setup:b", "setup:c"]
        manager.start_all()
        assert log[3:] == ["start:a", "start:b", "start:c"]
        manager.stop_all()
        assert log[6:] == ["stop:c", "stop:b", "stop:a"]
        assert manager.phase == "stopped"

    def test_late_add_catches_up(self):
        log: list[str] = []
        manager = ComponentManager()
        manager.add(Recorder("a", log))
        manager.setup_all(object())
        manager.start_all()
        manager.add(Recorder("late", log))
        assert "setup:late" in log and "start:late" in log
        manager.stop_all()
        # The late component started last, so it stops first.
        assert log[-2:] == ["stop:late", "stop:a"]

    def test_add_during_setup_is_picked_up(self):
        log: list[str] = []
        manager = ComponentManager()

        class Parent(Recorder):
            def setup(self, builder):
                super().setup(builder)
                manager.add(Recorder("child", log))

        manager.add(Parent("parent", log))
        manager.setup_all(object())
        assert log == ["setup:parent", "setup:child"]

    def test_duplicate_names_and_stopped_adds_raise(self):
        log: list[str] = []
        manager = ComponentManager()
        manager.add(Recorder("a", log))
        with pytest.raises(ConfigurationError, match="already registered"):
            manager.add(Recorder("a", log))
        manager.setup_all(object())
        manager.start_all()
        manager.stop_all()
        with pytest.raises(ConfigurationError, match="stopped"):
            manager.add(Recorder("b", log))

    def test_contract_and_lookup_errors(self):
        manager = ComponentManager()
        with pytest.raises(ConfigurationError, match="Component"):
            manager.add(object())
        with pytest.raises(ConfigurationError, match="no component named"):
            manager.get("ghost")

    def test_idempotent_start_and_stop(self):
        log: list[str] = []
        manager = ComponentManager()
        manager.add(Recorder("a", log))
        manager.setup_all(object())
        manager.start_all()
        manager.start_all()
        manager.stop_all()
        manager.stop_all()
        assert log == ["setup:a", "start:a", "stop:a"]


class TestComponentRegistry:
    def test_builtins_are_registered(self):
        names = component_names()
        for name in (
            "inject.rate", "inject.churn", "inject.script",
            "net.partition-schedule",
        ):
            assert name in names

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
        # resolve_component remembers its answers; neither a replacement nor
        # a name registered after a failed lookup may be shadowed by one.
        with pytest.raises(ConfigurationError, match="unknown component"):
            resolve_component("test.late-probe")
        component("test.late-probe")(Recorder)
        assert resolve_component("test.late-probe") is Recorder
        component("test.late-probe", replace=True)(BaseComponent)
        assert resolve_component("test.late-probe") is BaseComponent


class TestBuilderFacade:
    def test_exposes_the_cross_cutting_capabilities(self):
        grid = build_confined_cluster(n_servers=2, n_coordinators=2)
        builder = grid.builder
        assert builder.env is grid.env
        assert builder.network is grid.network
        assert builder.rng is grid.rng
        assert builder.monitor is grid.monitor
        assert builder.services is grid.services
        assert builder.partitions is grid.partitions
        assert builder.config is grid.spec.protocol
        assert builder.rng.stream("x") is grid.rng.stream("x")

    def test_host_selectors(self):
        grid = build_confined_cluster(n_servers=3, n_coordinators=2)
        builder = grid.builder
        assert len(builder.hosts("servers")) == 3
        assert len(builder.hosts("coordinators")) == 2
        assert len(builder.hosts("clients")) == 1
        assert len(builder.hosts("all")) == 6
        assert builder.host("server:s000").address.name == "s000"
        assert builder.host("s001").address.name == "s001"
        with pytest.raises(ConfigurationError, match="unknown host tier"):
            builder.hosts("printers")
        with pytest.raises(ConfigurationError, match="no host"):
            builder.host("mainframe")


class TestGridOnThePlatform:
    def test_tiers_are_registered_components(self):
        grid = build_confined_cluster(n_servers=2, n_coordinators=2)
        names = grid.manager.names()
        assert names[:2] == ["coordinator:cluster-k0", "coordinator:cluster-k1"]
        assert names[2:4] == ["server:s000", "server:s001"]
        assert names[4] == "client:c0"
        assert grid.component("client:c0") is grid.client

    def test_start_stop_drive_the_manager(self):
        grid = build_confined_cluster(n_servers=1, n_coordinators=1)
        assert not grid.started
        grid.start()
        assert grid.started and grid.client.started
        grid.stop()
        assert not grid.started
        assert grid.client._heartbeat.stopped

    def test_build_grid_accepts_component_entries(self):
        spec = confined_cluster_spec(n_servers=2, n_coordinators=1)
        grid = build_grid(
            spec,
            components=[
                ("inject.churn", {"target": "servers", "mtbf": 30.0, "mttr": 5.0}),
                {
                    "name": "net.partition-schedule",
                    "params": {"events": [{"time": 60.0, "action": "heal-all"}]},
                },
            ],
        )
        churn = grid.component("churn-servers")
        assert len(churn.hosts) == 2  # setup ran
        grid.start()
        grid.run(until=120.0)
        assert churn.injected > 0
        assert grid.component("partition-schedule").injected == 1

    def test_instance_entries_with_params_raise(self):
        grid = build_confined_cluster(n_servers=1, n_coordinators=1)
        with pytest.raises(ConfigurationError, match="by name"):
            grid.add_component(ChurnInjector(), params={"mtbf": 1.0})


class TestLibraryComponents:
    def test_scripted_faults_follow_the_timetable(self):
        grid = build_confined_cluster(n_servers=2, n_coordinators=1)
        grid.add_component(FaultScript(events=[
            {"time": 5.0, "action": "kill", "target": "server:s000"},
            {"time": 12.0, "action": "restart", "target": "server:s000"},
        ]))
        grid.start()
        host = grid.builder.host("server:s000")
        grid.run(until=8.0)
        assert not host.up
        grid.run(until=15.0)
        assert host.up

    def test_scripted_faults_reject_unknown_targets(self):
        spec = confined_cluster_spec(n_servers=1, n_coordinators=1)
        with pytest.raises(ConfigurationError, match="unknown hosts"):
            build_grid(spec, components=[
                ("inject.script",
                 {"events": [{"time": 1.0, "action": "kill", "target": "ghost"}]}),
            ])

    def test_partition_schedule_partitions_and_heals(self):
        grid = build_confined_cluster(n_servers=2, n_coordinators=1)
        grid.add_component(PartitionSchedule(events=[
            {"time": 0.0, "action": "partition", "partition": "split",
             "group_a": "servers", "group_b": "coordinators"},
            {"time": 10.0, "action": "heal", "partition": "split"},
        ]))
        grid.start()
        server = grid.servers[0].address
        coordinator = grid.coordinators[0].address
        # Zero-time events are applied synchronously at start.
        assert not grid.partitions.allows(server, coordinator)
        grid.run(until=12.0)
        assert grid.partitions.allows(server, coordinator)

    def test_partition_schedule_rejects_unknown_actions(self):
        with pytest.raises(ConfigurationError, match="unknown partition action"):
            PartitionSchedule(events=[{"time": 0.0, "action": "explode"}])

    def test_partition_schedule_rejects_missing_time(self):
        with pytest.raises(ConfigurationError, match="no 'time'"):
            PartitionSchedule(events=[{"action": "heal-all"}])


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

    def setup(self, builder):
        self.env = builder.env
        self.victim = builder.hosts("servers")[0]

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
        """A new injector is a class + decorator + spec entry — no builder edits."""
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
