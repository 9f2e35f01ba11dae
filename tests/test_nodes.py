"""Tests for the volatile-node substrate (hosts, disk, database, churn, faults)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.grid.builder import build_confined_cluster
from repro.net.message import Message, MessageType
from repro.net.transport import Network
from repro.nodes.churn import ExponentialChurn, TraceChurn
from repro.nodes.database import Database, DatabaseModel
from repro.nodes.disk import DiskModel
from repro.nodes.faultgen import FaultGenerator, FaultScript
from repro.nodes.node import Host
from repro.sim.core import ProcessKilled
from repro.sim.rng import RandomStreams
from repro.types import Address
from repro.workloads.synthetic import SyntheticWorkload
from tests.support import PerfectLinkModel


class TestDiskModel:
    def test_sync_write_scales_with_size(self):
        disk = DiskModel()
        assert disk.sync_write_time(10**7) > disk.sync_write_time(10**3)

    def test_cached_write_cheaper_than_sync(self):
        disk = DiskModel()
        assert disk.cached_write_sync_time(10**6) < disk.sync_write_time(10**6)

    def test_background_foreground_time_is_small(self):
        disk = DiskModel()
        assert disk.background_write_foreground_time(10**6) < 0.1 * disk.sync_write_time(10**6)

    def test_background_completion_slower_than_sync(self):
        disk = DiskModel()
        assert disk.background_write_completion_time(10**6) > disk.sync_write_time(10**6)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            DiskModel(write_bandwidth_bps=0)
        with pytest.raises(ConfigurationError):
            DiskModel(cache_sync_fraction=2.0)


class TestDatabase:
    def test_scan_cost_grows_with_distinct_keys(self):
        database = Database()
        empty_scan = database.charge_scan()
        for index in range(1000):
            database.charge_write(index, 10)
        assert database.charge_scan() == pytest.approx(database.model.scan_time(1000))
        assert database.charge_scan() > empty_scan

    def test_rewriting_a_key_does_not_grow_the_scan(self):
        database = Database()
        for _ in range(100):
            database.charge_write("k", 300)
        assert database.keys == {"k"}
        assert database.charge_scan() == pytest.approx(database.model.scan_time(1))

    def test_time_charged_and_writes_accumulate(self):
        database = Database()
        charged = [
            database.charge_write("a", 100),
            database.charge_write("a", 100),
            database.charge_write("b", 100),
            database.charge_scan(),
        ]
        assert sum(charged) == pytest.approx(
            3 * database.model.write_time(100) + database.model.scan_time(2)
        )

    def test_a_finished_grid_keeps_keys_not_rows(self, monkeypatch):
        """A coordinator's database holds its cost model and its keys; no
        description or state value is stored per row."""
        writes = []
        charge_write = Database.charge_write

        def counting(database, key, size_bytes):
            writes.append(key)
            return charge_write(database, key, size_bytes)

        monkeypatch.setattr(Database, "charge_write", counting)
        grid = build_confined_cluster(n_servers=2, n_coordinators=2, seed=3)
        grid.start()
        workload = SyntheticWorkload(n_calls=6, exec_time=2.0)
        assert grid.run_until(grid.run_process(workload.run(grid.client)), timeout=600.0)
        assert workload.completed_count() == 6
        primary = grid.coordinators[0]
        assert set(primary.tasks) <= primary.database.keys
        for coordinator in grid.coordinators:
            database = coordinator.database
            assert set(vars(database)) == {"model", "keys"}
            assert isinstance(database.keys, set) and database.keys
        assert len(writes) >= sum(len(c.database.keys) for c in grid.coordinators)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            DatabaseModel(write_op_latency=-1.0)


class TestChurn:
    def test_exponential_validation(self):
        with pytest.raises(ConfigurationError):
            ExponentialChurn(mtbf=0)

    def test_exponential_draws_positive(self):
        model = ExponentialChurn(mtbf=100.0, mttr=10.0)
        rng = RandomStreams(1)
        assert model.uptime(rng, "n") > 0
        assert model.downtime(rng, "n") > 0

    def test_exponential_permanent_fraction_one_never_returns(self):
        model = ExponentialChurn(mtbf=100.0, mttr=10.0, permanent_fraction=1.0)
        assert model.downtime(RandomStreams(1), "n") == float("inf")

    def test_trace_churn_replays_and_cycles(self):
        model = TraceChurn(pairs=[(10.0, 1.0), (20.0, 2.0)])
        rng = RandomStreams(0)
        ups = [model.uptime(rng, "n") for _ in range(3)]
        downs = []
        model2 = TraceChurn(pairs=[(10.0, 1.0), (20.0, 2.0)])
        for _ in range(3):
            model2.uptime(rng, "m")
            downs.append(model2.downtime(rng, "m"))
        assert ups == [10.0, 20.0, 10.0]
        assert downs == [1.0, 2.0, 1.0]

    def test_trace_churn_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            TraceChurn(pairs=[])


class TestHost:
    def _host(self, env, name="h0"):
        network = Network(env, PerfectLinkModel())
        return Host(env, network, Address("server", name), rng=RandomStreams(0))

    def test_spawn_and_run_process(self, env):
        host = self._host(env)

        def proc():
            yield host.sleep(2.0)
            return env.now

        process = host.spawn(proc())
        env.run()
        assert process.value == 2.0

    def test_crash_kills_processes_and_drops_the_handler(self, env):
        host = self._host(env)
        other = Host(env, host.network, Address("client", "c"), rng=RandomStreams(1))
        received = []
        host.on_message(received.append)

        def long_runner():
            try:
                yield host.sleep(100.0)
                return "finished"
            except ProcessKilled:  # pragma: no cover - killed silently
                return "killed"

        process = host.spawn(long_runner())
        other.send(Message(MessageType.PING, other.address, host.address))
        env.run(until=1.0)
        host.crash()
        env.run()
        assert not process.is_alive
        assert not host.up
        assert host.endpoint.handler is None
        assert len(received) == 1  # delivered before the crash
        other.send(Message(MessageType.PING, other.address, host.address))
        env.run()
        assert len(received) == 1
        assert host.monitor.count(f"faults.{host.address.kind}") == 1

    def test_crash_preserves_persistent_state(self, env):
        host = self._host(env)
        host.persistent["log"] = {"a": 1}
        host.volatile["cache"] = "x"
        host.crash()
        assert host.persistent == {"log": {"a": 1}}
        assert host.volatile == {}

    def test_restart_invokes_callback_and_bumps_incarnation(self, env):
        host = self._host(env)
        calls = []
        host.on_restart(lambda h: calls.append(h.incarnation))
        host.crash()
        host.restart()
        assert host.up
        assert host.incarnation == 1
        assert calls == [1]

    def test_spawn_rejected_while_host_is_down(self, env):
        host = self._host(env)
        host.crash()
        with pytest.raises(ConfigurationError):
            host.spawn((x for x in []))

    def test_send_while_down_is_dropped(self, env):
        host = self._host(env)
        other = Host(env, host.network, Address("client", "c"), rng=RandomStreams(1))
        host.crash()
        host.send(Message(MessageType.PING, host.address, other.address))
        env.run()
        assert host.network.stats()["net.delivered"] == 0

    def test_disk_write_takes_time(self, env):
        host = self._host(env)

        def proc():
            yield from host.disk_write(10_000_000)
            return env.now

        process = host.spawn(proc())
        env.run()
        assert process.value == pytest.approx(host.disk.sync_write_time(10_000_000))


def _small_grid():
    """Two servers and one coordinator: the smallest grid an injector arms on."""
    return build_confined_cluster(n_servers=2, n_coordinators=1, seed=3)


class TestFaultGenerator:
    def test_zero_rate_injects_nothing(self):
        grid = _small_grid()
        generator = grid.add_component(FaultGenerator(faults_per_minute=0.0))
        grid.start()
        grid.run(until=600.0)
        assert generator.injected == 0
        assert grid.monitor.count("faultgen.kills") == 0

    def test_positive_rate_injects_and_restarts(self):
        grid = _small_grid()
        generator = grid.add_component(
            FaultGenerator(faults_per_minute=30.0, restart_delay=1.0)
        )
        grid.start()
        grid.run(until=300.0)
        generator.stop()
        grid.run(until=400.0)
        assert generator.injected > 0
        assert generator.injected == grid.monitor.count("faultgen.kills")
        assert all(host.up for host in grid.hosts_of("servers"))

    def test_host_restarts_after_the_delay(self):
        grid = _small_grid()
        generator = grid.add_component(FaultGenerator(restart_delay=5.0))
        grid.start()
        host = grid.hosts_of("servers")[0]
        generator.kill(host)
        grid.run(until=4.0)
        assert not host.up
        grid.run(until=6.0)
        assert host.up
        assert grid.monitor.count("faultgen.restarts") == 1

    def test_manual_kill_and_permanent_failure(self):
        grid = _small_grid()
        generator = grid.add_component(FaultGenerator(restart_delay=float("inf")))
        grid.start()
        host = grid.hosts_of("servers")[0]
        generator.kill(host)
        grid.run(until=100.0)
        assert not host.up
        assert generator.injected == 1

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError, match="faults_per_minute"):
            FaultGenerator(faults_per_minute=-1.0)
        with pytest.raises(ConfigurationError, match="restart_delay"):
            FaultGenerator(restart_delay=-1.0)


class TestFaultScript:
    def test_scripted_kill_and_restart(self):
        grid = _small_grid()
        grid.add_component(FaultScript(events=[
            {"time": 20.0, "action": "restart", "target": "coordinator:cluster"},
            {"time": 10.0, "action": "kill", "target": "coordinator:cluster"},
        ]))
        grid.start()
        host = grid.hosts_of("coordinators")[0]
        grid.run(until=15.0)
        assert not host.up
        grid.run(until=25.0)
        assert host.up
        assert grid.monitor.count("faultscript.kills") == 1
        assert grid.monitor.count("faultscript.restarts") == 1

    def test_timetable_accepts_bare_names_like_steps(self):
        grid = _small_grid()
        grid.add_component({"name": "inject.script", "params": {
            "events": [{"time": 5.0, "action": "kill", "target": "s000"}],
            "steps": [{"after": 5.0, "do": "kill", "target": "s001"}],
        }})
        grid.start()
        grid.run(until=6.0)
        assert [host.up for host in grid.hosts_of("servers")] == [False, False]

    def test_injected_counts_timetable_and_step_kills_of_live_hosts(self):
        grid = _small_grid()
        script = grid.add_component(FaultScript(
            events=[
                {"time": 5.0, "action": "kill", "target": "s000"},
                # Already down: no fault is injected.
                {"time": 6.0, "action": "kill", "target": "s000"},
            ],
            steps=[
                {"after": 5.0, "do": "kill", "target": "s001"},
                {"do": "restart", "target": "s001"},
                {"after": 1.0, "do": "kill", "target": "s001"},
            ],
        ))
        grid.start()
        grid.run(until=10.0)
        assert script.injected == 3

    def test_unknown_target_raises(self):
        grid = _small_grid()
        with pytest.raises(ConfigurationError, match="unknown hosts.*nowhere"):
            grid.add_component(FaultScript(
                events=[{"time": 1.0, "action": "kill",
                         "target": "coordinator:nowhere"}]
            ))

    def test_event_validation(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            FaultScript(events=[{"time": -1.0, "action": "kill", "target": "x"}])
        with pytest.raises(ConfigurationError, match="unknown scripted action"):
            FaultScript(events=[{"time": 1.0, "action": "explode", "target": "x"}])
