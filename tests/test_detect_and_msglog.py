"""Tests for failure detection and message logging."""

from __future__ import annotations

from itertools import permutations
from types import SimpleNamespace

import pytest

from repro.config import FaultDetectionConfig, LoggingConfig
from repro.detect.detector import FailureDetector
from repro.detect.emitter import HeartbeatEmitter
from repro.errors import LogCorruption
from repro.grid.builder import build_confined_cluster
from repro.msglog.garbage import GarbageCollector
from repro.msglog.log import MessageLog
from repro.msglog.strategies import LoggingEngine
from repro.net.message import MessageType
from repro.net.transport import Network
from repro.nodes.node import Host
from repro.policies.detection import FixedTimeoutDetection
from repro.policies.logging import (
    OptimisticLogging,
    PessimisticBlockingLogging,
    PessimisticNonBlockingLogging,
)
from repro.sim.monitor import Monitor
from repro.sim.rng import RandomStreams
from repro.types import Address, LoggingStrategy
from repro.workloads.synthetic import SyntheticWorkload
from tests.support import PerfectLinkModel, check_log_integrity

S = Address("server", "s0")
K = Address("coordinator", "k0")


def make_host(env, name="h0", kind="client"):
    network = Network(env, PerfectLinkModel())
    return Host(env, network, Address(kind, name), rng=RandomStreams(0))


class TestFailureDetector:
    def _detector(self, timeout=30.0):
        return FailureDetector(
            FaultDetectionConfig(heartbeat_period=5.0, suspicion_timeout=timeout),
            FixedTimeoutDetection(),
        )

    def test_unknown_subject_not_suspected(self):
        detector = self._detector()
        assert not detector.is_suspected(S, 100.0)

    def test_suspected_after_silence(self):
        detector = self._detector()
        detector.heard_from(S, 0.0)
        assert not detector.is_suspected(S, 20.0)
        assert detector.is_suspected(S, 31.0)

    def test_rehabilitated_on_new_message(self):
        detector = self._detector()
        detector.heard_from(S, 0.0)
        assert detector.is_suspected(S, 40.0)
        detector.heard_from(S, 41.0)
        assert not detector.is_suspected(S, 42.0)

    def test_silence_reported(self):
        detector = self._detector()
        detector.heard_from(S, 10.0)
        assert detector.silence(S, 25.0) == 15.0
        assert detector.silence(K, 25.0) == float("inf")

    def test_transitions_are_counted(self):
        detector = self._detector()
        detector.monitor = Monitor()
        detector.heard_from(S, 0.0)
        detector.is_suspected(S, 40.0)
        assert detector.is_suspected(S, 40.0)  # latched: counted once
        detector.heard_from(S, 41.0)
        assert detector.monitor.counters == {
            "detect.suspicions": 1.0,
            "detect.rehabilitations": 1.0,
        }


class TestSuspicionScoring:
    """Each suspicion is scored by what happened to its subject.

    One server on a two-coordinator cluster (5 s beats, 30 s timeout, the
    watch loop ticking every 5 s).  Busy with one long call, the server is
    heard only through its heart-beats: at 47.83 s, then 52.58 s.
    """

    def _run(self, events=(), n_calls=1, exec_time=500.0, until=150.0, cut=None):
        grid = build_confined_cluster(n_servers=1, n_coordinators=2, seed=1)
        grid.start()
        # The primary's (time, suspected) transitions, spied test-side.
        detector = grid.coordinators[0].server_detector
        record = detector._record
        self.transitions = []

        def spy(now, subject, suspected):
            self.transitions.append((now, suspected))
            record(now, subject, suspected)

        detector._record = spy
        workload = SyntheticWorkload(n_calls=n_calls, exec_time=exec_time)
        grid.run_process(workload.run(grid.client))
        if events:
            grid.add_component({"name": "inject.script", "params": {"events": events}})
        if cut is not None:
            start, end = cut
            grid.run(until=start)
            server, primary = grid.servers[0].address, grid.coordinators[0].address
            grid.partitions.hide(primary, from_source=server)
            grid.partitions.hide(server, from_source=primary)
            grid.run(until=end)
            # The cut heals: a test-side reset, the product has no timed heal.
            grid.partitions._blocked.clear()
            grid.partitions.active = False
        grid.run(until=until)
        counters = {
            name: value
            for name, value in grid.monitor.counters.items()
            if name.startswith("detect.")
        }
        return grid, counters

    def test_crashed_subject_adds_its_detection_time(self):
        _, counters = self._run([{"time": 50.0, "action": "kill", "target": "s000"}])
        assert counters == {
            "detect.suspicions": 1.0,
            "detect.suspected_crashed": 1.0,
            # Killed at 50 s, suspected at the 80 s tick.
            "detect.detection_s": 30.0,
        }

    def test_restarted_subject_is_not_a_mistake(self):
        # Down 27.45 s, under the timeout; last heard at 47.83 s, so the
        # silence first passes 30 s at the 80 s tick, 0.05 s after the
        # restart and before the fresh incarnation is heard.
        grid, counters = self._run(
            [
                {"time": 52.5, "action": "kill", "target": "s000"},
                {"time": 79.95, "action": "restart", "target": "s000"},
            ]
        )
        assert counters.get("detect.suspected_restarted") == 1.0
        assert counters.get("detect.wrong_suspicions", 0) == 0
        assert self.transitions[0] == (80.0, True)

    def test_server_that_left_for_another_coordinator_is_not_a_mistake(self):
        # The primary is down from 58 s to 63 s, as the server's first 60 s
        # call ends: its result times out after 70 s without word from the
        # primary, so it moves to the backup, and the restarted primary —
        # which heard its beats meanwhile — suspects it at 103 s.
        grid, counters = self._run(
            [
                {"time": 58.0, "action": "kill", "target": "cluster-k0"},
                {"time": 63.0, "action": "restart", "target": "cluster-k0"},
            ],
            n_calls=2,
            exec_time=60.0,
            until=400.0,
        )
        assert grid.servers[0].preferred_coordinator() == grid.coordinators[1].address
        assert counters.get("detect.suspected_left") == 1.0
        assert counters.get("detect.wrong_suspicions", 0) == 0

    def test_a_live_subject_cut_off_is_a_mistake_until_heard_again(self):
        # No kill or restart silences a live server on this lossless LAN; a
        # partition between it and the primary from 50 s to 90 s does.  It
        # is suspected at the 80 s tick while up and still attached.
        grid, counters = self._run(cut=(50.0, 90.0))
        assert counters["detect.wrong_suspicions"] == 1.0
        (suspected, rehabilitated) = self.transitions
        assert suspected == (80.0, True)
        assert not rehabilitated[1] and rehabilitated[0] > 90.0
        assert counters["detect.mistakes_ended"] == 1.0
        assert counters["detect.mistake_s"] == pytest.approx(
            rehabilitated[0] - suspected[0]
        )

    def test_a_mistake_open_at_the_end_is_not_measured(self):
        # The cut lasts past the end of the run: no rehabilitation ends the
        # mistake, so it has no length and counts as open.
        grid, counters = self._run(cut=(50.0, 150.0), until=150.0)
        assert counters["detect.wrong_suspicions"] == 1.0
        assert "detect.mistakes_ended" not in counters
        assert "detect.mistake_s" not in counters
        assert self.transitions == [(80.0, True)]

    def test_a_mistake_its_subject_crashed_out_of_is_not_measured(self):
        # Mistaken at the 80 s tick, the server is down from 84 s to 86 s;
        # its fresh incarnation's beats after the 90 s heal rehabilitate it,
        # but the mistake ended at the unrecorded crash instant.
        grid, counters = self._run(
            [
                {"time": 84.0, "action": "kill", "target": "s000"},
                {"time": 86.0, "action": "restart", "target": "s000"},
            ],
            cut=(50.0, 90.0),
        )
        assert counters["detect.wrong_suspicions"] == 1.0
        assert [suspected for _, suspected in self.transitions][:2] == [True, False]
        assert "detect.mistakes_ended" not in counters
        assert "detect.mistake_s" not in counters

    def test_duration_totals_do_not_depend_on_scoring_order(self):
        # A watch tick scores its subjects in hash order; summed naively,
        # these three detection times give 50.177 or 50.17700000000001.
        crashed_at = {
            Address("server", f"s{i}"): t for i, t in enumerate((5.375, 33.897, 30.551))
        }
        peers = {
            subject: SimpleNamespace(host=SimpleNamespace(up=False, last_transition=t))
            for subject, t in crashed_at.items()
        }
        totals = set()
        for order in permutations(crashed_at):
            monitor = Monitor()
            detector = FailureDetector(
                FaultDetectionConfig(), FixedTimeoutDetection(),
                monitor=monitor, peers=peers,
            )
            for subject in order:
                detector.watch(subject, 0.0)
            for subject in order:
                assert detector.is_suspected(subject, 40.0)
            totals.add(monitor.count("detect.detection_s"))
        (total,) = totals
        assert total == pytest.approx(50.177)


class TestHeartbeatEmitter:
    def test_emits_periodically_to_targets(self, env):
        host = make_host(env, kind="server")
        network = host.network
        target = Host(env, network, K, rng=RandomStreams(1))
        emitter = HeartbeatEmitter(
            host=host,
            config=FaultDetectionConfig(heartbeat_period=5.0, suspicion_timeout=30.0),
            mtype=MessageType.SERVER_HEARTBEAT,
            targets=lambda: [K],
        )
        emitter.start()
        env.run(until=30.0)
        assert network.stats()["net.sent"] >= 4
        assert network.stats()["net.delivered"] >= 4

    def test_skips_none_and_self_targets(self, env):
        host = make_host(env, kind="server")
        emitter = HeartbeatEmitter(
            host=host,
            config=FaultDetectionConfig(),
            mtype=MessageType.SERVER_HEARTBEAT,
            targets=lambda: [None, host.address],
        )
        assert emitter.beat_now() == 0

    def test_stops_when_host_crashes(self, env):
        host = make_host(env, kind="server")
        Host(env, host.network, K, rng=RandomStreams(1))
        emitter = HeartbeatEmitter(
            host=host,
            config=FaultDetectionConfig(heartbeat_period=5.0, suspicion_timeout=30.0),
            mtype=MessageType.SERVER_HEARTBEAT,
            targets=lambda: [K],
        )
        emitter.start()
        env.run(until=12.0)
        sent_before = host.network.stats()["net.sent"]
        host.crash()
        env.run(until=60.0)
        assert host.network.stats()["net.sent"] == sent_before
        # The crash also reclaimed the pending beat timer.
        assert emitter._handle is None

    def test_stop_cancels_pending_beat_timer(self, env):
        host = make_host(env, kind="server")
        Host(env, host.network, K, rng=RandomStreams(1))
        emitter = HeartbeatEmitter(
            host=host,
            config=FaultDetectionConfig(heartbeat_period=5.0, suspicion_timeout=30.0),
            mtype=MessageType.SERVER_HEARTBEAT,
            targets=lambda: [K],
        )
        emitter.start()
        env.run(until=12.0)
        sent_before = host.network.stats()["net.sent"]
        emitter.stop()
        env.run(until=60.0)
        assert host.network.stats()["net.sent"] == sent_before
        assert emitter._handle is None
        emitter.stop()  # idempotent

    def test_payload_snapshotted_per_beat(self, env):
        host = make_host(env, kind="server")
        target = Host(env, host.network, K, rng=RandomStreams(1))
        received = []
        target.on_message(received.append)
        live_state = {"coordinators": ["k0"]}
        emitter = HeartbeatEmitter(
            host=host,
            config=FaultDetectionConfig(),
            mtype=MessageType.SERVER_HEARTBEAT,
            targets=lambda: [K],
            payload=lambda: live_state,
        )
        assert emitter.beat_now() == 1
        # Mutating the emitter's live nested state after the beat must not
        # rewrite the payload already on the wire.
        live_state["coordinators"].append("k1")
        env.run()
        [message] = received
        assert message.payload["coordinators"] == ["k0"]

    def test_each_beat_sends_a_fresh_message_to_each_target(self, env):
        host = make_host(env, kind="server")
        targets = [K, Address("coordinator", "k1")]
        for address in targets:
            Host(env, host.network, address, rng=RandomStreams(1))
        kept = []
        host.network.add_delivery_hook(kept.append)
        emitter = HeartbeatEmitter(
            host=host,
            config=FaultDetectionConfig(),
            mtype=MessageType.SERVER_HEARTBEAT,
            targets=lambda: targets,
        )
        for _ in range(2):
            assert emitter.beat_now() == 2
            env.run()
        assert len({id(message) for message in kept}) == 4
        assert [message.dest for message in kept] == targets + targets


class TestMessageLog:
    def test_append_then_durable_then_acked(self, env):
        host = make_host(env)
        log = MessageLog(host, "out")
        log.append(1, {"x": 1}, 100)
        assert 1 in log
        assert log.durable_keys() == set()
        log.mark_durable(1)
        assert log.durable_keys() == {1}
        log.mark_acked(1)
        assert log.unacked_durable() == []

    def test_duplicate_key_rejected(self, env):
        host = make_host(env)
        log = MessageLog(host, "out")
        log.append(1, {}, 10)
        with pytest.raises(LogCorruption):
            log.append(1, {}, 10)

    def test_mark_durable_unknown_key_rejected(self, env):
        host = make_host(env)
        log = MessageLog(host, "out")
        with pytest.raises(LogCorruption):
            log.mark_durable(99)

    def test_crash_loses_buffered_records_and_keeps_durable_ones(self, env):
        host = make_host(env)
        log = MessageLog(host, "out")
        log.append(1, {"payload": "durable"}, 10)
        log.mark_durable(1)
        log.append(2, {"payload": "buffered"}, 10)
        host.crash()
        host.restart()
        recovered = MessageLog(host, "out")
        assert recovered.durable_keys() == {1}
        assert 2 not in recovered

    def test_max_durable_key(self, env):
        host = make_host(env)
        log = MessageLog(host, "out")
        assert log.max_durable_key(default=0) == 0
        for key in (3, 1, 7):
            log.append(key, {}, 1)
            log.mark_durable(key)
        assert log.max_durable_key() == 7

    def test_ack_for_forgotten_record_is_noop(self, env):
        host = make_host(env)
        log = MessageLog(host, "out")
        log.mark_acked(123)  # never logged; must not raise

    def test_byte_accounting(self, env):
        host = make_host(env)
        log = MessageLog(host, "out")
        log.append(1, {}, 100)
        log.mark_durable(1)
        log.append(2, {}, 50)
        assert log._durable_total == 100
        assert log.total_bytes() == 150

    def test_records_file_the_logged_object_in_key_order(self, env):
        host = make_host(env)
        log = MessageLog(host, "out")
        logged = {key: object() for key in (2, 1)}
        for key, payload in logged.items():
            log.append(key, payload, 10)
            log.mark_durable(key)
        records = log.durable_records()
        assert [r.key for r in records] == [1, 2]
        assert all(r.payload is logged[r.key] for r in records)

    def test_integrity_check_passes_on_normal_log(self, env):
        host = make_host(env)
        log = MessageLog(host, "out")
        log.append(1, {}, 10)
        log.mark_durable(1)
        log.append(2, {}, 10)
        check_log_integrity(log)


class TestLoggingStrategies:
    def _engine(self, env, strategy):
        host = make_host(env)
        log = MessageLog(host, "out")
        policy = {
            LoggingStrategy.PESSIMISTIC_BLOCKING: PessimisticBlockingLogging,
            LoggingStrategy.PESSIMISTIC_NON_BLOCKING: PessimisticNonBlockingLogging,
            LoggingStrategy.OPTIMISTIC: OptimisticLogging,
        }[strategy]()
        return host, log, LoggingEngine(host, log, policy)

    def _run(self, env, engine, size=1_000_000):
        def proc():
            token = yield from engine.before_send(1, {"p": 1}, size)
            before_send_done = engine.host.env.now
            yield from engine.after_send(token)
            return before_send_done, engine.host.env.now

        process = engine.host.spawn(proc())
        env.run()
        return process.value

    def test_blocking_pays_full_write_before_send(self, env):
        host, log, engine = self._engine(env, LoggingStrategy.PESSIMISTIC_BLOCKING)
        before, _after = self._run(env, engine)
        assert before == pytest.approx(host.disk.sync_write_time(1_000_000))
        assert log.get(1).durable

    def test_optimistic_barely_delays_send(self, env):
        host, log, engine = self._engine(env, LoggingStrategy.OPTIMISTIC)
        before, after = self._run(env, engine)
        assert before < 0.2 * host.disk.sync_write_time(1_000_000)
        assert after == before  # no post-send wait either

    def test_optimistic_record_becomes_durable_later(self, env):
        host, log, engine = self._engine(env, LoggingStrategy.OPTIMISTIC)
        self._run(env, engine)
        env.run()
        assert log.get(1).durable

    def test_non_blocking_waits_at_most_cached_time(self, env):
        host, log, engine = self._engine(env, LoggingStrategy.PESSIMISTIC_NON_BLOCKING)
        before, after = self._run(env, engine)
        assert before == 0.0
        assert after <= host.disk.sync_write_time(1_000_000)
        assert log.get(1).durable

    def test_blocking_overhead_ordering(self, env):
        results = {}
        for strategy in LoggingStrategy:
            host, _log, engine = self._engine(env, strategy)
            self._run(env, engine, size=10_000_000)
            results[strategy] = engine.blocking_overhead
        assert (
            results[LoggingStrategy.PESSIMISTIC_BLOCKING]
            > results[LoggingStrategy.PESSIMISTIC_NON_BLOCKING]
            >= 0.0
        )
        assert (
            results[LoggingStrategy.OPTIMISTIC]
            < results[LoggingStrategy.PESSIMISTIC_BLOCKING]
        )

    def test_crash_before_background_write_loses_record(self, env):
        host, log, engine = self._engine(env, LoggingStrategy.OPTIMISTIC)

        def proc():
            yield from engine.before_send(1, {"p": 1}, 50_000_000)

        host.spawn(proc())
        env.run(until=0.01)
        host.crash()
        env.run()
        recovered = MessageLog(host, "out")
        assert 1 not in recovered.durable_keys()


class TestGarbageCollection:
    def _log_with_records(self, env, n=10, size=100, acked=True):
        host = make_host(env)
        log = MessageLog(host, "out")
        for key in range(n):
            log.append(key, {}, size)
            log.mark_durable(key)
            if acked:
                log.mark_acked(key)
        return log

    def test_no_collection_under_capacity(self, env):
        log = self._log_with_records(env)
        collector = GarbageCollector(log, LoggingConfig(capacity_bytes=10_000))
        report = collector.maybe_collect()
        assert not report.triggered
        assert len(log) == 10

    def test_collection_flushes_acked_records(self, env):
        log = self._log_with_records(env, n=10, size=100)
        collector = GarbageCollector(
            log, LoggingConfig(capacity_bytes=500, gc_target_fraction=0.5)
        )
        report = collector.maybe_collect()
        assert report.triggered
        assert report.records_flushed > 0
        assert log.total_bytes() <= 500

    def test_unacked_records_never_flushed(self, env):
        log = self._log_with_records(env, n=10, size=100, acked=False)
        collector = GarbageCollector(
            log, LoggingConfig(capacity_bytes=500, gc_target_fraction=0.5)
        )
        report = collector.collect()
        assert report.records_flushed == 0
        assert len(log) == 10
