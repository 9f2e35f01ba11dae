"""Tests for failure detection and message logging."""

from __future__ import annotations

import pytest

from repro.config import FaultDetectionConfig, LoggingConfig
from repro.detect.detector import FailureDetector
from repro.detect.heartbeat import HeartbeatEmitter
from repro.errors import LogCorruption
from repro.msglog.garbage import GarbageCollector
from repro.msglog.log import MessageLog
from repro.msglog.strategies import LoggingEngine
from repro.net.message import MessageType
from repro.net.transport import Network
from repro.nodes.node import Host
from repro.policies.logging import (
    OptimisticLogging,
    PessimisticBlockingLogging,
    PessimisticNonBlockingLogging,
)
from repro.sim.rng import RandomStreams
from repro.types import Address, LoggingStrategy

S = Address("server", "s0")
K = Address("coordinator", "k0")


def make_host(env, name="h0", kind="client"):
    network = Network(env)
    return Host(env, network, Address(kind, name), rng=RandomStreams(0))


class TestFailureDetector:
    def _detector(self, timeout=30.0):
        return FailureDetector(
            FaultDetectionConfig(heartbeat_period=5.0, suspicion_timeout=timeout)
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

    def test_suspected_set_and_unsuspected_filter(self):
        detector = self._detector()
        detector.heard_from(S, 0.0)
        detector.heard_from(K, 29.0)
        assert detector.suspected_set(40.0) == {S}
        assert detector.unsuspected([S, K], 40.0) == [K]

    def test_history_records_transitions(self):
        detector = self._detector()
        detector.heard_from(S, 0.0)
        detector.is_suspected(S, 40.0)
        detector.heard_from(S, 41.0)
        assert detector.suspicion_transitions() == 2

    def test_wrong_suspicion_accounting_with_ground_truth(self):
        detector = FailureDetector(
            FaultDetectionConfig(heartbeat_period=5.0, suspicion_timeout=30.0),
            ground_truth=lambda _subject: True,  # actually up
        )
        detector.heard_from(S, 0.0)
        detector.is_suspected(S, 40.0)
        assert detector.wrong_suspicions == 1

    def test_watch_and_unwatch(self):
        detector = self._detector()
        detector.watch(S, 0.0)
        assert S in detector.monitored()
        detector.unwatch(S)
        assert S not in detector.monitored()


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
        assert emitter.sent >= 4
        assert target.endpoint.delivered >= 4

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
        sent_before = emitter.sent
        host.crash()
        env.run(until=60.0)
        assert emitter.sent == sent_before
        # The crash also reclaimed the pending beat timer.
        assert emitter.pending_timer is None

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
        sent_before = emitter.sent
        emitter.stop()
        env.run(until=60.0)
        assert emitter.sent == sent_before
        assert emitter.pending_timer is None
        emitter.stop()  # idempotent

    def test_payload_snapshotted_per_beat(self, env):
        host = make_host(env, kind="server")
        target = Host(env, host.network, K, rng=RandomStreams(1))
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
        message = target.endpoint.try_recv()
        assert message is not None
        assert message.payload["coordinators"] == ["k0"]


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

    def test_buffered_records_lost_on_crash_durable_survive(self, env):
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
        assert log.durable_bytes() == 100
        assert log.total_bytes() == 150

    def test_replay_payloads_in_key_order(self, env):
        host = make_host(env)
        log = MessageLog(host, "out")
        for key in (2, 1):
            log.append(key, {"k": key}, 10)
            log.mark_durable(key)
        assert log.replay_payloads([1, 2]) == [{"k": 1}, {"k": 2}]

    def test_integrity_check_passes_on_normal_log(self, env):
        host = make_host(env)
        log = MessageLog(host, "out")
        log.append(1, {}, 10)
        log.mark_durable(1)
        log.append(2, {}, 10)
        log.check_integrity()


class TestLoggingStrategies:
    def _engine(self, env, strategy):
        host = make_host(env)
        log = MessageLog(host, "out")
        policy = {
            LoggingStrategy.PESSIMISTIC_BLOCKING: PessimisticBlockingLogging,
            LoggingStrategy.PESSIMISTIC_NON_BLOCKING: PessimisticNonBlockingLogging,
            LoggingStrategy.OPTIMISTIC: OptimisticLogging,
        }[strategy]()
        return host, log, LoggingEngine(host, log, LoggingConfig(), policy)

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

    def test_stall_preference_reported(self, env):
        log = self._log_with_records(env, n=10, size=100, acked=False)
        collector = GarbageCollector(
            log,
            LoggingConfig(
                capacity_bytes=500, gc_target_fraction=0.5, prefer_stall_over_flush=True
            ),
        )
        report = collector.collect()
        assert report.should_stall
