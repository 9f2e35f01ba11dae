"""Unit tests for the discrete-event kernel."""

from __future__ import annotations

import gc

import pytest

from repro.sim.core import (
    AnyOf,
    Environment,
    Event,
    ProcessKilled,
    SimulationError,
    Timeout,
    wait_any,
)
from tests.support import fail_event


class TestEvents:
    def test_event_starts_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_sets_value(self, env):
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.value == 42
        assert event._ok

    def test_double_trigger_rejected(self, env):
        event = env.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_value_before_trigger_raises(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_negative_timeout_rejected(self, env):
        with pytest.raises(SimulationError, match="negative delay"):
            Timeout(env, -1.0)

    def test_nan_timeout_is_rejected_as_non_finite(self, env):
        with pytest.raises(SimulationError, match="non-finite delay nan"):
            Timeout(env, float("nan"))

    def test_timeout_fires_at_delay(self, env):
        timeout = env.timeout(5.0, value="done")
        env.run()
        assert timeout.processed
        assert timeout.value == "done"
        assert env.now == 5.0


class TestProcesses:
    def test_process_advances_time(self, env):
        def proc():
            yield env.timeout(1.0)
            yield env.timeout(2.0)
            return env.now

        process = env.process(proc())
        env.run()
        assert process.value == 3.0

    def test_process_return_value(self, env):
        def proc():
            yield env.timeout(1.0)
            return "result"

        process = env.process(proc())
        env.run()
        assert process.value == "result"

    def test_process_is_waitable(self, env):
        def child():
            yield env.timeout(2.0)
            return 7

        def parent():
            value = yield env.process(child())
            return value * 2

        process = env.process(parent())
        env.run()
        assert process.value == 14

    def test_yield_non_event_raises_inside_process(self, env):
        def proc():
            yield 42  # type: ignore[misc]

        process = env.process(proc())
        with pytest.raises(SimulationError):
            env.run()
        assert not process.is_alive

    def test_kill_silences_process(self, env):
        def victim():
            yield env.timeout(100.0)
            return "never"

        process = env.process(victim())
        env.run(until=1.0)
        process.kill("crash")
        env.run()
        assert not process.is_alive
        assert process.value is None

    def test_kill_after_termination_is_noop(self, env):
        def quick():
            yield env.timeout(1.0)

        process = env.process(quick())
        env.run()
        process.kill()
        env.run()
        assert not process.is_alive

    def test_process_failure_propagates_to_run(self, env):
        def failing():
            yield env.timeout(1.0)
            raise ValueError("bad")

        env.process(failing())
        with pytest.raises(ValueError):
            env.run()

    def test_waiting_on_failing_process_reraises_in_parent(self, env):
        def failing():
            yield env.timeout(1.0)
            raise ValueError("inner")

        def parent():
            try:
                yield env.process(failing())
            except ValueError:
                return "caught"

        process = env.process(parent())
        env.run()
        assert process.value == "caught"

    def test_processkilled_escaping_generator_is_silenced(self, env):
        def stubborn():
            while True:
                try:
                    yield env.timeout(10.0)
                except ProcessKilled:
                    raise

        process = env.process(stubborn())
        env.run(until=5.0)
        process.kill()
        env.run()
        assert not process.is_alive


class TestConditions:
    def test_any_of_fires_on_first(self, env):
        def proc():
            first = env.timeout(1.0, value="fast")
            second = env.timeout(5.0, value="slow")
            yield AnyOf(env, [first, second])
            return env.now

        process = env.process(proc())
        env.run()
        assert process.value == 1.0

    def test_empty_any_of_triggers_immediately(self, env):
        race = AnyOf(env, [])
        assert race.triggered
        env.run()
        assert race.value == {}

    def test_anyof_with_already_processed_event(self, env):
        timeout = env.timeout(1.0)
        env.run()

        def proc():
            yield AnyOf(env, [timeout, env.timeout(10.0)])
            return env.now

        process = env.process(proc())
        env.run()
        assert process.value == 1.0

    def test_any_of_fails_with_the_first_failed_event(self, env):
        doomed = env.event()
        slow = env.timeout(5.0)

        def proc():
            try:
                yield AnyOf(env, [doomed, slow])
            except ValueError as error:
                return (env.now, str(error))

        process = env.process(proc())
        env.call_at(1.0, lambda _: fail_event(doomed, ValueError("boom")))
        env.run()
        assert process.value == (1.0, "boom")
        assert slow._cancelled  # the losing timer left the schedule


class TestEnvironment:
    def test_run_until_time_advances_clock(self, env):
        env.timeout(100.0)
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_until_past_raises(self, env):
        env.run(until=5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    @pytest.mark.parametrize("until", [float("nan"), float("inf")])
    def test_run_until_non_finite_raises_before_draining(self, env, until):
        timeout = env.timeout(1.0)
        with pytest.raises(SimulationError, match="not a finite time"):
            env.run(until=until)
        assert env.now == 0.0
        assert not timeout.processed

    def test_peek_on_empty_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_run_until_event_returns_its_value(self, env):
        def proc():
            yield env.timeout(2.0)
            return "value"

        process = env.process(proc())
        assert env.run(until=process) == "value"

    def test_fifo_tie_break_for_simultaneous_events(self, env):
        order = []

        def maker(tag):
            def proc():
                yield env.timeout(1.0)
                order.append(tag)

            return proc

        for tag in ("a", "b", "c"):
            env.process(maker(tag)())
        env.run()
        assert order == ["a", "b", "c"]

    def test_run_counts_events(self, env):
        env.timeout(1.0)
        env.timeout(2.0)
        env.run()
        assert env.events_processed == 2

    def test_run_until_an_event_the_schedule_never_reaches_raises(self, env):
        env.timeout(1.0)
        with pytest.raises(SimulationError, match="schedule drained first"):
            env.run(until=env.event())
        assert env.now == 1.0

    def test_run_until_now_processes_only_the_current_instant(self, env):
        """What the realtime driver runs: one virtual instant per call."""
        fired = []
        env.call_at(1.0, fired.append, "a")
        env.call_at(1.0, lambda _: env.call_at(env.now, fired.append, "b"), None)
        env.call_at(2.0, fired.append, "c")
        env.run(until=1.0)
        assert (fired, env.now, env.peek()) == (["a", "b"], 1.0, 2.0)
        env.run(until=env.now)
        assert fired == ["a", "b"]


class TestCancellation:
    def test_cancelled_timeout_never_resumes_waiter(self, env):
        resumed = []
        timeout = env.timeout(5.0)

        def waiter():
            yield timeout
            resumed.append(env.now)

        env.process(waiter())
        env.run(until=1.0)  # the process is now blocked on the timeout
        assert timeout.cancel()
        env.run()
        assert resumed == []
        assert timeout._cancelled
        assert not timeout.processed
        # The tombstone does not drive the clock to t=5 either.
        assert env.now == 1.0

    def test_cancel_is_one_shot_and_rejects_processed(self, env):
        timeout = env.timeout(1.0)
        assert timeout.cancel()
        assert not timeout.cancel()
        fired = env.timeout(1.0)
        env.run()
        assert fired.processed
        assert not fired.cancel()

    def test_cancel_own_timer_mid_resume_is_rejected(self, env):
        """Cancelling the very timer that resumed us must not tombstone it.

        The timer is already off the heap at that point; a phantom tombstone
        would corrupt the dead-entry accounting.
        """
        observed = {}

        def proc():
            timer = env.timeout(1.0)
            yield timer
            observed["cancel"] = timer.cancel()
            observed["processed"] = timer.processed

        env.process(proc())
        env.run()
        assert observed["cancel"] is False
        assert observed["processed"] is True
        stats = env.queue_stats()
        assert stats["dead_entries"] == 0
        assert stats["live_entries"] == 0

    def test_cancelled_timeouts_do_not_survive_compaction(self, env):
        # Cancels tombstone the heap until the compactor sweeps.
        timers = [env.timeout(300.0 + i) for i in range(200)]
        keep = env.timeout(1.0)
        for timer in timers:
            timer.cancel()
        stats = env.queue_stats()
        assert stats["compactions"] >= 1
        assert stats["live_entries"] == 1
        assert stats["heap_size"] < 200  # the heap actually shrank
        env.run()
        assert keep.processed
        assert env.queue_stats()["heap_size"] == 0

    def test_yielding_a_cancelled_timeout_raises(self, env):
        timeout = env.timeout(5.0)
        timeout.cancel()

        def proc():
            yield timeout

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run()

    def test_cancel_wait_detaches_process_from_event(self, env):
        event = env.event()

        def waiter():
            yield event
            return "resumed"

        process = env.process(waiter())
        env.run(until=1.0)
        assert event.cancel_wait(process)
        assert process._target is None
        event.succeed("late")
        env.run()
        assert process.is_alive  # detached: the late trigger did not resume it

    def test_wait_any_winner_cancels_expiry_timer(self, env):
        def proc():
            reply = env.timeout(1.0, value="reply")
            outcome = yield from wait_any(env, [reply], timeout=30.0)
            return outcome

        process = env.process(proc())
        env.run()
        assert process.value.events
        assert not process.value.expired
        # The losing 30 s retry timer was cancelled: the run ended at t=1.
        assert env.now == 1.0
        assert env.queue_stats()["heap_size"] == 0

    def test_wait_any_losing_timeout_payload_not_reported_fired(self, env):
        def proc():
            slow = env.timeout(10.0, value="slow")
            outcome = yield from env.wait_any([slow], timeout=1.0)
            return outcome

        process = env.process(proc())
        env.run()
        # A Timeout holds its value from construction; the raced-and-lost
        # slow timer must still not be reported as a winner.
        assert process.value.expired
        assert process.value.events == {}
        assert env.now == 1.0

    def test_wait_any_timeout_detaches_stale_callback(self, env):
        waiter = env.event()

        def proc():
            outcome = yield from env.wait_any([waiter], timeout=2.0)
            return outcome.expired and not outcome.events

        process = env.process(proc())
        env.run()
        assert process.value is True
        # The long-lived event carries no stale condition callback.
        assert waiter.callbacks == []

    def test_anyof_detaches_from_losing_events(self, env):
        winner = env.event()
        loser = env.event()
        condition = AnyOf(env, [winner, loser])
        winner.succeed("w")
        env.run()
        assert condition.processed
        assert loser.callbacks == []

    def test_kill_while_sleeping_reclaims_timer(self, env):
        def sleeper():
            yield env.timeout(100.0)

        def killer(target):
            yield env.timeout(1.0)
            target.kill()

        process = env.process(sleeper())
        env.process(killer(process))
        env.run()
        assert not process.is_alive
        # The abandoned 100 s timer was cancelled along with the wait.
        assert env.now == 1.0


class TestWaiterCleanup:
    def test_kill_during_wait_any_race_cleans_everything(self, env):
        reply = env.event()

        def racer():
            outcome = yield from env.wait_any([reply], timeout=50.0)
            return outcome

        process = env.process(racer())
        env.run(until=1.0)
        process.kill("crash")
        env.run()
        assert not process.is_alive
        assert reply.callbacks == []  # the waiter detached from the event
        assert env.queue_stats()["heap_size"] == 0  # expiry timer reclaimed
        assert env.now == 1.0

    def test_kill_during_raw_anyof_race_cascades_cleanup(self, env):
        reply = env.event()

        def racer():
            yield AnyOf(env, [reply, env.timeout(50.0)])

        process = env.process(racer())
        env.run(until=1.0)
        process.kill("crash")
        env.run()
        assert reply.callbacks == []
        assert env.queue_stats()["heap_size"] == 0


class TestSchedulerLanes:
    """Ordering guarantees of the three scheduling lanes.

    Urgent (init/kill) before normal, FIFO within a tick, and the
    call_at callback lane's cancel tokens honoured by queue_stats() and
    _compact().
    """

    def test_same_tick_fifo_order(self, env):
        order = []
        events = [env.event() for _ in range(3)]

        def waiter(tag, event):
            yield event
            order.append(tag)

        for tag, event in zip("abc", events):
            env.process(waiter(tag, event))

        def trigger():
            yield env.timeout(1.0)
            for event in events:
                event.succeed()

        env.process(trigger())
        env.run()
        assert order == ["a", "b", "c"]

    def test_zero_delay_timeout_stays_off_the_heap(self, env):
        timeout = env.timeout(0.0, value="now")
        stats = env.queue_stats()
        assert stats["heap_size"] == 0
        assert stats["tick_queued"] == 1
        env.run()
        assert timeout.processed
        assert env.now == 0.0

    def test_cancelled_zero_delay_timeout_skipped_at_drain(self, env):
        timeout = env.timeout(0.0)
        keep = env.timeout(0.0, value="keep")
        assert timeout.cancel()
        env.run()
        assert env.events_processed == 1  # only the live one
        assert keep.processed
        assert not timeout.processed
        assert timeout._cancelled

    def test_urgent_preempts_same_tick_normal(self, env):
        order = []
        event = env.event()

        def victim():
            try:
                yield env.timeout(10.0)
            except ProcessKilled:
                order.append("kill")

        def normal_waiter():
            yield event
            order.append("normal")

        victim_process = env.process(victim())
        env.process(normal_waiter())

        def trigger():
            yield env.timeout(1.0)
            event.succeed()  # same-tick lane, scheduled first...
            victim_process.kill()  # ...but urgent still preempts it

        env.process(trigger())
        env.run()
        assert order == ["kill", "normal"]

    def test_urgent_lane_drains_first(self, env):
        order = []
        event = env.event().succeed()
        event.callbacks.append(lambda _e: order.append("succeed"))

        def proc():
            order.append("init")
            yield env.timeout(1.0)

        env.process(proc())  # Initialize rides the urgent lane
        env.run(until=0.0)
        assert order == ["init", "succeed"]

    def test_call_at_fires_in_time_then_fifo_order(self, env):
        calls = []
        env.call_at(2.0, calls.append, "b")
        env.call_at(1.0, calls.append, "a")
        env.call_at(2.0, calls.append, "c")
        env.run()
        assert calls == ["a", "b", "c"]
        assert env.now == 2.0

    def test_call_at_due_now_joins_same_tick_lane(self, env):
        calls = []
        env.call_at(0.0, calls.append, "x")
        assert env.queue_stats()["tick_queued"] == 1
        assert env.queue_stats()["heap_size"] == 0
        env.run()
        assert calls == ["x"]
        assert env.now == 0.0

    def test_callbacks_and_events_share_the_time_order(self, env):
        order = []
        env.timeout(1.0).callbacks.append(lambda _e: order.append("t1"))
        env.call_at(1.0, order.append, "c1")
        env.timeout(1.0).callbacks.append(lambda _e: order.append("t2"))
        env.run()
        assert order == ["t1", "c1", "t2"]

    def test_call_at_cancel_token_is_one_shot(self, env):
        handle = env.call_at_cancellable(5.0, lambda _arg: None)
        assert handle._armed and not handle._cancelled
        assert handle.cancel()
        assert not handle.cancel()
        assert handle._cancelled
        env.run()
        assert env.now == 0.0  # the tombstone does not drive the clock

    def test_cancelled_call_never_fires_and_leaves_no_residue(self, env):
        calls = []
        handle = env.call_at_cancellable(1.0, calls.append, "x")
        handle.cancel()
        # The entry stays behind as a tombstone and nothing live is left.
        stats = env.queue_stats()
        assert stats["heap_size"] == stats["dead_entries"] == 1
        assert stats["live_entries"] == 0
        env.run()
        assert calls == []
        assert env.queue_stats()["heap_size"] == 0

    def test_fired_call_handle_rejects_cancel(self, env):
        calls = []
        handle = env.call_at_cancellable(1.0, calls.append, "x")
        env.run()
        assert calls == ["x"]
        assert not (handle._armed and not handle._cancelled)
        assert not handle.cancel()
        assert env.queue_stats()["dead_entries"] == 0

    def test_cancelled_call_tokens_dropped_by_compaction(self, env):
        handles = [
            env.call_at_cancellable(300.0 + i, lambda _arg: None) for i in range(200)
        ]
        keep = []
        env.call_at_cancellable(1.0, keep.append, "kept")
        for handle in handles:
            assert handle.cancel()
        stats = env.queue_stats()
        assert stats["compactions"] >= 1
        assert stats["live_entries"] == 1
        assert stats["heap_size"] < 200  # the heap actually shrank
        env.run()
        assert keep == ["kept"]
        assert env.queue_stats()["heap_size"] == 0


class TestTimers:
    """Cancellable and periodic timers: tombstones, compaction, cadences."""

    def test_cancel_before_firing_never_fires(self, env):
        fired = []
        handle = env.call_at_cancellable(5.0, fired.append, "x")
        assert handle.cancel()
        # The cancelled entry stays behind as a tombstone.
        stats = env.queue_stats()
        assert stats["dead_entries"] == 1
        assert stats["live_entries"] == 0
        env.run()
        assert fired == []
        assert env.queue_stats()["live_entries"] == 0

    def test_cancel_mid_run_never_fires(self, env):
        fired = []
        handle = env.call_at_cancellable(5.5, fired.append, "late")

        def canceller():
            yield env.timeout(5.2)
            assert handle.cancel()

        env.process(canceller())
        env.run()
        assert fired == []
        assert env.now == 5.2
        assert env.queue_stats()["live_entries"] == 0

    def test_cancelled_timeout_reclaimed_without_firing(self, env):
        # A Timeout event honours cancel the same way.
        timeout = env.timeout(7.0)
        fired = []
        timeout.callbacks.append(fired.append)
        assert timeout.cancel()
        env.run()
        assert fired == []
        assert env.now == 0.0
        assert env.queue_stats()["live_entries"] == 0

    def test_kill_while_sleeping_reclaims_the_sleep_timer(self, env):
        # Crash semantics: killing a process abandons its sleep timer, which
        # is tombstoned and never fires nor drives the clock.
        woke = []

        def sleeper():
            yield env.timeout(100.0)
            woke.append(env.now)

        def killer(target):
            yield env.timeout(1.0)
            target.kill("node-crash")

        process = env.process(sleeper())
        env.process(killer(process))
        env.run()
        assert not process.is_alive
        assert woke == []
        assert env.now == 1.0  # the abandoned 100 s timer never drove the clock
        stats = env.queue_stats()
        assert stats["live_entries"] == 0 and stats["dead_entries"] == 0

    def test_call_periodic_beats_on_cadence_and_cancels_inline(self, env):
        beats = []
        handle = env.call_periodic(2.0, lambda _a: beats.append(env.now), None)

        def stop_after(n):
            while True:
                yield env.timeout(0.5)
                if handle.fired >= n:
                    handle.cancel()
                    return

        env.process(stop_after(3))
        env.run()
        assert beats == [2.0, 4.0, 6.0]
        assert handle._cancelled

    def test_call_periodic_first_delay_offsets_the_cadence(self, env):
        beats = []
        handle = env.call_periodic(
            5.0, lambda _a: beats.append(env.now), None, first_delay=0.5
        )
        env.run(until=11.0)
        handle.cancel()
        assert beats == [0.5, 5.5, 10.5]

    def test_call_periodic_cancel_from_inside_fn_stops_rearming(self, env):
        beats = []

        def beat(_arg):
            beats.append(env.now)
            handle.cancel()

        handle = env.call_periodic(1.0, beat, None)
        env.run()
        assert beats == [1.0]
        assert env.queue_stats()["dead_entries"] == 0  # nothing tombstoned

    def test_call_periodic_interval_fn_draws_each_gap(self, env):
        gaps = iter([1.0, 2.0, 4.0, 100.0])
        beats = []
        handle = env.call_periodic(
            None, lambda _a: beats.append(env.now), None, interval_fn=lambda: next(gaps)
        )
        env.run(until=8.0)
        handle.cancel()
        assert beats == [1.0, 3.0, 7.0]

    def test_call_periodic_validation(self, env):
        with pytest.raises(SimulationError):
            env.call_periodic(0.0, lambda _a: None)
        with pytest.raises(SimulationError):
            env.call_periodic(-1.0, lambda _a: None)
        with pytest.raises(SimulationError):
            env.call_periodic(None, lambda _a: None)  # no interval_fn either

    def test_periodic_survives_compaction_of_cancelled_neighbours(self, env):
        # A heap compaction triggered by the neighbours' cancels must leave
        # the periodic entry in place and on cadence.
        beats = []
        periodic = env.call_periodic(3.0, lambda _a: beats.append(env.now), None)
        handles = [env.call_at_cancellable(500.0, lambda _a: None) for _ in range(300)]
        for handle in handles:
            handle.cancel()
        stats = env.queue_stats()
        assert stats["compactions"] >= 1
        # The sweeps reclaimed (nearly) all tombstones; at most the cancels
        # since the last compaction remain.
        assert stats["dead_entries"] < 50
        assert stats["live_entries"] == 1
        env.run(until=10.0)
        periodic.cancel()
        assert beats == [3.0, 6.0, 9.0]

    def test_cancel_leaves_no_residue_among_neighbours(self, env):
        # Cancelling some of the entries due at one instant must not disturb
        # the survivors, whatever the cancel order.
        fired = []
        handles = [
            env.call_at_cancellable(5.0, fired.append, n) for n in range(8)
        ]
        for index in (0, 7, 3, 4):  # head, tail, middle pair
            assert handles[index].cancel()
        stats = env.queue_stats()
        assert stats["live_entries"] == 4
        assert stats["dead_entries"] == 4
        env.run()
        assert fired == [1, 2, 5, 6]  # survivors, original schedule order
        assert env.queue_stats()["live_entries"] == 0

    def test_compaction_fires_when_tombstones_reach_half_the_heap(self, env):
        floor = Environment._COMPACTION_MIN_DEAD
        fired = []
        for n in range(floor):
            env.call_at_cancellable(10.0, fired.append, n)
        doomed = [env.call_at_cancellable(20.0, fired.append, -1) for _ in range(floor)]
        for handle in doomed[:-1]:
            handle.cancel()
        stats = env.queue_stats()
        assert stats["compactions"] == 0
        assert stats["dead_entries"] == floor - 1
        doomed[-1].cancel()  # dead == floor == half of the heap
        stats = env.queue_stats()
        assert stats["compactions"] == 1
        assert stats["dead_entries"] == 0
        assert stats["heap_size"] == stats["live_entries"] == floor
        assert stats["peak_heap_size"] == 2 * floor  # the heap just before the sweep
        env.run()
        assert fired == list(range(floor))

    def test_a_heap_below_the_tombstone_floor_is_never_compacted(self, env):
        floor = Environment._COMPACTION_MIN_DEAD
        fired = []
        handles = [env.call_at_cancellable(5.0, fired.append, n) for n in range(floor - 1)]
        for handle in handles:
            handle.cancel()
        stats = env.queue_stats()
        assert stats["compactions"] == 0
        assert stats["heap_size"] == stats["dead_entries"] == floor - 1
        env.run()
        # The tombstones are skimmed off the top instead: nothing fires and
        # the clock does not move.
        assert fired == []
        assert env.now == 0.0
        assert env.events_processed == 0
        stats = env.queue_stats()
        assert stats["heap_size"] == stats["dead_entries"] == 0

    def test_live_majority_holds_off_compaction_and_run_skims_the_rest(self, env):
        floor = Environment._COMPACTION_MIN_DEAD
        fired = []
        doomed = [env.call_at_cancellable(1.0, fired.append, -1) for _ in range(2 * floor)]
        for n in range(3 * floor):
            env.call_at_cancellable(5.0, fired.append, n)
        for handle in doomed:
            handle.cancel()
        stats = env.queue_stats()
        assert stats["compactions"] == 0  # 2 * dead never reaches the heap size
        assert stats["dead_entries"] == 2 * floor
        assert stats["live_entries"] == 3 * floor
        env.run()
        assert fired == list(range(3 * floor))
        assert env.now == 5.0
        stats = env.queue_stats()
        assert stats["compactions"] == 0
        assert stats["heap_size"] == stats["dead_entries"] == 0

    def test_compaction_keeps_same_instant_survivors_in_schedule_order(self, env):
        floor = Environment._COMPACTION_MIN_DEAD
        fired = []
        handles = [env.call_at_cancellable(5.0, fired.append, n) for n in range(2 * floor)]
        for handle in handles[::2]:
            handle.cancel()
        # The re-heapify after the sweep must still break ties by sequence.
        assert env.queue_stats()["compactions"] == 1
        env.run()
        assert fired == list(range(1, 2 * floor, 2))

    def test_a_finished_run_is_freed_by_a_young_collection(self):
        """A finished run is cyclic garbage whose suspended waits have
        ``finally`` blocks: the collector finalizes them, their expiries
        are cancelled, and the compaction that follows must not revive the
        run through a heap entry that leads back to it.

        Counted in the collector's object list: weak references are
        cleared before finalizers run, so they cannot see a revival.
        """
        floor = Environment._COMPACTION_MIN_DEAD

        class Component:
            def __init__(self, env):
                self.env = env

            def tick(self, _arg):
                pass

        def wait(env):
            yield from env.wait_any([env.event()], timeout=100.0)

        def live():
            return sum(type(o) is Environment for o in gc.get_objects())

        gc.collect()
        before = live()
        env = Environment()
        for _ in range(4 * floor):
            env.process(wait(env))
        env.call_at(50.0, Component(env).tick)
        env.run(until=1.0)
        del env
        gc.collect(1)
        assert live() == before

    def test_a_cancel_after_compaction_starts_a_fresh_tombstone_count(self, env):
        floor = Environment._COMPACTION_MIN_DEAD
        fired = []
        keep = [env.call_at_cancellable(3.0, fired.append, n) for n in range(floor)]
        for handle in [env.call_at_cancellable(4.0, fired.append, -1) for _ in range(floor)]:
            handle.cancel()
        assert env.queue_stats()["compactions"] == 1
        assert keep[0].cancel()
        stats = env.queue_stats()
        assert stats["dead_entries"] == 1
        assert stats["live_entries"] == floor - 1
        env.run()
        assert fired == list(range(1, floor))
        assert env.queue_stats()["heap_size"] == env.queue_stats()["dead_entries"] == 0

    def test_a_cancelled_zero_delay_timeout_is_skipped_without_a_tombstone(self, env):
        timeout = env.timeout(0.0)
        fired = []
        timeout.callbacks.append(fired.append)
        assert timeout.cancel()
        stats = env.queue_stats()
        assert stats["tick_queued"] == 1
        assert stats["heap_size"] == stats["dead_entries"] == 0
        env.run()
        assert fired == []
        assert env.events_processed == 0
        assert env.queue_stats()["tick_queued"] == 0

    def test_peek_and_run_skim_tombstones_off_the_heap_top(self, env):
        fired = []
        env.call_at_cancellable(1.0, fired.append, "a").cancel()
        env.call_at_cancellable(2.0, fired.append, "b").cancel()
        env.call_at_cancellable(3.0, fired.append, "c")
        assert env.queue_stats()["dead_entries"] == 2
        assert env.peek() == 3.0
        stats = env.queue_stats()
        assert stats["heap_size"] == stats["live_entries"] == 1
        assert stats["dead_entries"] == 0
        env.run(until=3.0)
        assert fired == ["c"]
        assert env.now == 3.0
        assert env.peek() == float("inf")

    def test_cancelling_a_periodic_between_beats_tombstones_its_next_beat(self, env):
        beats = []
        handle = env.call_periodic(2.0, lambda _a: beats.append(env.now), None)
        env.run(until=3.0)
        assert beats == [2.0]
        assert handle._armed and not handle._cancelled and handle.when == 4.0
        assert handle.cancel()
        stats = env.queue_stats()
        assert stats["dead_entries"] == 1
        assert stats["live_entries"] == 0
        env.run()
        assert beats == [2.0]
        assert env.now == 3.0  # the tombstoned beat never drove the clock
        assert env.queue_stats()["heap_size"] == 0

    def test_queue_stats_report_the_three_lanes_and_nothing_else(self, env):
        env.timeout(1.0)
        env.call_at(0.0, lambda _a: None)
        assert set(env.queue_stats()) == {
            "heap_size",
            "dead_entries",
            "live_entries",
            "tick_queued",
            "urgent_queued",
            "peak_heap_size",
            "compactions",
            "events_processed",
        }

    @pytest.mark.parametrize("when", [float("inf"), float("nan")])
    @pytest.mark.parametrize(
        "schedule",
        [
            lambda env, when: env.timeout(when),
            lambda env, when: env.call_at(when, lambda _a: None),
            lambda env, when: env.call_at_cancellable(when, lambda _a: None),
            lambda env, when: env.call_periodic(1.0, lambda _a: None, first_delay=when),
        ],
        ids=["timeout", "call_at", "call_at_cancellable", "call_periodic"],
    )
    def test_a_non_finite_time_is_rejected_as_misuse(self, env, schedule, when):
        with pytest.raises(SimulationError):
            schedule(env, when)
        assert env.queue_stats()["live_entries"] == 0
