"""Reference model for the wait mechanism the kernel replaced in place.

``wait_any`` used to build a ``Timeout`` and an ``AnyOf`` for every race.
The old definition lives on here, test-only, and generated schedules drive
old and new side by side: same values, same ``WaitOutcome``, same simulated
resume times, same live schedule size, and the same resume order wherever
every wait lost the same hop.  Where new differs from old on purpose is
pinned by directed tests that run both.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import (
    AnyOf,
    Environment,
    Timeout,
    WaitOutcome,
    wait_any,
)
from tests.support import fail_event

# ---------------------------------------------------------------------------
# wait_any: Timeout + AnyOf reference
# ---------------------------------------------------------------------------


def reference_wait_any(env, events, timeout=None):
    """``wait_any`` as it ran before the direct wait (two hops per race)."""
    events = list(events)
    expiry = Timeout(env, timeout) if timeout is not None else None
    condition = AnyOf(env, events if expiry is None else [*events, expiry])
    try:
        yield condition
    finally:
        condition.cancel()
        if expiry is not None and not expiry._processed:
            expiry.cancel()
    fired = {event: event._value for event in events if event._processed}
    return WaitOutcome(fired, expired=expiry is not None and expiry._processed)


#: every time in a schedule is a multiple of 0.5, so ``start + offset`` is the
#: same double whichever way it is summed and "at the deadline" is exact.
_HALVES = st.integers(min_value=0, max_value=8).map(lambda n: n / 2)
_QUARTERS = st.integers(min_value=0, max_value=16).map(lambda n: n / 4)

wait_specs = st.fixed_dictionaries(
    {
        "start": st.sampled_from([0.0, 1.0, 2.5]),
        # 0 and None take the general path in both; 300 outlasts every firing.
        "timeout": st.sampled_from([0.5, 2.0, 2.0, 4.0, 300.0, 0.0, None]),
        "kind": st.sampled_from(["event", "event", "timeout", "process"]),
        # when (after the wait starts) the event fires; None = never.
        "fires_after": st.one_of(st.none(), _HALVES),
        # whether the firing was scheduled before the wait began (lower
        # sequence number than the expiry) or after it.
        "scheduled_first": st.booleans(),
        "fails": st.booleans(),
        "pre": st.sampled_from(["pending", "pending", "triggered", "processed"]),
        "disturb": st.one_of(
            st.none(),
            st.tuples(st.just("kill"), _QUARTERS),
        ),
    }
)


def _run_waits(impl, specs):
    """Drive ``specs`` through ``impl``; returns (resume log, live-entry probes)."""
    env = Environment()
    log: list[tuple] = []

    def fire(spec_event):
        spec, event = spec_event
        if event.triggered:
            return
        if spec["fails"]:
            fail_event(event, RuntimeError("boom"))
            event._defused = True  # nobody may wait on it: run() must not raise
        else:
            event.succeed("reply")

    def sleeper(delay):
        yield env.timeout(delay)
        return "finished"

    def waiter(index, spec, early):
        if spec["start"]:
            yield env.timeout(spec["start"])
        fires_after = spec["fires_after"]
        if spec["kind"] == "timeout":
            event = env.timeout(fires_after if fires_after is not None else 50.0, "rang")
        elif spec["kind"] == "process":
            event = env.process(sleeper(fires_after if fires_after is not None else 50.0))
        else:
            event = early if spec["pre"] == "processed" else env.event()
            if spec["pre"] == "triggered":
                event.succeed("early")
            elif spec["pre"] == "pending" and fires_after is not None:
                when = env.now + fires_after
                if spec["scheduled_first"]:
                    env.call_at_cancellable(when, fire, (spec, event))
                else:
                    # Runs right after this process blocks: its heap entry
                    # draws a sequence number after the expiry did.
                    env.call_at(
                        env.now,
                        lambda _: env.call_at_cancellable(when, fire, (spec, event)),
                    )
        try:
            outcome = yield from impl(env, [event], spec["timeout"])
        except RuntimeError as error:
            log.append((index, env.now, "failed", str(error)))
            return
        log.append(
            (
                index,
                env.now,
                "resumed",
                outcome.expired,
                list(outcome.events.values()),
                event in outcome.events,
            )
        )

    probe_times = set()
    for index, spec in enumerate(specs):
        # Succeeded now: processed by the time a later-starting wait begins.
        process = env.process(waiter(index, spec, env.event().succeed("early")))
        process.callbacks.append(
            lambda _event, index=index: log.append((index, env.now, "terminated"))
        )
        if spec["disturb"] is not None:
            action, offset = spec["disturb"]
            when = spec["start"] + offset
            # A heap entry even at time 0 (call_at would join the same-tick
            # lane there): disturbances start their own chain, as fault
            # injection does, never from the middle of a wake-up chain.
            env.call_at_cancellable(when, getattr(process, action), "schedule")
            probe_times.add(when)
        probe_times.add(spec["start"] + (spec["timeout"] or 0.0))
    probes = []
    for when in sorted(probe_times):
        env.run(until=when + 0.25)
        probes.append((when, env.queue_stats()["live_entries"]))
    env.run()
    probes.append(("end", env.queue_stats()["live_entries"]))
    return log, probes


def _direct(spec) -> bool:
    """Whether the new ``wait_any`` takes the direct path for ``spec``."""
    return bool(spec["timeout"]) and not (
        spec["kind"] == "event" and spec["pre"] == "processed"
    )


def _per_waiter(log):
    grouped = defaultdict(list)
    for record in log:
        grouped[record[0]].append(record)
    return dict(grouped)


class TestDirectWaitAgainstTimeoutAnyOf:
    @settings(max_examples=300, deadline=None)
    @given(specs=st.lists(wait_specs, min_size=1, max_size=4))
    def test_generated_schedules_resume_identically(self, specs):
        old_log, old_probes = _run_waits(reference_wait_any, specs)
        new_log, new_probes = _run_waits(wait_any, specs)
        # Same values, outcomes and simulated times for every waiter, and the
        # same number of live schedule entries at every probe (no expiry
        # outlives its wait, whichever way the wait ended).
        assert _per_waiter(new_log) == _per_waiter(old_log)
        assert new_probes == old_probes
        assert new_probes[-1] == ("end", 0)
        if all(_direct(spec) for spec in specs):
            # Every wait lost the same hop, so even the order of resumes
            # within one timestamp is the old one.  (A zero / absent timeout
            # or a ≥2-event race keeps its AnyOf hop, so mixed with direct
            # waits in one tick it may resume one hop later than them.)
            assert new_log == old_log

    @pytest.mark.parametrize("impl", [reference_wait_any, wait_any])
    def test_expiry_wins_an_equal_timestamp_reply_sent_after_the_wait_began(self, impl):
        """The pinned tie: deadline and reply due at the same instant.

        The expiry draws its sequence number when the wait begins.  A reply
        to a request sent from inside the wait is scheduled later, so at an
        equal timestamp the expiry fires first and the wait reports a
        time-out; the reply then finds nobody waiting.  A firing scheduled
        *before* the wait began wins instead.
        """
        env = Environment()
        outcomes = {}

        def requester(name, reply_scheduled_first):
            reply = env.event()
            if reply_scheduled_first:
                env.call_at(env.now + 2.0, reply.succeed, "reply")
            else:
                env.call_at(
                    env.now, lambda _: env.call_at(env.now + 2.0, reply.succeed, "reply")
                )
            outcome = yield from impl(env, [reply], 2.0)
            outcomes[name] = (env.now, outcome.expired, outcome.events.get(reply))

        env.process(requester("sent-after", False))
        env.process(requester("sent-before", True))
        env.run()
        assert outcomes == {
            "sent-after": (2.0, True, None),
            "sent-before": (2.0, False, "reply"),
        }

    def test_the_direct_wait_builds_no_timeout_and_no_condition(self, monkeypatch):
        built = []

        def counting(cls):
            real = cls.__init__

            def init(self, *args, **kwargs):
                built.append(cls.__name__)
                real(self, *args, **kwargs)

            return init

        for cls in (Timeout, AnyOf):
            monkeypatch.setattr(cls, "__init__", counting(cls))
        env = Environment()

        def races():
            first = yield from wait_any(env, [env.event()], 1.0)
            reply = env.event()
            env.call_at(env.now + 0.5, reply.succeed, "ok")
            second = yield from wait_any(env, [reply], 1.0)
            return first.expired and not first.events, second.events.get(reply)

        process = env.process(races())
        env.run()
        assert process.value == (True, "ok")
        assert built == []
        assert env.queue_stats()["live_entries"] == 0

    def test_a_wait_driven_outside_a_process_takes_the_general_path(self):
        # No active process, nobody for a direct expiry to resume: the wait
        # must fall back to Timeout + AnyOf and still report the time-out.
        env = Environment()
        fragment = wait_any(env, [env.event()], timeout=1.0)
        assert isinstance(next(fragment), AnyOf)
        env.run(until=2.0)
        with pytest.raises(StopIteration) as finished:
            fragment.send(None)
        outcome = finished.value.value
        assert outcome.expired and not outcome.events
        assert env.queue_stats()["live_entries"] == 0
