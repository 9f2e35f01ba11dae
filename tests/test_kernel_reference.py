"""Reference models for the two wait mechanisms the kernel replaced in place.

``wait_any`` used to build a ``Timeout`` and an ``AnyOf`` for every race and
``Store.get_all`` used to wake its getter through a same-tick finalize
callback.  Both old definitions live on here, test-only, and generated
schedules drive old and new side by side: same values, same ``WaitOutcome``,
same simulated resume times, same live schedule size, and the same resume
order wherever every wait lost the same hop.  The two places where new
differs from old on purpose are pinned by directed tests that run both.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import (
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Timeout,
    WaitOutcome,
    wait_any,
)
from repro.sim.store import Store

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
            st.tuples(st.sampled_from(["kill", "interrupt"]), _QUARTERS),
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
            event.fail(RuntimeError("boom"))
            event.defuse()
        else:
            event.succeed("reply")

    def sleeper(delay):
        yield env.timeout(delay)
        return "finished"

    def waiter(index, spec, early):
        if spec["start"]:
            try:
                yield env.timeout(spec["start"])
            except Interrupt:  # disturbed at the very instant the wait begins
                log.append((index, env.now, "interrupted-early"))
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
        attempts = 0
        while attempts < 2:
            attempts += 1
            try:
                outcome = yield from impl(env, [event], spec["timeout"])
            except Interrupt as interrupt:
                log.append((index, env.now, "interrupted", interrupt.cause))
                continue
            except RuntimeError as error:
                log.append((index, env.now, "failed", str(error)))
                return
            log.append(
                (
                    index,
                    env.now,
                    "resumed",
                    outcome.expired,
                    outcome.timed_out,
                    list(outcome.events.values()),
                    event in outcome,
                )
            )
            return

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


def _per_consumer_and_tick(log):
    """Each consumer's records with same-timestamp batches joined into one."""
    grouped = defaultdict(list)
    for index, now, got in log:
        mine = grouped[index]
        if type(got) is list and mine and mine[-1][0] == now and type(mine[-1][1]) is list:
            mine[-1][1].extend(got)
        else:
            mine.append((now, list(got) if type(got) is list else got))
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
            outcomes[name] = (env.now, outcome.expired, outcome.get(reply))

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
            return first.timed_out, second.get(reply)

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
        assert finished.value.value.timed_out
        assert env.queue_stats()["live_entries"] == 0


# ---------------------------------------------------------------------------
# Store.get_all: two-hop (finalize callback) reference
# ---------------------------------------------------------------------------


class _ReferenceBatchGet(Event):
    __slots__ = ("_wake_armed",)

    def __init__(self, env):
        super().__init__(env)
        self._wake_armed = False


class ReferenceStore(Store):
    """``Store`` with the batch wake it had before: arm, finalize, succeed."""

    def put(self, item):
        self.items.append(item)
        if self._getters:
            self._dispatch()

    def get_all(self):
        event = _ReferenceBatchGet(self.env)
        event._abandon_hook = self._abandon_getter
        self._getters.append(event)
        if self.items:
            self._dispatch()
        return event

    def _finalize_batch(self, getter):
        getter._wake_armed = False
        if getter.triggered or not self.items or getter not in self._getters:
            return
        if self._getters[0] is not getter:
            self._dispatch()
            if getter.triggered or not self.items or getter not in self._getters:
                return
        self._getters.remove(getter)
        items = list(self.items)
        self.items.clear()
        getter.succeed(items)

    def _dispatch(self):
        getters = self._getters
        while getters and self.items:
            getter = getters[0]
            if getter.triggered:
                getters.popleft()
                continue
            if not getter._wake_armed:
                getter._wake_armed = True
                self.env.call_at(self.env.now, self._finalize_batch, getter)
            return


put_plans = st.lists(
    st.tuples(
        _HALVES,  # when
        st.integers(min_value=0, max_value=3),  # same-tick hops before the put
    ),
    max_size=12,
)

consumer_plans = st.lists(
    st.fixed_dictionaries(
        {
            "start": _HALVES,
            # Between ticks (puts land on halves): a consumer disturbed while
            # parked.  Disturbed *inside* a wake is where old and new differ
            # on purpose; the directed tests below pin that.
            "disturb": st.one_of(
                st.none(),
                st.tuples(
                    st.sampled_from(["kill", "interrupt"]), _HALVES.map(lambda t: t + 0.25)
                ),
            ),
        }
    ),
    min_size=1,
    max_size=3,
)


def _run_store(store_cls, puts, consumers):
    env = Environment()
    store = store_cls(env)
    log: list[tuple] = []

    def deposit(plan):
        item, hops = plan
        if hops:
            env.call_at(env.now, deposit, (item, hops - 1))
        else:
            store.put(item)

    def consumer(index, plan):
        if plan["start"]:
            try:
                yield env.timeout(plan["start"])
            except Interrupt:
                log.append((index, env.now, "interrupted"))
        while True:
            try:
                got = list((yield store.get_all()))
            except Interrupt:
                log.append((index, env.now, "interrupted"))
                continue
            log.append((index, env.now, got))

    for item, (when, hops) in enumerate(puts):
        env.call_at(when, deposit, (item, hops))
    for index, plan in enumerate(consumers):
        process = env.process(consumer(index, plan))
        if plan["disturb"] is not None:
            action, offset = plan["disturb"]
            env.call_at_cancellable(offset, getattr(process, action), "schedule")
    env.run()
    return log, list(store.items), len(store._getters)


class TestOneHopBatchWakeAgainstFinalizeCallback:
    @settings(max_examples=300, deadline=None)
    @given(puts=put_plans, consumers=consumer_plans)
    def test_generated_schedules_deliver_identical_batches(self, puts, consumers):
        old_log, old_left, old_getters = _run_store(ReferenceStore, puts, consumers)
        new_log, new_left, new_getters = _run_store(Store, puts, consumers)
        # The same items in the same order to the same consumers at the same
        # simulated times, same leftovers, same parked getters.  Only where a
        # tick's items are cut into batches may differ: the receiver is back
        # on the store one hop sooner, so a put two hops behind the first
        # starts the next batch instead of joining a late second one.
        assert _per_consumer_and_tick(new_log) == _per_consumer_and_tick(old_log)
        assert (new_left, new_getters) == (old_left, old_getters)
        delivered = [item for record in new_log if type(record[2]) is list for item in record[2]]
        assert sorted(delivered + new_left) == list(range(len(puts)))

    @pytest.mark.parametrize("store_cls", [ReferenceStore, Store])
    def test_puts_landing_before_the_wake_is_processed_join_the_batch(self, store_cls):
        env = Environment()
        store = store_cls(env)
        batches = []

        def receiver():
            while True:
                batch = yield store.get_all()
                batches.append((env.now, list(batch)))

        def burst(_):
            env.call_at(env.now, store.put, "queued-before-the-wake")
            store.put("first")  # wakes the getter; the call above still runs first
            store.put("same-callback")
            env.call_at(env.now, store.put, "queued-after-the-wake")

        env.process(receiver())
        env.call_at(1.0, burst)
        env.run()
        assert batches == [
            (1.0, ["first", "same-callback", "queued-before-the-wake"]),
            (1.0, ["queued-after-the-wake"]),
        ]

    def test_a_batch_abandoned_between_wake_and_resume_goes_back_to_the_store(self):
        """Where the new wake is deliberately *better* than the reference.

        The old getter, once finalized, took its batch with it if its waiter
        was interrupted before resuming; the one-hop wake hands the items
        back, so an interrupted receiver finds them on its next ``get_all``.
        """
        env = Environment()
        store = Store(env)
        got = []

        def receiver():
            while True:
                try:
                    got.append(list((yield store.get_all())))
                except Interrupt:
                    got.append("interrupted")

        process = env.process(receiver())

        def wake_then_interrupt(_):
            store.put("a")
            process.interrupt()
            store.put("b")  # joins the live batch, still unprocessed

        env.call_at(1.0, wake_then_interrupt)
        env.run()
        assert got == ["interrupted", ["a", "b"]]
        assert not store.items

    def test_a_head_getter_killed_in_its_wake_tick_no_longer_strands_the_item(self):
        """The lost wake-up the finalize callback had, pinned on both sides.

        Two batch getters queued; the head one is killed in the callback that
        delivers the first item.  The reference finalize callback found its
        getter gone and returned — the item stayed queued behind a second
        getter nobody woke.  The one-hop wake re-dispatches what it takes back.
        """
        outcomes = {}
        for store_cls in (ReferenceStore, Store):
            env = Environment()
            store = store_cls(env)
            got = []

            def receiver(name, store=store, got=got):
                while True:
                    batch = yield store.get_all()
                    got.append((name, list(batch)))

            head = env.process(receiver("head"))
            env.process(receiver("next"))
            env.call_at(1.0, lambda _, s=store, h=head: (s.put("x"), h.kill()))
            env.run(until=5.0)
            outcomes[store_cls.__name__] = (got, list(store.items))
        assert outcomes == {
            "ReferenceStore": ([], ["x"]),
            "Store": ([("next", ["x"])], []),
        }
