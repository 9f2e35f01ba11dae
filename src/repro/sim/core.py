"""Core of the discrete-event simulation kernel.

The kernel follows the process-interaction world view:

* an :class:`Environment` owns the virtual clock and the pending-event
  schedule;
* a :class:`Process` wraps a Python generator; each value the generator yields
  must be an :class:`Event`; the process is resumed when that event fires;
* :class:`Timeout` is the elementary "wait for some virtual time" event;
* :class:`AnyOf` races events;
* processes can be killed (:class:`ProcessKilled`), which is how node
  crashes are modelled;
* waits are *cancellable*: :meth:`Timeout.cancel` tombstones a pending
  timer (lazily removed from the heap, compacted in bulk when dead entries
  pile up), :meth:`Event.cancel_wait` detaches a waiter, and
  :func:`wait_any` races a set of events against an optional timeout with
  guaranteed cleanup.

Cancellation matters because the RPC-V protocol is timeout-driven end to end:
every request races a reply against a retry timer, and the losing side of the
race must not linger.  That race — one event, one time-out — is also the
cheapest wait there is: the process blocks on the event itself and the
time-out is one cancellable callback entry, no :class:`Timeout`, no
:class:`AnyOf`.  Abandoned waits cascade: when the last waiter of an
event is detached the event's *abandon hook* runs, which cancels orphaned
timeouts and withdraws an :class:`AnyOf` from its constituent events — so a
killed process reclaims everything it was blocked on, and the heap does not
fill with dead timers at scale.

Scheduling is split over **three lanes** (see :class:`Environment`): an
urgent same-tick deque, a normal same-tick deque, and the time-ordered heap;
the heap carries full events, :class:`TimerHandle` entries and bare
``call_at`` callback entries.  Each timer mechanism is written once: every
future entry is pushed by :meth:`Environment._place` and a cancelled one
tombstoned by :meth:`Environment._unschedule`.

The implementation is intentionally dependency-free and deterministic: events
scheduled at the same virtual time fire in lane order (urgent before normal)
and FIFO within a lane (a monotonically increasing sequence number breaks
heap ties).
"""

from __future__ import annotations

import gc
import itertools
from collections import deque
from collections.abc import Callable, Generator, Iterable
from heapq import heapify as _heapify, heappop as _heappop, heappush as _heappush
from typing import Any

__all__ = [
    "SimulationError",
    "ProcessKilled",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "TimerHandle",
    "Environment",
    "WaitOutcome",
    "wait_any",
]

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (not for modelled faults)."""


class ProcessKilled(Exception):
    """Thrown into a process that is being killed (crash semantics).

    A killed process is not expected to recover: the kernel silences any
    ``ProcessKilled`` escaping the generator.  Its one argument is the
    kill's cause.
    """


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------


_PENDING = object()


class Event:
    """A waitable, one-shot occurrence.

    An event has three states: *pending* (created, not yet triggered),
    *triggered* (scheduled on the environment queue), and *processed* (its
    callbacks have run).  Processes wait on events by yielding them.
    """

    __slots__ = (
        "env",
        "callbacks",
        "_value",
        "_ok",
        "_processed",
        "_defused",
        "_cancelled",
        "_abandon_hook",
    )

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._processed = False
        self._defused = False
        self._cancelled = False
        #: called with the event when its last waiter detaches; lets owners
        #: (timeouts, AnyOf) reclaim resources nobody waits for.
        self._abandon_hook: Callable[[Event], None] | None = None

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given a value (success or failure)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the callbacks have run."""
        return self._processed

    @property
    def value(self) -> Any:
        """The event's value (or the exception, for failed events)."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``.

        A triggered event fires in the current tick: it joins the same-tick
        FIFO lane and never touches the time-ordered heap.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._tick.append(self)
        return self

    # -- waiter management ---------------------------------------------------
    def cancel_wait(self, waiter: "Process | Callable[[Event], None]") -> bool:
        """Detach ``waiter`` (a :class:`Process` or raw callback) from this event.

        The caller is responsible for the detached process: it will not be
        resumed by this event anymore.  Returns True when something was
        removed.  If the event ends up with no waiters its abandon hook runs,
        cascading the cleanup (orphaned timers are cancelled, an AnyOf
        withdrawn from its constituents).
        """
        callback = waiter._resume if isinstance(waiter, Process) else waiter
        callbacks = self.callbacks
        if callbacks is None:  # pragma: no cover - already processed
            return False
        try:
            callbacks.remove(callback)
        except ValueError:  # pragma: no cover - not waiting here
            return False
        if isinstance(waiter, Process) and waiter._target is self:
            waiter._target = None
        self._maybe_abandon()
        return True

    def _maybe_abandon(self) -> None:
        """Run the abandon hook once the last waiter has been detached."""
        if (
            self._abandon_hook is not None
            and self.callbacks is not None
            and not self.callbacks
        ):
            hook, self._abandon_hook = self._abandon_hook, None
            hook(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else (
            "processed" if self._processed else (
                "triggered" if self.triggered else "pending"
            )
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` units of virtual time in the future.

    A zero-delay timeout joins the same-tick FIFO lane (no heap traffic); a
    positive delay is pushed onto the heap.  A pending timeout can be
    :meth:`cancel`-led: its heap entry becomes a tombstone (skipped on pop,
    removed in bulk by compaction) and its callbacks never run.  Timeouts
    also cancel *themselves* when their last waiter detaches — the abandon
    cascade — so the losing timer of a reply-vs-timeout race does not linger
    in the heap.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        # Timeouts dominate event allocation on the protocol hot paths, so
        # Event.__init__ is inlined here (one call fewer per timer).
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._processed = False
        self._defused = False
        self._cancelled = False
        # Abandon hook shared by every timeout: nobody waits for it anymore.
        self._abandon_hook = Timeout.cancel
        self.delay = delay
        if delay > 0.0:
            # Environment._place inlined: timeouts are the hottest producer.
            when = env._now + delay
            if when == _INF:
                raise SimulationError(f"cannot schedule at non-finite time {when!r}")
            _heappush(env._queue, (when, next(env._counter), self))
        elif delay == 0.0:
            env._tick.append(self)
        elif delay < 0.0:  # pragma: no cover - a caller's mistake
            raise SimulationError(f"negative delay {delay!r}")
        else:
            raise SimulationError(f"non-finite delay {delay!r}")

    def cancel(self) -> bool:
        """Cancel the timeout before it fires.

        Returns True when the timeout was still pending (its callbacks will
        never run), False when it had already fired or been cancelled.  A
        heap entry becomes a tombstone counted by the compactor; a same-tick
        (zero-delay) timer is simply skipped when its lane drains.
        """
        # callbacks is None from the moment the event is popped off the
        # schedule: a fired timeout is no longer a queue entry, so cancelling
        # it must not create a phantom tombstone (even mid-resume, before
        # _processed).
        if self._processed or self._cancelled or self.callbacks is None:
            return False
        # Set before _unschedule: a compaction it triggers filters on the flag.
        self._cancelled = True
        # Same-tick lane: the drain loop skips cancelled events; the lane
        # empties every tick, so no tombstone accounting is needed.
        if self.delay != 0.0:
            self.env._unschedule()
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self._cancelled else ""
        return f"<Timeout delay={self.delay!r}{state}>"


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        env._urgent.append(self)


class TimerHandle:
    """A scheduled callback: one-shot or self-re-arming (the only handle type).

    Returned by :meth:`Environment.call_at_cancellable` (one-shot: no next
    delay) and :meth:`Environment.call_periodic`.  The schedule entry is the
    bare tuple ``(when, seq, handle)``; the handle is the only allocation and
    serves the whole lifetime of a periodic activity: each firing runs
    ``fn(arg)`` and then re-arms the *same* handle — per beat the only kernel
    traffic is one heap push, no allocation.  The next-beat delay comes from
    ``interval`` or, when given, from ``interval_fn()`` (evaluated after
    ``fn`` runs, so jittered cadences draw their randomness at exactly the
    position a hand-rolled re-arming callback would).  Cancellation is an O(1) tombstone, exactly like a cancelled
    :class:`Timeout`, and may happen at any time, including from inside
    ``fn`` itself (a periodic handle then simply never re-arms).
    """

    __slots__ = (
        "env",
        "fn",
        "arg",
        "interval",
        "interval_fn",
        "when",
        "fired",
        "_cancelled",
        "_armed",
    )

    def __init__(
        self,
        env: "Environment",
        when: float,
        fn: Callable[[Any], None],
        arg: Any = None,
        interval: float | None = None,
        interval_fn: Callable[[], float] | None = None,
    ) -> None:
        self.env = env
        self.fn = fn
        self.arg = arg
        self.interval = interval
        self.interval_fn = interval_fn
        #: virtual time of the next scheduled firing (observability / tests).
        self.when = when
        #: number of firings so far.
        self.fired = 0
        self._cancelled = False
        #: True while a schedule entry for this handle is queued.
        self._armed = True
        env._place(when, (when, next(env._counter), self))

    def cancel(self) -> bool:
        """Cancel the next firing (and, for a periodic, every later one).

        True when there was something to cancel: False for an already
        cancelled handle and for a one-shot that has fired; True for a
        periodic cancelled from inside its own ``fn`` (nothing is queued
        mid-fire, so there is no entry to take back — it just never re-arms).
        """
        if self._cancelled:
            return False
        if not self._armed and self.interval is None and self.interval_fn is None:
            return False
        # Set before _unschedule: a compaction it triggers filters on the flag.
        self._cancelled = True
        if self._armed:
            self.env._unschedule()
        return True

    def _fire(self) -> None:
        """Kernel callback: run ``fn``; a periodic then re-arms in place."""
        self._armed = False
        self.fired += 1
        self.fn(self.arg)
        if self._cancelled:
            return
        interval_fn = self.interval_fn
        delay = self.interval if interval_fn is None else interval_fn()
        if delay is None:
            return
        if delay <= 0.0:
            raise SimulationError(f"periodic interval must be positive, got {delay!r}")
        env = self.env
        self.when = when = env._now + delay
        self._armed = True
        env._place(when, (when, next(env._counter), self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else (
            "armed" if self._armed else "idle"
        )
        return f"<TimerHandle {state} fired={self.fired} next={self.when!r}>"


class Process(Event):
    """A running process.

    A process is itself an event: it triggers when the wrapped generator
    terminates, with the value passed to ``return`` (or the exception that
    escaped it).  Other processes may therefore wait for its completion by
    yielding it.
    """

    __slots__ = ("generator", "name", "_target", "is_alive_override")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: the event this process is currently waiting on (None when running
        #: or terminated)
        self._target: Event | None = None
        Initialize(env, self)

    # -- public API ---------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the wrapped generator has not terminated."""
        return self._value is _PENDING

    def kill(self, cause: Any = None) -> None:
        """Throw :class:`ProcessKilled` into the process at the current time.

        Used for crash semantics: the process is not expected to survive; if
        :class:`ProcessKilled` escapes the generator, it is silently dropped
        (the process just terminates without value).
        """
        if not self.is_alive:
            return
        env = self.env
        env._urgent.append(_KillEvent(env, self, ProcessKilled(cause)))

    # -- kernel callbacks ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        self.env._active_process = self
        exc_to_throw: BaseException | None = None
        value: Any = None
        if event is not None:
            if event._ok:
                value = event._value
            else:
                event._defused = True
                exc_to_throw = event._value

        while True:
            try:
                if exc_to_throw is not None:
                    exc, exc_to_throw = exc_to_throw, None
                    target = self.generator.throw(exc)
                else:
                    target = self.generator.send(value)
            except StopIteration as stop:
                self._target = None
                self.env._active_process = None
                if not self.triggered:
                    self._ok = True
                    self._value = stop.value
                    self.env._tick.append(self)
                return
            except ProcessKilled:
                # Crash semantics: a killed process simply disappears.
                self._target = None
                self.env._active_process = None
                if not self.triggered:
                    self._ok = True
                    self._value = None
                    self.env._tick.append(self)
                return
            except BaseException as err:  # pragma: no cover - a process that failed
                self._target = None
                self.env._active_process = None
                if not self.triggered:
                    self._ok = False
                    self._value = err
                    self.env._tick.append(self)
                return

            if not isinstance(target, Event):  # pragma: no cover - a caller's mistake
                exc_to_throw = SimulationError(
                    f"process {self.name!r} yielded a non-event: {target!r}"
                )
                continue
            if target.env is not self.env:  # pragma: no cover - a caller's mistake
                exc_to_throw = SimulationError(
                    "yielded an event bound to a different environment"
                )
                continue
            if target._cancelled:  # pragma: no cover - a caller's mistake
                exc_to_throw = SimulationError(
                    f"process {self.name!r} yielded a cancelled event: {target!r}"
                )
                continue

            if target.callbacks is None:  # pragma: no cover - no product step does it
                # Already processed (callbacks is None only once processed):
                # resume immediately with its outcome.
                if target._ok:
                    value = target._value
                    continue
                target._defused = True
                exc_to_throw = target._value
                continue

            # Wait for the target event.
            self._target = target
            target.callbacks.append(self._resume)  # type: ignore[union-attr]
            break

        self.env._active_process = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "alive" if self.is_alive else "terminated"
        return f"<Process {self.name!r} {status}>"


class _KillEvent(Event):
    """Internal event delivering a kill to a process."""

    __slots__ = ("process", "exception")

    def __init__(
        self, env: "Environment", process: Process, exception: BaseException
    ) -> None:
        super().__init__(env)
        self.process = process
        self.exception = exception
        self._ok = True
        self._value = None
        self.callbacks = [self._deliver]

    def _deliver(self, _event: Event) -> None:
        process = self.process
        if not process.is_alive:  # pragma: no cover - it ended first
            return
        # Detach the process from whatever it is currently waiting on; the
        # abandon cascade then reclaims anything only that wait kept alive
        # (a sleep timer is cancelled, an AnyOf withdraws from its
        # constituent events).
        target = process._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(process._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
            else:
                target._maybe_abandon()
        process._target = None
        failed = Event(process.env)
        failed._ok = False
        failed._value = self.exception
        failed._defused = True
        process._resume(failed)


# ---------------------------------------------------------------------------
# Racing events
# ---------------------------------------------------------------------------


class AnyOf(Event):
    """Triggers as soon as any of the given events triggers.

    On trigger it *detaches* itself from every constituent event that has
    not fired, so losing events are not left holding a stale ``_check``
    callback (and, through the abandon cascade, losing timeouts are
    cancelled).  The same cleanup runs
    through :meth:`cancel` when the race itself is abandoned — e.g. the
    waiting process was killed.
    """

    __slots__ = ("events",)

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        # Races guard the protocol layers' multi-event waits, so
        # Event.__init__ is inlined (one call fewer per race).
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._processed = False
        self._defused = False
        self._cancelled = False
        self._abandon_hook = AnyOf.cancel
        self.events = tuple(events)
        if not self.events:
            self.succeed(self._collect())
            return
        for event in self.events:
            # Validate before any subscription: failing halfway through the
            # subscribe loop would leak this half-built race's _check onto
            # the earlier events.
            if event.env is not env:
                raise SimulationError("AnyOf mixes environments")
        check = self._check  # bind once: this loop runs on the hot path
        for event in self.events:
            callbacks = event.callbacks
            if callbacks is not None:
                callbacks.append(check)
            else:
                # callbacks is None only once processed; re-check the value.
                check(event)
                if self._value is not _PENDING:
                    break

    def cancel(self) -> None:
        """Withdraw from every constituent event that has not fired yet.

        Safe to call at any time (idempotent); the race itself is left
        untriggered when still pending — nobody is waiting for it anymore.
        """
        check = self._check
        for event in self.events:
            callbacks = event.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(check)
                except ValueError:
                    continue
                if callbacks:  # pragma: no cover - another waiter still waits on it
                    continue
                # Inlined Event._maybe_abandon (this is the race-loser path):
                # a losing timeout is cancelled.
                hook = event._abandon_hook
                if hook is not None:
                    event._abandon_hook = None
                    hook(event)

    def _collect(self) -> dict[Event, Any]:
        return {e: e._value for e in self.events if e._value is not _PENDING and e._ok}

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:  # pragma: no cover - the race is decided
            return
        if event._ok:
            # The first success always wins the race.
            self._value = self._collect()
        else:
            # A failed constituent fails the race with its exception.
            event._defused = True
            self._ok = False
            self._value = event._value
        self.env._tick.append(self)
        # Detach from the losers so they do not keep a stale callback.
        self.cancel()


# ---------------------------------------------------------------------------
# Cancellable racing waits
# ---------------------------------------------------------------------------


class WaitOutcome:
    """Result of a :func:`wait_any` race.

    ``events`` maps each *payload* event that triggered to its value (the
    expiry timer is never included); ``expired`` tells whether the race was
    decided by the timeout.
    """

    __slots__ = ("events", "expired")

    def __init__(self, events: dict[Event, Any], expired: bool) -> None:
        self.events = events
        self.expired = expired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WaitOutcome fired={len(self.events)} expired={self.expired}>"


def _expire_wait(process: Process) -> None:
    """Expiry of a direct :func:`wait_any`: detach the process and resume it.

    Runs only while the process still waits on its event — any other way out
    of the wait cancels this entry first — and the same-tick lanes are empty
    whenever a heap entry fires, so the event cannot be half-way to resuming
    the process.
    """
    process._target.cancel_wait(process)
    process._resume(None)


def wait_any(env: "Environment", events: Iterable[Event], timeout: float | None = None):
    """Race ``events`` (optionally against a ``timeout``), with guaranteed cleanup.

    Process fragment: use as ``outcome = yield from wait_any(env, [...], ...)``
    (or the :meth:`Environment.wait_any` shorthand).
    Returns a :class:`WaitOutcome`.  Whatever way the wait ends — a payload
    event fires, the timeout expires, the process is killed —
    every losing event is detached from and a losing (or pending) expiry is
    cancelled, so racing waits leave neither stale callbacks on long-lived
    events nor dead timers in the heap.

    One pending event against a positive timeout — every reply-vs-retry race
    of the protocol — costs no intermediate event: the process waits on the
    event itself, and the expiry is one cancellable callback-lane entry that
    detaches and resumes it.  The expiry draws its sequence number here, so
    a reply due at the very instant of the deadline loses to it exactly when
    it was sent after the wait began (see README "Thinking about time").
    """
    events = list(events)
    if (
        timeout is not None
        and timeout > 0.0
        and len(events) == 1
        and events[0].callbacks is not None
        and not events[0]._cancelled
        # Driven outside a process there is nobody for the expiry to resume.
        and env._active_process is not None
    ):
        event = events[0]
        expiry = env.call_at_cancellable(
            env._now + timeout, _expire_wait, env._active_process
        )
        try:
            yield event
        finally:
            expiry.cancel()
        if expiry.fired:
            return WaitOutcome({}, expired=True)
        return WaitOutcome({event: event._value}, expired=False)
    timer = Timeout(env, timeout) if timeout is not None else None
    race = AnyOf(env, events if timer is None else [*events, timer])
    try:
        yield race
    finally:
        race.cancel()
        if timer is not None and not timer._processed:
            timer.cancel()
    # "Fired" means processed by the time the race resolved: a Timeout holds
    # its value from construction (triggered at birth), so the triggered flag
    # would wrongly report raced-and-cancelled timers as winners.
    fired = {event: event._value for event in events if event._processed}
    return WaitOutcome(fired, expired=timer is not None and timer._processed)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


class Environment:
    """The simulation environment: virtual clock plus a three-lane schedule.

    Work pending at the current tick is kept out of the heap entirely:

    * **urgent lane** — a FIFO deque for kernel-priority events (process
      initialisation, kill delivery).  Always drained first, so a kill
      scheduled mid-tick preempts every normal event of that tick.
    * **same-tick lane** — a FIFO deque for everything triggered at the
      current time: ``succeed`` chains, :class:`AnyOf` triggers,
      zero-delay timeouts, and zero-delay :meth:`call_at` callbacks.  Drained
      after the urgent lane, before the clock may advance.
    * **event heap** — the time-ordered heap for all future work.  It holds
      full events (``(time, seq, event)``), one-shot and periodic
      :class:`TimerHandle` entries (``(time, seq, handle)``) and bare
      callback entries scheduled with :meth:`call_at` (``(time, seq, None,
      fn, arg)``) — the callback lane costs one tuple per call instead of an
      :class:`Event` allocation, which is what keeps per-message transport
      delivery allocation-free.

    :meth:`_place` alone pushes a future entry and :meth:`_unschedule` alone
    accounts for a cancelled one.  Within a lane, ordering is FIFO; across
    lanes at one tick it is urgent → same-tick → heap entries due now.
    Cancelled heap entries (timers and handles) stay behind as *tombstones*:
    they are skipped when they surface at the top, and when they outnumber
    half of the heap (past a small floor) the whole schedule is compacted in
    one O(n) pass.  This keeps both cancellation and scheduling O(log live)
    amortised, no matter how many raced-and-lost timers the protocol layers
    churn through.
    """

    #: never compact below this many tombstones (avoids thrashing tiny heaps).
    _COMPACTION_MIN_DEAD = 64
    #: gen-0 GC threshold applied while run() drains the schedule (see run()).
    _GC_BATCH_GEN0 = 100_000

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: time-ordered heap of (time, seq, event | handle) / (time, seq, None, fn, arg).
        self._queue: list[tuple] = []
        #: same-tick FIFO lane: events and (fn, arg) callback pairs.
        self._tick: deque = deque()
        #: urgent same-tick FIFO lane: kernel-priority events only.
        self._urgent: deque = deque()
        self._counter = itertools.count()
        self._active_process: Process | None = None
        #: cancelled entries still sitting in the heap.
        self._dead_entries = 0
        #: number of bulk compactions performed (observability / tests).
        self.compactions = 0
        #: number of events actually processed (tombstones excluded).
        self.events_processed = 0
        #: high-water mark of the heap size, tombstones included (observed
        #: at stats snapshots and compactions; see queue_stats()).
        self.peak_heap_size = 0

    # -- clock --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    # -- event factories -----------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: str | None = None
    ) -> Process:
        """Start a new :class:`Process` wrapping ``generator``."""
        return Process(self, generator, name=name)

    def wait_any(self, events: Iterable[Event], timeout: float | None = None):
        """Shorthand for :func:`wait_any` (a ``yield from``-able fragment)."""
        return wait_any(self, events, timeout)

    # -- callback lane -------------------------------------------------------
    def call_at(self, when: float, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Schedule ``fn(arg)`` at virtual time ``when`` (fire-and-forget).

        The cheap lane for hot paths that need neither an :class:`Event` to
        wait on nor cancellation: one bare tuple on the heap (or a same-tick
        lane entry when ``when`` is not in the future) instead of an event
        allocation.  ``fn`` must not block; it runs exactly like an event
        callback.
        """
        if when <= self._now:
            self._tick.append((fn, arg))
            return
        self._place(when, (when, next(self._counter), None, fn, arg))

    def call_at_cancellable(
        self, when: float, fn: Callable[[Any], None], arg: Any = None
    ) -> TimerHandle:
        """Schedule ``fn(arg)`` at ``when``; returns a :class:`TimerHandle`.

        Like :meth:`call_at` plus one handle allocation; the handle's
        :meth:`~TimerHandle.cancel` tombstones the entry in O(1), exactly
        like a cancelled timer.  Entries due in the past fire at the current
        tick.
        """
        if when < self._now:  # pragma: no cover - due in the past
            when = self._now
        return TimerHandle(self, when, fn, arg)

    def call_periodic(
        self,
        interval: float | None,
        fn: Callable[[Any], None],
        arg: Any = None,
        *,
        first_delay: float | None = None,
        interval_fn: Callable[[], float] | None = None,
    ) -> TimerHandle:
        """Schedule ``fn(arg)`` every ``interval``; returns a :class:`TimerHandle`.

        The returned handle re-arms itself *in place* after each beat: the
        whole periodic activity costs one handle allocation up front and one
        heap push per beat — no per-beat Event/Timeout/handle churn.
        ``first_delay`` (default: one interval) desynchronises the first
        beat; ``interval_fn``, when given, supplies each next-beat delay
        (evaluated *after* ``fn`` runs) for jittered cadences — ``interval``
        may then be ``None``.  Cancel with
        :meth:`TimerHandle.cancel` (O(1), allowed from inside ``fn``).
        """
        if interval is None and interval_fn is None:
            raise SimulationError("call_periodic needs interval or interval_fn")
        if interval is not None and interval <= 0.0:
            raise SimulationError(f"periodic interval must be positive, got {interval!r}")
        delay = first_delay
        if delay is None:
            delay = interval if interval_fn is None else interval_fn()
        if delay <= 0.0:
            raise SimulationError(f"periodic interval must be positive, got {delay!r}")
        return TimerHandle(self, self._now + delay, fn, arg, interval, interval_fn)

    # -- placement and cancellation (each written once) ------------------------
    def _place(self, when: float, entry: tuple) -> None:
        """Push the future ``entry`` onto the heap.

        The one placement routine behind :meth:`call_at` and
        :class:`TimerHandle` (:class:`Timeout` inlines it).  The entry's
        sequence number was drawn by the caller, which fixes its FIFO rank
        among entries due at the same time.
        """
        if not when < _INF:  # inf, and nan (which compares false)
            raise SimulationError(f"cannot schedule at non-finite time {when!r}")
        _heappush(self._queue, entry)

    def _unschedule(self) -> None:
        """Account for the heap entry of a just-cancelled event or handle.

        The one cancel routine (the caller has set the ``_cancelled`` flag):
        the entry stays in the heap as a tombstone — counted here, skipped by
        :meth:`_skim`, dropped in bulk by :meth:`_compact` once tombstones
        make up half of the heap.
        """
        self._dead_entries += 1
        if (
            self._dead_entries >= self._COMPACTION_MIN_DEAD
            and 2 * self._dead_entries >= len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every heap tombstone in one pass (filter + re-heapify).

        Both tombstone kinds are handled — cancelled events and cancelled
        :class:`TimerHandle` entries (entry[2] is the event, the handle, or
        None for an uncancellable :meth:`call_at` entry).  Triggered by
        :meth:`_unschedule`, the only place a tombstone is made.
        """
        heap_size = len(self._queue)
        if heap_size > self.peak_heap_size:
            self.peak_heap_size = heap_size
        # In place: a cancel can run from a finished grid's garbage (a
        # suspended process's ``finally`` when the collector finalizes it),
        # and a new list there would reference that garbage from outside
        # it, so the collector would revive the whole grid instead.
        self._queue[:] = [
            entry for entry in self._queue
            if entry[2] is None or not entry[2]._cancelled
        ]
        _heapify(self._queue)
        self._dead_entries = 0
        self.compactions += 1

    def _skim(self) -> list[tuple]:
        """Pop dead entries off the heap top; returns the heap (shared helper).

        The single tombstone-pop loop used by :meth:`peek` and the
        :meth:`run` drain loop, so the top-of-heap scan is written (and paid)
        once.
        """
        queue = self._queue
        while queue:
            marker = queue[0][2]
            if marker is None or not marker._cancelled:
                break
            _heappop(queue)
            self._dead_entries -= 1
        return queue

    def queue_stats(self) -> dict[str, int]:
        """Schedule occupancy snapshot: live vs dead entries, peaks, compactions.

        ``dead_entries`` counts cancelled timers and cancelled handle entries
        still sitting in the heap; ``live_entries`` is the rest of the heap.
        ``peak_heap_size`` is a high-water mark observed at the sampling
        points (stats snapshots and compactions — the heap is largest right
        before a compaction, so those points bracket the true peak) rather
        than being re-checked on every push, which keeps the per-event
        schedule path free of bookkeeping.
        """
        heap_size = len(self._queue)
        if heap_size > self.peak_heap_size:
            self.peak_heap_size = heap_size
        return {
            "heap_size": heap_size,
            "dead_entries": self._dead_entries,
            "live_entries": heap_size - self._dead_entries,
            "tick_queued": len(self._tick),
            "urgent_queued": len(self._urgent),
            "peak_heap_size": self.peak_heap_size,
            "compactions": self.compactions,
            "events_processed": self.events_processed,
        }

    def peek(self) -> float:
        """Time of the next *live* scheduled work item, or ``inf`` if none.

        Same-tick lanes pend at the current time; dead entries (cancelled
        zero-delay events at the lane head, heap tombstones at the top) are
        dropped on the way.
        """
        if self._urgent:
            return self._now
        tick = self._tick
        while tick:
            entry = tick[0]
            if type(entry) is tuple or not entry._cancelled:
                return self._now
            tick.popleft()  # pragma: no cover - a cancelled event heads the lane
        queue = self._skim()
        return queue[0][0] if queue else _INF

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the schedule drains;
        * a finite number — run until that virtual time (the clock is
          advanced to it);
        * an :class:`Event` — run until that event has been processed and
          return its value.

        For the duration of the drain the gen-0 GC threshold is raised (and
        restored on exit): event churn allocates tens of tracked objects per
        protocol round, and default thresholds make the collector rescan the
        same surviving timers thousands of times per simulated second.  The
        kernel's abandon cascade keeps the *event graph* acyclic once a race
        resolves, so the garbage a drain makes is reclaimed by reference
        counting and deferring cycle detection is safe while it runs.  The
        grid the drain ran is another matter: hosts, components, processes
        and this environment reference one another, so a finished run is
        cyclic garbage that only a collection frees.  The drain defers that
        collection; whoever owns the run pays for it once the run is over
        (the sweep runner's ``_execute_cell`` does, at every cell boundary).
        """
        stop_event: Event | None = None
        stop_time: float | None = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
        else:
            stop_time = float(until)
            if not stop_time < _INF:  # inf, and nan (which compares false)
                raise SimulationError(f"until={stop_time!r} is not a finite time")
            if stop_time < self._now:
                raise SimulationError(
                    f"until={stop_time!r} is in the past (now={self._now!r})"
                )

        restore_gc_threshold: tuple[int, int, int] | None = None
        if gc.isenabled():
            thresholds = gc.get_threshold()
            if 0 < thresholds[0] < self._GC_BATCH_GEN0:
                restore_gc_threshold = thresholds
                gc.set_threshold(self._GC_BATCH_GEN0, *thresholds[1:])
        try:
            return self._drain(stop_event, stop_time)
        finally:
            if restore_gc_threshold is not None:
                gc.set_threshold(*restore_gc_threshold)

    def _drain(self, stop_event: Event | None, stop_time: float | None) -> Any:
        # The one drain loop (locals bound once, no per-event method
        # dispatch): run() and, an instant at a time, the realtime driver.
        urgent = self._urgent
        tick = self._tick
        heappop = _heappop
        while True:
            if stop_event is not None and stop_event._processed:
                if not stop_event._ok and not stop_event._defused:
                    raise stop_event._value
                return stop_event._value
            if urgent:
                event = urgent.popleft()
            elif tick:
                event = tick.popleft()
                if type(event) is tuple:
                    self.events_processed += 1
                    event[0](event[1])
                    continue
                if event._cancelled:
                    continue
            else:
                queue = self._skim()
                if not queue:
                    if stop_time is not None:
                        self._now = stop_time
                    if stop_event is not None:
                        raise SimulationError(
                            "run() until an event, but the schedule drained first"
                        )
                    return None
                entry = queue[0]
                when = entry[0]
                if stop_time is not None and when > stop_time:
                    self._now = stop_time
                    return None
                heappop(queue)
                self._now = when
                marker = entry[2]
                if marker is None:
                    self.events_processed += 1
                    entry[3](entry[4])
                    continue
                if marker.__class__ is TimerHandle:
                    self.events_processed += 1
                    marker._fire()
                    continue
                event = marker
            self.events_processed += 1
            callbacks, event.callbacks = event.callbacks, None
            # Processed before the callbacks run: from their perspective (and
            # that of anything they resume) the event has fired.
            event._processed = True
            for callback in callbacks or ():
                callback(event)
            if not event._ok and not event._defused:
                raise event._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        live = (
            len(self._queue) - self._dead_entries
            + len(self._tick) + len(self._urgent)
        )
        return f"<Environment now={self._now!r} pending={live}>"
