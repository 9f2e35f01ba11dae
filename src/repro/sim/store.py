"""Waitable stores (mailboxes, queues) for the simulation kernel.

A :class:`Store` is the classical producer/consumer channel: ``put`` never
blocks (unbounded by default, or fails the put event when a capacity is set
and exceeded), ``get`` returns an event that triggers once an item is
available.  :class:`FilterStore` and :class:`PriorityStore` refine the
retrieval order; they are used for protocol mailboxes and scheduler queues.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from collections.abc import Callable
from typing import Any

from repro.sim.core import Environment, Event, SimulationError

__all__ = ["Store", "FilterStore", "PriorityStore", "StoreClosed"]


class StoreClosed(RuntimeError):
    """Raised (as an event failure) on pending gets when a store is closed."""


class _BatchGet(Event):
    """Marker event for :meth:`Store.get_all` (batched, coalescing gets).

    Its value is a *live* list: between the wake-up (``succeed``) and the
    moment the kernel processes it, further puts append to that same list —
    the waiting receiver is resumed once, with the whole batch.
    """

    __slots__ = ()


class Store:
    """An unbounded (or capacity-bounded) FIFO store of arbitrary items."""

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        #: the batch getter woken in this tick and not processed yet: puts
        #: join its (live) value instead of the store.
        self._waking: _BatchGet | None = None
        self._closed = False

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        return len(self.items)

    @property
    def closed(self) -> bool:
        """Whether the store has been closed (no further puts accepted)."""
        return self._closed

    # -- operations ----------------------------------------------------------
    def put(self, item: Any) -> Event:
        """Deposit ``item``; returns an already-succeeded event.

        If the store is closed or full the returned event is failed instead,
        which models a mailbox of a crashed node silently dropping traffic
        when the caller does not look at the outcome.
        """
        event = Event(self.env)
        if self._closed:
            event.fail(StoreClosed("store is closed"))
            event.defuse()
            return event
        if len(self.items) >= self.capacity:
            event.fail(SimulationError("store full"))
            event.defuse()
            return event
        self._deposit(item)
        event.succeed(item)
        return event

    def put_nowait(self, item: Any) -> bool:
        """Deposit ``item`` without allocating an outcome event.

        The cheap path for producers that never look at the put outcome
        (e.g. transport delivery): returns False instead of failing an event
        when the store is closed or full.  Getter dispatch is shared with
        :meth:`put` (:meth:`_deposit`).
        """
        if self._closed or len(self.items) >= self.capacity:
            return False
        self._deposit(item)
        return True

    def _deposit(self, item: Any) -> None:
        """Hand an accepted item to a waking batch, else queue and dispatch."""
        waking = self._waking
        if waking is not None:
            if waking.callbacks is not None:
                waking._value.append(item)
                return
            self._waking = None
        self.items.append(item)
        if self._getters:
            self._dispatch()

    def get(self) -> Event:
        """Return an event that triggers with the next available item."""
        event = Event(self.env)
        event._abandon_hook = self._abandon_getter
        self._getters.append(event)
        self._dispatch()
        return event

    def get_all(self) -> Event:
        """Return an event that triggers with *all* available items (a list).

        Batched, coalescing semantics: the getter is woken in one hop — by
        the first put, or at once when items are already queued — with a live
        list that every further put joins until the kernel processes the
        event, so the waiter is resumed exactly once per tick however many
        items arrive.  FIFO order is preserved both within the batch and
        across getters (a batch getter waits its turn behind earlier plain
        getters).
        """
        event = _BatchGet(self.env)
        event._abandon_hook = self._abandon_getter
        self._getters.append(event)
        if self.items:
            self._dispatch()
        return event

    def _abandon_getter(self, event: Event) -> None:
        """Purge a getter whose last waiter detached (killed / lost a race).

        Without this, a process killed while blocked on ``get`` (or a getter
        losing an :class:`~repro.sim.core.AnyOf` race) would leave a zombie
        waiter that silently swallows the next item put into the store.  A
        batch getter abandoned between wake-up and resume hands its items
        back to the front of the store.
        """
        if event.triggered:
            if event is self._waking:
                self._waking = None
                self.items.extendleft(reversed(event._value))
                event._value.clear()
                self._dispatch()
            return
        try:
            self._getters.remove(event)
        except ValueError:
            pass

    def try_get(self) -> Any | None:
        """Non-blocking get: pop an item if one is available, else ``None``."""
        if self.items and not self._getters:
            return self.items.popleft()
        return None

    def drain(self) -> list[Any]:
        """Remove and return every item no consumer has been handed yet.

        Queued items, preceded by those of a batch woken in this tick whose
        getter the kernel has not processed (its receiver, if it survives,
        resumes with an empty list).
        """
        dropped: list[Any] = []
        waking = self._waking
        if waking is not None and waking.callbacks is not None:
            dropped.extend(waking._value)
            waking._value.clear()
        dropped.extend(self.items)
        self.items.clear()
        return dropped

    def clear(self) -> int:
        """Drop all stored items (crash semantics); returns how many."""
        return len(self.drain())

    def close(self, exc: BaseException | None = None) -> None:
        """Close the store: fail all pending getters and refuse new puts."""
        self._closed = True
        error = exc or StoreClosed("store closed")
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.fail(error)

    def reopen(self) -> None:
        """Re-open a previously closed store (node restart)."""
        self._closed = False

    # -- internals -----------------------------------------------------------
    def _dispatch(self) -> None:
        getters = self._getters
        while getters and self.items:
            getter = getters.popleft()
            if getter.triggered:  # cancelled getter
                continue
            if type(getter) is _BatchGet:
                # One hop: wake the batch getter with everything queued; the
                # list stays live (see _deposit) until the kernel processes
                # the event.  Later getters stay queued behind it (FIFO).
                batch = list(self.items)
                self.items.clear()
                getter.succeed(batch)
                self._waking = getter
                return
            getter.succeed(self.items.popleft())


class FilterStore(Store):
    """A store whose ``get`` can take a predicate selecting the item."""

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        super().__init__(env, capacity)
        self._predicates: dict[Event, Callable[[Any], bool] | None] = {}

    def get(self, predicate: Callable[[Any], bool] | None = None) -> Event:  # type: ignore[override]
        event = Event(self.env)
        event._abandon_hook = self._abandon_getter
        self._predicates[event] = predicate
        self._getters.append(event)
        self._dispatch()
        return event

    def _abandon_getter(self, event: Event) -> None:
        super()._abandon_getter(event)
        if not event.triggered:
            self._predicates.pop(event, None)

    def get_all(self) -> Event:  # pragma: no cover - misuse guard
        raise SimulationError("get_all() is only supported on plain Store")

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for getter in list(self._getters):
                if getter.triggered:
                    self._getters.remove(getter)
                    self._predicates.pop(getter, None)
                    continue
                predicate = self._predicates.get(getter)
                for index, item in enumerate(self.items):
                    if predicate is None or predicate(item):
                        del self.items[index]
                        self._getters.remove(getter)
                        self._predicates.pop(getter, None)
                        getter.succeed(item)
                        progressed = True
                        break


class PriorityStore(Store):
    """A store returning items in ``(priority, fifo)`` order.

    Items are ``(priority, item)`` pairs on ``put``; ``get`` returns the item
    with the smallest priority (ties broken FIFO).
    """

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        super().__init__(env, capacity)
        self._heap: list[tuple[Any, int, Any]] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def put(self, item: Any, priority: Any = 0) -> Event:  # type: ignore[override]
        event = Event(self.env)
        if self._closed:
            event.fail(StoreClosed("store is closed"))
            event.defuse()
            return event
        if len(self._heap) >= self.capacity:
            event.fail(SimulationError("store full"))
            event.defuse()
            return event
        heapq.heappush(self._heap, (priority, next(self._seq), item))
        event.succeed(item)
        self._dispatch()
        return event

    def get_all(self) -> Event:  # pragma: no cover - misuse guard
        raise SimulationError("get_all() is only supported on plain Store")

    def try_get(self) -> Any | None:
        if self._heap and not self._getters:
            return heapq.heappop(self._heap)[2]
        return None

    def clear(self) -> int:
        n = len(self._heap)
        self._heap.clear()
        return n

    def _dispatch(self) -> None:
        while self._getters and self._heap:
            getter = self._getters.popleft()
            if getter.triggered:
                continue
            getter.succeed(heapq.heappop(self._heap)[2])
