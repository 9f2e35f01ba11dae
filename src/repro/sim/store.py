"""The mailbox of the simulation kernel.

A :class:`Store` is an unbounded FIFO channel with one way in and one way
out: ``put`` never blocks and never fails, and ``get_all`` returns an event
that triggers with every queued item at once — the batched wake-up every
protocol mailbox (:class:`~repro.net.transport.Endpoint`) drains through.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.core import Environment, Event

__all__ = ["Store"]


class Store:
    """An unbounded FIFO store drained in batches."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        #: the getter woken in this tick and not processed yet: puts join its
        #: (live) value instead of the store.
        self._waking: Event | None = None

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> None:
        """Deposit ``item``: join a waking batch, else queue and dispatch."""
        waking = self._waking
        if waking is not None:
            if waking.callbacks is not None:
                waking._value.append(item)
                return
            self._waking = None
        self.items.append(item)
        if self._getters:
            self._dispatch()

    def get_all(self) -> Event:
        """Return an event that triggers with *all* available items (a list).

        Batched, coalescing semantics: the getter is woken in one hop — by
        the first put, or at once when items are already queued — with a live
        list that every further put joins until the kernel processes the
        event, so the waiter is resumed exactly once per tick however many
        items arrive.  FIFO order is preserved both within the batch and
        across getters (a getter waits its turn behind earlier ones).
        """
        event = Event(self.env)
        event._abandon_hook = self._abandon_getter
        self._getters.append(event)
        if self.items:
            self._dispatch()
        return event

    def _abandon_getter(self, event: Event) -> None:
        """Purge a getter whose last waiter detached (killed / lost a race).

        Without this, a process killed while blocked on ``get_all`` (or a
        getter losing an :class:`~repro.sim.core.AnyOf` race) would leave a
        zombie waiter that silently swallows the next batch put into the
        store.  A getter abandoned between wake-up and resume hands its items
        back to the front of the store.
        """
        if event.triggered:
            if event is self._waking:
                self._waking = None
                self.items.extendleft(reversed(event._value))
                event._value.clear()
                if self._getters and self.items:
                    self._dispatch()
            return
        try:
            self._getters.remove(event)
        except ValueError:
            pass

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

    def _dispatch(self) -> None:
        """Wake the head getter with everything queued (callers check both).

        One hop: the list stays live (see :meth:`put`) until the kernel
        processes the event; later getters stay queued behind it (FIFO).
        """
        getter = self._getters.popleft()
        batch = list(self.items)
        self.items.clear()
        getter.succeed(batch)
        self._waking = getter
