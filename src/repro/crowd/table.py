"""The crowd population table: struct-of-arrays client state in numpy.

One :class:`CrowdTable` holds the session state of the whole crowd as
parallel columns (the vivarium population-table pattern): instead of one
Python object and one generator process per client, every per-tick decision
— who is due to submit, who joins the next batch, who completes — is an
array operation.  That is what moves the per-client ceiling from ~10k
full-protocol nodes to 100k-1M statistical clients.

Columns
=======

``state``   int8   lifecycle: IDLE -> PENDING -> INFLIGHT -> DONE
``_order``  int32  client ids sorted by due time (ties break by id)
``_times``  f64    the due times in that order

13 bytes per client, plus ``_cursor`` (every slot before it has been
promoted) and ``_pending`` (int32 ids in PENDING, ascending).  A due time is
``now + think_window * u``, ``u`` mixed by the splitmix64 finalizer out of one
uint64 lane per client, drawn from the ``crn.crowd`` stream at build and then
dropped, so think times are identical across paired-CRN sweep arms.  The
build draws the lanes twice, in 64 Ki chunks, from one saved stream state:
once to sort one uint64 key per client in place (the top bits of its due
time above its id), once for the due times, which are then sorted in place.
Each run of clients whose keys tie on the kept bits is re-sorted by (time,
id), so the schedule is the stable argsort of the due times.  Batch
ids, deadlines and resend counts live once per batch in the
:class:`~repro.crowd.component.CrowdComponent`.

The schedule
============

Clients are indexed by when they become due instead of being rediscovered by
a scan of the population at every clock step.  One invariant carries every
method: each IDLE client sits at or after the cursor, at its own due time.
The costs that follow (n clients, k newly due, p pending, t unpromoted):

===============  ====================  ======================================
``due``          O(log n + k)          one ``searchsorted`` past the cursor
``claim``        O(log p + claimed)    two ``searchsorted`` into ``_pending``
``queue_depth``  O(1)                  a counter moved by ``due``/``mark_done``
``mark_done``    O(ids)                gather and scatter on ``state``
``surge``        O(t), once            rewrite the tail in place, count IDLE
``counts``       O(n), per report      ``count_nonzero`` of a 1 B/client mask
build            O(n log n), once      in-place sorts; peaks at ~13 B/client
===============  ====================  ======================================

The table is deliberately free of any messaging or scheduling logic: the
component decides *when* to call these methods and *where* the resulting
batches go.
"""

from __future__ import annotations

import bisect
import copy

import numpy as np

__all__ = ["CrowdTable", "IDLE", "PENDING", "INFLIGHT", "DONE", "id_ranges"]

#: lifecycle states of the ``state`` column.
IDLE, PENDING, INFLIGHT, DONE = 0, 1, 2, 3

#: splitmix64 mixing constants (public domain; the standard finalizer).
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MIX2 = np.uint64(0x94D049BB133111EB)
#: clients per lane draw while building: bounds the build's temporaries.
_CHUNK = 1 << 16


def id_ranges(ids: np.ndarray) -> int:
    """Number of maximal contiguous runs in the (sorted, unique) ``ids``.

    Batched envelopes carry their member ids as ranges; this is the honest
    wire-size term (``12 bytes * ranges``) of one batch.
    """
    if ids.size == 0:
        return 0
    return int(np.count_nonzero(np.diff(ids) > 1)) + 1


def _due_chunks(source: np.random.Generator, n: int, window: float, now: float):
    """Yield ``(first id, due times)`` for the next ``n`` lanes, 64 Ki at a time.

    The same IEEE steps as ``now + window * u(lane, 1)``, so bit-identical
    times: each lane is mixed in place by the splitmix64 finalizer and its
    top 53 bits are ``u``.
    """
    for start in range(0, n, _CHUNK):
        z = source.integers(
            0, np.iinfo(np.uint64).max, size=min(_CHUNK, n - start),
            dtype=np.uint64, endpoint=False,
        )
        scratch = np.empty_like(z)
        z += _SM_GAMMA
        z ^= np.right_shift(z, np.uint64(30), out=scratch)
        z *= _SM_MIX1
        z ^= np.right_shift(z, np.uint64(27), out=scratch)
        z *= _SM_MIX2
        z ^= np.right_shift(z, np.uint64(31), out=scratch)
        del scratch
        z >>= np.uint64(11)
        due = z.astype(np.float64)
        del z
        due *= 2.0**-53
        due *= window
        due += now
        yield start, due


def _ordered_bits(due: np.ndarray) -> np.ndarray:
    """``due``'s bits, remapped in place to sort as the times do (IEEE order)."""
    bits = due.view(np.uint64)
    bits ^= (bits >> np.uint64(63)) * np.uint64(2**63 - 1) | np.uint64(2**63)
    return bits


def _schedule(
    source: np.random.Generator, n: int, window: float, now: float
) -> tuple[np.ndarray, np.ndarray]:
    """Client ids sorted by due time, ties by id, and the due times in order.

    The build's only draw from ``source`` (so paired-CRN arms stay in
    lockstep): the lanes are drawn a second time from a copy of its state,
    so the stream ends where one draw of ``n`` lanes leaves it.
    """
    replay = copy.deepcopy(source)
    # One key per client, sorted in place: the top bits of its due time
    # above its id, so equal times break by id.
    id_bits = (n - 1).bit_length()
    shift = np.uint64(id_bits)
    key = np.empty(n, dtype=np.uint64)
    for start, due in _due_chunks(source, n, window, now):
        bits = _ordered_bits(due)
        bits >>= shift
        bits <<= shift
        bits |= np.arange(start, start + bits.size, dtype=np.uint64)
        key[start : start + bits.size] = bits
    key.sort()
    key &= (np.uint64(1) << shift) - np.uint64(1)
    order = key.astype(np.int32)
    del key
    times = np.empty(n, dtype=np.float64)
    for start, due in _due_chunks(replay, n, window, now):
        times[start : start + due.size] = due

    def run_of(slot: int) -> int:
        return int(_ordered_bits(times[order[slot : slot + 1]])[0]) >> id_bits

    # Only clients whose keys tie on the kept bits can be out of time order,
    # and their slots form one run (the kept bits only rise along the
    # order): re-sort each run that holds an inversion by (time, id).
    done = 0
    for start in range(0, n - 1, _CHUNK):
        due = times[order[start : start + _CHUNK + 1]]
        for slot in (np.flatnonzero(due[:-1] > due[1:]) + start).tolist():
            if slot < done:
                continue
            run = run_of(slot)
            lo = bisect.bisect_left(range(n), run, 0, slot, key=run_of)
            done = bisect.bisect_right(range(n), run, slot + 1, n, key=run_of)
            ids = order[lo:done]
            order[lo:done] = ids[np.lexsort((ids, times[ids]))]
    times.sort()
    return order, times


class CrowdTable:
    """Struct-of-arrays state of ``n_clients`` statistical clients."""

    def __init__(
        self,
        n_clients: int,
        lane_source: np.random.Generator,
        think_window: float,
        now: float = 0.0,
    ) -> None:
        n = int(n_clients)
        if n <= 0:
            raise ValueError("a crowd needs at least one client")
        if n > np.iinfo(np.int32).max:
            raise ValueError("a crowd table indexes clients with int32")
        if not (np.isfinite(think_window) and think_window > 0):
            raise ValueError("think_window must be positive and finite")
        if not np.isfinite(now):
            raise ValueError("now must be finite")
        self.n_clients = n
        self.think_window = float(think_window)
        self.state = np.zeros(n, dtype=np.int8)
        self._order, self._times = _schedule(lane_source, n, self.think_window, now)
        self._cursor = 0
        #: ids in PENDING, ascending: promoted by ``due``, not yet claimed.
        self._pending = np.empty(0, dtype=np.int32)
        #: clients in PENDING or INFLIGHT.
        self._queued = 0
        #: clients completed exactly once (transitions into DONE).
        self.completed = 0
        #: completion notifications for already-DONE clients.
        self.duplicate_completions = 0

    # ------------------------------------------------------------ lifecycle
    def _first_slot_after(self, now: float) -> int:
        """First unpromoted schedule slot whose due time is later than ``now``.

        Only the tail is searched: a surge at a time before the last
        promotion leaves the tail sorted but no longer above the prefix.
        """
        cursor = self._cursor
        return cursor + int(np.searchsorted(self._times[cursor:], now, side="right"))

    def due(self, now: float) -> int:
        """Promote every IDLE client whose submit time has passed to PENDING."""
        start = self._cursor
        end = self._first_slot_after(now)
        if end == start:
            return 0
        self._cursor = end
        ids = self._order[start:end]
        # A slot can hold a client completed before it was ever due.
        ids = ids[self.state[ids] == IDLE]
        count = int(ids.size)
        if count:
            self.state[ids] = PENDING
            self._queued += count
            merged = np.concatenate((self._pending, ids))
            merged.sort()
            self._pending = merged
        return count

    def claim(self, lo: int, hi: int) -> np.ndarray:
        """Move every PENDING client in ``[lo, hi)`` in flight, as one batch.

        Returns the claimed client ids (sorted ascending; possibly empty).
        """
        pending = self._pending
        first, last = np.searchsorted(pending, (lo, hi))
        ids = pending[first:last]
        if ids.size:
            self._pending = np.concatenate((pending[:first], pending[last:]))
            # A pending client can have been completed before its claim.
            ids = ids[self.state[ids] == PENDING]
            self.state[ids] = INFLIGHT
        return ids

    def mark_done(self, ids: np.ndarray) -> int:
        """Complete ``ids``; returns how many were *newly* completed.

        ``ids`` holds no repeats (one batch's members).
        """
        if not ids.size:
            return 0
        before = self.state[ids]
        new = int(np.count_nonzero(before != DONE))
        self._queued -= int(
            np.count_nonzero((before == PENDING) | (before == INFLIGHT))
        )
        self.state[ids] = DONE
        self.completed += new
        self.duplicate_completions += int(ids.size) - new
        return new

    def surge(self, now: float, factor: float) -> int:
        """Compress every future submit time toward ``now`` by ``factor``.

        The flash-crowd event: clients that would have trickled in over the
        remaining window all become due within ``remaining / factor`` — a
        sudden ``factor``-times submit-rate spike with the *same* relative
        arrival order (so paired sweep arms stay comparable).  Returns how
        many clients were accelerated.
        """
        if factor <= 1.0:
            return 0
        start = self._first_slot_after(now)
        # now + (t - now) / factor, in place.  It is monotone under IEEE
        # rounding and never lands below ``now``, so the tail stays sorted
        # and the schedule order needs no rebuild.
        times = self._times[start:]
        times -= now
        times /= factor
        times += now
        return int(np.count_nonzero(self.state[self._order[start:]] == IDLE))

    # ----------------------------------------------------------- reporting
    def counts(self) -> dict[str, int]:
        """Population per lifecycle state."""
        # One state at a time through a 1 B/client mask: ``bincount`` would
        # cast the int8 column to an 8 B/client copy first.
        state = self.state
        return {
            "idle": int(np.count_nonzero(state == IDLE)),
            "pending": int(np.count_nonzero(state == PENDING)),
            "inflight": int(np.count_nonzero(state == INFLIGHT)),
            "done": int(np.count_nonzero(state == DONE)),
        }

    def queue_depth(self) -> int:
        """Clients submitted (or due) but not yet completed."""
        return self._queued
