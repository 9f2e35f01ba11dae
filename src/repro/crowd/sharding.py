"""Task-id-space sharding across coordinators, with ring-successor handoff.

The crowd partitions its client-id space into contiguous blocks, one per
coordinator, so each coordinator owns a bounded slice of the aggregate
submit traffic.  The coordinator order is the **same total order the
coordinators' own virtual ring uses** (:meth:`CoordinatorRegistry.ring_successor`
sorts the known list by string form), so "hand a dead shard to its ring
successor" means exactly what it means on the replication ring: the next
unsuspected coordinator in string order.  Handoff is therefore deterministic
— every component that knows the coordinator list and the suspicion set
computes the same owner, with no coordination round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable

from repro.errors import ConfigurationError
from repro.types import Address

__all__ = ["ShardMap"]


@dataclass(frozen=True)
class ShardMap:
    """Contiguous block partition of ``n_clients`` ids over the coordinators.

    Shard *i* is primarily owned by the *i*-th coordinator in ring (string)
    order; :meth:`owner` walks forward around the ring past suspected
    coordinators, which is the deterministic handoff rule.
    """

    #: coordinators in ring order (sorted by string form, like the
    #: replication ring of :class:`~repro.core.registry.CoordinatorRegistry`).
    coordinators: tuple[Address, ...]
    n_clients: int

    @classmethod
    def over(cls, coordinators: Iterable[Address], n_clients: int) -> "ShardMap":
        """Build the map over ``coordinators`` (deduplicated, ring-ordered)."""
        ordered = tuple(sorted(set(coordinators), key=str))
        if not ordered:
            raise ConfigurationError("a shard map needs at least one coordinator")
        if n_clients < 0:
            raise ConfigurationError("n_clients must be non-negative")
        return cls(coordinators=ordered, n_clients=int(n_clients))

    @property
    def shard_count(self) -> int:
        """One shard per coordinator."""
        return len(self.coordinators)

    def shard_bounds(self, shard: int) -> tuple[int, int]:
        """Half-open id range ``[lo, hi)`` of ``shard``.

        Blocks differ in size by at most one; the first ``n_clients % k``
        shards take the extra id.
        """
        k = self.shard_count
        if not 0 <= shard < k:
            raise ConfigurationError(f"shard {shard} out of range (k={k})")
        size, extra = divmod(self.n_clients, k)
        lo = shard * size + min(shard, extra)
        hi = lo + size + (1 if shard < extra else 0)
        return lo, hi

    def owner(
        self, shard: int, suspected: Collection[Address] = ()
    ) -> Address | None:
        """Current owner of ``shard``: the primary, or its ring successor.

        Walks forward around the ring from the primary, skipping suspected
        coordinators — the same rule the coordinators themselves use to pick
        a replication successor, so a shard whose primary is suspected lands
        exactly on the coordinator that holds the primary's replicated
        state.  ``None`` when every coordinator is suspected.
        """
        k = self.shard_count
        for step in range(k):
            candidate = self.coordinators[(shard + step) % k]
            if candidate not in suspected:
                return candidate
        return None
