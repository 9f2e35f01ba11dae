"""Known-coordinator lists.

Every component is given "a finite list of known coordinators", downloaded at
initialisation from known repositories, updated locally on fault suspicions
and merged periodically at heart-beat receptions.  The registry implements
that list plus the *preferred coordinator* selection rule used by clients and
servers: keep talking to the current preferred coordinator until it is
suspected, then move to the next unsuspected one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import ConfigurationError
from repro.types import Address

__all__ = ["CoordinatorRegistry"]


@dataclass
class CoordinatorRegistry:
    """A component's local view of the coordinator population."""

    coordinators: list[Address] = field(default_factory=list)
    #: coordinators this component currently considers suspect.
    suspected: set[Address] = field(default_factory=set)
    #: index of the preferred coordinator within ``coordinators``.
    _preferred_index: int = 0
    #: ``str(address)`` -> address, filled by :meth:`by_name` on first use.
    _by_name: dict[str, Address] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        seen = set()
        unique = []
        for address in self.coordinators:
            if address not in seen:
                unique.append(address)
                seen.add(address)
        self.coordinators = unique

    # -- list management ---------------------------------------------------------
    def merge(self, others: Iterable[Address]) -> int:
        """Merge coordinator addresses learned from a peer; returns how many were new."""
        added = 0
        for address in others:
            if address not in self.coordinators:
                self.coordinators.append(address)
                added += 1
        return added

    def remove(self, address: Address) -> None:
        """Drop a coordinator from the list entirely (user update)."""
        if address in self.coordinators:
            index = self.coordinators.index(address)
            self.coordinators.remove(address)
            self.suspected.discard(address)
            if index <= self._preferred_index and self._preferred_index > 0:
                self._preferred_index -= 1

    def known(self) -> list[Address]:
        """The current list (copy)."""
        return list(self.coordinators)

    def __len__(self) -> int:
        return len(self.coordinators)

    def __contains__(self, address: Address) -> bool:
        return address in self.coordinators

    def by_name(self, name: str) -> Address | None:
        """The known coordinator whose ``str()`` is ``name`` (None if unknown).

        Task records name their owner by string; the map saves formatting
        every known address per lookup.  A hit is re-checked against the
        list, so no mutation of ``coordinators`` can leave it stale.
        """
        address = self._by_name.get(name)
        if address is None or address not in self.coordinators:
            address = next((c for c in self.coordinators if str(c) == name), None)
            self._by_name[name] = address
        return address

    # -- suspicion ---------------------------------------------------------------
    def suspect(self, address: Address) -> None:
        """Locally mark a coordinator as suspect."""
        if address in self.coordinators:
            self.suspected.add(address)

    def rehabilitate(self, address: Address) -> None:
        """Clear a suspicion (we heard from it again)."""
        self.suspected.discard(address)

    def unsuspected(self) -> list[Address]:
        """Coordinators not currently suspected, in list order."""
        return [a for a in self.coordinators if a not in self.suspected]

    # -- preferred coordinator -----------------------------------------------------
    def preferred(self) -> Address | None:
        """The current preferred coordinator (None when every one is suspected)."""
        if not self.coordinators:
            return None
        current = self.coordinators[self._preferred_index % len(self.coordinators)]
        if current not in self.suspected:
            return current
        return next((a for a in self.coordinators if a not in self.suspected), None)

    def switch_preferred(self, away_from: Address | None = None) -> Address | None:
        """Select another, unsuspected coordinator as the preferred one.

        ``away_from`` (typically the just-suspected coordinator) is marked
        suspect first.  When every coordinator is suspected, suspicion is
        reset (better to retry someone than to stall forever on an
        asynchronous network) and the next coordinator in round-robin order
        is chosen.
        """
        if away_from is not None:
            self.suspect(away_from)
        if not self.coordinators:
            return None
        candidates = self.unsuspected()
        if not candidates:
            # All suspected: forgive and retry round-robin.
            self.suspected.clear()
            self._preferred_index = (self._preferred_index + 1) % len(self.coordinators)
            return self.coordinators[self._preferred_index]
        current = self.coordinators[self._preferred_index % len(self.coordinators)]
        if away_from is None and current in candidates:
            return current
        # Pick the first unsuspected coordinator after the current index.
        n = len(self.coordinators)
        for step in range(1, n + 1):
            candidate = self.coordinators[(self._preferred_index + step) % n]
            if candidate in candidates:
                self._preferred_index = (self._preferred_index + step) % n
                return candidate
        return candidates[0]

    def set_preferred(self, address: Address) -> None:
        """Force the preferred coordinator (builder / scenario control)."""
        if address not in self.coordinators:
            raise ConfigurationError(f"{address} is not in the coordinator list")
        self._preferred_index = self.coordinators.index(address)
        self.suspected.discard(address)

    # -- ring topology (used by coordinators themselves) -----------------------------
    def ring_successor(self, me: Address) -> Address | None:
        """Successor of ``me`` on the virtual ring of unsuspected coordinators.

        Coordinators order the known list by a common total order (their
        string form) and each one propagates its state to the next unsuspected
        entry after itself; the ring is therefore virtual and recomputed at
        every heart-beat.
        """
        successors = self.ring_successors(me, 1)
        return successors[0] if successors else None

    def ring_successors(self, me: Address, k: int) -> list[Address]:
        """Up to ``k`` unsuspected successors of ``me``, in ring order.

        The quorum replication policy pushes state to every returned address;
        ``ring_successors(me, 1)`` is exactly ``[ring_successor(me)]``.
        """
        ordered = sorted(set(self.coordinators) | {me}, key=str)
        if len(ordered) <= 1 or k < 1:
            return []
        start = ordered.index(me)
        n = len(ordered)
        successors: list[Address] = []
        for step in range(1, n):
            candidate = ordered[(start + step) % n]
            if candidate == me:
                continue
            if candidate not in self.suspected:
                successors.append(candidate)
                if len(successors) == k:
                    break
        return successors
