"""Network partitions and forced, inconsistent component views.

Figure 11 of the paper is produced by *hiding* the Lille coordinator from the
servers and forcing the client to only talk to Lille, while the two
coordinators still see each other.  That is not a clean graph cut — it is an
asymmetric visibility restriction — so the partition manager supports both:

* symmetric partitions between groups of addresses (classic split-brain), and
* one-way "hide B from A" rules (inconsistent views).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.types import Address

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["PartitionManager"]


class PartitionManager:
    """Decides whether a message from ``source`` can reach ``dest``."""

    def __init__(self) -> None:
        #: pairs (a, b) such that messages a -> b are blocked.
        self._blocked: set[tuple[Address, Address]] = set()
        #: named symmetric partitions: name -> (group_a, group_b)
        self._partitions: dict[str, tuple[frozenset[Address], frozenset[Address]]] = {}
        #: whether any rule exists; the transport reads it per message and skips
        #: :meth:`allows` while False, so every mutator below keeps it current.
        self.active = False

    # -- one-way visibility rules -------------------------------------------
    def hide(self, dest: Address, from_source: Address) -> None:
        """Block messages ``from_source`` -> ``dest`` (one-way)."""
        self._blocked.add((from_source, dest))
        self.active = True

    def unhide(self, dest: Address, from_source: Address) -> None:
        """Remove a one-way block if present."""
        self._blocked.discard((from_source, dest))
        self.active = bool(self._blocked or self._partitions)

    def hide_bidirectional(self, a: Address, b: Address) -> None:
        """Block messages in both directions between ``a`` and ``b``."""
        self.hide(a, from_source=b)
        self.hide(b, from_source=a)

    def unhide_bidirectional(self, a: Address, b: Address) -> None:
        """Remove a bidirectional block if present."""
        self.unhide(a, from_source=b)
        self.unhide(b, from_source=a)

    # -- symmetric group partitions -------------------------------------------
    def partition(
        self, name: str, group_a: Iterable[Address], group_b: Iterable[Address]
    ) -> None:
        """Install a named symmetric partition between two groups."""
        self._partitions[name] = (frozenset(group_a), frozenset(group_b))
        self.active = True

    def heal(self, name: str) -> None:
        """Remove a named partition (no-op if absent)."""
        self._partitions.pop(name, None)
        self.active = bool(self._blocked or self._partitions)

    def heal_all(self) -> None:
        """Remove every partition and every one-way rule."""
        self._partitions.clear()
        self._blocked.clear()
        self.active = False

    # -- queries ------------------------------------------------------------
    def allows(self, source: Address, dest: Address) -> bool:
        """True if a message from ``source`` to ``dest`` may be delivered."""
        if not self.active:
            return True
        if (source, dest) in self._blocked:
            return False
        for group_a, group_b in self._partitions.values():
            if (source in group_a and dest in group_b) or (
                source in group_b and dest in group_a
            ):
                return False
        return True

    def reachability_graph(self, addresses: Iterable[Address]) -> "nx.DiGraph":
        """Directed graph of who can currently send to whom.

        Used by tests and by the progress-condition checker: the paper's
        guarantee is that the application progresses as long as there is a
        path client -> coordinator -> ... -> server in this graph (restricted
        to live nodes).  networkx is imported here, on first use, so runs
        that never ask for reachability do not load it.
        """
        import networkx as nx

        graph = nx.DiGraph()
        nodes = list(addresses)
        graph.add_nodes_from(nodes)
        for source in nodes:
            for dest in nodes:
                if source is dest:
                    continue
                if self.allows(source, dest):
                    graph.add_edge(source, dest)
        return graph
