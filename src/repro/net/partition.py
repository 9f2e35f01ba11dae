"""Network partitions and forced, inconsistent component views.

Figure 11 of the paper is produced by *hiding* the Lille coordinator from the
servers and forcing the client to only talk to Lille, while the two
coordinators still see each other.  That is not a clean graph cut — it is an
asymmetric visibility restriction — so the partition manager keeps one-way
"hide B from A" rules (inconsistent views); a pair hidden both ways is a cut.
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
        #: whether any rule exists; the transport reads it per message and skips
        #: :meth:`allows` while False.
        self.active = False

    # -- one-way visibility rules -------------------------------------------
    def hide(self, dest: Address, from_source: Address) -> None:
        """Block messages ``from_source`` -> ``dest`` (one-way)."""
        self._blocked.add((from_source, dest))
        self.active = True

    # -- queries ------------------------------------------------------------
    def allows(self, source: Address, dest: Address) -> bool:
        """True if a message from ``source`` to ``dest`` may be delivered."""
        return not self.active or (source, dest) not in self._blocked

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
