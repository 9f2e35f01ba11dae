"""Volatility (churn) models.

The paper characterises Desktop Grid nodes as *volatile*: they leave without
notice (shutdown, suspend-to-disk, idle-time policies, network stalls) and may
come back minutes or days later, or never.  A churn model answers, for one
node, "how long does it stay up, and once down, how long before it returns?"
The ``inject.churn`` injector consumes these models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Protocol, Sequence

from repro.errors import ConfigurationError
from repro.sim.rng import RandomStreams

__all__ = ["ChurnModel", "ExponentialChurn", "TraceChurn"]


class ChurnModel(Protocol):
    """Protocol implemented by volatility models."""

    def uptime(self, rng: RandomStreams, node: str) -> float:
        """Draw the next continuous up-time duration for ``node`` (seconds)."""
        ...

    def downtime(self, rng: RandomStreams, node: str) -> float:
        """Draw the next down-time duration for ``node`` (seconds).

        ``float('inf')`` means a permanent departure.
        """
        ...


@dataclass
class ExponentialChurn:
    """Memoryless churn: exponential MTBF and MTTR, as assumed in Fig. 7.

    ``permanent_fraction`` of the failures never recover, modelling permanent
    departures ("volatility implies that crashes may be permanent").
    """

    mtbf: float = 600.0
    mttr: float = 30.0
    permanent_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.mtbf <= 0 or self.mttr <= 0:
            raise ConfigurationError("mtbf and mttr must be positive")
        if not 0.0 <= self.permanent_fraction <= 1.0:
            raise ConfigurationError("permanent_fraction must be in [0, 1]")

    def uptime(self, rng: RandomStreams, node: str) -> float:
        return rng.exponential(f"churn.up.{node}", self.mtbf)

    def downtime(self, rng: RandomStreams, node: str) -> float:
        if self.permanent_fraction:
            if float(rng.stream(f"churn.perm.{node}").random()) < self.permanent_fraction:
                return float("inf")
        return rng.exponential(f"churn.down.{node}", self.mttr)


@dataclass
class TraceChurn:
    """Replay explicit (uptime, downtime) pairs from a trace.

    Useful for regression tests (fully deterministic) and for replaying
    availability traces harvested elsewhere.  ``per_node`` overrides the
    shared ``pairs`` for specific nodes; lookups try the full address first
    and then the bare node name (the part after ``:``), so a trace keyed
    ``s000`` applies to host ``server:s000``.

    ``mode`` decides what happens when a node exhausts its trace:

    * ``"wrap"`` — cycle the pairs again from the start (default);
    * ``"clamp"`` — the node departs permanently (infinite final downtime).
    """

    pairs: Sequence[tuple[float, float]] = field(default_factory=lambda: [(3600.0, 60.0)])
    per_node: dict[str, Sequence[tuple[float, float]]] | None = None
    mode: str = "wrap"
    #: one-shot (uptime, downtime) pair emitted before the cyclic pairs; used
    #: by :meth:`from_csv` for traces whose first up-interval starts after 0.
    leads: dict[str, tuple[float, float]] = field(default_factory=dict)
    _cursors: dict[str, Iterator[tuple[float, float]]] = field(default_factory=dict, repr=False)
    _pending_down: dict[str, float] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in ("wrap", "clamp"):
            raise ConfigurationError(f"unknown trace mode {self.mode!r} (wrap or clamp)")
        if not self.pairs and not self.per_node:
            raise ConfigurationError("TraceChurn needs at least one (up, down) pair")
        tables = [("pairs", self.pairs)]
        if self.per_node:
            for node, node_pairs in self.per_node.items():
                if not node_pairs:
                    raise ConfigurationError(f"empty trace for node {node!r}")
                tables.append((node, node_pairs))
        for label, table in tables:
            for up, down in table:
                if up < 0 or down < 0:
                    raise ConfigurationError(
                        f"trace durations must be non-negative ({label})"
                    )

    @classmethod
    def from_csv(cls, path: str, mode: str = "wrap") -> "TraceChurn":
        """Load a trace file of absolute availability intervals.

        One CSV row per interval: ``node,up,down`` — node was up from second
        ``up`` to second ``down``.  ``#`` starts a comment; blank lines are
        skipped.  Intervals per node must be disjoint (touching boundaries
        are fine).  In ``wrap`` mode a node's final downtime equals its first
        interval's start, so the schedule cycles; in ``clamp`` mode the node
        never comes back after its last interval.
        """
        rows: dict[str, list[tuple[float, float]]] = {}
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = [part.strip() for part in line.split(",")]
                if len(parts) != 3:
                    raise ConfigurationError(
                        f"{path}:{lineno}: expected 'node,up,down', got {line!r}"
                    )
                node, up_text, down_text = parts
                try:
                    up, down = float(up_text), float(down_text)
                except ValueError as exc:
                    raise ConfigurationError(
                        f"{path}:{lineno}: non-numeric interval bound"
                    ) from exc
                if up < 0 or down <= up:
                    raise ConfigurationError(
                        f"{path}:{lineno}: interval must satisfy 0 <= up < down"
                    )
                rows.setdefault(node, []).append((up, down))
        if not rows:
            raise ConfigurationError(f"trace file {path} contains no intervals")
        per_node: dict[str, Sequence[tuple[float, float]]] = {}
        leads: dict[str, tuple[float, float]] = {}
        for node, intervals in rows.items():
            intervals.sort()
            for (_, prev_down), (next_up, _) in zip(intervals, intervals[1:]):
                if next_up < prev_down:
                    raise ConfigurationError(
                        f"overlapping availability intervals for node {node!r} in {path}"
                    )
            first_up = intervals[0][0]
            pairs: list[tuple[float, float]] = []
            for index, (up, down) in enumerate(intervals):
                if index + 1 < len(intervals):
                    gap = intervals[index + 1][0] - down
                else:
                    gap = first_up if mode == "wrap" else float("inf")
                pairs.append((down - up, gap))
            if first_up > 0:
                leads[node] = (0.0, first_up)
            per_node[node] = pairs
        return cls(pairs=(), per_node=per_node, mode=mode, leads=leads)

    def _pairs_for(self, node: str) -> Sequence[tuple[float, float]] | None:
        """Pairs for ``node``; ``None`` when a trace does not cover it.

        An uncovered node under a per-node trace simply never churns — a
        harvested trace describes the nodes it observed, not the whole grid.
        """
        if self.per_node:
            for key in (node, node.split(":", 1)[-1]):
                if key in self.per_node:
                    return self.per_node[key]
        return self.pairs or None

    def _lead_for(self, node: str) -> tuple[float, float] | None:
        for key in (node, node.split(":", 1)[-1]):
            if key in self.leads:
                return self.leads[key]
        return None

    def _advance(self, node: str) -> tuple[float, float]:
        cursor = self._cursors.get(node)
        if cursor is None:
            table = self._pairs_for(node)
            pairs = tuple(table) if table is not None else ()
            lead = self._lead_for(node)

            def iterate() -> Iterator[tuple[float, float]]:
                if lead is not None:
                    yield lead
                if pairs and self.mode == "wrap":
                    while True:
                        yield from pairs
                yield from pairs
                while True:
                    yield (float("inf"), float("inf"))

            cursor = iterate()
            self._cursors[node] = cursor
        return next(cursor)

    def uptime(self, rng: RandomStreams, node: str) -> float:
        up, down = self._advance(node)
        self._pending_down[node] = down
        return up

    def downtime(self, rng: RandomStreams, node: str) -> float:
        if node in self._pending_down:
            return self._pending_down.pop(node)
        table = self._pairs_for(node)
        return table[0][1] if table else float("inf")
