"""Local disk cost model.

The client-side message-logging comparison of Figure 4 is entirely a story
about disk behaviour: blocking pessimistic logging pays a synchronous write
before each communication (≈ +30 %), non-blocking pessimistic logging pays a
small, *variable* overhead attributed to "disc cache management", and
optimistic logging runs at low priority and costs almost nothing.  The model
therefore distinguishes synchronous writes, cache-assisted writes and
background writes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.rng import jitter_factor

__all__ = ["DiskModel"]


@dataclass
class DiskModel:
    """Per-operation timing model of a commodity IDE disk (2004 vintage)."""

    #: fixed cost of a synchronous write (seek + rotational latency), seconds.
    write_latency: float = 0.008
    #: sustained write bandwidth, bytes per second (~35 MB/s IDE).
    write_bandwidth_bps: float = 35e6
    #: fixed cost of a read, seconds.
    read_latency: float = 0.006
    #: sustained read bandwidth, bytes per second.
    read_bandwidth_bps: float = 40e6
    #: portion of a cache-assisted (non-blocking pessimistic) write that must
    #: still be paid synchronously before the communication may complete.
    cache_sync_fraction: float = 0.25
    #: relative jitter on cache-assisted writes ("disc cache management" makes
    #: the overhead small *and variable* in the paper).
    cache_jitter: float = 0.6
    #: fraction of a background (optimistic) write that steals foreground time
    #: (runs at low priority, hence "negligible overhead").
    background_foreground_fraction: float = 0.02

    def __post_init__(self) -> None:
        if self.write_bandwidth_bps <= 0 or self.read_bandwidth_bps <= 0:
            raise ConfigurationError("disk bandwidth must be positive")
        if not 0 <= self.cache_sync_fraction <= 1:
            raise ConfigurationError("cache_sync_fraction must be in [0, 1]")
        if not 0 <= self.background_foreground_fraction <= 1:
            raise ConfigurationError(
                "background_foreground_fraction must be in [0, 1]"
            )

    # -- raw costs -------------------------------------------------------------
    def sync_write_time(self, size_bytes: int) -> float:
        """Full cost of a synchronous (blocking) write of ``size_bytes``."""
        return self.write_latency + size_bytes / self.write_bandwidth_bps

    def read_time(self, size_bytes: int) -> float:
        """Cost of reading ``size_bytes`` back from disk."""
        return self.read_latency + size_bytes / self.read_bandwidth_bps

    def cached_write_sync_time(
        self, size_bytes: int, rng: np.random.Generator | None = None
    ) -> float:
        """Synchronous part of a cache-assisted write (non-blocking pessimistic).

        The remainder of the write completes in the background; only this
        fraction delays the communication.  Jitter models cache flush
        interference.
        """
        base = self.sync_write_time(size_bytes) * self.cache_sync_fraction
        if rng is not None and self.cache_jitter:
            base *= jitter_factor(rng, self.cache_jitter)
            base = max(base, 0.0)
        return base

    def background_write_foreground_time(self, size_bytes: int) -> float:
        """Foreground time stolen by a low-priority background write."""
        return self.sync_write_time(size_bytes) * self.background_foreground_fraction

    def background_write_completion_time(self, size_bytes: int) -> float:
        """Time until a background write is actually durable on the platter."""
        # Low-priority IO completes noticeably later than a dedicated write.
        return 2.0 * self.sync_write_time(size_bytes)
