"""Wall-clock pacing of a simulation environment.

The driver sleeps (real time) until the environment's next virtual instant
is due, then lets the kernel's one drain loop (:meth:`Environment.run`)
process that instant.  The pacing can be scaled: ``speedup=10`` runs a
60-second scenario in six wall-clock seconds, ``speedup=1`` runs it live.
Because the protocol components never touch the wall clock themselves, the
exact same client/coordinator/server code runs under both the batch simulator
and this driver — the property DESIGN.md calls the "engine-agnostic" design.
"""

from __future__ import annotations

import math
import time
from typing import Callable

from repro.errors import ConfigurationError
from repro.sim.core import Environment

__all__ = ["RealTimeDriver"]


class RealTimeDriver:
    """Runs an :class:`Environment` in (scaled) real time."""

    def __init__(
        self,
        env: Environment,
        speedup: float = 1.0,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if speedup <= 0:
            raise ConfigurationError("speedup must be positive")
        self.env = env
        self.speedup = speedup
        self._sleep = sleep
        self._clock = clock
        self.events_processed = 0

    def run(self, until: float, tick: Callable[[float], None] | None = None) -> int:
        """Run until virtual time ``until``, pacing against the wall clock.

        ``until`` must be finite.  ``tick`` (if given) is called after every
        processed virtual instant with the current virtual time — handy for
        printing live progress.  Returns the number of events processed.
        """
        if not math.isfinite(until):
            raise ConfigurationError(f"until must be a finite virtual time, got {until!r}")
        env = self.env
        start_wall = self._clock()
        start_virtual = env.now
        while True:
            next_at = env.peek()
            if next_at > until:
                # Nothing left before the deadline: wait out the remainder.
                self._pace(start_wall, start_virtual, until)
                if until > env.now:
                    env.run(until=until)
                return self.events_processed
            self._pace(start_wall, start_virtual, next_at)
            processed = env.events_processed
            env.run(until=next_at)
            self.events_processed += env.events_processed - processed
            if tick is not None:
                tick(env.now)

    def _pace(self, start_wall: float, start_virtual: float, target_virtual: float) -> None:
        """Sleep until the wall clock catches up with ``target_virtual``."""
        due_wall = start_wall + (target_virtual - start_virtual) / self.speedup
        remaining = due_wall - self._clock()
        if remaining > 0:
            self._sleep(remaining)
