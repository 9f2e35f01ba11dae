"""Discrete-event simulation kernel used by every RPC-V substrate.

The kernel is deliberately small and self-contained (no third-party
dependency): an event queue driven by :class:`~repro.sim.core.Environment`,
generator-based :class:`~repro.sim.core.Process` objects that ``yield``
waitable :class:`~repro.sim.core.Event` instances, plus the few primitives
the protocol runs on (timeouts, the :class:`~repro.sim.core.AnyOf` race and
the :func:`~repro.sim.core.wait_any` fragment, callback-lane timers, kills)
in the process-interaction style of SimPy.  Components receive messages in
delivery callbacks, not in processes (see :mod:`repro.net.transport`).

Every experiment of the paper runs on this kernel in *virtual* time, which is
what makes high-frequency correlated fault injection both possible and
reproducible (the paper itself had to build a dedicated fault generator and a
confined cluster for the same reason).
"""

from repro.sim.core import (
    AnyOf,
    Environment,
    Event,
    Process,
    ProcessKilled,
    SimulationError,
    Timeout,
    TimerHandle,
    WaitOutcome,
    wait_any,
)
from repro.sim.monitor import Counter, Monitor, TimeSeries
from repro.sim.rng import RandomStreams

__all__ = [
    "AnyOf",
    "Counter",
    "Environment",
    "Event",
    "Monitor",
    "Process",
    "ProcessKilled",
    "RandomStreams",
    "SimulationError",
    "TimeSeries",
    "Timeout",
    "TimerHandle",
    "WaitOutcome",
    "wait_any",
]
