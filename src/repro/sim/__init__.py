"""Discrete-event simulation kernel used by every RPC-V substrate.

The kernel is deliberately small and self-contained (no third-party
dependency): an event queue driven by :class:`~repro.sim.core.Environment`,
generator-based :class:`~repro.sim.core.Process` objects that ``yield``
waitable :class:`~repro.sim.core.Event` instances, plus a handful of
conveniences (timeouts, stores, composite conditions, interrupts) modelled
after the classical process-interaction style of SimPy.

Every experiment of the paper runs on this kernel in *virtual* time, which is
what makes high-frequency correlated fault injection both possible and
reproducible (the paper itself had to build a dedicated fault generator and a
confined cluster for the same reason).
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
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
from repro.sim.store import FilterStore, PriorityStore, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Counter",
    "Environment",
    "Event",
    "FilterStore",
    "Interrupt",
    "Monitor",
    "PriorityStore",
    "Process",
    "ProcessKilled",
    "RandomStreams",
    "SimulationError",
    "Store",
    "TimeSeries",
    "Timeout",
    "TimerHandle",
    "WaitOutcome",
    "wait_any",
]
