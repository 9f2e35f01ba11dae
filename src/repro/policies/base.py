"""The policy contract shared by every ``policy.*`` strategy.

A *policy* is a small strategy object carved out of a protocol component:
the coordinator's scheduling decisions, its replication cadence, the
client's logging strategy.  Policies are ordinary plugin components — they
satisfy the :class:`~repro.platform.component.Component` protocol and are
registered under ``policy.*`` string keys in the platform registry — so a
scenario selects one exactly like it selects an injector: by name, with
plain JSON-able parameters (``"$param"`` interpolation included).

Unlike injectors, a policy instance belongs to *one* protocol component
(schedulers keep cursors, loggers keep overhead accounting), so the tier
components instantiate their own instance from the configured entry (see
:mod:`repro.policies.resolve`) and :meth:`PolicyBase.bind` it to their
name, RNG streams and monitor at start time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.platform.component import BaseComponent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.monitor import Monitor
    from repro.sim.rng import RandomStreams

__all__ = ["PolicyBase"]


class PolicyBase(BaseComponent):
    """Common trunk of every ``policy.*`` strategy object.

    ``key`` is the registry name the policy is published under; it doubles
    as the prefix of the policy's monitor counters, so a run's counters
    report per-policy activity without knowing any policy by name.
    """

    #: registry key, e.g. ``"policy.sched.fifo-reschedule"``.
    key = "policy.base"

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name or self.key)
        self.owner: str = ""
        self._rng: "RandomStreams | None" = None
        self._monitor: "Monitor | None" = None
        #: short counter name -> pre-resolved Counter handle, so request-path
        #: incrs skip the per-call f-string and by-name registry lookup.
        self._counter_handles: dict[str, Any] = {}

    def bind(
        self,
        owner: str,
        rng: "RandomStreams | None" = None,
        monitor: "Monitor | None" = None,
    ) -> "PolicyBase":
        """Attach the policy to its owning component's substrate.

        ``owner`` is the component's name (used for per-owner RNG streams),
        ``rng`` its host's stream factory, ``monitor`` the shared monitor
        counters land in.  Returns self for chaining.
        """
        self.owner = owner
        self._rng = rng
        self._monitor = monitor
        self._counter_handles = {}
        return self

    def incr(self, counter: str, amount: float = 1.0) -> None:
        """Bump the per-policy monitor counter ``<key>.<counter>``.

        Handles are resolved lazily on first use (never pre-registered, so
        a policy that never bumps a counter never publishes it) and cached
        for every bump after that.
        """
        if self._monitor is None:
            return
        handle = self._counter_handles.get(counter)
        if handle is None:
            handle = self._counter_handles[counter] = self._monitor.counter(
                f"{self.key}.{counter}"
            )
        handle.value += amount

    def stream(self, suffix: str = ""):
        """The policy's deterministic RNG stream (requires a bound RNG)."""
        if self._rng is None:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"policy {self.key!r} needs an RNG but was never bound "
                "(call policy.bind(owner, rng=host.rng) first)"
            )
        name = f"{self.key}.{suffix}" if suffix else self.key
        return self._rng.stream(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.key!r} owner={self.owner!r}>"
