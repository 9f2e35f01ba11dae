"""Module-level scenario registry.

Experiment modules declare their sweeps with the :func:`scenario` decorator
on a zero-argument spec builder::

    @scenario("fig7")
    def _fig7() -> ScenarioSpec:
        return ScenarioSpec(name="fig7", ...)

The decorator builds the spec immediately, registers it under its name and
returns the spec object (so the module keeps a direct handle).  The registry
is populated by importing the defining modules; :func:`load_all` imports every
built-in scenario module (the figure drivers plus the scenario library) and is
called lazily by the lookup helpers, so the CLI and the sweep workers see the
full registry without the defining modules importing each other.
"""

from __future__ import annotations

import importlib
from typing import Callable

from repro.errors import ConfigurationError
from repro.scenarios.spec import ScenarioSpec

__all__ = ["all_scenarios", "get_scenario", "load_all", "register", "scenario"]

_REGISTRY: dict[str, ScenarioSpec] = {}

#: modules whose import registers the built-in scenarios.
_BUILTIN_MODULES: tuple[str, ...] = (
    "repro.experiments",
    "repro.scenarios.library",
    "repro.scenarios.robustness",
    "repro.scenarios.crowd",
)
_loaded = False


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Register ``spec`` under its name; duplicate names are configuration errors."""
    if spec.name in _REGISTRY and _REGISTRY[spec.name] is not spec:
        raise ConfigurationError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def scenario(
    name: str | None = None,
) -> Callable[[Callable[[], ScenarioSpec]], ScenarioSpec]:
    """Decorator: build the spec now, register it, and return the spec."""

    def decorator(builder: Callable[[], ScenarioSpec]) -> ScenarioSpec:
        spec = builder()
        if name is not None and spec.name != name:
            raise ConfigurationError(f"@scenario({name!r}) builds {spec.name!r}")
        return register(spec)

    return decorator


def load_all() -> None:
    """Import every built-in scenario module (idempotent).

    The loaded flag is only set once every import succeeded, so a transient
    import failure surfaces again on the next call instead of leaving the
    registry silently half-populated for the rest of the process.
    """
    global _loaded
    if _loaded:
        return
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
    _loaded = True


def get_scenario(name: str) -> ScenarioSpec:
    """Look up one scenario by name (loading the built-ins first)."""
    load_all()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise ConfigurationError(
            f"unknown scenario {name!r} (registered: {known})"
        ) from None


def all_scenarios() -> dict[str, ScenarioSpec]:
    """Every registered scenario, sorted by name."""
    load_all()
    return dict(sorted(_REGISTRY.items()))
