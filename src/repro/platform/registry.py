"""String-keyed component plugin registry.

Scenario specs name extra components declaratively — ``{"name":
"inject.churn", "params": {...}}`` — and this registry turns the name into a
component instance.  Two resolution paths:

* **registered names** — a factory (usually a component class) registered
  with the :func:`component` decorator::

      @component("net.partition-schedule")
      class PartitionSchedule(BaseComponent): ...

  Built-in names live in :mod:`repro.platform.library`,
  :mod:`repro.nodes.faultgen` (the ``inject.*`` fault injectors) and the
  policy / crowd modules, and are imported lazily by the lookup helpers,
  mirroring the scenario registry.

* **dotted-path fallback** — any name containing a dot that is not
  registered is treated as an import path, ``pkg.module:Attr`` or
  ``pkg.module.Attr``, so one-off components ship with an experiment
  without touching this package.
"""

from __future__ import annotations

import functools
import importlib
from typing import Any, Callable, Mapping

from repro.errors import ConfigurationError
from repro.platform.component import Component, missing_component_attrs

__all__ = [
    "component",
    "create_component",
    "register_component",
    "resolve_component",
]

#: name -> factory returning a Component when called with the entry's params.
_REGISTRY: dict[str, Callable[..., Component]] = {}

#: modules whose import registers the built-in components.
_BUILTIN_MODULES: tuple[str, ...] = (
    "repro.platform.library",
    "repro.nodes.faultgen",
    "repro.policies.scheduling",
    "repro.policies.replication",
    "repro.policies.logging",
    "repro.crowd.component",
)
_loaded = False


def _load_builtins() -> None:
    global _loaded
    if _loaded:
        return
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
    _loaded = True


def register_component(
    name: str, factory: Callable[..., Component], replace: bool = False
) -> Callable[..., Component]:
    """Register ``factory`` under ``name``; duplicates are configuration errors."""
    if not name:
        raise ConfigurationError("component name must be non-empty")
    if not replace and name in _REGISTRY and _REGISTRY[name] is not factory:
        raise ConfigurationError(f"component {name!r} is already registered")
    _REGISTRY[name] = factory
    resolve_component.cache_clear()
    return factory


def component(
    name: str, replace: bool = False
) -> Callable[[Callable[..., Component]], Callable[..., Component]]:
    """Decorator registering a component class (or factory) under ``name``."""

    def decorator(factory: Callable[..., Component]) -> Callable[..., Component]:
        return register_component(name, factory, replace=replace)

    return decorator


@functools.cache
def resolve_component(name: str) -> Callable[..., Component]:
    """Name -> factory: the registry first, then the dotted-path fallback.

    Remembered per name (protocol components resolve their policies on every
    restart); any registration forgets every answer, and a failed lookup is
    never remembered.
    """
    _load_builtins()
    factory = _REGISTRY.get(name)
    if factory is not None:
        return factory
    if "." in name or ":" in name:
        imported = _import_path(name)
        if imported is not None:
            return imported
    known = ", ".join(sorted(_REGISTRY)) or "<none>"
    raise ConfigurationError(
        f"unknown component {name!r} (registered: {known}; dotted import "
        "paths like 'pkg.module:Class' also work)"
    )


def _import_path(path: str) -> Callable[..., Component] | None:
    """Import ``pkg.module:Attr`` or ``pkg.module.Attr``; None when absent."""
    if ":" in path:
        module_name, _, attr = path.partition(":")
        candidates = [(module_name, attr)]
    else:
        parts = path.split(".")
        # Try the longest module prefix first: 'a.b.C' -> ('a.b', 'C'),
        # then ('a', 'b.C') — attribute chains are resolved below.
        candidates = [
            (".".join(parts[:split]), ".".join(parts[split:]))
            for split in range(len(parts) - 1, 0, -1)
        ]
    for module_name, attr_path in candidates:
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError as error:
            # Only swallow "this candidate module does not exist"; a missing
            # dependency *inside* an existing module must surface with its
            # real traceback, not as "unknown component".
            missing = error.name or ""
            if module_name == missing or module_name.startswith(missing + "."):
                continue
            raise
        target: Any = module
        try:
            for attr in attr_path.split("."):
                target = getattr(target, attr)
        except AttributeError:
            continue
        if callable(target):
            return target
    return None


def create_component(
    name: str, params: Mapping[str, Any] | None = None
) -> Component:
    """Instantiate the component registered (or importable) as ``name``."""
    factory = resolve_component(name)
    try:
        instance = factory(**dict(params or {}))
    except TypeError as error:
        raise ConfigurationError(
            f"component {name!r} rejected its parameters: {error}"
        ) from None
    missing = missing_component_attrs(instance)
    if missing:
        raise ConfigurationError(
            f"component {name!r} resolved to {type(instance).__name__}, "
            f"which does not satisfy the Component protocol "
            f"(missing: {', '.join(missing)})"
        )
    return instance
