"""The pluggable component platform.

One lifecycle for everything that takes part in a scenario: components
declare what they need through a :class:`~repro.platform.builder.Builder`
facade during ``setup``, the :class:`~repro.platform.manager.ComponentManager`
owns registration/start/stop ordering, and a string-keyed registry
(:func:`~repro.platform.registry.component`, with a dotted-path fallback)
lets scenario specs name extra components declaratively.  See
:mod:`repro.nodes.faultgen` for the built-in fault injectors,
:mod:`repro.platform.library` for the partition schedule, and
``examples/custom_component.py`` for authoring a new one.
"""

from repro.platform.builder import Builder
from repro.platform.component import BaseComponent, Component
from repro.platform.manager import ComponentManager
from repro.platform.registry import (
    component,
    create_component,
    register_component,
    resolve_component,
)

__all__ = [
    "BaseComponent",
    "Builder",
    "Component",
    "ComponentManager",
    "component",
    "create_component",
    "register_component",
    "resolve_component",
]
