"""The pluggable component platform.

One lifecycle for everything that takes part in a scenario: a component's
``setup`` receives the :class:`~repro.grid.builder.Grid` it joins, the grid
starts and stops its components in order, and a string-keyed registry
(:func:`~repro.platform.registry.component`, with a dotted-path fallback)
lets scenario specs name extra components declaratively.  See
:mod:`repro.nodes.faultgen` for the built-in fault injectors,
:mod:`repro.platform.library` for the partition schedule, and
``examples/custom_component.py`` for authoring a new one.
"""

from repro.platform.component import BaseComponent, Component
from repro.platform.registry import (
    component,
    create_component,
    register_component,
    resolve_component,
)

__all__ = [
    "BaseComponent",
    "Component",
    "component",
    "create_component",
    "register_component",
    "resolve_component",
]
