"""Per-layer attribution of a profiled run (``cProfile``; no edits to ``src/``).

A span is one function activation.  A layer's self time is the self time of
its functions; self time of stdlib, numpy and builtin frames is handed to the
nearest ``src/repro`` caller, so what is left in ``other`` is only the
benchmark's own frames and the profiler.
"""

from __future__ import annotations

import cProfile
import pstats

__all__ = ["LAYERS", "layer_of", "attribute"]

#: layer -> path prefixes under ``src/repro/``; first match wins, anything
#: else under ``repro/`` (scenarios, experiments, workloads, analysis,
#: baselines, runtime, top-level modules) is ``scenarios``.
_PREFIXES = (
    ("sim", ("sim/",)),
    ("net", ("net/",)),
    ("core.client", ("core/client.py", "core/api.py")),
    ("core.server", ("core/server.py",)),
    ("core.replication", ("core/replication.py", "core/protocol.py")),
    ("core.coordinator", ("core/",)),
    ("policies", ("policies/",)),
    ("detect", ("detect/",)),
    ("msglog", ("msglog/",)),
    ("nodes", ("nodes/",)),
    ("crowd", ("crowd/",)),
    ("grid", ("grid/", "platform/")),
)
LAYERS = tuple(name for name, _ in _PREFIXES) + ("scenarios",)

_ROOT = "/src/repro/"
#: callers a non-repro frame's self time is handed up through before it is
#: given up as ``other`` (numpy and stdlib chains are a few frames deep).
_MAX_HOPS = 16


def layer_of(filename: str) -> str | None:
    """The layer owning ``filename``, or ``None`` outside ``src/repro``."""
    at = filename.rfind(_ROOT)
    if at < 0 or not filename.endswith(".py"):
        return None
    relative = filename[at + len(_ROOT):]
    for name, prefixes in _PREFIXES:
        if relative.startswith(prefixes):
            return name
    return "scenarios"


def attribute(profile: cProfile.Profile) -> tuple[dict[str, dict[str, float]], float]:
    """Split the profile's self time over the layers.

    Returns ``({layer: {"self_s", "calls"}}, other_s)``.  ``calls`` counts
    activations of the layer's own functions only.
    """
    stats = pstats.Stats(profile).stats
    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    pending: dict[tuple, float] = {}
    for func, (_cc, ncalls, self_s, _ct, _callers) in stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            layers[layer]["self_s"] += self_s
            layers[layer]["calls"] += ncalls
        elif self_s:
            pending[func] = self_s

    other = 0.0
    # A caller edge is (ncalls, primitive calls, self time, cumulative time)
    # of the callee under that caller.  The first hop splits a frame's self
    # time exactly (edge self time); later hops split what a non-repro caller
    # was handed by the cumulative time of its own caller edges.
    weight = 2
    for _ in range(_MAX_HOPS):
        handed: dict[tuple, float] = {}
        for func, seconds in pending.items():
            callers = stats[func][4]
            total = sum(edge[weight] for edge in callers.values())
            if total <= 0.0:
                other += seconds
                continue
            for caller, edge in callers.items():
                share = seconds * edge[weight] / total
                layer = layer_of(caller[0])
                if layer is not None:
                    layers[layer]["self_s"] += share
                elif share:
                    handed[caller] = handed.get(caller, 0.0) + share
        pending = handed
        weight = 3
        if not pending:
            break
    return layers, other + sum(pending.values())
