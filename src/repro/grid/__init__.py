"""Grid assembly: turn a deployment description into a running scenario.

The builders reproduce the paper's two platforms (the confined cluster and
the Internet testbed) as parameter sets over the substrates, wire every
component together, and hand back a :class:`~repro.grid.builder.Grid` object
the experiments drive.
"""

from repro.grid.builder import Grid, build_confined_cluster, build_internet_testbed
from repro.grid.deployment import (
    DeploymentSpec,
    confined_cluster_spec,
    internet_testbed_spec,
)

__all__ = [
    "DeploymentSpec",
    "Grid",
    "build_confined_cluster",
    "build_internet_testbed",
    "confined_cluster_spec",
    "internet_testbed_spec",
]
