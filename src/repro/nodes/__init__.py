"""Volatile node substrate.

Hosts are the machines of the desktop grid: they run protocol components,
crash abruptly (losing all volatile state and every queued message), restart
later — possibly much later, possibly never — and keep only what was written
to their simulated disk.  The package also provides the disk and database
cost models that dominate several of the paper's measurements, the churn
models describing volatility, and the controllable fault injectors (the
``inject.*`` components) used to stress the system far beyond what a real
Internet deployment would allow.
"""

from repro.nodes.churn import ChurnModel, ExponentialChurn, TraceChurn
from repro.nodes.database import Database, DatabaseModel
from repro.nodes.disk import DiskModel
from repro.nodes.faultgen import FaultGenerator, FaultScript
from repro.nodes.node import Host

__all__ = [
    "ChurnModel",
    "Database",
    "DatabaseModel",
    "DiskModel",
    "ExponentialChurn",
    "FaultGenerator",
    "FaultScript",
    "Host",
    "TraceChurn",
]
