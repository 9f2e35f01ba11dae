"""RPC-V reproduction: fault-tolerant RPC for Internet connected Desktop Grids.

This package reproduces Djilali et al., *"RPC-V: Toward Fault-Tolerant RPC for
Internet Connected Desktop Grids with Volatile Nodes"* (SC 2004): the
three-tier fault-tolerant RPC protocol (clients / replicated coordinators /
volatile servers), every substrate it needs (discrete-event simulation kernel,
best-effort network, volatile hosts with disk and database cost models,
unreliable failure detectors, sender-based message logging), the workloads of
the paper's evaluation, and one experiment driver per figure.

Quickstart::

    from repro.scenarios import GridTopology, WorkloadSpec, execute_benchmark

    report = execute_benchmark(
        GridTopology(), WorkloadSpec(n_calls=16, exec_time=2.0), horizon=600.0
    )
    print(report.makespan, report.completed)
"""

from repro.config import (
    ClientConfig,
    CoordinatorConfig,
    FaultDetectionConfig,
    LoggingConfig,
    ProtocolConfig,
    ReplicationConfig,
    ServerConfig,
)
from repro.errors import (
    ConfigurationError,
    LogCorruption,
    ProtocolError,
    ReproError,
    RPCError,
    SchedulingError,
    ServiceNotRegistered,
    SessionError,
)
from repro.types import (
    Address,
    CallIdentity,
    ComponentKind,
    LoggingStrategy,
    RPCId,
    RPCStatus,
    SessionId,
    TaskState,
    UserId,
)

__version__ = "1.0.0"

__all__ = [
    "Address",
    "CallIdentity",
    "ClientConfig",
    "ComponentKind",
    "ConfigurationError",
    "CoordinatorConfig",
    "FaultDetectionConfig",
    "LogCorruption",
    "LoggingConfig",
    "LoggingStrategy",
    "ProtocolConfig",
    "ProtocolError",
    "ReplicationConfig",
    "ReproError",
    "RPCError",
    "RPCId",
    "RPCStatus",
    "SchedulingError",
    "ServerConfig",
    "ServiceNotRegistered",
    "SessionError",
    "SessionId",
    "TaskState",
    "UserId",
    "__version__",
]
