"""The RPC-V protocol: clients, coordinators, servers and their glue.

This package is the paper's primary contribution — the fault-tolerant RPC
protocol combining a three-tier architecture, sender-based message logging on
every component, unreliable heart-beat fault detectors and passive replication
of the coordinators over a virtual ring.
"""

from repro.core.api import GridRpc
from repro.core.client import ClientComponent, RPCHandle
from repro.core.coordinator import CoordinatorComponent
from repro.core.protocol import (
    CallDescription,
    ResultRecord,
    TASK_DESCRIPTION_BYTES,
    TaskRecord,
)
from repro.core.registry import CoordinatorRegistry
from repro.core.replication import ReplicaState, build_state, merge_state
from repro.core.taskindex import TaskIndex
from repro.core.server import ServerComponent
from repro.core.services import ServiceRegistry, ServiceSpec, default_registry
from repro.core.session import Session
from repro.core.synchronization import (
    ClientSyncPlan,
    ServerSyncPlan,
    merge_max_timestamps,
    plan_client_sync,
    plan_server_sync,
)
from repro.policies.scheduling import SchedulingDecision

__all__ = [
    "CallDescription",
    "ClientComponent",
    "ClientSyncPlan",
    "CoordinatorComponent",
    "CoordinatorRegistry",
    "GridRpc",
    "ReplicaState",
    "ResultRecord",
    "RPCHandle",
    "SchedulingDecision",
    "ServerComponent",
    "ServerSyncPlan",
    "ServiceRegistry",
    "ServiceSpec",
    "Session",
    "TaskIndex",
    "TASK_DESCRIPTION_BYTES",
    "TaskRecord",
    "build_state",
    "default_registry",
    "merge_max_timestamps",
    "merge_state",
    "plan_client_sync",
    "plan_server_sync",
]
