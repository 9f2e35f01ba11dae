"""Registry-resolved protocol strategies (the ``policy.*`` family).

The protocol components own their *mechanisms* — work-request handling,
state-abstract rounds, log records — and delegate the *decisions* to small
strategy objects carved out of them:

* :mod:`repro.policies.scheduling`  — which eligible task answers a server's
  work request (``policy.sched.*``);
* :mod:`repro.policies.replication` — when the coordinator propagates state
  to its ring successor (``policy.repl.*``);
* :mod:`repro.policies.logging`     — when log-record durability may delay a
  client communication (``policy.log.*``);
* :mod:`repro.policies.detection`   — when a silent component tips over into
  suspicion (``policy.detect.*``).

Every policy is registered in the platform registry under its ``policy.*``
key, so scenarios select them by name with plain parameters, as they name
injectors — ``--set policy.scheduler=policy.sched.random`` on the CLI, a
``protocol_overrides`` entry on a spec, or a custom class by dotted path
(see ``examples/custom_policy.py``).  A policy is not a platform component,
though: it never joins a grid, and belongs to the one protocol component
that made it.  The selection lives in
:class:`~repro.config.PolicyConfig` and nowhere else;
:func:`~repro.policies.resolve.make_policy` turns one of its entries into the
instance a protocol component owns.
"""

from repro.policies.base import PolicyBase
from repro.policies.detection import (
    AdaptiveTimeoutDetection,
    DetectionPolicy,
    FixedTimeoutDetection,
    PhiAccrualDetection,
)
from repro.policies.logging import (
    LoggingPolicy,
    OptimisticLogging,
    PessimisticBlockingLogging,
    PessimisticNonBlockingLogging,
)
from repro.policies.replication import (
    NoReplication,
    PassivePeriodicReplication,
    QuorumReplication,
    ReplicationPolicy,
)
from repro.policies.resolve import make_policy
from repro.policies.scheduling import (
    FastestFirstSchedulerPolicy,
    FifoReschedulePolicy,
    RandomSchedulerPolicy,
    RoundRobinSchedulerPolicy,
    SchedulerPolicy,
    SchedulingDecision,
)

__all__ = [
    "AdaptiveTimeoutDetection",
    "DetectionPolicy",
    "FastestFirstSchedulerPolicy",
    "FifoReschedulePolicy",
    "FixedTimeoutDetection",
    "LoggingPolicy",
    "NoReplication",
    "OptimisticLogging",
    "PassivePeriodicReplication",
    "PessimisticBlockingLogging",
    "PessimisticNonBlockingLogging",
    "PhiAccrualDetection",
    "PolicyBase",
    "QuorumReplication",
    "RandomSchedulerPolicy",
    "ReplicationPolicy",
    "RoundRobinSchedulerPolicy",
    "SchedulerPolicy",
    "SchedulingDecision",
    "make_policy",
]
