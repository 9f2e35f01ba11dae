"""Protocol and platform parameter sets.

All tunables of the system are grouped into small frozen-ish dataclasses so a
scenario is fully described by values (no hidden globals), mirroring how the
paper states its experimental settings:

* heart-beat period 5 s, suspicion after 30 s of silence (confined cluster);
* coordinator replication period 60 s (Internet testbed);
* 16 servers, 4 coordinators, 1 client on the confined cluster.

Which *behaviour* runs on each decision axis (scheduling, replication, client
logging, failure detection) is selected in exactly one place,
:class:`PolicyConfig`; the tier configs carry only the numeric tunables every
policy of an axis reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError

__all__ = [
    "FaultDetectionConfig",
    "LoggingConfig",
    "POLICY_AXES",
    "PolicyConfig",
    "ReplicationConfig",
    "ClientConfig",
    "CoordinatorConfig",
    "ServerConfig",
    "ProtocolConfig",
]


@dataclass
class FaultDetectionConfig:
    """Heart-beat based unreliable failure detection parameters."""

    #: period between two heart-beat signals (seconds); 5 s in the paper.
    heartbeat_period: float = 5.0
    #: silence after which a component is suspected (seconds); 30 s in the paper.
    suspicion_timeout: float = 30.0

    def validate(self) -> None:
        if self.heartbeat_period <= 0:
            raise ConfigurationError("heartbeat_period must be positive")
        if self.suspicion_timeout <= self.heartbeat_period:
            raise ConfigurationError(
                "suspicion_timeout must exceed heartbeat_period "
                f"({self.suspicion_timeout} <= {self.heartbeat_period})"
            )


@dataclass
class LoggingConfig:
    """Client-side sender-based message logging parameters."""

    #: capacity of the local log in bytes before garbage collection triggers.
    capacity_bytes: int = 4 * 1024 * 1024 * 1024
    #: fraction of the capacity to free when garbage collection runs.
    gc_target_fraction: float = 0.5

    def validate(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError("capacity_bytes must be positive")
        if not 0.0 < self.gc_target_fraction <= 1.0:
            raise ConfigurationError("gc_target_fraction must be in (0, 1]")


@dataclass
class ReplicationConfig:
    """Passive replication of coordinator state over the virtual ring."""

    #: period between two state propagations to the ring successor (seconds);
    #: 60 s for the Internet testbed, one heart-beat period on the cluster.
    period: float = 60.0

    def validate(self) -> None:
        if self.period <= 0:
            raise ConfigurationError("replication period must be positive")


@dataclass
class ClientConfig:
    """Client component parameters."""

    logging: LoggingConfig = field(default_factory=LoggingConfig)
    detection: FaultDetectionConfig = field(default_factory=FaultDetectionConfig)
    #: period at which the client pulls the coordinator for results (seconds).
    result_poll_period: float = 1.0
    #: how long the client waits for a coordinator reply before re-sending the
    #: request (the coordinator is only *switched* once the suspicion timeout
    #: elapses without hearing anything from it).  README "Requests and
    #: retries" says what a time-out does for each kind of request.
    request_retry: float = 10.0

    def validate(self) -> None:
        self.logging.validate()
        self.detection.validate()
        if self.result_poll_period <= 0:
            raise ConfigurationError("result_poll_period must be positive")
        if self.request_retry <= 0:
            raise ConfigurationError("request_retry must be positive")


@dataclass
class CoordinatorConfig:
    """Coordinator component parameters."""

    replication: ReplicationConfig = field(default_factory=ReplicationConfig)
    detection: FaultDetectionConfig = field(default_factory=FaultDetectionConfig)
    #: fixed middleware processing time charged per request that does work
    #: (job translation, HTTP/serialisation layers of XtremWeb), on top of
    #: the database costs.  This is what produces the paper's ~17 %
    #: infrastructure overhead on the 96x10 s benchmark.  A work request
    #: that nothing is eligible for translates no job and reads only the
    #: in-memory task index, so holding it is not charged it; nor is an
    #: empty server sync.
    request_processing_overhead: float = 0.08

    def validate(self) -> None:
        self.replication.validate()
        self.detection.validate()
        if self.request_processing_overhead < 0:
            raise ConfigurationError(
                "request_processing_overhead must be non-negative"
            )


@dataclass
class ServerConfig:
    """Server (worker) component parameters."""

    detection: FaultDetectionConfig = field(default_factory=FaultDetectionConfig)
    #: how long a coordinator may hold an idle server's work request open
    #: (sent in the request): a NO_WORK ends the hold and the server asks
    #: again at once, so an idle server asks once per period.
    work_poll_period: float = 2.0
    #: how long the server waits for a coordinator reply before re-sending
    #: (README "Requests and retries").
    request_retry: float = 10.0

    def validate(self) -> None:
        self.detection.validate()
        if self.work_poll_period <= 0:
            raise ConfigurationError("work_poll_period must be positive")
        if self.request_retry <= 0:
            raise ConfigurationError("request_retry must be positive")


#: the decision axes a policy is selected on, i.e. the fields of PolicyConfig.
POLICY_AXES = ("scheduler", "replication", "logging", "detection")


@dataclass
class PolicyConfig:
    """Which strategy runs on each decision axis (the ``policy.*`` keys).

    This is the only place a behaviour is selected.  Each entry is a
    registry key / dotted-path string such as ``"policy.sched.random"``, or
    a ``{"name": ..., "params": {...}}`` mapping; the defaults are the
    paper's protocol.  :func:`repro.policies.resolve.make_policy` turns an
    entry into an instance; this class only carries the selection, so it
    stays importable without the policy implementations (which themselves
    import this module — hence the import inside :meth:`validate`).
    """

    #: coordinator scheduling policy (``policy.sched.*``).
    scheduler: Any = "policy.sched.fifo-reschedule"
    #: coordinator replication policy (``policy.repl.*``).
    replication: Any = "policy.repl.passive-periodic"
    #: client logging policy (``policy.log.*``).
    logging: Any = "policy.log.pessimistic-nonblocking"
    #: failure-detection policy (``policy.detect.*``), shared by the
    #: coordinator's server/ring detectors and the server's coordinator
    #: detector.
    detection: Any = "policy.detect.fixed-timeout"

    def validate(self) -> None:
        """Every entry is well-formed and names a resolvable component.

        Nothing is instantiated: parameters are checked at construction
        time, by the component that owns the policy.
        """
        from repro.policies.resolve import resolve_policy

        for axis in POLICY_AXES:
            resolve_policy(axis, getattr(self, axis))


@dataclass
class ProtocolConfig:
    """The full protocol parameter set shared by a scenario."""

    client: ClientConfig = field(default_factory=ClientConfig)
    coordinator: CoordinatorConfig = field(default_factory=CoordinatorConfig)
    server: ServerConfig = field(default_factory=ServerConfig)
    #: the ``policy.*`` selection, one entry per decision axis.
    policy: PolicyConfig = field(default_factory=PolicyConfig)

    def validate(self) -> "ProtocolConfig":
        self.client.validate()
        self.coordinator.validate()
        self.server.validate()
        self.policy.validate()
        return self
