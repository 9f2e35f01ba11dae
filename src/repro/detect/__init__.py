"""Unreliable failure detection ("fault suspicion").

On an asynchronous network a fault detector can only *suspect* — the paper is
careful to use "fault suspicion" instead of "fault detection".  RPC-V places a
detector on every component: users suspect clients, every component suspects
the coordinators, and the coordinators suspect the servers.  Detection is
driven by periodic heart-beat signals; a component silent for longer than the
suspicion timeout is (maybe wrongly) assumed to have failed.
"""

from repro.detect.detector import FailureDetector
from repro.detect.emitter import HeartbeatEmitter

__all__ = ["FailureDetector", "HeartbeatEmitter"]
