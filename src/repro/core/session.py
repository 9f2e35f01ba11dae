"""Sessions and call-identity allocation.

"Any client RPC call execution in the system is identified by: the user
unique ID, a session unique ID and a RPC unique ID.  A session corresponds to
the logging of the user into the system."  The session object allocates the
monotonically increasing RPC counter that doubles as the client's message
timestamp — the backbone of the synchronization protocol.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.types import CallIdentity, SessionId, UserId

__all__ = ["Session"]

_SESSION_SEQ = itertools.count(1)


@dataclass
class Session:
    """One login of a user into the system."""

    user: UserId
    session_id: SessionId
    #: next RPC counter value; restored from the durable log on client restart.
    next_counter: int = 1
    _issued: list[int] = field(default_factory=list, repr=False)

    @classmethod
    def open(cls, user: str, label: str | None = None) -> "Session":
        """Open a fresh session for ``user``."""
        suffix = label or f"s{next(_SESSION_SEQ)}"
        return cls(user=str(user), session_id=f"{user}-{suffix}")

    # -- identity allocation --------------------------------------------------------
    def allocate(self) -> CallIdentity:
        """Allocate the identity (and timestamp) of the next RPC call."""
        counter = self.next_counter
        self.next_counter += 1
        self._issued.append(counter)
        return CallIdentity(self.user, self.session_id, counter)

    def restore_counter(self, max_known_timestamp: int) -> None:
        """After a restart, continue numbering strictly after what is known.

        ``max_known_timestamp`` is the maximum of the client's durable log and
        the coordinator's registered timestamp for this session, so identities
        are never reused even if the client lost volatile state.
        """
        if max_known_timestamp + 1 > self.next_counter:
            self.next_counter = max_known_timestamp + 1

    def issued_count(self) -> int:
        """Number of identities allocated in this incarnation."""
        return len(self._issued)
