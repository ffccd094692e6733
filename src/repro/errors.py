"""Exception hierarchy shared across the Deceit reproduction.

Errors are grouped by layer: network/transport, ISIS group layer, segment
server (Deceit core), and the NFS envelope.  NFS-visible failures carry an
``nfsstat``-style numeric code so the envelope can answer clients exactly
the way a Sun NFS server would.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# --------------------------------------------------------------------- #
# transport layer
# --------------------------------------------------------------------- #


class NetworkError(ReproError):
    """Base class for simulated-network failures."""


class Unreachable(NetworkError):
    """Destination cannot be reached (crashed node or partition)."""


class RpcTimeout(NetworkError):
    """An RPC did not receive a reply within its timeout."""


# --------------------------------------------------------------------- #
# ISIS layer
# --------------------------------------------------------------------- #


class IsisError(ReproError):
    """Base class for process-group layer failures."""


class NotMember(IsisError):
    """Operation attempted on a group the caller has not joined."""


class GroupNotFound(IsisError):
    """No live member of the named group could be located."""


# --------------------------------------------------------------------- #
# Deceit core (segment server)
# --------------------------------------------------------------------- #


class SegmentError(ReproError):
    """Base class for segment-server failures."""


class NoSuchSegment(SegmentError):
    """Segment handle does not name a live segment (any version)."""


class VersionConflict(SegmentError):
    """Conditional write carried a stale version pair (§5.1).

    The segment-server analogue of an aborted optimistic transaction; the
    caller re-reads and retries.
    """

    def __init__(self, expected, actual):
        super().__init__(f"version conflict: expected {expected}, found {actual}")
        self.expected = expected
        self.actual = actual


class DirOpConflict(SegmentError):
    """A commuting directory operation's precondition failed (§5.1/§5.2).

    Raised by the token holder's authoritative check before the update is
    distributed — the namespace analogue of :class:`VersionConflict`, but
    scoped to one *name* instead of the whole entry table.  ``reason`` is
    one of :data:`REASONS`; the NFS envelope maps it to an nfsstat (or
    re-reads and retries when the caller's expectation merely went stale).

    The message format ``"dirop <reason> on ..."`` is a wire contract:
    forwarded writes carry conflicts back as ``(type, str(exc))`` RPC
    error tuples, and :meth:`from_message` rebuilds the typed exception
    at the forwarder.
    """

    REASONS = frozenset(
        {"exists", "absent", "changed", "notempty", "sealed", "notdir"})

    def __init__(self, reason: str, name: str, detail: str = ""):
        suffix = f" ({detail})" if detail else ""
        super().__init__(f"dirop {reason} on {name!r}{suffix}")
        self.reason = reason
        self.name = name

    @classmethod
    def from_message(cls, message: str) -> "DirOpConflict":
        """Inverse of ``str(exc)`` for RPC-carried conflicts.  An
        unrecognized shape degrades to ``changed`` (retry-and-re-read),
        the one reason that is always safe to act on."""
        words = message.split()
        reason = words[1] if (len(words) > 2 and words[0] == "dirop"
                              and words[1] in cls.REASONS) else "changed"
        return cls(reason, "<forwarded>", message)


class WriteUnavailable(SegmentError):
    """No write token is held or obtainable under the file's availability
    level (§3.5: token disabled or generation inhibited)."""


class ReplicaUnavailable(SegmentError):
    """No replica of the segment is reachable from this server."""


# --------------------------------------------------------------------- #
# NFS envelope
# --------------------------------------------------------------------- #


class NfsStat:
    """Subset of NFS v2 status codes used by the envelope."""

    OK = 0
    ERR_PERM = 1
    ERR_NOENT = 2
    ERR_IO = 5
    #: EBUSY — the admission gate refused the request at the envelope
    #: (repro.obs.admission); agents retry with deterministic backoff
    ERR_BUSY = 16
    ERR_EXIST = 17
    ERR_NOTDIR = 20
    ERR_ISDIR = 21
    ERR_FBIG = 27
    ERR_NOSPC = 28
    ERR_ROFS = 30
    ERR_NAMETOOLONG = 63
    ERR_NOTEMPTY = 66
    ERR_STALE = 70


class NfsError(ReproError):
    """NFS-protocol error carrying an :class:`NfsStat` code."""

    def __init__(self, status: int, message: str = ""):
        super().__init__(message or f"nfs error {status}")
        self.status = status

