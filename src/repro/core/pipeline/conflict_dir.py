"""ConflictDirectory: the cell-wide well-known conflict file (§3.6).

Wraps the :class:`~repro.core.conflicts.ConflictLog` with its group wiring:
every server joins (or founds) the conflict group at boot, incomparable
version pairs are logged cell-wide, and reconciliation clears them.

Invariants
----------
- Entries are only ever added for majors whose version pairs compared
  INCOMPARABLE (the recovery/merge code is the only producer), and only
  removed by user-level reconciliation — never silently.
- The log is volatile and monotone between resets: replaying the same
  conflict record is idempotent (``ConflictLog.add`` dedups), so at-least-
  once delivery of conflict broadcasts is safe.
- The directory assumes nothing about tokens or versions beyond what the
  caller already established; it is pure bookkeeping plus gossip.
"""

from __future__ import annotations

from repro.core.conflicts import CONFLICT_GROUP, ConflictLog, ConflictRecord
from repro.errors import GroupNotFound
from repro.metrics import Metrics


class ConflictDirectory:
    """Conflict-log service of one segment server."""

    def __init__(self, transport, metrics: Metrics | None = None):
        self.transport = transport
        self.kernel = transport.kernel
        self.metrics = metrics or Metrics()
        self.log = ConflictLog()

    async def join(self) -> None:
        """Join (or found) the cell-wide conflict-log group; call at boot."""
        try:
            await self.transport.join_group(CONFLICT_GROUP)
        except GroupNotFound:
            if not self.transport.is_member(CONFLICT_GROUP):
                self.transport.create_group(CONFLICT_GROUP)

    async def log_conflict(self, sid: str, majors: tuple[int, ...],
                           note: str = "") -> None:
        """Log an incomparable-version event to the well-known file."""
        record = ConflictRecord(sid=sid, majors=tuple(sorted(majors)),
                                logged_at=self.kernel.now, note=note)
        if not self.log.add(record):
            return
        self.metrics.incr("deceit.conflicts_logged")
        if self.transport.is_member(CONFLICT_GROUP):
            await self.broadcast_conflict(record, tag="conflict")

    async def broadcast_conflict(self, record: ConflictRecord, *,
                                 tag: str) -> None:
        """Tell the conflict group about ``record``; :meth:`deliver_conflict`
        is its handler."""
        await self.transport.cbcast(
            CONFLICT_GROUP, {"op": "conflict", "record": record.to_dict()},
            nreplies=0, tag=tag,
        )

    async def log_resolution(self, sid: str) -> None:
        """Propagate the clearing of a segment's conflict entries."""
        self.log.resolve(sid)
        if self.transport.is_member(CONFLICT_GROUP):
            await self.transport.cbcast(
                CONFLICT_GROUP,
                {"op": "conflict_resolved", "sid": sid},
                nreplies=0, tag="conflict",
            )

    async def deliver_conflict(self, src: str, /, record: dict) -> dict:
        """Conflict-group multicast: a member logged a conflict."""
        self.log.add(ConflictRecord.from_dict(record))
        return {"ok": True}

    async def deliver_resolved(self, src: str, /, sid: str) -> dict:
        """Conflict-group multicast: a member reconciled ``sid``."""
        self.log.resolve(sid)
        return {"ok": True}

    def state(self) -> dict:
        return {"conflicts": self.log.state()}

    def load_state(self, state: dict) -> None:
        self.log.load_state(state["conflicts"])

    def reset(self) -> None:
        """Volatile state dies with the host."""
        self.log = ConflictLog()
