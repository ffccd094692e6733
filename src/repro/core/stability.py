"""Stability notification: global one-copy serializability (§3.4, §3.6).

Before a file is modified, every member of its file group is told the file
is *unstable*; all available replicas must acknowledge before any update
is visible.  The mark rides the first update of a burst (as §3.3's
optimization 1 lets the first update ride the token request): each member
marks and applies in one delivery, recording both in one synchronous
persist, and the holder waits for every member's answer — the ack
condition of the separate mark round this replaces — while holding its
own reads of the file until the round completes, so no reader gets the
new version while another member still serves the old one as stable
(:mod:`repro.core.pipeline.update`).  While unstable, reads are forwarded
to the token holder — its replica is, in effect, the primary — so all
clients see updates simultaneously even though replica propagation is
asynchronous.  After a short period with no write activity the token
holder marks the file stable again; this end-of-burst mark, and the
all-member wait of the burst head, are what notification still costs.

The failure half (§3.6): if the token holder dies mid-stream, surviving
replicas may be mutually inconsistent, but they are all *marked unstable* —
so a read hitting an unstable replica whose token holder is unreachable
triggers recovery: broadcast for replica states, forward to any stable
replica, or force the most up-to-date unstable replica stable and destroy
the obsolete ones.
"""

from __future__ import annotations

from repro.core.pipeline.catalog import group_of
from repro.core.versions import VersionPair
from repro.errors import ReplicaUnavailable

STABILITY_ACK_TIMEOUT_MS = 300.0
#: Quiet period after the last write before the holder re-marks stable.
STABLE_QUIET_MS = 200.0


class StabilityMixin:
    """Stability-notification half of the segment server.

    Expects the host class to hold this state: ``proc``, ``kernel``,
    ``metrics``, ``store``, the ``replicas`` / ``tokens`` / ``catalogs``
    views, ``_stable_timers``, and the token mixin's ``_replica_states``.
    """

    # ------------------------------------------------------------------ #
    # the end-of-burst stable mark (runs at the token holder; the unstable
    # mark rides the burst's first update, see UpdatePipeline.write)
    # ------------------------------------------------------------------ #

    def _schedule_stable(self, sid: str, major: int) -> None:
        """(Re)arm the quiet-period timer after a write."""
        key = (sid, major)
        handle = self._stable_timers.pop(key, None)
        if handle is not None:
            handle.cancel()
        self._stable_timers[key] = self.kernel.schedule(
            STABLE_QUIET_MS, self._stable_timer_fired, sid, major
        )

    def _stable_timer_fired(self, sid: str, major: int) -> None:
        self._stable_timers.pop((sid, major), None)
        if (sid, major) not in self.tokens:
            return
        self.proc.spawn(self._mark_stable(sid, major),
                        name=f"{self.proc.addr}:stable:{sid}")

    async def _mark_stable(self, sid: str, major: int) -> None:
        """End-of-burst: tell the group the file is stable again."""
        cat = self.catalogs.get(sid)
        if cat is None or major not in cat.majors:
            return
        info = cat.majors[major]
        if not info.unstable:
            return
        info.unstable = False
        self.metrics.incr("deceit.stability_clears")
        await self.proc.cbcast(
            group_of(sid),
            {"op": "mark_stable", "sid": sid, "major": major},
            nreplies=0, tag="stability",
        )

    # ------------------------------------------------------------------ #
    # group-message handlers (run at every member)
    # ------------------------------------------------------------------ #

    async def _deliver_mark_stable(self, src: str, /, sid: str,
                                   major: int) -> dict:
        cat = self.catalogs.get(sid)
        if cat is not None and major in cat.majors:
            cat.majors[major].unstable = False
        replica = self.replicas.get((sid, major))
        if replica is not None and not replica.stable:
            replica.stable = True
            await self.store.persist_replica(replica, sync=False)
        return {"marked": True}

    # ------------------------------------------------------------------ #
    # read-side recovery (§3.6 "Stability Notification in the Presence
    # of Failure")
    # ------------------------------------------------------------------ #

    async def _stability_recovery(self, sid: str, major: int) -> str:
        """Find or forge a stable replica; returns the server to read from."""
        self.metrics.incr("deceit.stability_recoveries")
        holders = await self._replica_states(sid, major,
                                             STABILITY_ACK_TIMEOUT_MS)
        if not holders:
            raise ReplicaUnavailable(f"{sid}: no replica of {major} reachable")
        stable = [m for m, v in holders if v.get("stable")]
        if stable:
            return stable[0]
        # No stable replica anywhere: force the most up-to-date one stable
        # and destroy the obsolete ones.
        best_member, best = max(holders, key=lambda mv: mv[1]["version"][1])
        await self.proc.cbcast(
            group_of(sid),
            {"op": "force_stable", "sid": sid, "major": major,
             "chosen": best_member, "version": best["version"]},
            nreplies="all", timeout=STABILITY_ACK_TIMEOUT_MS, tag="force_stable",
        )
        self.metrics.incr("deceit.forced_stable")
        return best_member

    async def _deliver_force_stable(self, src: str, /, sid: str, major: int,
                                    chosen: str, version: list) -> dict:
        """Member handler: obsolete unstable replicas are destroyed; the
        chosen replica becomes stable."""
        cat = self.catalogs.get(sid)
        replica = self.replicas.get((sid, major))
        if cat is not None and major in cat.majors:
            info = cat.majors[major]
            info.unstable = False
            info.version = VersionPair.from_tuple(version)
        if replica is None:
            return {"ok": True}
        if replica.version.sub < version[1]:
            # obsolete: destroy (it missed updates the chosen replica has)
            await self._destroy_local_replica(sid, major)
            self.metrics.incr("deceit.obsolete_replicas_destroyed")
            return {"destroyed": True}
        if not replica.stable:
            # racelint: ok(staleread) - the only await since the binding returns
            replica.stable = True
            await self.store.persist_replica(replica, sync=True)
        return {"ok": True}
