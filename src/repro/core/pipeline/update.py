"""UpdatePipeline: the write / token / broadcast hot path (§3.3, §5.1).

Distributes one update per causal broadcast round from the write-token
holder, returning to the caller after ``write_safety`` replies while the
full reply set is audited in the background.  Update application at every
group member lives here too, as does the one §3.3 optimization built:
passing a likely single update to the holder, on for dirops and
whole-file rewrites — except that a rewrite continuing this server's own
stream takes the token, as §3.3's "paid only for the first of a stream of
updates" intends (the stream rule, :meth:`UpdatePipeline.write`) — and
for a range write's stripe pieces at a server holding no replica of the
stripe, under the same stream rule.
Optimization 1, the first update "in the same message with a token
request", is not built, as in Deceit ("currently uses neither").

The pipeline is built from narrow collaborators so it can be unit tested
without an IsisProcess facade:

- ``transport`` — ``addr``, ``incarnation``, ``cbcast``, ``call``,
  ``members``, ``spawn`` and ``reachable(a, b)`` — an
  :class:`~repro.isis.process.IsisProcess` bound in production, a stub in
  unit tests;
- ``catalog`` — a :class:`~repro.core.pipeline.catalog.CatalogService`;
- ``store`` — a :class:`~repro.core.pipeline.store.ReplicaStore`;
- ``hooks`` — an :class:`UpdateHooks` bundle of the token / stability /
  replication callbacks the write path needs (bound to the mixin methods in
  production, lambdas in unit tests).

Invariants
----------
- Only the **write-token holder** for a major distributes updates; the
  pipeline acquires the token (or forwards the update to the holder)
  before touching the version, and does so under the per-segment update
  lock, so version pairs advance by exactly one ``sub`` per update.
- A ``guard`` is checked against the *token's* version (the authority),
  never a replica's — replicas may legitimately lag by in-flight updates.
- An update id is applied at most once: the holder checks it against its
  token's record under the update lock, before the broadcast, and every
  replica records it with the op.
- ``deliver_update`` may assume updates for one major arrive in causal
  order: a sub gap means this member missed updates (it repairs by
  refetch), never that the sender skipped one.
- A ``dirop`` update's preconditions (name absent / expected handle /
  emptiness seal, see :mod:`repro.core.dirtable`) are checked
  **authoritatively at the token holder** against its settled replica,
  under the update lock, *before* the broadcast: a violation raises
  :class:`~repro.errors.DirOpConflict` without consuming a version bump,
  and a distributed dirop therefore succeeds deterministically at every
  member.  Namespace mutations of different names in one directory thus
  commute — no whole-table version guard, no retry storm.
- The ``length`` recorded in segment meta is derived by
  :meth:`~repro.core.segment.WriteOp.apply` from the bytes the update
  actually produced at application time, never trusted from the sender's
  pre-write stat (which a concurrent truncate could have staled).
- The write returns after ``write_safety`` replies; the full reply set is
  audited in the background, and that audit is the *only* place replica
  loss is detected (§3.1: no replica generation without updates).
- The §3.4 unstable mark rides the first update of a burst (the major
  was stable): each member marks and applies in one delivery and one
  synchronous persist, the round waits for every member of the view
  (whose replies include the ``write_safety`` durable copies), and until
  it completes the holder holds its local reads of that major
  (``burst_heads``) — no reader gets version k+1 while another member
  still serves k as stable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.core.dirtable import check_dirops
from repro.core.pipeline.catalog import CatalogService, group_of
from repro.core.pipeline.store import ReplicaStore
from repro.core.segment import SegmentCatalog, WriteOp
from repro.core.versions import VersionPair
from repro.errors import (
    DirOpConflict,
    ReplicaUnavailable,
    RpcTimeout,
    VersionConflict,
)
from repro.metrics import Metrics
from repro.net.network import RpcRemoteError
from repro.sim import SimFuture

UPDATE_REPLY_TIMEOUT_MS = 400.0


def _is_durable_reply(value) -> bool:
    """Does this update reply attest a durably persisted copy?"""
    return isinstance(value, dict) and bool(value.get("durable"))


@dataclass
class UpdateHooks:
    """Callbacks the write path needs from the token/stability/replication
    protocols (all bound methods of the segment server in production)."""

    ensure_token: Callable      # async (sid, major) -> writable major
    schedule_stable: Callable   # (sid, major) -> None
    pick_lru_victims: Callable  # (sid, major) -> list[holder]
    update_lock: Callable       # (sid) -> repro.sim.sync.Lock
    destroy_local_replica: Callable  # async (sid, major) -> None
    repair_replica: Callable    # (sid, major) -> coroutine (spawned)
    replenish: Callable         # (sid, major) -> coroutine (spawned)
    maybe_disable_token: Callable    # (sid, major, replica_replies) -> None


class UpdatePipeline:
    """Write-path service of one segment server."""

    def __init__(self, transport, catalog: CatalogService, store: ReplicaStore,
                 hooks: UpdateHooks, metrics: Metrics | None = None):
        self.transport = transport
        self.kernel = transport.kernel
        self.catalog = catalog
        self.store = store
        self.hooks = hooks
        self.metrics = metrics or store.metrics
        #: ``(sid, major)`` -> the version this server's last forwarded
        #: single update produced (the stream rule of :meth:`write`)
        self._forwarded: dict[tuple[str, int], VersionPair] = {}
        #: ``(sid, major)`` -> resolved once this holder's in-flight burst
        #: head (the update carrying the §3.4 unstable mark) has completed
        #: its round; the read service holds local reads of that major
        #: until then
        self.burst_heads: dict[tuple[str, int], SimFuture] = {}
        #: seqs of the ids this server minted for writes still running
        self._minted: dict[int, None] = {}
        self._mint_seq = 0

    # ------------------------------------------------------------------ #
    # the write entry point
    # ------------------------------------------------------------------ #

    async def write(self, sid: str, op: WriteOp,
                    guard: VersionPair | None = None,
                    version: int | None = None,
                    single_update_hint: bool = False,
                    forward_unless_replica: bool = False) -> VersionPair:
        """Distribute one update through the write-token protocol; returns
        the segment's version pair after it.

        ``guard`` makes the write conditional on the segment still being at
        that version pair (§5.1 optimistic concurrency): a stale guard
        raises :class:`VersionConflict` and the caller re-reads and retries.

        ``single_update_hint`` enables §3.3 optimization 2: "pass an update
        to the current token holder instead of requesting the token if it
        is likely that there will be only one update" — a dirop, or a
        whole-file rewrite.  The token does not move.  One exception, the
        stream rule: when the major is still at the version this server's
        own last forward produced, nobody else has written since, so this
        is a stream of updates and the token is taken as without the hint
        ("paid only for the first of a stream of updates").  Dirops always
        forward.

        ``forward_unless_replica`` is the rule for a range write's stripe
        pieces: a server holding a replica of the major takes the token
        as without it; one holding none passes the update on instead of
        pulling the token and a replica after it, under the same stream
        rule, so a writer whose agent keeps writing the stripe here (one
        without the access shortcut) pays the forward once.
        A forward goes to the token holder when that holds a replica, else
        to a replica holder, which takes the token: where a placement hint
        would have sent the writer (:meth:`_live_holder`).

        An id the holder applied is answered with its version pair; a
        forward mints one, so it and its fallback are one update.
        """
        t0 = self.kernel.now
        cat = await self.catalog.ensure_group(sid)
        major = self.catalog.pick_major(cat, version)
        key = (sid, major)
        if key in self.store.tokens or not (
                (single_update_hint or (forward_unless_replica
                                        and key not in self.store.replicas))
                and (op.kind == "dirop"
                     or self._forwarded.pop(key, None)
                     != cat.majors[major].version)):
            return await self._apply(cat, major, op, guard, t0)
        seq = None
        if op.uid is None:
            self._mint_seq += 1
            seq = self._mint_seq
            self._minted[seq] = None    # ascending: the first is the floor
            op = replace(op, uid=[self.transport.incarnation, seq,
                                  next(iter(self._minted))])
        try:
            forwarded = await self._forward_single_write(sid, major, op, guard)
            if forwarded is None:
                return await self._apply(cat, major, op, guard, t0)
            if op.kind != "dirop":
                self._forwarded[key] = forwarded
            return forwarded
        finally:
            if seq is not None:
                del self._minted[seq]

    async def _apply(self, cat: SegmentCatalog, major: int, op: WriteOp,
                     guard: VersionPair | None, t0: float) -> VersionPair:
        """Take the token and the update lock, then check and broadcast."""
        sid = cat.sid
        lock = self.hooks.update_lock(sid)
        await lock.acquire()
        try:
            major = await self.hooks.ensure_token(sid, major)
            token = self.store.tokens[(sid, major)]
            if op.uid is not None:
                done = token.applied.version_of(op.uid)
                if done is not None:
                    self.metrics.incr("deceit.duplicate_updates")
                    return done
            if guard is not None and token.version != guard:
                self.metrics.incr("deceit.version_conflicts")
                raise VersionConflict(guard, token.version)
            if op.kind == "dirop":
                await self._validate_dirop(sid, major, token, op)
            info = cat.majors[major]
            # §3.4: the first update of a burst carries the unstable mark
            mark = cat.params.stability_notification and not info.unstable
            new_version = token.version.next_update()
            drop = self.hooks.pick_lru_victims(sid, major)
            payload = {
                "op": "update", "sid": sid, "major": major,
                "wop": op.to_dict(), "version": new_version.to_tuple(),
                "drop": drop,
            }
            # The §4 commit point: a safety-s ack waits for s *durable*
            # copies, so only replies that persisted the update count
            # (cache-only members answer fast but keep nothing).  Capped
            # by the replicas that can exist after this round — safety at
            # or above the replica count means fully synchronous.
            replica_targets = len(info.holders - set(drop))
            safety = min(cat.params.write_safety,
                         len(self.transport.members(group_of(sid))),
                         max(1, replica_targets))
            self.metrics.incr("deceit.updates")
            if mark:
                # "all available replicas must be so notified before any
                # updates can occur": the marked round waits for every
                # member, whose replies include the s durable copies, and
                # local reads wait for the round (see ReadService)
                payload["mark"] = True
                self.metrics.incr("deceit.stability_marks")
                hold = self.kernel.create_future()
                # keyed by the writable major: ensure_token may have minted
                self.burst_heads[(sid, major)] = hold
            try:
                # audit_update applies the authoritative full reply set as
                # blind overwrites (§3.1 method 1), not a cached read-
                # modify-write; kernel callbacks run atomically between
                # events, never inside a task step.
                # racelint: ok(callbackmut) - audit is a blind atomic overwrite
                await self.transport.cbcast(
                    group_of(sid), payload,
                    nreplies="all" if mark else safety,
                    timeout=UPDATE_REPLY_TIMEOUT_MS,
                    size_bytes=max(256, len(op.data)),
                    tag="update",
                    on_audit=lambda replies: self.audit_update(sid, major,
                                                               replies),
                    count_reply=None if mark else _is_durable_reply,
                )
            finally:
                if mark:
                    self.burst_heads.pop((sid, major), None)
                    hold.set_result(None)
            token.version = new_version
            token.applied = token.applied.with_applied(op.uid, new_version)
            # async persist: on recovery the holder's replica (written with
            # the update) is the authority for the token's version
            await self.store.persist_token(token, sync=False)
            info.version = new_version
            info.last_update_ts = self.kernel.now
            if mark:
                info.unstable = True
            if cat.params.stability_notification:
                self.hooks.schedule_stable(sid, major)
            self.metrics.latency("pipeline.write_ms").record(self.kernel.now - t0)
            tracer = self.kernel._tracer
            if tracer is not None:
                tid = self.kernel.current_trace()
                if tid is not None:
                    tracer.record(tid, t0, self.kernel.now, "pipeline", "write")
            return new_version
        finally:
            lock.release()

    # ------------------------------------------------------------------ #
    # dirop precondition validation (the namespace path's §5.1 authority)
    # ------------------------------------------------------------------ #

    async def _validate_dirop(self, sid: str, major: int, token,
                              op: WriteOp) -> None:
        """Authoritative check of a dirop's preconditions at the holder.

        The token holder of a directory has a replica (a token pass
        fetches one before acknowledging, §3.4), and under the
        per-segment update lock that replica is current once the previous
        update's local delivery lands — wait for its version to reach the
        token's, then evaluate the preconditions against the real entry
        table.  A violation raises :class:`~repro.errors.DirOpConflict`
        before any broadcast: the caller pays zero rounds and zero version
        bumps for a rejected namespace mutation.
        """
        replica = None
        for _ in range(50):
            replica = self.store.replicas.get((sid, major))
            if replica is not None and replica.version == token.version:
                break
            await self.kernel.sleep(1.0)     # in-flight self-delivery
        else:
            raise ReplicaUnavailable(
                f"{sid}: holder replica never settled at {token.version} "
                f"for dirop validation")
        try:
            check_dirops(replica.data, replica.meta, op.dirops)
        except Exception:
            self.metrics.incr("deceit.dirop_rejects")
            raise
        self.metrics.incr("deceit.dirops")

    # ------------------------------------------------------------------ #
    # §3.3 optimization 2: forwarded single updates
    # ------------------------------------------------------------------ #

    async def _forward_single_write(self, sid: str, major: int, op: WriteOp,
                                    guard: VersionPair | None,
                                    ) -> VersionPair | None:
        """Hand the update to the current holder; the token does not move
        unless the holder has no replica (see :meth:`_live_holder`).

        Returns the new version pair, or ``None`` when the caller must fall
        back to the normal acquisition path: there is no holder, it is
        this server, or it has left the file group's view.  A forward that
        times out is sent again, under the same id, to the holder the
        catalog names then — a holder that is only slow applies the id
        once and answers every copy, so no copy moves the token.  The
        holder's typed verdicts (a stale guard, a dirop precondition) are
        raised here instead.
        """
        cat = self.catalog.catalogs[sid]
        holder = self._live_holder(cat, major)
        if holder is None:
            return None
        self.metrics.incr("deceit.forwarded_writes")
        while True:
            try:
                raw = await self.transport.call(
                    holder, "seg_forward_write", sid=sid, major=major,
                    wop=op.to_dict(),
                    guard=guard.to_tuple() if guard is not None else None,
                    timeout=UPDATE_REPLY_TIMEOUT_MS,
                    size_bytes=max(256, len(op.data)), tag="forward_write",
                )
                break
            except RpcTimeout:
                holder = self._live_holder(cat, major)
                if holder is None:
                    return None
            except RpcRemoteError as exc:
                if exc.error_type == "VersionConflict":
                    raise VersionConflict(guard, None) from exc
                if exc.error_type == "DirOpConflict":
                    raise DirOpConflict.from_message(
                        exc.remote_message) from exc
                return None
        new_version = VersionPair.from_tuple(raw["version"])
        cat.majors[major].version = new_version
        return new_version

    def _live_holder(self, cat: SegmentCatalog, major: int) -> str | None:
        """The token holder ``cat`` names for ``major`` — when it holds no
        replica, the first replica holder by address, which takes the
        token — if it is another server, reachable and in the file
        group's view."""
        info = cat.majors.get(major)
        holder = info.holder if info is not None else None
        if info is not None and info.holders and holder not in info.holders:
            holder = min(info.holders)
        me = self.transport.addr
        if holder is None or holder == me or \
                not self.transport.reachable(me, holder) or \
                holder not in self.transport.members(group_of(cat.sid)):
            return None
        return holder

    async def handle_forward_write(self, src: str, sid: str, major: int,
                                   wop: dict, guard) -> dict:
        """RPC handler at the token holder for forwarded single updates."""
        guard_vp = VersionPair.from_tuple(guard) if guard is not None else None
        new_version = await self.write(sid, WriteOp.from_dict(wop),
                                       guard=guard_vp, version=major)
        return {"version": new_version.to_tuple()}

    # ------------------------------------------------------------------ #
    # update delivery (runs at every group member)
    # ------------------------------------------------------------------ #

    async def deliver_update(self, sid: str, payload: dict) -> dict:
        """One update landing at this member.

        The catalog learns the version; a member named in ``drop`` destroys
        its copy instead; a replica exactly one ``sub`` behind applies the
        op, records its id, and persists both.  A ``mark`` (a burst head, §3.4) first marks the
        major unstable, and the one synchronous persist records the mark
        with the op — or the mark alone, on a copy that missed updates,
        because recovery needs it to find possibly-inconsistent replicas.
        """
        major = payload["major"]
        version = VersionPair.from_tuple(payload["version"])
        me = self.transport.addr
        mark = payload.get("mark", False)
        cat = self.catalog.get(sid)
        if cat is not None and major in cat.majors:
            info = cat.majors[major]
            info.version = version
            info.last_update_ts = self.kernel.now
            if mark:
                info.unstable = True
        if me in payload.get("drop", []):
            await self.hooks.destroy_local_replica(sid, major)
            return {"dropped": True, "have_replica": False}
        replica = self.store.replicas.get((sid, major))
        if replica is None:
            return {"cached": True, "have_replica": False}
        newly_marked = mark and replica.stable
        if newly_marked:
            replica.stable = False
        if replica.version.sub + 1 == version.sub:
            op = WriteOp.from_dict(payload["wop"])
            applied = replica.applied.with_applied(op.uid, version)
            # the holder checked the id; a member whose own record says it
            # applied it takes the version, not the op again
            if applied is not None:
                replica.data, replica.meta = op.apply(replica.data,
                                                      replica.meta)
                replica.applied = applied
            replica.version = version
            replica.write_ts = self.kernel.now
            sync = replica.params.write_safety >= 1 or newly_marked
            # persisting writes through the read cache: the old version's
            # entry is superseded by the new one (version-exact
            # invalidation)
            await self.store.persist_replica(replica, sync=sync)
            # ``durable`` is truthful *because* the sync persist was awaited
            # above: by the time the reply leaves, the record is committed
            return {"ok": True, "have_replica": True, "durable": sync,
                    "version": version.to_tuple(), "read_ts": replica.read_ts}
        if newly_marked:
            await self.store.persist_replica(replica, sync=True)
        # missed updates (rejoined mid-stream): self-repair by fetching
        self.metrics.incr("deceit.update_gaps")
        self.store.cache.invalidate(sid, major)
        self.transport.spawn(self.hooks.repair_replica(sid, major),
                             name=f"{me}:repair:{sid}")
        return {"gap": True, "have_replica": True, "read_ts": replica.read_ts}

    # ------------------------------------------------------------------ #
    # background audit of the full reply set (§3.1 method 1)
    # ------------------------------------------------------------------ #

    def audit_update(self, sid: str, major: int, replies: list) -> None:
        cat = self.catalog.get(sid)
        if cat is None or major not in cat.majors:
            return
        info = cat.majors[major]
        replica_replies = 0
        for member, value in replies:
            if not isinstance(value, dict):
                continue
            if value.get("have_replica"):
                replica_replies += 1
                if "read_ts" in value:
                    info.read_ts[member] = value["read_ts"]
            if value.get("dropped"):
                info.holders.discard(member)
        if replica_replies < cat.params.min_replicas:
            self.metrics.incr("deceit.replica_loss_detected")
            self.transport.spawn(self.hooks.replenish(sid, major),
                                 name=f"{self.transport.addr}:replenish:{sid}")
        self.hooks.maybe_disable_token(sid, major, replica_replies)
