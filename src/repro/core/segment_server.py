"""The distributed reliable segment server (§5.1) — now a thin facade.

This is Deceit's lower layer: a flat, reliable, distributed segment service
with five entry points — ``create``, ``delete``, ``read``, ``write``,
``setparam`` — plus the special commands (§2.1): list versions, locate
replicas, explicit replica placement, version-pair inquiry, and version
reconciliation.

Every segment maps to one ISIS process group (its *file group*, §3.2)
containing the replica holders and any servers caching information about
it.  Updates are distributed by the write-token holder in a single causal
broadcast round; the write returns to the caller after the first
``write_safety`` replies, while the full reply set is audited in the
background to detect lost replicas.

The heavy lifting lives in the :mod:`repro.core.pipeline` services the
facade composes — :class:`~repro.core.pipeline.catalog.CatalogService`
(metadata), :class:`~repro.core.pipeline.store.ReplicaStore` (persistence,
group-commit batching, versioned read cache), :class:`~repro.core.pipeline.
read_path.ReadService` and :class:`~repro.core.pipeline.update.
UpdatePipeline` (the two hot paths), :class:`~repro.core.pipeline.
conflict_dir.ConflictDirectory` (the well-known conflict file), and
:class:`~repro.core.pipeline.recovery.RecoveryService` (§3.6) — plus the
three protocol mixins (:class:`~repro.core.tokens.TokenMixin`,
:class:`~repro.core.replication.ReplicationMixin`, :class:`~repro.core.
stability.StabilityMixin`) and the ISIS :class:`~repro.isis.process.
GroupApp` interface, whose ``deliver`` dispatches each group multicast by
its op's name through one table, :attr:`SegmentServer.group_ops`.
"""

from __future__ import annotations

import itertools
from typing import Any, Awaitable

from repro.core.conflicts import CONFLICT_GROUP, ConflictLog
from repro.core.params import DEFAULT_PARAMS, FileParams
from repro.core.pipeline import (
    CatalogService,
    ConflictDirectory,
    ReadResult,
    ReadService,
    RecoveryService,
    ReplicaStore,
    UpdateHooks,
    UpdatePipeline,
    group_of,
    sid_of,
)
from repro.core.replication import ReplicationMixin
from repro.core.segment import MajorInfo, Replica, SegmentCatalog, Token, WriteOp
from repro.core.stability import StabilityMixin
from repro.core.tokens import TokenMixin
from repro.core.versions import HistoryIndex, MajorAllocator, VersionPair
from repro.errors import NoSuchSegment
from repro.isis import IsisProcess, View
from repro.metrics import Metrics
from repro.sim.sync import Lock
from repro.storage import Disk

__all__ = ["ReadResult", "SegmentServer", "WriteOp"]


class SegmentServer(TokenMixin, ReplicationMixin, StabilityMixin):
    """One per machine; the GroupApp its IsisProcess hosts."""

    def __init__(self, proc: IsisProcess, disk: Disk, rank: int,
                 metrics: Metrics | None = None,
                 merge_audit_interval_ms: float | None = None):
        self.proc = proc
        self.kernel = proc.kernel
        self.disk = disk
        self.rank = rank
        self.metrics = metrics or proc.network.metrics
        self.alloc = MajorAllocator(rank)
        self._token_waits: dict[str, Any] = {}
        self._token_request_ids = itertools.count(1)
        self._update_locks: dict[str, Lock] = {}
        self._stable_timers: dict[tuple[str, int], Any] = {}
        self._sid_counter = 0
        self._migrations_inflight = 0
        self._migration_waiters: list = []
        # the composable services (see repro.core.pipeline)
        self.store = ReplicaStore(self.kernel, disk, self.metrics)
        self.cat = CatalogService(proc, self.store, self.alloc,
                                  self.kernel, self.metrics)
        self.conflict_dir = ConflictDirectory(proc, self.metrics)
        self.pipeline = UpdatePipeline(
            proc, self.cat, self.store,
            UpdateHooks(
                ensure_token=self._ensure_token,
                schedule_stable=self._schedule_stable,
                pick_lru_victims=self._pick_lru_victims,
                update_lock=self._update_lock,
                destroy_local_replica=self._destroy_local_replica,
                repair_replica=self._repair_replica,
                replenish=self._replenish,
                maybe_disable_token=self._maybe_disable_token,
            ),
            self.metrics,
        )
        self.reads = ReadService(proc, self.cat, self.store,
                                 stability_recovery=self._stability_recovery,
                                 request_migration=self._tracked_migration,
                                 metrics=self.metrics,
                                 burst_heads=self.pipeline.burst_heads)
        if merge_audit_interval_ms is None:
            self.recovery = RecoveryService(proc, self.cat, self.store,
                                            self, self.metrics)
        else:
            self.recovery = RecoveryService(
                proc, self.cat, self.store, self, self.metrics,
                audit_interval_ms=merge_audit_interval_ms)
        #: group multicast op -> its handler at every member, called with
        #: the sender and the payload's other fields as keywords
        self.group_ops = {
            "update": self.pipeline.deliver_update,
            "token_request": self._deliver_token_request,
            "token_pass": self._deliver_token_pass,
            "token_generated": self._deliver_token_generated,
            "mark_stable": self._deliver_mark_stable,
            "force_stable": self._deliver_force_stable,
            "state_inquiry": self.cat.deliver_state_inquiry,
            "replica_created": self.cat.deliver_replica_created,
            "replica_deleted": self._deliver_replica_deleted,
            "replica_recovered": self.cat.deliver_replica_recovered,
            "delete_major": self._deliver_delete_major,
            "setparam": self._deliver_setparam,
            "conflict": self.conflict_dir.deliver_conflict,
            "conflict_resolved": self.conflict_dir.deliver_resolved,
        }
        proc.set_app(self)
        proc.register_handler("seg_read", self.reads.handle_read)
        proc.register_handler("seg_forward_write",
                              self.pipeline.handle_forward_write)
        proc.register_handler("seg_fetch", self._h_fetch)
        proc.register_handler("seg_install_replica", self._h_install_replica)
        proc.register_handler("seg_request_replica", self._h_request_replica)
        proc.register_handler("seg_feed", self._h_feed)
        # Partition heal: when a silent peer is heard from again, the sides
        # re-merge their file groups and reconcile versions (§3.6).
        proc.fd.subscribe(on_alive=self.recovery.on_peer_alive)

    # ------------------------------------------------------------------ #
    # state shared with the protocol mixins (owned by the services)
    # ------------------------------------------------------------------ #

    @property
    def replicas(self) -> dict[tuple[str, int], Replica]:
        return self.store.replicas

    @property
    def tokens(self) -> dict[tuple[str, int], Token]:
        return self.store.tokens

    @property
    def catalogs(self) -> dict[str, SegmentCatalog]:
        return self.cat.catalogs

    @property
    def conflicts(self) -> ConflictLog:
        return self.conflict_dir.log

    # ------------------------------------------------------------------ #
    # small helpers the mixins and services share
    # ------------------------------------------------------------------ #

    def _update_lock(self, sid: str) -> Lock:
        lock = self._update_locks.get(sid)
        if lock is None:
            lock = Lock(self.kernel)
            self._update_locks[sid] = lock
        return lock

    async def _destroy_local_replica(self, sid: str, major: int) -> None:
        await self.store.destroy_replica(sid, major)
        cat = self.cat.get(sid)
        if cat is not None and major in cat.majors:
            cat.majors[major].holders.discard(self.proc.addr)

    async def _destroy_major_here(self, sid: str, major: int) -> None:
        """Release this server's hold on one major: the token, its durable
        record, then the replica (a group-wide delete and §3.6's
        destruction of an obsolete version both end here)."""
        self.store.tokens.pop((sid, major), None)
        await self.store.delete_token_record(sid, major)
        await self._destroy_local_replica(sid, major)

    async def _broadcast_delete_major(self, sid: str, major: int) -> None:
        """Tell the whole file group to release one major's storage."""
        await self.proc.cbcast(
            group_of(sid),
            {"op": "delete_major", "sid": sid, "major": major},
            nreplies="all", tag="delete_major",
        )

    def restore_counter(self, counter: int) -> None:
        """Recovery found the durable segment counter; never go backwards."""
        self._sid_counter = max(self._sid_counter, counter)

    # ------------------------------------------------------------------ #
    # public API: create / delete / read / write / setparam (§5.1)
    # ------------------------------------------------------------------ #

    async def create(self, params: FileParams | None = None, data: bytes = b"",
                     meta: dict[str, Any] | None = None) -> str:
        """Create a segment; returns its handle.

        The creating server starts as sole replica holder and token holder;
        if the minimum replica level exceeds one, replicas are placed on
        ring-ordered peers before returning.  The counter, replica, and
        token records ride one group-commit batch — a single disk commit.
        """
        params = params or DEFAULT_PARAMS
        self._sid_counter += 1
        sid = f"{self.proc.addr}.{self._sid_counter}"
        self.proc.create_group(group_of(sid))
        major = self.alloc.next_major()
        version = VersionPair(major, 0)
        replica = Replica(sid=sid, major=major, data=data, meta=dict(meta or {}),
                          version=version, params=params,
                          branches=HistoryIndex(),
                          read_ts=self.kernel.now, write_ts=self.kernel.now)
        token = Token(sid=sid, major=major, version=version, parent=None,
                      holders=[self.proc.addr])
        self.store.replicas[(sid, major)] = replica
        self.store.tokens[(sid, major)] = token
        await self.store.persist_new_segment(replica, token, self._sid_counter)
        self.cat.install(SegmentCatalog(
            sid=sid, params=params, branches=replica.branches,
            majors={major: MajorInfo(major=major, version=version,
                                     holder=self.proc.addr,
                                     holders={self.proc.addr},
                                     last_update_ts=self.kernel.now)},
        ))
        self.metrics.incr("deceit.segments_created")
        if params.min_replicas > 1:
            await self._replenish(sid, major)
        return sid

    async def delete(self, sid: str, version: int | None = None) -> None:
        """Delete one version of a segment, or the whole segment.

        Storage for every affected replica is released group-wide; when the
        last version goes, the file group dissolves and the handle dies.
        """
        cat = await self.cat.ensure_group(sid)
        targets = [version] if version is not None else sorted(cat.majors)
        for major in targets:
            if major in cat.majors:
                await self._broadcast_delete_major(sid, major)
        self.metrics.incr("deceit.deletes")
        if not cat.majors:
            self.cat.drop(sid)
            await self.proc.leave_group(group_of(sid))

    async def read(self, sid: str, offset: int = 0, count: int | None = None,
                   version: int | None = None, verify=None) -> ReadResult:
        """Read a byte range (default: everything) of a segment version,
        or answer ``unchanged`` to the caller's version pair ``verify``
        (the :class:`~repro.core.pipeline.read_path.ReadService` path)."""
        return await self.reads.read(sid, offset=offset, count=count,
                                     version=version, verify=verify)

    async def stat(self, sid: str, version: int | None = None) -> ReadResult:
        """Attributes only: a read of zero bytes — the getattr path."""
        return await self.reads.read(sid, count=0, version=version)

    def write(self, sid: str, op: WriteOp,
              guard: VersionPair | None = None,
              version: int | None = None,
              single_update_hint: bool = False,
              forward_unless_replica: bool = False) -> Awaitable[VersionPair]:
        """Distribute one update through the write-token protocol (the
        :class:`~repro.core.pipeline.update.UpdatePipeline` hot path; its
        coroutine is returned, not awaited, to keep the await chain short)."""
        return self.pipeline.write(
            sid, op, guard=guard, version=version,
            single_update_hint=single_update_hint,
            forward_unless_replica=forward_unless_replica)

    async def setparam(self, sid: str, **changes: Any) -> FileParams:
        """Change the segment's semantic parameters (§4).

        Routed through the token holder of the latest major so parameter
        changes are ordered with respect to updates; raising the minimum
        replica level triggers replica generation (method 2).
        """
        cat = await self.cat.ensure_group(sid)
        major = self.cat.pick_major(cat, None)
        lock = self._update_lock(sid)
        await lock.acquire()
        try:
            major = await self._ensure_token(sid, major)
            new_params = cat.params.with_updates(**changes)
            await self.proc.cbcast(
                group_of(sid),
                {"op": "setparam", "sid": sid, "params": new_params.to_dict()},
                nreplies="all", tag="setparam",
            )
            self.metrics.incr("deceit.setparams")
        finally:
            lock.release()
        if new_params.min_replicas > len(cat.majors[major].holders):
            await self._replenish(sid, major)
        return new_params

    # ------------------------------------------------------------------ #
    # special commands (§2.1)
    # ------------------------------------------------------------------ #

    async def get_version(self, sid: str, version: int | None = None) -> VersionPair:
        """Version-pair inquiry ("so the user can determine if a file has
        been modified", §3.5)."""
        cat = await self.cat.ensure_group(sid)
        major = self.cat.pick_major(cat, version)
        return cat.majors[major].version

    async def list_versions(self, sid: str) -> dict[int, VersionPair]:
        """All live majors and their version pairs."""
        cat = await self.cat.ensure_group(sid)
        return {major: info.version for major, info in sorted(cat.majors.items())}

    async def locate_replicas(self, sid: str,
                              version: int | None = None) -> dict[str, Any]:
        """Where the replicas and the token currently live."""
        cat = await self.cat.ensure_group(sid)
        major = self.cat.pick_major(cat, version)
        info = cat.majors[major]
        return {"major": major, "holders": sorted(info.holders),
                "token_holder": info.holder, "version": info.version}

    async def reconcile_versions(self, sid: str, keep: int) -> list[int]:
        """User-level conflict resolution: keep one major, delete the rest.

        Returns the majors deleted.  Clears matching conflict-log entries.
        """
        cat = await self.cat.ensure_group(sid)
        if keep not in cat.majors:
            raise NoSuchSegment(f"{sid};{keep}")
        drop = [m for m in sorted(cat.majors) if m != keep]
        for major in drop:
            await self._broadcast_delete_major(sid, major)
        if drop:
            await self.conflict_dir.log_resolution(sid)
        self.metrics.incr("deceit.reconciliations")
        return drop

    # ------------------------------------------------------------------ #
    # GroupApp interface
    # ------------------------------------------------------------------ #

    async def deliver(self, group: str, sender: str, payload: Any) -> Any:
        """Dispatch one file-group or conflict-group multicast to its
        op's handler in :attr:`group_ops`."""
        fields = dict(payload)
        return await self.group_ops[fields.pop("op")](sender, **fields)

    async def _deliver_replica_deleted(self, src: str, /, sid: str,
                                       major: int, holder: str) -> dict:
        cat = self.cat.get(sid)
        if cat is not None and major in cat.majors:
            cat.majors[major].holders.discard(holder)
        if holder == self.proc.addr:
            await self._destroy_local_replica(sid, major)
        return {"ok": True}

    async def _deliver_delete_major(self, src: str, /, sid: str,
                                    major: int) -> dict:
        cat = self.cat.get(sid)
        if cat is not None:
            cat.majors.pop(major, None)
        await self._destroy_major_here(sid, major)
        timer = self._stable_timers.pop((sid, major), None)
        if timer is not None:
            timer.cancel()
        return {"ok": True}

    async def _deliver_setparam(self, src: str, /, sid: str,
                                params: dict) -> dict:
        params = FileParams.from_dict(params)
        cat = self.cat.get(sid)
        if cat is not None:
            cat.params = params
        # every local replica of the segment re-persists in one batch commit
        touched = [replica for (rsid, _m), replica in
                   self.store.replicas.items() if rsid == sid]
        for replica in touched:
            replica.params = params
        if touched:
            await self.store.persist_replicas(touched, sync=True)
        return {"ok": True}

    def view_change(self, group: str, view: View, joined: list[str],
                    left: list[str]) -> None:
        """Membership changed; catalogs note holder reachability lazily —
        the paper is explicit that replicas are only counted at update time
        (§3.1: "If there are no updates, replicas may become unavailable and
        later available without causing a new replica to be generated.")."""
        self.metrics.incr("deceit.view_changes_seen")

    def get_group_state(self, group: str) -> Any:
        if group == CONFLICT_GROUP:
            return self.conflict_dir.state()
        return self.cat.export_state(sid_of(group))

    def set_group_state(self, group: str, state: Any) -> None:
        if group == CONFLICT_GROUP:
            self.conflict_dir.load_state(state)
            return
        self.cat.merge_state(state)

    # ------------------------------------------------------------------ #
    # crash and recovery (§3.6) — the protocol is the RecoveryService's
    # ------------------------------------------------------------------ #

    def crash(self) -> None:
        """Fail-stop the machine: process down, unflushed disk writes and
        every volatile structure lost; the disk records survive."""
        self.proc.crash()
        self.disk.crash()
        self.volatile_reset()

    def restart(self):
        """Bring a crashed machine back: process up, merge audit re-armed,
        recovery protocol started.  Returns the recovery task."""
        self.proc.recover()
        self.start_merge_audit()
        return self.proc.spawn(self.recover(),
                               name=f"{self.proc.addr}:recover")

    def volatile_reset(self) -> None:
        """Drop all in-memory state (called when the hosting node crashes)."""
        self.store.volatile_reset()
        self.cat.catalogs.clear()
        self.reads.hints.clear()
        self._token_waits.clear()
        self._update_locks.clear()
        for handle in self._stable_timers.values():
            handle.cancel()
        self._stable_timers.clear()
        self.conflict_dir.reset()
        self._reset_migrations()

    def release(self) -> None:
        """The machine is gone for good (its cell closed, or restarted as
        a new incarnation): drop what a crash drops and the disk's RAM
        copy of its records.  The process keeps its address, group views
        and failure-detector state for callers that read them after."""
        self.volatile_reset()
        self.disk.close()

    async def recover(self) -> None:
        """Rebuild from non-volatile state after a restart (§3.6)."""
        await self.recovery.recover()

    def cold_start(self) -> int:
        """Rebuild this server's entire segment state from disk alone.

        The whole-cell restart path (§3.6 "total failure"): no live peer
        exists to join, so every segment with a durable replica record is
        resurrected locally — replicas, version pairs, stripe maps, and
        directory tables all live in those records, and the token records
        (at most one per major cell-wide, deleted-before-pass) decide
        holdership.  Divergence between the per-server resurrected group
        instances is reconciled afterwards through the RecoveryService
        merge path, exactly like a partition heal.

        Zero-latency and zero-RPC by design (superblock scans), so
        restart-to-serving time is dominated by the backend replay that
        happened when the disk opened.  Returns the number of segments
        resurrected.
        """
        counter = self.store.counter_now()
        if counter:
            self.restore_counter(int(counter))
        resurrected = 0
        # one bulk scan instead of per-sid key walks: resurrecting a 100k
        # segment disk must stay O(records), not O(records²)
        for sid, records in self.store.disk_record_map().items():
            if self.cat.get(sid) is None:
                self.cat.resurrect(sid, records=records)
                resurrected += 1
        self.metrics.incr("deceit.cold_starts")
        return resurrected

    def start_merge_audit(self) -> None:
        """Arm the periodic group-merge audit (see RecoveryService)."""
        self.recovery.start_merge_audit()
