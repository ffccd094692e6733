"""RecoveryService: crash recovery and partition-heal reconciliation (§3.6).

Rebuilds a server's segment state from its non-volatile records after a
restart, reconciling every recovered replica against the group's knowledge
(obsolete versions destroyed, incomparable ones kept and logged as
conflicts, held tokens reclaimed when still valid), and re-merges file
groups split by a network partition once the sides hear from each other
again.

Collaborators: the ISIS process (``proc``), the
:class:`~repro.core.pipeline.catalog.CatalogService`, the
:class:`~repro.core.pipeline.store.ReplicaStore`, and the segment-server
facade (``server``) for the conflict log and the replication helpers.

Invariants
----------
- Recovery trusts the **replica record** as the durable authority for a
  major's version; a co-recovered token record is adjusted to the replica
  (its unsynced tail died with the crash) — never the other way around.
- A recovered replica is reinstalled only after comparing against every
  live major through the branch history: ancestors/equals of a live
  version are destroyed, descendants reclaim authority, and incomparable
  versions are kept *and* logged — no silent drops, no silent merges.
- A token is reclaimed only when the group knows no other holder for
  that major (``info.holder in (None, me)``), preserving single-holder
  exclusivity across crashes.
- Merge-after-heal is deterministic: of two instances of one group, the
  side with the larger coordinator address dissolves, so both sides
  converge without a tiebreak round.
"""

from __future__ import annotations

from repro.core.conflicts import CONFLICT_GROUP
from repro.core.pipeline.catalog import CatalogService, group_of, sid_of
from repro.core.pipeline.store import ReplicaStore
from repro.core.segment import MajorInfo, Replica, SegmentCatalog, Token
from repro.core.versions import Relation
from repro.errors import GroupNotFound, NoSuchSegment, RpcTimeout
from repro.isis.process import LOCATE_CHUNK
from repro.metrics import Metrics
from repro.net.network import RpcRemoteError

MERGE_AUDIT_INTERVAL_MS = 2000.0


class RecoveryService:
    """Recovery / reconciliation half of the segment layer."""

    def __init__(self, proc, catalog: CatalogService, store: ReplicaStore,
                 server, metrics: Metrics | None = None,
                 audit_interval_ms: float = MERGE_AUDIT_INTERVAL_MS):
        self.proc = proc
        self.kernel = proc.kernel
        self.catalog = catalog
        self.store = store
        self.server = server
        self.metrics = metrics or store.metrics
        self.audit_interval_ms = audit_interval_ms
        self._merging = False
        self._audit_timer = None    # the one pending merge-audit tick

    # ------------------------------------------------------------------ #
    # crash recovery (§3.6)
    # ------------------------------------------------------------------ #

    async def recover(self) -> None:
        """Rebuild from non-volatile state after a restart.

        For every replica on disk, rejoin (or resurrect) its file group and
        reconcile our version against the group's knowledge.
        """
        counter = self.store.counter_now()
        if counter is not None:
            self.server.restore_counter(counter)
        await self.server.join_conflict_group()
        for sid in self.store.disk_sids():
            await self._recover_segment(sid)
        self.metrics.incr("deceit.recoveries")

    async def _recover_segment(self, sid: str) -> None:
        disk_majors = self.store.disk_majors(sid)
        try:
            await self.proc.join_group(group_of(sid))
        except GroupNotFound:
            self.catalog.resurrect(sid)
            return
        cat = self.catalog.get(sid)
        if cat is None:
            return
        for major in disk_majors:
            record = self.store.replica_record_now(sid, major)
            if record is None:
                continue
            replica = Replica.from_dict(record)
            self.catalog.alloc.observe(major)
            cat.branches.merge(replica.branches)
            await self.reconcile_recovered_replica(sid, cat, replica)

    async def reconcile_recovered_replica(self, sid: str, cat: SegmentCatalog,
                                          replica: Replica) -> None:
        """One recovered replica vs the group's catalog (§3.6 scenarios)."""
        major = replica.major
        me = self.proc.addr
        token_rec = self.store.token_record_now(sid, major)
        info = cat.majors.get(major)
        # Superseded check first (§3.6 "Token Crash"): if any *other* live
        # major descends from our major's history, ours is the old version —
        # "destroy the old version and all of its replicas."
        reference = replica.version
        if info is not None and info.version.major == major and \
                info.version.sub > reference.sub:
            reference = info.version
        for other, other_info in sorted(cat.majors.items()):
            if other == major:
                continue
            rel = cat.branches.compare(reference, other_info.version)
            if rel in (Relation.ANCESTOR, Relation.EQUAL):
                await self._destroy_obsolete(sid, major)
                self.metrics.incr("deceit.obsolete_versions_destroyed")
                if info is not None:
                    await self.server._broadcast_delete_major(sid, major)
                return
        if info is not None:
            rel = cat.branches.compare(replica.version, info.version)
            if rel in (Relation.EQUAL, Relation.ANCESTOR):
                if rel is Relation.ANCESTOR and info.holder not in (None, me):
                    # Non-token replica crash: obsolete replica is destroyed;
                    # the history is a prefix of the token's, no update lost.
                    await self._destroy_obsolete(sid, major)
                    self.metrics.incr("deceit.obsolete_replicas_destroyed")
                    return
                self.store.replicas[(sid, major)] = replica
                # racelint: ok(staleread) - awaits since the binding all return
                info.holders.add(me)
                await self._announce_major(sid, cat, major, replica)
                if rel is Relation.ANCESTOR:
                    # We are behind the group, so any token we recovered for
                    # this major is stale — an acked update committed at a
                    # peer but died with our volatile tail.  Minting writes
                    # on it would fork the history past that update, so the
                    # token is surrendered and the next write re-acquires
                    # (or regenerates) from the caught-up state.
                    if self.store.tokens.pop((sid, major), None) is not None \
                            or token_rec is not None:
                        await self.store.delete_token_record(sid, major)
                        if info.holder == me:
                            # racelint: ok(staleread) - holder re-checked on the line above, after the yield
                            info.holder = None
                        self.metrics.incr("deceit.stale_tokens_surrendered")
                    # behind but no live token: catch up from a holder
                    self.proc.spawn(self.server._repair_replica(sid, major),
                                    name=f"{me}:repair:{sid}")
                elif token_rec is not None and info.holder in (None, me):
                    await self._reclaim_token(sid, cat, replica, token_rec)
                return
            # DESCENDANT: we are ahead of everything the group knows —
            # reclaim our state as authoritative for this major.
            self.store.replicas[(sid, major)] = replica
            # racelint: ok(staleread) - awaits since the binding all return
            info.version = replica.version
            # racelint: ok(staleread) - awaits since the binding all return
            info.holders.add(me)
            if token_rec is not None and info.holder in (None, me):
                await self._reclaim_token(sid, cat, replica, token_rec)
            return
        # our major is unknown to the group: obsolete (a descendant token
        # was generated past our last update) or genuinely divergent
        for other, other_info in cat.majors.items():
            rel = cat.branches.compare(replica.version, other_info.version)
            if rel is Relation.ANCESTOR:
                # Token crash scenario: the new version is a direct
                # descendant of ours — destroy the old version.
                await self._destroy_obsolete(sid, major)
                self.metrics.incr("deceit.obsolete_versions_destroyed")
                return
        # incomparable with every live major: keep, announce, log conflict
        self.store.replicas[(sid, major)] = replica
        # Every await inside the scan loop above is followed by a return;
        # the fall-through path to this write never yields after the
        # cat.majors read that heads the loop.
        # racelint: ok(staleread) - no yield on the fall-through path
        cat.majors[major] = MajorInfo(
            major=major, version=replica.version, holder=None,
            holders={me}, last_update_ts=replica.write_ts,
        )
        await self._announce_major(sid, cat, major, replica)
        if token_rec is not None:
            await self._reclaim_token(sid, cat, replica, token_rec)
        await self.log_divergence(sid, cat)

    async def _destroy_obsolete(self, sid: str, major: int) -> None:
        """§3.6 "destroy the old version": our replica of ``major``, the
        token we may hold for it and its durable record all go."""
        await self.server._destroy_local_replica(sid, major)
        self.store.tokens.pop((sid, major), None)
        await self.store.delete_token_record(sid, major)

    async def _announce_major(self, sid: str, cat: SegmentCatalog, major: int,
                              replica: Replica) -> None:
        """Tell the (possibly just-merged) group that this major exists here,
        including its branch record so every member can compare versions."""
        parent = cat.branches.parent_of(major)
        if parent is not None:
            await self.proc.cbcast(
                group_of(sid),
                {"op": "token_generated", "sid": sid, "major": major,
                 "parent": list(parent),
                 "version": replica.version.to_tuple(),
                 "holder": cat.majors[major].holder},
                nreplies=0, tag="major_announce",
            )
        await self.proc.cbcast(
            group_of(sid),
            {"op": "replica_recovered", "sid": sid, "major": major,
             "version": replica.version.to_tuple()},
            nreplies=0, tag="replica_recovered",
        )

    async def log_divergence(self, sid: str, cat: SegmentCatalog) -> None:
        """Log every live incomparable version pair to the conflict file."""
        for a, b in cat.incomparable_pairs():
            await self.server.log_conflict(
                sid, (a, b),
                note="incomparable versions after crash/partition recovery",
            )

    async def _reclaim_token(self, sid: str, cat: SegmentCatalog,
                             replica: Replica, token_rec: dict) -> None:
        token = Token.from_dict(token_rec)
        token.version = replica.version  # replica is the durable authority
        token.holders = sorted(cat.majors[token.major].holders | {self.proc.addr})
        self.store.tokens[(sid, token.major)] = token
        cat.majors[token.major].holder = self.proc.addr
        await self.store.persist_token(token)
        await self.proc.cbcast(
            group_of(sid),
            {"op": "token_pass", "sid": sid, "major": token.major,
             "to": self.proc.addr, "token": token.to_dict()},
            nreplies=0, tag="token_recovered",
        )
        self.metrics.incr("deceit.tokens_reclaimed")

    # ------------------------------------------------------------------ #
    # partition-heal reconciliation
    # ------------------------------------------------------------------ #

    def on_peer_alive(self, peer: str) -> None:
        """FD callback: a silent peer was heard from again — re-merge."""
        if not self._merging:
            self.proc.spawn(self.merge_after_heal(),
                            name=f"{self.proc.addr}:merge")

    def start_merge_audit(self) -> None:
        """Arm the periodic group-merge audit.

        Partition heals are caught by the failure detector's alive
        transitions, but a member *falsely expelled* during a message-loss
        burst sees no such transition — only a periodic check against its
        supposed co-members notices the newer view that excludes it.

        Each tick asks every reachable cell peer once per LOCATE_CHUNK
        hosted groups which of them it hosts and under what view — one
        round trip per peer for all but the largest servers — and large
        cells stretch the interval besides (see
        :func:`repro.testbed.build_scale_cluster`); heals caught by the
        failure detector still trigger a merge immediately.  Arming
        cancels the held tick: one queued before a short crash cannot double it.
        """
        if self._audit_timer is not None:
            self._audit_timer.cancel()
        self._audit_timer = self.kernel.schedule(self.audit_interval_ms,
                                                 self._merge_audit_tick)

    def _merge_audit_tick(self) -> None:
        if not self.proc.alive:
            return  # re-armed by recovery
        if not self._merging and self.catalog.catalogs:
            self.proc.spawn(self.merge_after_heal(),
                            name=f"{self.proc.addr}:merge_audit")
        self.start_merge_audit()

    async def merge_after_heal(self) -> None:
        """Re-merge file groups split by a partition (§3.6 "Partition").

        For every group we belong to, look for reachable cell peers running
        a *different* instance of the same group.  The side whose
        coordinator has the larger address dissolves: its members rejoin
        through the other side (getting merged catalogs via state transfer)
        and then reconcile each local replica exactly as crash recovery
        does — obsolete versions are destroyed, incomparable ones are kept
        and logged as conflicts.
        """
        if self._merging:
            return
        self._merging = True
        try:
            await self.kernel.sleep(50.0)  # debounce: let FD settle
            # conflict group first: divergences found while merging file
            # groups must propagate to the whole healed cell
            groups = []
            if self.proc.is_member(CONFLICT_GROUP):
                groups.append(CONFLICT_GROUP)
            groups.extend(group_of(sid) for sid in list(self.catalog.catalogs))
            for start in range(0, len(groups), LOCATE_CHUNK):
                chunk = groups[start:start + LOCATE_CHUNK]
                answers = await self._locate_at_peers(chunk)
                for group in chunk:
                    await self._merge_one_group(group, answers)
        finally:
            self._merging = False

    async def _locate_at_peers(self, groups: list[str]
                               ) -> list[tuple[str, dict[str, dict]]]:
        """Ask each reachable cell peer, once, which of ``groups`` it hosts
        and under what view; only groups we hold a view of are asked about.
        Returns ``[(peer, {group: answer})]`` in address order."""
        held = [g for g in groups if self.proc.is_member(g)]
        answers = []
        if not held:
            return answers
        me = self.proc.addr
        for peer in sorted(self.proc.cell_peers):
            if not self.proc.reachable(me, peer):
                continue
            try:
                hosted = await self.proc.locate_at(peer, held,
                                                   tag="merge_locate")
            except (RpcTimeout, RpcRemoteError):
                continue
            if hosted:
                answers.append((peer, hosted))
        return answers

    async def _merge_one_group(self, group: str,
                               answers: list[tuple[str, dict[str, dict]]]
                               ) -> None:
        view = self.proc.current_view(group)
        if view is None:
            # We know the segment (catalog/disk) but lost group membership —
            # e.g. a previous rejoin attempt failed during a loss burst.
            if group == CONFLICT_GROUP:
                await self.server.join_conflict_group()
                return
            sid = sid_of(group)
            try:
                await self.catalog.ensure_group(sid)
            except NoSuchSegment:
                self.catalog.drop(sid)  # segment is gone everywhere
            else:
                cat = self.catalog.get(sid)
                if cat is not None:
                    for (rsid, _m), replica in list(self.store.replicas.items()):
                        if rsid == sid:
                            await self.reconcile_recovered_replica(
                                sid, cat, replica)
            return
        me = self.proc.addr
        for peer, hosted in answers:
            answer = hosted.get(group)
            if answer is None:
                continue
            if peer in view.members:
                # Expulsion check: a peer I think is my co-member has moved
                # to a newer view that no longer includes me (I was falsely
                # suspected during a loss burst).  Rejoin through it.
                if answer["view_id"] > view.view_id and \
                        me not in answer["members"]:
                    await self._dissolve_and_rejoin(group, contact=peer)
                    return
                continue
            if view.coordinator <= answer["coordinator"]:
                continue  # their side loses; it dissolves on its own pass
            # smaller coordinator wins; ours is larger → dissolve and rejoin
            await self._dissolve_and_rejoin(group, contact=peer)
            return

    async def _dissolve_and_rejoin(self, group: str, contact: str) -> None:
        self.metrics.incr("deceit.group_merges")
        self.proc.groups.pop(group, None)
        try:
            await self.proc.join_group(group, contact=contact)
        except GroupNotFound:
            return
        if group == CONFLICT_GROUP:
            # push the conflicts we discovered while partitioned
            for record in self.server.conflicts.records():
                await self.proc.cbcast(
                    CONFLICT_GROUP,
                    {"op": "conflict", "record": record.to_dict()},
                    nreplies=0, tag="conflict",
                )
            return
        sid = sid_of(group)
        cat = self.catalog.get(sid)
        if cat is None:
            return
        for (rsid, _rmajor), replica in list(self.store.replicas.items()):
            if rsid == sid:
                await self.reconcile_recovered_replica(sid, cat, replica)
        await self.log_divergence(sid, cat)
