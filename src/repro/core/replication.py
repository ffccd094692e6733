"""Replica management: generation, blast transfer, LRU deletion (§3.1).

The paper's four replica-generation paths all terminate here:

1. the token holder counts update replies and replenishes when fewer than
   the minimum replica level answered;
2. raising the minimum replica level triggers replenishment;
3. an explicit user command creates (or deletes) a replica on a named
   server;
4. a server receiving client requests for a file it does not hold asks the
   token holder for a local replica (file migration).

Replicas are generated with a file-transfer protocol from an existing
replica ("blast" transfer: the payload bytes are charged to the simulated
network, so big files genuinely cost more).  The token holder delays
updates during generation to prevent inconsistency — the per-segment update
lock is held across the transfer.

Unneeded extra replicas (e.g. left behind by migration) are deleted when an
update occurs, *instead of* being updated, in least-recently-used order.
"""

from __future__ import annotations

from repro.errors import RpcTimeout
from repro.core.pipeline.catalog import group_of
from repro.core.segment import Replica
from repro.net.network import RpcRemoteError

TRANSFER_TIMEOUT_MS = 2000.0
#: Replicas not read for this long are deletion candidates at update time.
REPLICA_IDLE_MS = 5000.0


class ReplicationMixin:
    """Replication half of the segment server (see module docstring).

    Expects the host class to hold this state: ``proc``, ``kernel``,
    ``metrics``, the services ``store`` / ``cat``, the ``replicas`` /
    ``tokens`` / ``catalogs`` views, ``_update_lock``, and the migration
    barrier's ``_migrations_inflight`` counter and ``_migration_waiters``
    list.
    """

    # ------------------------------------------------------------------ #
    # replenishment (generation methods 1 and 2)
    # ------------------------------------------------------------------ #

    async def _replenish(self, sid: str, major: int) -> int:
        """Bring the replica count of (sid, major) up to the minimum level.

        Runs at the token holder.  Returns the number of replicas created.
        """
        if (sid, major) not in self.tokens:
            return 0
        cat = self.catalogs.get(sid)
        if cat is None or major not in cat.majors:
            return 0
        lock = self._update_lock(sid)
        await lock.acquire()
        created = 0
        try:
            info = cat.majors[major]
            want = cat.params.min_replicas
            me = self.proc.addr

            def reachable_count() -> int:
                return sum(
                    1 for h in info.holders
                    if h == me or self.proc.network.reachable(me, h)
                )

            for target in self._placement_candidates(sid, info.holders):
                if reachable_count() >= want:
                    break
                ok = await self._create_replica_on_locked(sid, major, target)
                if ok:
                    created += 1
        finally:
            lock.release()
        if created:
            self.metrics.incr("deceit.replicas_replenished", created)
        return created

    def _placement_candidates(self, sid: str, holders: set[str]) -> list[str]:
        """Ring-ordered reachable cell peers that do not yet hold a replica."""
        me = self.proc.addr
        roster = sorted(set(self.proc.cell_peers) | {me})
        start = roster.index(me)
        ring = roster[start + 1:] + roster[:start]
        return [
            peer for peer in ring
            if peer not in holders and self.proc.network.reachable(me, peer)
        ]

    # ------------------------------------------------------------------ #
    # blast transfer (the generation protocol itself)
    # ------------------------------------------------------------------ #

    async def _create_replica_on_locked(self, sid: str, major: int,
                                        target: str) -> bool:
        """Feed a copy of a replica to ``target`` (update lock held).

        The local replica is preferred; when the token holder has none
        (e.g. its copy was explicitly deleted, §6.2), any reachable replica
        holder is told to feed the target instead — "a replica holder feeds
        a copy of the file to the site where the replica is being
        generated" (§3.1).
        """
        replica = self.replicas.get((sid, major))
        if replica is None:
            return await self._feed_via_remote_holder(sid, major, target)
        self.metrics.incr("deceit.replica_transfers")
        self.metrics.incr("deceit.replica_transfer_bytes", len(replica.data))
        if not await self._install_with_retries(target, replica):
            return False
        await self._replica_landed(sid, major, target)
        return True

    async def _replica_landed(self, sid: str, major: int, target: str) -> None:
        """The token holder's bookkeeping once ``target`` holds a copy it
        was fed: the catalog and the durable token record name it, and the
        group is told (§3.1)."""
        self.catalogs[sid].majors[major].holders.add(target)
        token = self.tokens.get((sid, major))
        if token is not None and target not in token.holders:
            token.holders.append(target)
            await self.store.persist_token(token)
        await self.proc.cbcast(
            group_of(sid),
            {"op": "replica_created", "sid": sid, "major": major, "holder": target},
            nreplies=0, tag="replica_created",
        )

    async def _feed_via_remote_holder(self, sid: str, major: int,
                                      target: str) -> bool:
        """Ask a reachable replica holder to blast its copy to ``target``."""
        me = self.proc.addr
        for source in sorted(self.catalogs[sid].majors[major].holders):
            if source in (me, target):
                continue
            if not self.proc.network.reachable(me, source):
                continue
            try:
                reply = await self.proc.call(
                    source, "seg_feed", sid=sid, major=major, target=target,
                    timeout=TRANSFER_TIMEOUT_MS, tag="blast_feed",
                )
            except (RpcTimeout, RpcRemoteError):
                continue
            if reply.get("fed"):
                await self._replica_landed(sid, major, target)
                return True
        return False

    async def _install_with_retries(self, target: str, replica) -> bool:
        """Push a replica record to ``target``; retried because one lost
        datagram must not leave the file under-replicated (the install is
        idempotent at the receiver)."""
        for _attempt in range(3):
            try:
                await self.proc.call(
                    target, "seg_install_replica",
                    record=replica.to_dict(), contact=self.proc.addr,
                    timeout=TRANSFER_TIMEOUT_MS,
                    size_bytes=max(256, len(replica.data)),
                    tag="blast_transfer",
                )
                return True
            except (RpcTimeout, RpcRemoteError):
                continue
        return False

    async def _h_feed(self, src: str, sid: str, major: int, target: str) -> dict:
        """RPC handler at a replica holder: push our copy to ``target``."""
        replica = self.replicas.get((sid, major))
        if replica is None:
            return {"fed": False}
        self.metrics.incr("deceit.replica_transfers")
        self.metrics.incr("deceit.replica_transfer_bytes", len(replica.data))
        return {"fed": await self._install_with_retries(target, replica)}

    async def _h_install_replica(self, src: str, record: dict, contact: str) -> dict:
        """RPC handler on the receiving server: persist and join the group."""
        replica = Replica.from_dict(record)
        group = group_of(replica.sid)
        if not self.proc.is_member(group):
            await self.proc.join_group(group, contact=contact)
        self.replicas[(replica.sid, replica.major)] = replica
        await self.store.persist_replica(replica, sync=True)
        cat = self.catalogs.get(replica.sid)
        if cat is not None:
            info = cat.majors.get(replica.major)
            if info is not None:
                info.holders.add(self.proc.addr)
        self.metrics.incr("deceit.replicas_installed")
        return {"installed": True}

    async def _repair_replica(self, sid: str, major: int) -> None:
        """Self-repair after missed updates: refetch from a current holder."""
        cat = self.catalogs.get(sid)
        if cat is None or major not in cat.majors:
            return
        holders = set(cat.majors[major].holders) - {self.proc.addr}
        self.replicas.pop((sid, major), None)
        await self._fetch_replica_from(sid, major, holders)

    async def _fetch_replica_from(self, sid: str, major: int,
                                  holders: set[str]) -> Replica | None:
        """Pull a replica of (sid, major) from any reachable holder.

        Used when this server becomes token holder without local data, and
        by token generation.  Registers us as a replica holder.
        """
        me = self.proc.addr
        for source in sorted(holders):
            if source == me or not self.proc.network.reachable(me, source):
                continue
            try:
                record = await self.proc.call(
                    source, "seg_fetch", sid=sid, major=major,
                    timeout=TRANSFER_TIMEOUT_MS, tag="blast_fetch",
                )
            except (RpcTimeout, RpcRemoteError):
                continue
            if record is None:
                continue
            replica = Replica.from_dict(record)
            self.replicas[(sid, major)] = replica
            await self.store.persist_replica(replica, sync=True)
            cat = self.catalogs.get(sid)
            if cat is not None and major in cat.majors:
                cat.majors[major].holders.add(me)
            await self.proc.cbcast(
                group_of(sid),
                {"op": "replica_created", "sid": sid, "major": major, "holder": me},
                nreplies=0, tag="replica_created",
            )
            self.metrics.incr("deceit.replica_fetches")
            return replica
        return None

    async def _h_fetch(self, src: str, sid: str, major: int) -> dict | None:
        """RPC handler: hand our replica record to a fetching peer.

        The reply is charged the full data size — this *is* the blast
        transfer on the wire.
        """
        replica = self.replicas.get((sid, major))
        if replica is None:
            return None
        self.metrics.incr("deceit.replica_transfer_bytes", len(replica.data))
        return replica.to_dict()

    # ------------------------------------------------------------------ #
    # migration (generation method 4)
    # ------------------------------------------------------------------ #

    async def _request_migration(self, sid: str, major: int) -> None:
        """Ask the token holder to generate a local replica to speed future
        reads (runs as a background task on the read path)."""
        cat = self.catalogs.get(sid)
        if cat is None or major not in cat.majors:
            return
        if (sid, major) in self.replicas:
            return
        holder = cat.majors[major].holder
        if holder is None or holder == self.proc.addr:
            return
        self.metrics.incr("deceit.migration_requests")
        try:
            await self.proc.call(
                holder, "seg_request_replica", sid=sid, major=major,
                target=self.proc.addr, timeout=TRANSFER_TIMEOUT_MS,
                tag="migration",
            )
        except (RpcTimeout, RpcRemoteError):
            pass  # best effort; reads keep being forwarded

    def _tracked_migration(self, sid: str, major: int):
        """Coroutine for one counted :meth:`_request_migration` (the read
        path spawns it when a forwarded read hits a ``file_migration``
        file), so :meth:`quiesced` can wait for it."""
        self._migrations_inflight += 1

        async def _pull():
            try:
                await self._request_migration(sid, major)
            finally:
                # clamped: a crash may reset the counter before the
                # cancelled task's ``finally`` runs
                self._migrations_inflight = max(
                    0, self._migrations_inflight - 1)
                if self._migrations_inflight == 0:
                    self._settle_migration_waiters()

        return _pull()

    def quiesced(self):
        """Awaitable resolving once no one-shot migration is in flight — a
        deterministic barrier for tests and benchmarks instead of a sleep."""
        fut = self.kernel.create_future()
        if self._migrations_inflight == 0:
            fut.set_result(None)
        else:
            self._migration_waiters.append(fut)
        return fut

    def _settle_migration_waiters(self) -> None:
        waiters, self._migration_waiters = self._migration_waiters, []
        for fut in waiters:
            fut.try_set_result(None)

    def _reset_migrations(self) -> None:
        """Host crash: in-flight migrations are gone, so pending
        :meth:`quiesced` waiters resolve rather than hang."""
        self._migrations_inflight = 0
        self._settle_migration_waiters()

    async def _h_request_replica(self, src: str, sid: str, major: int,
                                 target: str) -> dict:
        """RPC handler at the token holder: generation method 3/4 entry."""
        if (sid, major) not in self.tokens:
            return {"created": False, "reason": "not token holder"}
        lock = self._update_lock(sid)
        await lock.acquire()
        try:
            ok = await self._create_replica_on_locked(sid, major, target)
        finally:
            lock.release()
        return {"created": ok}

    # ------------------------------------------------------------------ #
    # LRU deletion of extras (§3.1 last paragraph)
    # ------------------------------------------------------------------ #

    def _pick_lru_victims(self, sid: str, major: int) -> list[str]:
        """Replica holders to drop with the next update instead of updating.

        Keeps at least ``min_replicas``; never drops the token holder; only
        replicas idle for :data:`REPLICA_IDLE_MS` are candidates; oldest
        read time goes first, ties (never-read holders share 0.0) in
        address order — the LRU order is total, not the set's hash order.
        """
        cat = self.catalogs[sid]
        info = cat.majors[major]
        excess = len(info.holders) - cat.params.min_replicas
        if excess <= 0:
            return []
        now = self.kernel.now
        candidates = [
            h for h in sorted(info.holders)
            if h != self.proc.addr
            and now - info.read_ts.get(h, 0.0) > REPLICA_IDLE_MS
        ]
        candidates.sort(key=lambda h: info.read_ts.get(h, 0.0))
        victims = candidates[:excess]
        if victims:
            self.metrics.incr("deceit.replicas_lru_dropped", len(victims))
        return victims

    # ------------------------------------------------------------------ #
    # explicit user commands (generation method 3)
    # ------------------------------------------------------------------ #

    async def create_replica(self, sid: str, server: str,
                             major: int | None = None) -> bool:
        """Special command: create a replica of ``sid`` on ``server``."""
        await self.cat.ensure_group(sid)
        cat = self.catalogs[sid]
        major = major if major is not None else cat.latest_major()
        info = cat.majors[major]
        if server in info.holders:
            return True
        holder = info.holder
        if holder == self.proc.addr:
            reply = await self._h_request_replica(self.proc.addr, sid, major, server)
            return reply["created"]
        if holder is None:
            return False
        reply = await self.proc.call(holder, "seg_request_replica",
                                     sid=sid, major=major, target=server,
                                     timeout=TRANSFER_TIMEOUT_MS, tag="user_replica")
        return reply["created"]

    async def delete_replica(self, sid: str, server: str,
                             major: int | None = None) -> bool:
        """Special command: delete the replica of ``sid`` held by ``server``.

        Refused when it would take the file below one replica.
        """
        await self.cat.ensure_group(sid)
        cat = self.catalogs[sid]
        major = major if major is not None else cat.latest_major()
        info = cat.majors[major]
        if server not in info.holders or len(info.holders) <= 1:
            return False
        await self.proc.cbcast(
            group_of(sid),
            {"op": "replica_deleted", "sid": sid, "major": major, "holder": server},
            nreplies="all", tag="replica_deleted",
        )
        return True
