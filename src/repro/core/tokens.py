"""Write-token protocol: acquisition, passing, and generation (§3.3, §3.5).

Only the server holding a file's write token may distribute updates to its
file group; an update then costs a single communication round.  Token
acquisition costs one extra round but is paid only for the first of a
stream of updates — the regime the operational assumptions (§2.3) say is
typical.

When the token holder is unreachable, a new token may be *generated*,
subject to the file's write availability level:

- ``LOW`` — never: writes fail until the holder returns.
- ``MEDIUM`` (default) — only when a majority of the replicas is reachable;
  a held token is *disabled* when its holder loses the majority.
- ``HIGH`` — always: maximum write availability, divergence likely under
  partition.

Generating a token mints a fresh globally unique major version: "The new
token represents a distinct new file with a distinct set of replicas."
"""

from __future__ import annotations

from repro.errors import ReplicaUnavailable, WriteUnavailable
from repro.core.params import Availability
from repro.core.pipeline.catalog import group_of
from repro.core.segment import MajorInfo, Replica, Token
from repro.core.versions import VersionPair
from repro.sim import SimTimeoutError

TOKEN_PASS_TIMEOUT_MS = 350.0
INQUIRY_TIMEOUT_MS = 250.0


def _majority(cat, major: int) -> tuple[int, int]:
    """``(total, majority)`` for the medium-availability rule (§3.5): a
    token is generated, kept or revived only while a majority of the
    replicas answers — of the replica level or of the known holders,
    whichever is more."""
    total = max(cat.params.min_replicas, len(cat.majors[major].holders))
    return total, total // 2 + 1


class TokenMixin:
    """Token-protocol half of the segment server.

    Expects the host class to hold this state: ``proc`` (IsisProcess),
    ``kernel``, ``metrics``, ``alloc``, the ``store`` service, the
    ``replicas`` / ``tokens`` / ``catalogs`` views onto the services,
    ``_token_waits``, and the other two mixins.
    """

    # ------------------------------------------------------------------ #
    # acquisition
    # ------------------------------------------------------------------ #

    async def _ensure_token(self, sid: str, major: int) -> int:
        """Make this server the token holder for ``sid``; returns the major
        actually writable (token generation may mint a new one)."""
        token = self.tokens.get((sid, major))
        if token is not None:
            if not token.enabled:
                await self._try_reenable_token(sid, token)
            return major
        cat = self.catalogs[sid]
        info = cat.majors[major]
        if info.holder == self.proc.addr:
            # catalog says we hold it but the record is gone (stale catalog
            # after our crash): fall through to generation/acquisition
            info.holder = None
        if info.holder is not None:
            acquired = await self._request_token_pass(sid, major)
            if acquired:
                return major
        self.metrics.incr("deceit.token_losses_detected")
        return await self._generate_token(sid, major)

    async def _request_token_pass(self, sid: str, major: int) -> bool:
        """One round: broadcast a token request; wait for the pass (§3.3).

        A live holder answers only once it holds its update lock, i.e.
        after its own queued updates, so a pass that is late does not mean
        a lost holder.  Returns ``False`` (the caller generates a token)
        only when the holder has left the file group's view, is suspected,
        or answers that it holds no token while nothing moved — the same
        holder and version as when asked (a token passed on and back, or
        still writing, is alive).  Otherwise the request is sent again,
        this time collecting the members' answers.

        The request carries no update: §3.3 optimization 1 (the first update
        "in the same message with a token request") is not built, because a
        request asked again would carry the update a second time.
        """
        group = group_of(sid)
        info = self.catalogs[sid].majors[major]
        wait = self.kernel.create_future()
        self._token_waits[(sid, major)] = wait
        nreplies: int | str = 0
        try:
            while True:
                asked = (info.holder, info.version)
                self.metrics.incr("deceit.token_requests")
                replies = await self.proc.cbcast(
                    group,
                    {"op": "token_request", "sid": sid, "major": major,
                     "requester": self.proc.addr},
                    nreplies=nreplies, timeout=TOKEN_PASS_TIMEOUT_MS,
                    tag="token_request",
                )
                try:
                    await self.kernel.wait_for(wait, TOKEN_PASS_TIMEOUT_MS)
                    return True
                except SimTimeoutError:
                    pass
                holder = info.holder
                if holder is None or holder not in self.proc.members(group) \
                        or self.proc.fd.is_suspected(holder) \
                        or ((holder, info.version) == asked
                            and (holder, {"holder": False}) in replies):
                    return False
                self.metrics.incr("deceit.token_rerequests")
                nreplies = "all"
        finally:
            self._token_waits.pop((sid, major), None)

    async def _deliver_token_request(self, sid: str, major: int,
                                     requester: str) -> dict:
        """Group-message handler at every member; only the holder acts."""
        token = self.tokens.get((sid, major))
        if token is None or requester == self.proc.addr:
            return {"holder": False}
        # Finish any in-flight update stream before handing over.
        lock = self._update_lock(sid)
        await lock.acquire()
        try:
            # The pre-lock read above is an advisory fast-path check; this
            # pop under the update lock re-reads and re-validates (None ->
            # no longer the holder, bail out).
            # racelint: ok(staleread) - pop under the lock re-validates
            token = self.tokens.pop((sid, major), None)
            if token is None:
                return {"holder": False}
            await self.store.delete_token_record(sid, major)
            await self.proc.cbcast(
                group_of(sid),
                {"op": "token_pass", "sid": sid, "major": major,
                 "to": requester, "token": token.to_dict()},
                nreplies=0, tag="token_pass",
            )
            self.metrics.incr("deceit.token_passes")
        finally:
            lock.release()
        return {"holder": True}

    async def _deliver_token_pass(self, sid: str, major: int, to: str,
                                  token_dict: dict) -> dict:
        """Everyone learns the new holder; the recipient installs the token."""
        cat = self.catalogs.get(sid)
        if cat is not None and major in cat.majors:
            cat.majors[major].holder = to
        if to != self.proc.addr:
            # the write token moved elsewhere: our warm copy of this major
            # can now silently fall behind, so the read cache entry drops
            # and the next local read re-validates against disk
            self.store.cache.invalidate(sid, major)
            return {"noted": True}
        token = Token.from_dict(token_dict)
        self.tokens[(sid, major)] = token
        await self.store.persist_token(token)
        if (sid, major) not in self.replicas:
            # The holder's replica is the primary during instability (§3.4);
            # fetch one before acknowledging the token.
            await self._fetch_replica_from(sid, major, set(token.holders))
        wait = self._token_waits.get((sid, major))
        if wait is not None:
            wait.try_set_result(None)
        return {"installed": True}

    # ------------------------------------------------------------------ #
    # generation (§3.5)
    # ------------------------------------------------------------------ #

    async def _generate_token(self, sid: str, major: int) -> int:
        """Mint a new token — a new major version — for an unreachable one."""
        cat = self.catalogs[sid]
        policy = cat.params.write_availability
        if policy is Availability.LOW:
            raise WriteUnavailable(
                f"{sid}: token for major {major} lost and availability=low"
            )
        if policy is Availability.MEDIUM:
            available = len(await self._replica_states(sid, major))
            total, majority = _majority(cat, major)
            if available < majority:
                raise WriteUnavailable(
                    f"{sid}: only {available}/{total} replicas reachable "
                    f"(availability=medium needs a majority)"
                )
        base = self.replicas.get((sid, major))
        if base is None:
            base = await self._fetch_replica_from(
                sid, major, set(cat.majors[major].holders)
            )
        if base is None:
            raise ReplicaUnavailable(f"{sid}: no replica of major {major} reachable")
        new_major = self.alloc.next_major()
        branch_sub = base.version.sub
        cat.branches.record_branch(new_major, major, branch_sub)
        new_version = VersionPair(new_major, branch_sub)
        replica = Replica(
            sid=sid, major=new_major, data=base.data, meta=dict(base.meta),
            version=new_version, params=cat.params,
            branches=cat.branches.copy(), stable=True,
            read_ts=self.kernel.now, write_ts=base.write_ts,
        )
        # Writes below go under new_major, a key minted by this task two
        # lines up; no other task references it yet, so nothing read before
        # the awaits can go stale for these keys.
        # racelint: ok(staleread) - new_major is a freshly minted key
        self.replicas[(sid, new_major)] = replica
        await self.store.persist_replica(replica, sync=True)
        token = Token(sid=sid, major=new_major, version=new_version,
                      parent=(major, branch_sub), holders=[self.proc.addr])
        self.tokens[(sid, new_major)] = token
        await self.store.persist_token(token)
        # racelint: ok(staleread) - same fresh-key argument as above.
        cat.majors[new_major] = MajorInfo(
            major=new_major, version=new_version, holder=self.proc.addr,
            holders={self.proc.addr}, last_update_ts=self.kernel.now,
        )
        await self.proc.cbcast(
            group_of(sid),
            {"op": "token_generated", "sid": sid, "major": new_major,
             "parent": [major, branch_sub], "version": new_version.to_tuple(),
             "holder": self.proc.addr},
            nreplies=0, tag="token_generated",
        )
        self.metrics.incr("deceit.tokens_generated")
        self.proc.spawn(self._replenish(sid, new_major),
                        name=f"{self.proc.addr}:replenish:{sid}")
        return new_major

    def _deliver_token_generated(self, sid: str, major: int, parent: list,
                                 version: list, holder: str) -> dict:
        """Members learn about a freshly minted major version."""
        cat = self.catalogs.get(sid)
        if cat is None:
            return {"noted": False}
        try:
            cat.branches.record_branch(major, parent[0], parent[1])
        except ValueError:
            pass  # duplicate announcement
        if major not in cat.majors:
            cat.majors[major] = MajorInfo(
                major=major, version=VersionPair.from_tuple(version),
                holder=holder, holders={holder} if holder else set(),
                last_update_ts=self.kernel.now,
            )
        return {"noted": True}

    # ------------------------------------------------------------------ #
    # availability accounting (medium policy)
    # ------------------------------------------------------------------ #

    async def _replica_states(self, sid: str, major: int,
                              timeout: float = INQUIRY_TIMEOUT_MS,
                              ) -> list[tuple[str, dict]]:
        """Broadcast an inquiry to the file group; the correct replies that
        hold a replica, as ``(member, state)`` (§3.5 "Restricting
        updates...", and §3.6's read-side recovery)."""
        replies = await self.proc.cbcast(
            group_of(sid),
            {"op": "state_inquiry", "sid": sid, "major": major},
            nreplies="all", timeout=timeout, tag="state_inquiry",
        )
        return [(member, value) for member, value in replies
                if isinstance(value, dict) and value.get("have_replica")]

    async def _try_reenable_token(self, sid: str, token: Token) -> None:
        """A disabled token revives once a majority is reachable again."""
        cat = self.catalogs[sid]
        available = len(await self._replica_states(sid, token.major))
        total, majority = _majority(cat, token.major)
        if available >= majority:
            token.enabled = True
            await self.store.persist_token(token)
            self.metrics.incr("deceit.tokens_reenabled")
        else:
            raise WriteUnavailable(
                f"{sid}: token disabled, {available}/{total} replicas reachable"
            )

    def _maybe_disable_token(self, sid: str, major: int, replica_replies: int) -> None:
        """After an update audit: medium availability disables the token when
        fewer than a majority of replicas answered."""
        cat = self.catalogs.get(sid)
        token = self.tokens.get((sid, major))
        if cat is None or token is None:
            return
        if cat.params.write_availability is not Availability.MEDIUM:
            return
        _total, majority = _majority(cat, major)
        if replica_replies < majority and token.enabled:
            token.enabled = False
            self.metrics.incr("deceit.tokens_disabled")
            self.proc.spawn(self.store.persist_token(token),
                            name=f"{self.proc.addr}:tok_disable")
