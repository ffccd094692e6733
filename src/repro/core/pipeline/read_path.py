"""ReadService: the read / stat hot path (§2.1 request forwarding, §3.4).

Serves locally when a replica is present and stable — through the
:class:`~repro.core.pipeline.read_cache.VersionedReadCache`, so only a cold
version charges disk latency; forwards to the token holder while the file
is unstable (its replica is, in effect, the primary); forwards to any
replica holder when no local replica exists, triggering migration when the
file's parameters ask for it (§3.1 method 4).

A server that is not a member of the file's group does not join it to
read: it asks a member (the holders a member last named, then the creator
embedded in the sid) and keeps that member's holder set as a volatile
*read hint*.  It joins — and from then on reads through its own catalog —
only when no member answers, when the file migrates to its readers, when
the read names an explicit version, or when a read it forwarded found the
major unstable (§3.4): for a file under write the route a hint names goes
stale as the token moves.

Collaborators mirror the :class:`~repro.core.pipeline.update.UpdatePipeline`
pattern: a transport port, the catalog and store services, and two hooks
into the stability / replication protocols (``stability_recovery``,
``request_migration``).

Invariants
----------
- A read of a **stable** major may be served by any replica holder: every
  holder of a stable version has applied the same update prefix, so local
  data equals the token holder's (one-copy equivalence for stable state).
- While a stability-notification file is **unstable** (§3.4), only the
  token holder's replica may serve: other holders may not yet have the
  in-flight updates, so every read is forwarded there — a server without
  a replica asks the token holder first, and a holder without the token
  relays a forwarded ``seg_read`` / ``seg_stat`` to it while it is
  reachable (its own copy serves only when it is not).
- Until a burst head's round completes (the update carrying the unstable
  mark, see :mod:`repro.core.pipeline.update`), the token holder holds its
  local reads and stats of that major: another member may still serve
  the previous version as stable.
- ``validate_version`` never answers True from a server without a local
  replica, and never for an unstable major — the shortcut may only
  replace a read the local path could itself have served.
- A read hint is routing only: every answer a non-member returns comes
  from a member's catalog and from a replica that member holds or relays
  to, exactly as that member's own read would.
- The service never mutates versions or tokens; it only reads catalog
  state maintained by the update/token protocols and bumps read
  timestamps (the input to LRU deletion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.core.params import FileParams
from repro.core.pipeline.catalog import CatalogService, group_of
from repro.core.pipeline.store import ReplicaStore
from repro.core.segment import Replica
from repro.core.striping.stripemap import StripeMap
from repro.core.versions import VersionPair
from repro.errors import NoSuchSegment, NotMember, ReplicaUnavailable, RpcTimeout
from repro.metrics import Metrics
from repro.net.network import RpcRemoteError
from repro.sim import SimFuture

READ_FORWARD_TIMEOUT_MS = 400.0


class PlacementRecord(NamedTuple):
    """One segment's placement: its replica holders, its write token
    holder, whether its major is unstable (§3.4) and, for a striped file,
    its stripe width — what §3.2's read-without-joining and §5.3's access
    shortcut route by.  Built where a read is stamped; a member's answer
    to a non-member (:meth:`to_answer`) becomes that server's read hint,
    and an NFS reply's :meth:`hint` the agent's record of the file or
    stripe (:meth:`from_hint`).

    The hint has no token-holder field: it lists the token holder first,
    which can name it only when it holds a replica (else the first entry
    is the lowest holder address).  On the five benchmark workloads at
    seed 42 and size 1.0, all 21 903 file-level hints named a token
    holder with a replica; 865 of ``stream_striped``'s 2 900 stripe hints
    did not, and the agent uses stripe hints only to route reads.

    Immutable; a named tuple because one is built on every read.
    """

    #: sorted replica holders on the server; on the agent, the server
    #: that answered first, then the rest sorted
    holders: tuple[str, ...] = ()
    token_holder: str | None = None
    unstable: bool = False
    stripe_width: int | None = None

    def hint(self, served_by: str,
             key: str = "placement") -> dict[str, Any]:
        """The NFS reply entry carrying this record under ``key`` (``{}``
        when no holder is known): the token holder first when it holds a
        replica, the rest in order, who served the read, and a striped
        file's stripe width."""
        if not self.holders:
            return {}
        holders = list(self.holders)
        if self.token_holder in holders:
            holders.remove(self.token_holder)
            holders.insert(0, self.token_holder)
        hint: dict[str, Any] = {"holders": holders, "served_by": served_by}
        if self.stripe_width is not None:
            hint["stripe_size"] = self.stripe_width
        return {key: hint}

    @classmethod
    def from_hint(cls, hint: dict[str, Any]) -> PlacementRecord:
        """The agent's record of a :meth:`hint`: the server that answered
        goes first, and the first listed holder is where a whole-file
        write goes."""
        listed, served = hint["holders"], hint["served_by"]
        holders = sorted(listed)
        if served in holders:
            holders.remove(served)
            holders.insert(0, served)
        return cls(tuple(holders), listed[0], False, hint.get("stripe_size"))

    def to_answer(self) -> dict[str, Any]:
        """This record as a member's answer to a non-member's read."""
        return {"holders": list(self.holders), "holder": self.token_holder,
                "unstable": self.unstable}

    def route(self, mount: str) -> str | None:
        """Where the agent aims a read: the first holder, or ``None`` when
        none is known or the ``mount`` server holds a replica itself."""
        if not self.holders or mount in self.holders:
            return None
        return self.holders[0]

    def without(self, server: str) -> PlacementRecord:
        """This record with ``server`` gone from the holders and the token
        holder; the stripe width stays."""
        return self._replace(
            holders=tuple(h for h in self.holders if h != server),
            token_holder=None if self.token_holder == server
            else self.token_holder)


def _placement(cat, info, width: int | None = None) -> PlacementRecord:
    """The record of major ``info`` as catalog ``cat`` knows it, with a
    striped file's ``width``."""
    return PlacementRecord(
        tuple(sorted(info.holders)), info.holder,
        cat.params.stability_notification and info.unstable, width)


@dataclass
class ReadResult:
    """What a segment read returns: data plus the version pair (§5.1 —
    reads return versions so callers can run optimistic transactions),
    and the placement record of the segment read."""

    data: bytes
    version: VersionPair
    meta: dict[str, Any]
    params: FileParams
    major: int
    served_by: str
    placement: PlacementRecord = PlacementRecord()


class ReadService:
    """Read-path service of one segment server."""

    def __init__(self, transport, catalog: CatalogService, store: ReplicaStore,
                 stability_recovery: Callable, request_migration: Callable,
                 metrics: Metrics | None = None,
                 burst_heads: dict[tuple[str, int], SimFuture] | None = None):
        self.transport = transport
        self.kernel = transport.kernel
        self.catalog = catalog
        self.store = store
        self.stability_recovery = stability_recovery    # async (sid, major) -> server
        self.request_migration = request_migration      # (sid, major) -> coroutine
        self.metrics = metrics or store.metrics
        #: the update pipeline's in-flight burst heads (§3.4), see
        #: :meth:`_after_burst_head`
        self.burst_heads = {} if burst_heads is None else burst_heads
        #: sid -> read hint, for files read without joining their group
        self.hints: dict[str, PlacementRecord] = {}

    # ------------------------------------------------------------------ #
    # entry points
    # ------------------------------------------------------------------ #

    async def read(self, sid: str, offset: int = 0, count: int | None = None,
                   version: int | None = None) -> ReadResult:
        if version is None and not self.catalog.joined(sid):
            result = await self._ask_a_member("seg_read", sid,
                                              offset=offset, count=count)
            if result is not None:
                self.metrics.incr("deceit.reads")
                self.metrics.incr("deceit.reads_forwarded")
                return result
        cat = await self.catalog.ensure_group(sid)
        major = self.catalog.pick_major(cat, version)
        info = cat.majors[major]
        replica = self.store.replicas.get((sid, major))
        me = self.transport.addr
        self.metrics.incr("deceit.reads")

        if replica is not None:
            unstable = cat.params.stability_notification and (
                info.unstable or not replica.stable
            )
            if not unstable:
                return self._stamp(await self.read_local(replica, offset, count),
                                   cat, info)
            holder = info.holder
            if holder == me:
                return self._stamp(await self.read_local(replica, offset, count),
                                   cat, info)
            if holder is not None:
                try:
                    return self._stamp(await self._ask(
                        holder, "seg_read", sid, major,
                        offset=offset, count=count), cat, info)
                except (RpcTimeout, RpcRemoteError):
                    pass
            source = await self.stability_recovery(sid, major)
            if source == me:
                return self._stamp(await self.read_local(
                    self.store.replicas[(sid, major)], offset, count),
                    cat, info)
            return self._stamp(await self._ask(
                source, "seg_read", sid, major,
                offset=offset, count=count), cat, info)

        # no local replica: forward to a holder (§2.1 request forwarding)
        self.metrics.incr("deceit.reads_forwarded")
        result = await self._ask_a_holder(
            cat, info, f"{sid}: no replica holder of major {major} reachable",
            "seg_read", sid, major, offset=offset, count=count)
        if cat.params.file_migration:
            self.transport.spawn(self.request_migration(sid, major),
                                 name=f"{me}:migrate:{sid}")
        return self._stamp(result, cat, info)

    @staticmethod
    def _stamp(result: ReadResult, cat, info) -> ReadResult:
        """Attach the placement record of the major read to a result."""
        smap = StripeMap.from_meta(result.meta)
        result.placement = _placement(cat, info, smap and smap.stripe_size)
        return result

    async def validate_version(self, sid: str, verify,
                               version: int | None = None) -> bool:
        """Version-exact revalidation: is ``verify`` still the current
        version pair, answerable *without* forwarding?

        Deliberately conservative so the shortcut can never be staler than
        the read it replaces:

        - a server with **no local replica** always answers False — the
          plain read path would forward to a holder, and a non-holder's
          catalog alone could lag (e.g. a dropped multicast); a server
          outside the file's group answers so without joining it;
        - for stability-notification files (§3.4), an **unstable** major
          answers False even on a version match, preserving the forwarding
          to the token holder that one-copy serializability relies on.

        A True answer counts as a read of the local replica (``read_ts``
        bookkeeping), so revalidation-served files do not look idle to the
        LRU replica-deletion logic (§3.1).
        """
        if not self.catalog.joined(sid):
            return False
        cat = await self.catalog.ensure_group(sid)
        major = self.catalog.pick_major(cat, version)
        info = cat.majors[major]
        replica = self.store.replicas.get((sid, major))
        if replica is None:
            return False
        if cat.params.stability_notification and \
                (info.unstable or not replica.stable):
            return False
        if list(replica.version.to_tuple()) != list(verify):
            return False
        replica.read_ts = self.kernel.now
        info.read_ts[self.transport.addr] = self.kernel.now
        return True

    async def stat(self, sid: str, version: int | None = None) -> ReadResult:
        """Attributes-only read (zero data bytes moved) — the getattr path.

        Attribute blocks are in memory; no disk latency is charged."""
        if version is None and not self.catalog.joined(sid):
            result = await self._ask_a_member("seg_stat", sid)
            if result is not None:
                self.metrics.incr("deceit.stats")
                return result
        cat = await self.catalog.ensure_group(sid)
        major = self.catalog.pick_major(cat, version)
        self.metrics.incr("deceit.stats")
        await self._after_burst_head(sid, major)
        replica = self.store.replicas.get((sid, major))
        if replica is not None:
            result = self.local_result(replica, 0, 0)
            result.data = b""
            return self._stamp(result, cat, cat.majors[major])
        return await self._ask_a_holder(
            cat, cat.majors[major], f"{sid}: no holder reachable for stat",
            "seg_stat", sid, major)

    # ------------------------------------------------------------------ #
    # local / remote mechanics
    # ------------------------------------------------------------------ #

    def local_result(self, replica: Replica, offset: int,
                     count: int | None) -> ReadResult:
        replica.read_ts = self.kernel.now
        end = len(replica.data) if count is None else offset + count
        return ReadResult(
            data=replica.data[offset:end], version=replica.version,
            meta=dict(replica.meta), params=replica.params,
            major=replica.major, served_by=self.transport.addr,
        )

    async def read_local(self, replica: Replica, offset: int,
                         count: int | None) -> ReadResult:
        t0 = self.kernel.now
        await self.store.touch_read(replica)
        await self._after_burst_head(replica.sid, replica.major)
        self.metrics.latency("pipeline.read_ms").record(self.kernel.now - t0)
        tracer = self.kernel._tracer
        if tracer is not None:
            tid = self.kernel.current_trace()
            if tid is not None:
                tracer.record(tid, t0, self.kernel.now, "pipeline", "read")
        return self.local_result(replica, offset, count)

    async def _after_burst_head(self, sid: str, major: int) -> None:
        """§3.4 at the token holder: a local read of a major whose burst
        head (the update carrying the unstable mark) is still in its round
        waits for that round, so no reader gets the new version while
        another member still serves the old one as stable."""
        while (head := self.burst_heads.get((sid, major))) is not None:
            await head

    def _call(self, server: str, method: str, sid: str, major: int | None,
              **args):
        """One forwarded ``seg_read`` / ``seg_stat``, its raw reply."""
        return self.transport.call(
            server, method, sid=sid, major=major, **args,
            timeout=READ_FORWARD_TIMEOUT_MS, tag=method)

    async def _ask(self, server: str, method: str, sid: str, major: int,
                   **args) -> ReadResult:
        """One forwarded ``seg_read`` / ``seg_stat``, its reply decoded."""
        return _decode(await self._call(server, method, sid, major, **args),
                       server, major)

    async def _call_a_holder(self, cat, info, unreachable: str, method: str,
                             sid: str, major: int, **args) -> dict:
        """§2.1 request forwarding: the raw reply of the first other holder,
        in address order, that answers, with ``served_by`` set;
        ``unreachable`` is the error when none does.  While the major is
        unstable (§3.4) the token holder is asked first: only its replica
        may serve.

        The holder set is re-read after every miss: a replica created
        while the failover runs (its ``replica_created`` landing between
        two asks) is asked too, not only the holders known at the start.
        """
        last_error: Exception | None = None
        tried = {self.transport.addr}
        first = info.holder if (cat.params.stability_notification
                                and info.unstable) else None
        while untried := sorted(info.holders - tried):
            holder = first if first in untried else untried[0]
            tried.add(holder)
            try:
                raw = await self._call(holder, method, sid, major, **args)
            except (RpcTimeout, RpcRemoteError) as exc:
                last_error = exc
                continue
            return {"served_by": holder, **raw}
        raise ReplicaUnavailable(unreachable) from last_error

    async def _ask_a_holder(self, cat, info, unreachable: str, method: str,
                            sid: str, major: int, **args) -> ReadResult:
        """:meth:`_call_a_holder`, its reply decoded."""
        raw = await self._call_a_holder(cat, info, unreachable, method,
                                        sid, major, **args)
        return _decode(raw, raw["served_by"], major)

    async def _ask_a_member(self, method: str, sid: str,
                            **args) -> ReadResult | None:
        """A read or stat of the latest major without joining the file
        group: ask the holders the read hint names — the token holder
        first while the hint says unstable — then the creator embedded in
        the sid, and keep what the answering member said as the new hint.
        ``None`` sends the caller down the join path: no target answered,
        or the file migrates to its readers (§3.1 method 4, which needs a
        member).

        An answer that finds the major unstable (§3.4) joins the group
        before it returns: for a file under write the route a hint names
        goes stale as the token moves, and a member's catalog follows the
        token.  Reads that start while that join runs find the unstable
        hint and ask its token holder first."""
        hint = self.hints.get(sid)
        targets = [sid.rsplit(".", 1)[0]]
        if hint is not None:
            targets[:0] = hint.holders
            if hint.unstable and hint.token_holder is not None:
                targets.insert(0, hint.token_holder)
        tried = {self.transport.addr}
        for server in targets:
            if server in tried:
                continue
            tried.add(server)
            try:
                raw = await self._call(server, method, sid, None, **args)
            except (RpcTimeout, RpcRemoteError):
                self.hints.pop(sid, None)
                continue
            result = _decode(raw, server, raw["major"])
            if result.params.file_migration:
                return None
            smap = StripeMap.from_meta(result.meta)
            result.placement = PlacementRecord(
                tuple(raw["holders"]), raw["holder"], raw["unstable"],
                smap and smap.stripe_size)
            if not self.catalog.joined(sid):
                self.hints[sid] = result.placement
            if raw["unstable"]:
                try:
                    await self.catalog.ensure_group(sid)
                except NoSuchSegment:
                    pass    # deleted since it answered; the answer stands
                self.hints.pop(sid, None)
            return result
        return None

    # ------------------------------------------------------------------ #
    # RPC handlers (registered by the facade)
    # ------------------------------------------------------------------ #

    async def _relay(self, src: str, method: str, sid: str, major: int,
                     replica: Replica, **args) -> dict | None:
        """A forwarded read answered by the token holder, or ``None`` to
        serve this replica.  While a stability-notification major is
        unstable (§3.4) only the token holder's replica may serve, so a
        holder without the token relays the read there — unless that
        holder cannot be reached now (then this copy serves, rather than
        chaining forward timeouts to a dead holder), asked us itself, or
        fails to answer."""
        cat = self.catalog.get(sid)
        if cat is None or major not in cat.majors \
                or not cat.params.stability_notification:
            return None
        info = cat.majors[major]
        holder = info.holder
        me = self.transport.addr
        if (not info.unstable and replica.stable) \
                or holder in (None, me, src) \
                or not self.transport.reachable(me, holder):
            return None
        try:
            raw = await self._call(holder, method, sid, major, **args)
        except (RpcTimeout, RpcRemoteError):
            return None
        return {**raw, "served_by": holder}

    async def handle_read(self, src: str, sid: str, major: int | None,
                          offset: int, count: int | None) -> dict:
        if major is None:
            return await self._answer_a_nonmember(
                src, "seg_read", sid, offset=offset, count=count)
        replica = self.store.replicas.get((sid, major))
        if replica is None:
            raise NoSuchSegment(f"{sid};{major} not held by {self.transport.addr}")
        relayed = await self._relay(src, "seg_read", sid, major, replica,
                                    offset=offset, count=count)
        if relayed is not None:
            return relayed
        result = await self.read_local(replica, offset, count)
        cat = self.catalog.get(sid)
        if cat is not None and major in cat.majors:
            cat.majors[major].read_ts[self.transport.addr] = self.kernel.now
        return {"data": result.data, "version": result.version.to_tuple(),
                "meta": result.meta, "params": result.params.to_dict()}

    async def handle_stat(self, src: str, sid: str,
                          major: int | None) -> dict:
        if major is None:
            return await self._answer_a_nonmember(src, "seg_stat", sid)
        replica = self.store.replicas.get((sid, major))
        if replica is None:
            raise NoSuchSegment(f"{sid};{major} not held by {self.transport.addr}")
        relayed = await self._relay(src, "seg_stat", sid, major, replica)
        if relayed is not None:
            return relayed
        await self._after_burst_head(sid, major)
        return {"version": replica.version.to_tuple(), "meta": dict(replica.meta),
                "params": replica.params.to_dict(), "length": len(replica.data)}

    async def _answer_a_nonmember(self, src: str, method: str, sid: str,
                                  **args) -> dict:
        """A ``seg_read`` / ``seg_stat`` of the latest major from a server
        outside the file group: answered as this member's own read would
        be — from its replica through the §3.4 relay, or forwarded to a
        holder — plus the major, this member's holder set, its token holder
        and whether the major is unstable, which the asker keeps as its
        read hint."""
        if not self.catalog.joined(sid):
            raise NotMember(f"{self.transport.addr} not in {group_of(sid)}")
        cat = self.catalog.catalogs[sid]
        major = self.catalog.pick_major(cat, None)
        info = cat.majors[major]
        if (sid, major) in self.store.replicas:
            handler = self.handle_read if method == "seg_read" \
                else self.handle_stat
            raw = await handler(src, sid, major, **args)
        else:
            raw = await self._call_a_holder(
                cat, info, f"{sid}: no holder of major {major} reachable",
                method, sid, major, **args)
        return {**raw, "major": major,
                **_placement(cat, info).to_answer()}


def _decode(raw: dict, server: str, major: int) -> ReadResult:
    """A forwarded ``seg_read`` / ``seg_stat`` reply from ``server``; a
    relayed reply names the token holder that served it instead."""
    return ReadResult(
        data=raw.get("data", b""),
        version=VersionPair.from_tuple(raw["version"]),
        meta=raw["meta"], params=FileParams.from_dict(raw["params"]),
        major=major, served_by=raw.get("served_by", server),
    )
