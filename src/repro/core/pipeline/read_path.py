"""ReadService: the one read path (§2.1 request forwarding, §3.4, §5.1).

A read names a byte range, or zero bytes (the getattr), and may carry the
version pair of the caller's copy (a revalidation).  One rule picks the
replica that answers all three:

- a server outside the file's group asks a member without joining it;
- a member without a replica asks a holder — the token holder first while
  the major is unstable — and pulls a replica when the file migrates to
  its readers or is a striped parent, whose map every range op entering
  here reads (§3.1 method 4);
- a member with a replica serves it, unless the major is unstable (§3.4)
  and this member is not the token holder: then it asks the holder, or
  runs stability recovery when the holder has left the file group's view.

The serving replica answers "unchanged" (no data bytes) when the caller's
version pair is its own and it is unstriped; a zero-byte read touches no
data block.  Everything else reads through the
:class:`~repro.core.pipeline.read_cache.VersionedReadCache`, so only a
cold version charges disk latency.

A server that is not a member of the file's group does not join it to
read: it asks a member (the holders a member last named, then the creator
embedded in the sid) and keeps that member's holder set as a volatile
*read hint*.  It joins — and from then on reads through its own catalog —
only when no member answers, when the file migrates to its readers, when
the read names an explicit version, when the file is a striped parent, or
when a read it forwarded found the major unstable (§3.4): for a file under
write the route a hint names goes stale as the token moves.

Only the first of concurrent reads of one striped parent at a server
joins its group; the others ask a member meanwhile, so gathering the map
adds no concurrent joins of one group.

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
  relays a forwarded ``seg_read`` to it while it is reachable (its own
  copy serves only when it is not).
- Until a burst head's round completes (the update carrying the unstable
  mark, see :mod:`repro.core.pipeline.update`), the token holder holds its
  local reads of that major: another member may still serve the previous
  version as stable.
- "Unchanged" is answered by whichever replica serves: the rule above has
  already picked it, and a caller whose version pair equals that
  replica's holds exactly the bytes it would ship.  So the token holder of
  an unstable major answers it too.  It is never answered for a striped
  parent, whose version pair range writes to the stripes do not bump.
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
    is the lowest holder address).  A write aimed at the first entry so
    reaches the token holder, or a replica holder, which takes the token.
    On the five benchmark workloads at seed 42 and size
    1.0, all 21 555 file-level hints named a token holder with a replica,
    and so did all 868 of ``stream_striped``'s range-write replies; 525
    of its 3 040 stripe read replies did not: a stripe no write reached
    since its creator scattered it keeps the creator's token.

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
        write, or a range write inside the stripe, goes."""
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


def placement_of(cat, info, width: int | None = None) -> PlacementRecord:
    """The record of major ``info`` as catalog ``cat`` knows it, with a
    striped file's ``width``."""
    return PlacementRecord(
        tuple(sorted(info.holders)), info.holder,
        cat.params.stability_notification and info.unstable, width)


@dataclass
class ReadResult:
    """What a segment read returns: data plus the version pair (§5.1 —
    reads return versions so callers can run optimistic transactions),
    the placement record of the segment read, and whether the serving
    replica found the caller's copy current (then ``data`` is empty)."""

    data: bytes
    version: VersionPair
    meta: dict[str, Any]
    params: FileParams
    major: int
    served_by: str
    placement: PlacementRecord = PlacementRecord()
    unchanged: bool = False


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
        #: striped parents this server is joining to gather their map
        self.gathering: set[str] = set()

    # ------------------------------------------------------------------ #
    # the entry point
    # ------------------------------------------------------------------ #

    async def read(self, sid: str, offset: int = 0, count: int | None = None,
                   version: int | None = None, verify=None) -> ReadResult:
        """``count`` bytes from ``offset`` (default: to the end) of a
        segment version, answered by the replica the module's rule picks.
        ``count=0`` is the getattr; ``verify``, the version pair of the
        caller's copy, may be answered ``unchanged``."""
        args: dict[str, Any] = {"offset": offset, "count": count}
        if verify is not None:
            args["verify"] = verify
        if version is None and not self.catalog.joined(sid):
            result = await self._ask_a_member(sid, **args)
            if result is not None:
                self._count(count, forwarded=True)
                return result
        cat = await self.catalog.ensure_group(sid)
        major = self.catalog.pick_major(cat, version)
        info = cat.majors[major]
        replica = self.store.replicas.get((sid, major))
        me = self.transport.addr
        if replica is None:
            # no local replica: forward to a holder (§2.1 request forwarding)
            self._count(count, forwarded=True)
            result = await self._ask_a_holder(cat, info, sid, major, **args)
            if cat.params.file_migration or \
                    StripeMap.from_meta(result.meta) is not None:
                self._migrate(sid, major)
            return self._stamp(result, cat, info)
        self._count(count, forwarded=False)
        if self._stable(replica) or info.holder == me:
            return self._stamp(await self._serve(replica, **args), cat, info)
        if info.holder in self.transport.members(group_of(sid)):
            try:
                return self._stamp(await self._ask(info.holder, sid, major,
                                                   **args), cat, info)
            except (RpcTimeout, RpcRemoteError):
                pass
        source = await self.stability_recovery(sid, major)
        if source == me:
            result = await self._serve(self.store.replicas[(sid, major)],
                                       **args)
        else:
            result = await self._ask(source, sid, major, **args)
        return self._stamp(result, cat, info)

    def _count(self, count: int | None, forwarded: bool) -> None:
        """A zero-byte read is a stat; any other is a read, forwarded or
        not."""
        if count == 0:
            self.metrics.incr("deceit.stats")
            return
        self.metrics.incr("deceit.reads")
        if forwarded:
            self.metrics.incr("deceit.reads_forwarded")

    def _migrate(self, sid: str, major: int) -> None:
        """§3.1 method 4: pull a local replica of a major this member read
        through another holder — a file that migrates to its readers, or a
        striped parent, whose map every range op entering here reads."""
        self.transport.spawn(self.request_migration(sid, major),
                             name=f"{self.transport.addr}:migrate:{sid}")

    @staticmethod
    def _stamp(result: ReadResult, cat, info) -> ReadResult:
        """Attach the placement record of the major read to a result."""
        smap = StripeMap.from_meta(result.meta)
        result.placement = placement_of(cat, info, smap and smap.stripe_size)
        return result

    # ------------------------------------------------------------------ #
    # the serving replica
    # ------------------------------------------------------------------ #

    def _stable(self, replica: Replica) -> bool:
        """§3.4: may any holder's copy of this major serve — always,
        unless the file asks for stability notification and this
        server's catalog or the replica marks the major unstable."""
        cat = self.catalog.get(replica.sid)
        if cat is None or replica.major not in cat.majors \
                or not cat.params.stability_notification:
            return True
        return replica.stable and not cat.majors[replica.major].unstable

    async def _serve(self, replica: Replica, offset: int, count: int | None,
                     verify=None, remote: bool = False) -> ReadResult:
        """This replica's answer: "unchanged" when ``verify`` is its
        version pair and it is unstriped; attributes alone for
        a zero-byte read; else the bytes, through the read cache.  The
        first two touch no data block, so they charge no disk latency.

        Every answer but a getattr from another server (``remote``)
        stamps the replica's read time, which update replies report to the
        token holder.  A read from another server or an "unchanged" answer
        also stamps this holder's read time in the catalog, the other
        input of LRU deletion (§3.1)."""
        kernel, sid, major = self.kernel, replica.sid, replica.major
        if count == 0 or verify is not None:
            await self._after_burst_head(sid, major)
        unchanged = verify is not None \
            and list(verify) == list(replica.version.to_tuple()) \
            and StripeMap.from_meta(replica.meta) is None
        data = b""
        if count != 0 and not unchanged:
            t0 = kernel.now
            await self.store.touch_read(replica)
            await self._after_burst_head(sid, major)
            self.metrics.latency("pipeline.read_ms").record(kernel.now - t0)
            tracer = kernel._tracer
            if tracer is not None:
                tid = kernel.current_trace()
                if tid is not None:
                    tracer.record(tid, t0, kernel.now, "pipeline", "read")
            end = len(replica.data) if count is None else offset + count
            data = replica.data[offset:end]
        read = count != 0 or unchanged
        if read or not remote:
            replica.read_ts = kernel.now
        cat = self.catalog.get(sid)
        if read and (remote or unchanged) and cat is not None \
                and major in cat.majors:
            cat.majors[major].read_ts[self.transport.addr] = kernel.now
        return ReadResult(
            data=data, version=replica.version, meta=dict(replica.meta),
            params=replica.params, major=major,
            served_by=self.transport.addr, unchanged=unchanged)

    async def _after_burst_head(self, sid: str, major: int) -> None:
        """§3.4 at the token holder: a local read of a major whose burst
        head (the update carrying the unstable mark) is still in its round
        waits for that round, so no reader gets the new version while
        another member still serves the old one as stable."""
        while (head := self.burst_heads.get((sid, major))) is not None:
            await head

    # ------------------------------------------------------------------ #
    # forwarding
    # ------------------------------------------------------------------ #

    def _call(self, server: str, sid: str, major: int | None, **args):
        """One forwarded ``seg_read``, its raw reply."""
        return self.transport.call(
            server, "seg_read", sid=sid, major=major, **args,
            timeout=READ_FORWARD_TIMEOUT_MS, tag="seg_read")

    async def _ask(self, server: str, sid: str, major: int,
                   **args) -> ReadResult:
        """One forwarded ``seg_read``, its reply decoded."""
        return _decode(await self._call(server, sid, major, **args),
                       server, major)

    async def _call_a_holder(self, cat, info, sid: str, major: int,
                             **args) -> dict:
        """§2.1 request forwarding: the raw reply of the first other holder,
        in address order, that answers, with ``served_by`` set.  While the
        major is unstable (§3.4) the token holder is asked first: only its
        replica may serve.

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
                raw = await self._call(holder, sid, major, **args)
            except (RpcTimeout, RpcRemoteError) as exc:
                last_error = exc
                continue
            return {"served_by": holder, **raw}
        raise ReplicaUnavailable(
            f"{sid}: no holder of major {major} reachable") from last_error

    async def _ask_a_holder(self, cat, info, sid: str, major: int,
                            **args) -> ReadResult:
        """:meth:`_call_a_holder`, its reply decoded."""
        raw = await self._call_a_holder(cat, info, sid, major, **args)
        return _decode(raw, raw["served_by"], major)

    async def _ask_a_member(self, sid: str, **args) -> ReadResult | None:
        """A read of the latest major without joining the file group: ask
        the holders the read hint names — the token holder first while
        the hint says unstable — then the creator embedded in the sid, and
        keep what the answering member said as the new hint.  ``None``
        sends the caller down the join path: no target answered, or the
        file migrates to its readers (§3.1 method 4, which needs a
        member), or it is a striped parent, whose group this server has
        then joined (one read at a time; the others keep the answer).

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
                raw = await self._call(server, sid, None, **args)
            except (RpcTimeout, RpcRemoteError):
                self.hints.pop(sid, None)
                continue
            result = _decode(raw, server, raw["major"])
            if result.params.file_migration:
                return None
            smap = StripeMap.from_meta(result.meta)
            if smap is not None and sid not in self.gathering:
                self.gathering.add(sid)
                try:
                    await self.catalog.ensure_group(sid)
                    return None
                except NoSuchSegment:
                    pass    # deleted since it answered; the answer stands
                finally:
                    self.gathering.discard(sid)
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
    # the RPC handler (registered by the facade)
    # ------------------------------------------------------------------ #

    async def handle_read(self, src: str, sid: str, major: int | None,
                          **args) -> dict:
        """A forwarded read (``offset``, ``count`` and maybe ``verify``)
        of ``major``, or of the latest major from a non-member."""
        if major is None:
            return await self._answer_a_nonmember(src, sid, **args)
        replica = self.store.replicas.get((sid, major))
        if replica is None:
            raise NoSuchSegment(f"{sid};{major} not held by {self.transport.addr}")
        relayed = await self._relay(src, sid, major, replica, **args)
        if relayed is not None:
            return relayed
        result = await self._serve(replica, remote=True, **args)
        reply = {"data": result.data, "version": result.version.to_tuple(),
                 "meta": result.meta, "params": result.params.to_dict()}
        if result.unchanged:
            reply["unchanged"] = True
        return reply

    async def _relay(self, src: str, sid: str, major: int, replica: Replica,
                     **args) -> dict | None:
        """A forwarded read answered by the token holder, or ``None`` to
        serve this replica.  While a stability-notification major is
        unstable (§3.4) only the token holder's replica may serve, so a
        holder without the token relays the read there — unless that
        holder cannot be reached now (then this copy serves, rather than
        chaining forward timeouts to a dead holder), asked us itself, or
        fails to answer."""
        if self._stable(replica):
            return None
        holder = self.catalog.catalogs[sid].majors[major].holder
        me = self.transport.addr
        if holder in (None, me, src) or not self.transport.reachable(me, holder):
            return None
        try:
            raw = await self._call(holder, sid, major, **args)
        except (RpcTimeout, RpcRemoteError):
            return None
        return {**raw, "served_by": holder}

    async def _answer_a_nonmember(self, src: str, sid: str, **args) -> dict:
        """A read of the latest major from a server outside the file
        group: answered as this member's own read would be — from its
        replica through the §3.4 relay, or forwarded to a holder — plus
        the major, this member's holder set, its token holder and whether
        the major is unstable, which the asker keeps as its read hint."""
        if not self.catalog.joined(sid):
            raise NotMember(f"{self.transport.addr} not in {group_of(sid)}")
        cat = self.catalog.catalogs[sid]
        major = self.catalog.pick_major(cat, None)
        info = cat.majors[major]
        if (sid, major) in self.store.replicas:
            raw = await self.handle_read(src, sid, major, **args)
        else:
            raw = await self._call_a_holder(cat, info, sid, major, **args)
        return {**raw, "major": major,
                **placement_of(cat, info).to_answer()}


def _decode(raw: dict, server: str, major: int) -> ReadResult:
    """A forwarded ``seg_read`` reply from ``server``; a relayed reply
    names the token holder that served it instead."""
    return ReadResult(
        data=raw["data"], version=VersionPair.from_tuple(raw["version"]),
        meta=raw["meta"], params=FileParams.from_dict(raw["params"]),
        major=major, served_by=raw.get("served_by", server),
        unchanged=raw.get("unchanged", False),
    )
