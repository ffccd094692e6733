"""Striper: range I/O, conversion, and placement over the stripe map.

One per server, owned by the NFS envelope and sitting directly on the
local :class:`~repro.core.segment_server.SegmentServer`.  Everything it
does decomposes into *ordinary segment operations*:

- a range read fans out one ``segments.read`` per affected stripe (in
  parallel — each may be served locally or forwarded to that stripe's
  holder, so a large read streams from several servers at once);
- a range write fans out one update per affected stripe; stripes have
  independent write tokens, so writers to disjoint regions commute with
  zero token traffic between them.  The piece of a range inside one
  stripe — one the agent can aim at the stripe — entering a server
  without a replica of it is passed on (§3.3 optimization 2) unless it
  continues that server's own stream; a wider range's pieces take each
  token where they enter (see
  :meth:`~repro.core.pipeline.update.UpdatePipeline.write`);
- growing past the end allocates new stripe segments and ships a
  commuting ``stripe_extend`` to the parent (first claim of an index
  wins; a losing claimant rewrites into the winner and retires its
  orphan);
- whole-image changes — a truncating whole-file write, a conversion when
  contents first outgrow ``stripe_size``, a restripe or un-stripe from
  ``setparam`` — build the complete new form *first* and then flip the
  parent in **one** guarded update, so a concurrent reader sees the old
  contents or the new, never a half-written hybrid.  Replaced stripes are
  retired after a grace delay so readers holding the old map drain.

Placement: new stripes are scattered ring-style across the cell's servers
(stripe ``i`` to server ``i mod n``) using the §3.1/§6.2 explicit
replica-placement path, so a fresh striped file is already spread; from
there each stripe is an ordinary segment whose replicas §3.1's generation
methods and LRU deletion manage independently.

Known limits (documented, not bugs): a range write racing a concurrent
restripe of the same file may be absorbed into the new form or lost, like
any NFS write racing a whole-file rewrite; and the parent's mtime only
advances when the file's *size* changes (non-extending range writes touch
no parent state at all — that is what keeps the parent cold).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.segment import WriteOp
from repro.core.striping.stripemap import (
    META_KEY,
    StripeMap,
    file_length,
    merge_extend,
    wants_stripes,
)
from repro.errors import (
    NoSuchSegment,
    ReplicaUnavailable,
    RpcTimeout,
    Unreachable,
    VersionConflict,
)
from repro.metrics import Metrics
from repro.net.network import RpcRemoteError

if TYPE_CHECKING:   # read_path reads stripe widths from this package
    from repro.core.pipeline.read_path import ReadResult

#: Attempts at a guarded whole-image install before giving up.
MAX_INSTALL_RETRIES = 8
#: Grace before a replaced/dropped stripe's storage is reclaimed: readers
#: that fetched the old map before the flip finish against live segments.
RETIRE_DELAY_MS = 1500.0


class Striper:
    """Striping half of one server's NFS envelope."""

    def __init__(self, segments, metrics: Metrics | None = None):
        self.segments = segments
        self.proc = segments.proc
        self.kernel = segments.kernel
        self.metrics = metrics or segments.metrics

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    async def read_range(self, smap: StripeMap, offset: int,
                         count: int | None,
                         ) -> tuple[bytes, ReadResult | None]:
        """Gather ``[offset, offset+count)`` from the affected stripes.

        Stripe reads run in parallel; holes and sparse stripe tails read
        as zeros; the range is clipped to the file length (EOF truncates).
        Returns the bytes and, when the range lay in one allocated stripe,
        that stripe's :class:`ReadResult` (its placement record says where
        the next read of the stripe can go); ``None`` for a gather or a
        hole.
        """
        ranges = smap.ranges(offset, count)
        if not ranges:
            return b"", None
        self.metrics.incr("striping.range_reads")
        self.metrics.incr("striping.stripe_reads", len(ranges))

        async def piece(r) -> tuple[bytes, ReadResult | None]:
            if r.sid is None:
                return b"\x00" * r.length, None  # hole: never allocated
            result = await self.segments.read(r.sid, offset=r.inner,
                                              count=r.length)
            data = result.data
            if len(data) < r.length:
                # sparse tail: the stripe was written short of this range
                data += b"\x00" * (r.length - len(data))
            return data, result

        if len(ranges) == 1:
            return await piece(ranges[0])
        tasks = [self.proc.spawn(piece(r),
                                 name=f"{self.proc.addr}:stripe-read")
                 for r in ranges]
        parts = await self.kernel.all_of(tasks)
        return b"".join(data for data, _result in parts), None

    # ------------------------------------------------------------------ #
    # writes (every shape the envelope routes here)
    # ------------------------------------------------------------------ #

    async def write(self, fh, stat, offset: int, data: bytes,
                    truncate: bool, patch: dict[str, Any],
                    uid: list | None = None,
                    ) -> tuple[dict[str, Any], int, Any]:
        """One NFS write against a striped (or threshold-crossing) file.

        Returns ``(reply_meta, new_length, parent_version)`` for the
        envelope to derive reply attributes from.  ``patch`` is the
        parent-meta patch (mtime etc.) applied whenever the parent is
        actually updated.  ``data`` is empty only with ``truncate``: the
        envelope answers a zero-length positioned write itself.  A range
        write's pieces carry ``uid``, each to its own stripe.
        """
        for attempt in range(MAX_INSTALL_RETRIES):
            if attempt:
                stat = await self.segments.stat(fh.sid, version=fh.version)
            smap = StripeMap.from_meta(stat.meta)
            try:
                if truncate:
                    return await self._install_image(fh, stat, data, patch)
                if smap is None:
                    # blob whose contents are about to outgrow stripe_size:
                    # rebuild the full image and convert in place
                    base = await self.segments.read(fh.sid, version=fh.version)
                    return await self._install_image(
                        fh, base, _overlay(base.data, offset, data), patch)
                return await self._write_range(fh, stat, smap, offset, data,
                                               patch, uid)
            except VersionConflict:
                self.metrics.incr("striping.install_conflicts")
                continue
        raise ReplicaUnavailable(f"{fh.sid}: striping install contention")

    async def _write_range(self, fh, stat, smap: StripeMap, offset: int,
                           data: bytes, patch: dict[str, Any], uid,
                           ) -> tuple[dict[str, Any], int, Any]:
        """A positioned write through the map: one ``replace`` for each
        affected stripe, and no update to any other."""
        new_length = max(smap.length, offset + len(data))
        ops: dict[int, WriteOp] = {}
        pos = 0
        # not clipped to the file length: the write extends the file, and
        # the hole it skips over stays unallocated
        for r in smap.pieces(offset, offset + len(data)):
            ops[r.index] = WriteOp(kind="replace", offset=r.inner,
                                   data=data[pos:pos + r.length], uid=uid)
            pos += r.length
        created: dict[int, str] = {}
        # a range inside one stripe is one the agent can aim at the
        # stripe's holder; the pieces of a wider range enter here
        routable = len(ops) == 1

        async def apply_stripe(index: int, op: WriteOp):
            sid = smap.sid_at(index)
            if sid is None:
                # hole (or beyond the end): the stripe is born carrying its
                # bytes — zeros fill the gap before them
                created[index] = await self._create_stripe(
                    fh.sid, index, _overlay(b"", op.offset, op.data),
                    stat.params)
                return
            await self.segments.write(sid, op, forward_unless_replica=routable)
            self.metrics.incr("striping.stripe_writes")

        tasks = [self.proc.spawn(apply_stripe(index, op),
                                 name=f"{self.proc.addr}:stripe-write")
                 for index, op in sorted(ops.items())]
        await self.kernel.all_of(tasks)

        version = stat.version
        merged = smap
        if created or new_length > smap.length:
            # the only parent traffic a range write ever causes — and only
            # when the file *grew*: a commuting, unguarded extend
            proposal = {"length": new_length,
                        "sids": {i: s for i, s in sorted(created.items())}}
            version = await self._parent_update(
                fh.sid, WriteOp(kind="stripe_extend", stripe=proposal,
                                meta=dict(patch)),
                guard=None, version=fh.version)
            self.metrics.incr("striping.extends")
            merged = StripeMap.from_meta(
                merge_extend({META_KEY: smap.to_meta()}, proposal))
            if created:
                merged = await self._reconcile_claims(fh, merged, created,
                                                      ops)
        reply_meta = {**stat.meta, **patch, META_KEY: merged.to_meta()}
        return reply_meta, new_length, version

    async def _reconcile_claims(self, fh, optimistic: StripeMap,
                                created: dict[int, str],
                                ops: dict[int, WriteOp]) -> StripeMap:
        """After an extend, learn whether our stripe claims won.

        ``merge_extend`` gives an index to the first claimant; a loser's
        ``replace`` (``ops[index]``) must land in the *winner's* stripe
        and its orphan segment is retired.  (Rare: requires two writers
        growing into the same hole.)
        """
        result = await self.segments.stat(fh.sid, version=fh.version)
        auth = StripeMap.from_meta(result.meta)
        if auth is None:
            # the map was atomically replaced under us (restripe/unstripe);
            # the replacement is built from authoritative contents — our
            # freshly-created orphans just die
            self.retire_stripes(created.values())
            return optimistic
        for index, sid in created.items():
            winner = auth.sid_at(index)
            if winner is None or winner == sid:
                continue
            self.metrics.incr("striping.claim_losses")
            await self.segments.write(winner, ops[index])
            self.retire_stripes([sid])
        return auth

    # ------------------------------------------------------------------ #
    # whole-image installs (conversion, rewrite, restripe, unstripe)
    # ------------------------------------------------------------------ #

    async def _install_image(self, fh, stat, image: bytes,
                             patch: dict[str, Any],
                             ) -> tuple[dict[str, Any], int, Any]:
        """Replace the file's entire contents in one guarded parent update.

        Whether the new form is striped follows the per-file parameter:
        contents above ``stripe_size`` stripe, at or below it collapse
        back to a plain blob.  New stripes are fully written (and placed)
        *before* the flip; the old form's stripes are retired after it.
        A stale guard means another whole-image change won the race — the
        created stripes are rolled back and :class:`VersionConflict`
        propagates to the caller's retry loop.
        """
        old_map = StripeMap.from_meta(stat.meta)
        if wants_stripes(stat.params, stat.meta, len(image)):
            sids, new_map, op = await self._stripe_image(
                fh.sid, image, len(image), stat.params, patch)
        else:
            sids, new_map = [], None
            op = WriteOp(kind="setdata", data=image,
                         meta={**patch, META_KEY: None})  # None deletes key
        try:
            version = await self._parent_update(fh.sid, op,
                                                guard=stat.version,
                                                version=fh.version)
        except VersionConflict:
            await self._delete_quietly(sids)   # roll the orphans back
            raise
        if old_map is not None:
            self.retire_stripes(old_map.live_sids())
        if new_map is not None:
            self.metrics.incr("striping.restripes" if old_map is not None
                              else "striping.conversions")
        elif old_map is not None:
            self.metrics.incr("striping.unstripes")
        reply_meta = {**stat.meta, **patch}
        if new_map is not None:
            reply_meta[META_KEY] = new_map.to_meta()
        else:
            reply_meta.pop(META_KEY, None)
            reply_meta["length"] = len(image)
        return reply_meta, len(image), version

    async def _stripe_image(self, parent_sid: str, image: bytes, length: int,
                            params, patch: dict[str, Any]):
        """Cut ``image`` into fully written, placed stripes.  Returns
        ``(sids, map, op)``: the new segments (to roll back if the flip
        loses), the map of a ``length``-byte file over them (bytes past the
        image are a hole), and the parent update that installs it."""
        ss = params.stripe_size
        tasks = [self.proc.spawn(
            self._create_stripe(parent_sid, index, image[i:i + ss], params),
            name=f"{self.proc.addr}:stripe-create")
            for index, i in enumerate(range(0, len(image), ss))]
        sids = await self.kernel.all_of(tasks)
        new_map = StripeMap(stripe_size=ss, length=length, sids=tuple(sids))
        return sids, new_map, WriteOp(
            kind="setdata", data=b"",
            meta={**patch, META_KEY: new_map.to_meta()})

    async def restripe(self, fh) -> None:
        """Reshape the file to match its current ``stripe_size`` parameter
        (the ``setparam`` hook — §4's replica-level changes, for striping).

        No-op when the file already has the right form.  The gather and
        the flip are guarded on the parent version, so the change is
        atomic from a concurrent reader's point of view.
        """
        for _attempt in range(MAX_INSTALL_RETRIES):
            stat = await self.segments.stat(fh.sid)
            smap = StripeMap.from_meta(stat.meta)
            want_striped = wants_stripes(stat.params, stat.meta,
                                         file_length(stat.meta))
            if smap is None and not want_striped:
                return
            if smap is not None and want_striped and \
                    smap.stripe_size == stat.params.stripe_size:
                return
            if smap is None:
                base = await self.segments.read(fh.sid)
                stat, image = base, base.data
            else:
                image, _stripe = await self.read_range(smap, 0, None)
            try:
                await self._install_image(fh, stat, image, patch={})
                return
            except VersionConflict:
                self.metrics.incr("striping.install_conflicts")
                continue
        raise ReplicaUnavailable(f"{fh.sid}: restripe contention")

    async def truncate(self, fh, stat, smap: StripeMap, size: int,
                       patch: dict[str, Any]) -> Any:
        """SETATTR size change on a striped file; returns the parent version.

        Growth is a commuting ``stripe_extend`` (the new tail is a hole).
        Shrink installs the clipped map *first* — the flip is what readers
        observe — then reclaims the dropped stripes' storage: a reader
        holding the old map still finds live (if truncated) segments.  A
        shrink's guard going stale (a concurrent extend grew the file
        between the stat and the install) re-stats and retries, like every
        other guarded map change.
        """
        for _attempt in range(MAX_INSTALL_RETRIES):
            if size >= smap.length:
                if size == smap.length:
                    return await self._parent_update(
                        fh.sid, WriteOp(kind="setmeta", meta=dict(patch)),
                        guard=None, version=fh.version)
                return await self._parent_update(
                    fh.sid, WriteOp(kind="stripe_extend",
                                    stripe={"length": size, "sids": {}},
                                    meta=dict(patch)),
                    guard=None, version=fh.version)
            last = (size - 1) // smap.stripe_size if size > 0 else -1
            new_map = StripeMap(stripe_size=smap.stripe_size, length=size,
                                sids=smap.sids[:last + 1])
            try:
                version = await self._parent_update(
                    fh.sid, WriteOp(kind="setmeta",
                                    meta={**patch, META_KEY: new_map.to_meta()}),
                    guard=stat.version, version=fh.version)
            except VersionConflict:
                self.metrics.incr("striping.install_conflicts")
                stat = await self.segments.stat(fh.sid, version=fh.version)
                refreshed = StripeMap.from_meta(stat.meta)
                if refreshed is None:
                    # un-striped under us: a plain blob truncate finishes
                    return await self.segments.write(
                        fh.sid, WriteOp(kind="truncate", length=size,
                                        meta={**patch, "length": size}),
                        version=fh.version)
                smap = refreshed
                continue
            dropped = [sid for sid in smap.sids[last + 1:] if sid is not None]
            self.retire_stripes(dropped)
            keep_inner = size - last * smap.stripe_size
            last_sid = new_map.sid_at(last) if last >= 0 else None
            if last_sid is not None:
                # storage reclaim only: the map's length already clips reads
                await self.segments.write(
                    last_sid, WriteOp(kind="truncate", length=keep_inner))
            return version
        raise ReplicaUnavailable(f"{fh.sid}: truncate contention")

    async def truncate_grow_convert(self, fh, stat, size: int,
                                    patch: dict[str, Any]) -> Any:
        """SETATTR growth pushing a *blob* past its ``stripe_size``: stripe
        the current contents and record the new length — the grown tail is
        an unallocated hole, not megabytes of dense zeros in one blob.
        Returns the parent version after the flip.
        """
        for _attempt in range(MAX_INSTALL_RETRIES):
            base = await self.segments.read(fh.sid, version=fh.version)
            smap = StripeMap.from_meta(base.meta)
            if smap is not None:
                # converted under us (a concurrent write crossed the
                # threshold): the plain striped grow path finishes the job
                return await self.truncate(fh, base, smap, size, patch)
            sids, _map, op = await self._stripe_image(
                fh.sid, base.data, size, base.params, patch)
            try:
                version = await self._parent_update(fh.sid, op,
                                                    guard=base.version,
                                                    version=fh.version)
            except VersionConflict:
                self.metrics.incr("striping.install_conflicts")
                await self._delete_quietly(sids)
                continue
            self.metrics.incr("striping.conversions")
            return version
        raise ReplicaUnavailable(f"{fh.sid}: truncate contention")

    # ------------------------------------------------------------------ #
    # stripe lifecycle
    # ------------------------------------------------------------------ #

    async def _create_stripe(self, parent_sid: str, index: int, chunk: bytes,
                             params) -> str:
        """One new stripe segment, carrying its bytes from birth, placed on
        its ring-ordered home server."""
        sid = await self.segments.create(
            params=params.with_updates(stripe_size=None),  # never recursive
            data=chunk,
            meta={"ftype": "reg", "length": len(chunk),
                  "stripe_of": parent_sid, "stripe_index": index})
        self.metrics.incr("striping.stripes_created")
        await self._place(sid, index)
        return sid

    def _scatter_target(self, index: int) -> str:
        roster = sorted(set(self.proc.cell_peers) | {self.proc.addr})
        return roster[index % len(roster)]

    async def _place(self, sid: str, index: int) -> None:
        """Scatter a fresh stripe to its home server (§3.1 method 3 — the
        explicit-placement path §6.2's dispersion scenario uses).  Best
        effort: an unreachable target just leaves the stripe local.  A
        target already holding one of the stripe's ``min_replicas`` birth
        copies is left as it is: moving would drop the local copy and
        leave the stripe below its floor."""
        me = self.proc.addr
        target = self._scatter_target(index)
        if target == me or not self.proc.network.reachable(me, target):
            return
        try:
            if target in (await self.segments.locate_replicas(sid))["holders"]:
                return
            if await self.segments.create_replica(sid, target):
                await self.segments.delete_replica(sid, me)
                self.metrics.incr("striping.stripes_scattered")
        except (NoSuchSegment, ReplicaUnavailable, RpcTimeout,
                RpcRemoteError, Unreachable):
            pass    # unplaceable right now: the stripe stays local

    def retire_stripes(self, sids) -> None:
        """Reclaim replaced/dropped stripes after the reader grace delay."""
        sids = [sid for sid in sids if sid is not None]
        if not sids:
            return
        self.metrics.incr("striping.stripes_retired", len(sids))
        self.kernel.schedule(
            RETIRE_DELAY_MS,
            lambda retired=list(sids): self.proc.spawn(
                self._delete_quietly(retired),
                name=f"{self.proc.addr}:stripe-retire"))

    async def _delete_quietly(self, sids) -> None:
        for sid in sids:
            try:
                await self.segments.delete(sid)
            except (NoSuchSegment, ReplicaUnavailable):
                pass

    async def _parent_update(self, sid: str, op: WriteOp, guard, version):
        """Every parent-map mutation funnels through here (tests gate it
        to force restripe/reader interleavings)."""
        return await self.segments.write(sid, op, guard=guard,
                                         version=version)


def _overlay(base: bytes, offset: int, data: bytes) -> bytes:
    """Apply one positioned write over ``base`` (zero-filling any hole)."""
    head = base[:offset].ljust(offset, b"\x00")
    return head + data + base[offset + len(data):]
