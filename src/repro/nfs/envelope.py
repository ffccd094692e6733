"""The NFS file service envelope: NFS ops → segment ops (§5.2).

Each NFS op is one coroutine method named after the op.  It takes the
request's arguments as keywords — the wire's keys, handles already decoded
— and answers its reply's fields.  The server's RPC entry point
(:meth:`repro.nfs.server.DeceitServer._h_nfs`) admits only the ops in its
table, counts ``nfs.ops.<op>`` and adds the status; everything a reply
says is decided here.

Every file, directory, and soft link is mapped into a unique segment.
Directories serialize their entry table as JSON in the segment data; file
attributes live in segment metadata (see :mod:`repro.nfs.attrs`); symlink
targets are the segment data.

Directory mutations ship as **dirops** (:mod:`repro.core.dirtable`):
single-name add/remove/replace operations, with expected-handle guards,
applied to the entry table at update-application time on every replica.
Two concurrent creates in one directory are two ordinary single-round
updates that commute — no whole-table version guard, no retry storm on the
hot root (§7 flags the root as the hottest file in the system).  The check
half of every check-and-mutate (name exists?, handle unchanged?, directory
empty?) runs *inside* the dirop guard at the write-token holder, closing
the lost/leaked-file TOCTOU races of a read-then-rewrite directory
transaction.  The §5.1 conditional-write *primitive* (``guard=`` /
:class:`~repro.errors.VersionConflict`) remains in the segment layer, where
the striper installs stripe maps with it.

Envelope code raises and catches the segment layer's own exceptions; the
server's RPC boundary (:func:`repro.nfs.server.error_reply`) turns them
into NFS statuses.  The envelope raises :class:`~repro.errors.NfsError`
only for verdicts no segment op reaches: ISDIR, NOTDIR, a missing name,
and a dirop conflict mapped for the op that hit it.
"""

from __future__ import annotations

from typing import Any

from repro.core import SegmentServer, WriteOp
from repro.core.dirtable import decode_dir, encode_dir
from repro.core.pipeline.read_path import (
    PlacementRecord,
    ReadResult,
    placement_of,
)
from repro.core.striping import StripeMap, Striper, file_length, wants_stripes
from repro.errors import (
    DirOpConflict,
    NfsError,
    NfsStat,
    NoSuchSegment,
    ReplicaUnavailable,
    SegmentError,
)
from repro.nfs.attrs import FileAttrs, FileType, sattr_to_meta
from repro.nfs.fhandle import FileHandle
from repro.nfs.links import collect_if_unreferenced
from repro.nfs.names import split_version, validate_name

MAX_DIR_RETRIES = 16
#: Reserved handle for the global root directory (§2.2) — not a segment.
GLOBAL_ROOT_SID = "@global"


class Envelope:
    """One per server; translates NFS calls onto the local segment server."""

    def __init__(self, segments: SegmentServer):
        self.segments = segments
        self.kernel = segments.kernel
        self.metrics = segments.metrics
        self.striper = Striper(segments, metrics=self.metrics)
        self.root_fh: FileHandle | None = None

    def set_root(self, fh: FileHandle) -> None:
        """Install the cell root handle (done once at cell bootstrap)."""
        self.root_fh = fh

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _attrs_of(result: ReadResult, size: int | None = None) -> FileAttrs:
        # a striped file's logical length lives in its stripe map, not in
        # the parent's (empty) data — file_length reads whichever applies
        length = size if size is not None else file_length(result.meta)
        return FileAttrs.from_meta(result.meta, length)

    @staticmethod
    def _hint(result: ReadResult | None, key: str = "placement") -> dict:
        """The reply entry naming where a read's file lives (none for the
        global root, which no segment backs)."""
        return result.placement.hint(result.served_by, key) if result else {}

    @staticmethod
    def _read_fields(result: ReadResult) -> dict:
        """A READ reply's fields: the bytes, their version pair, the file's
        current length — which lets a fan-out client know when its range
        reads already cover the file (no wasted chase past an exactly
        stripe-aligned EOF) — and the placement hint."""
        return {"data": result.data,
                "version": [result.major, result.version.sub],
                "size": file_length(result.meta),
                **result.placement.hint(result.served_by)}

    def _stripe_hint(self, meta: dict, offset: int, count: int) -> dict:
        """The reply entry naming where the one stripe a range write of
        ``[offset, offset+count)`` fell in lives, as this server's catalog
        knows it after the write: its token holder — whose pipeline
        applied the write — is listed first when it holds a replica.
        No entry for a range across stripes."""
        smap = StripeMap.from_meta(meta)
        pieces = smap.pieces(offset, offset + count) if smap else []
        cat = len(pieces) == 1 and self.segments.catalogs.get(pieces[0].sid)
        major = cat.latest_major() if cat else None
        if major is None:
            return {}
        info = cat.majors[major]
        return placement_of(cat, info, smap.stripe_size).hint(
            info.holder or self.segments.proc.addr)

    async def _require_dir(self, fh: FileHandle,
                           verify=None) -> tuple[dict, ReadResult]:
        """A directory's entries and the read they came from; no entries
        when the read answered ``unchanged`` to ``verify``."""
        result = await self.segments.read(fh.sid, version=fh.version,
                                          verify=verify)
        if result.meta.get("ftype") != FileType.DIRECTORY.value:
            raise NfsError(NfsStat.ERR_NOTDIR, fh.sid)
        return ({} if result.unchanged else decode_dir(result.data)), result

    async def _dir_write(self, fh: FileHandle, dirops: list[dict],
                         extra_meta: dict[str, Any] | None = None,
                         ) -> list[int]:
        """One commuting directory mutation: a single dirop update.

        No prior read, no version guard — preconditions travel inside the
        dirop and are checked authoritatively at the write-token holder
        (:meth:`~repro.core.pipeline.update.UpdatePipeline._validate_dirop`).
        Returns the directory's post-op version pair, which rides NFS
        replies so agents can keep their readdir caches version-exact.
        Precondition violations (:class:`DirOpConflict`) propagate to the
        caller, which maps or retries them per operation.

        ``single_update_hint`` engages §3.3 optimization 2: a directory
        mutation is the canonical "likely only one update", so when
        another server holds the directory's token the dirop is *passed to
        it* rather than yanking the token here.  Keeping the hot
        directory's token put is what spares it the token ping-pong — and
        the token-pass timeouts that would otherwise generate divergent
        majors — under cross-server contention.
        """
        op = WriteOp(kind="dirop", dirops=dirops,
                     meta={"mtime": self.kernel.now, **(extra_meta or {})})
        version = await self.segments.write(fh.sid, op, version=fh.version,
                                            single_update_hint=True)
        return [version.major, version.sub]

    async def _touch_meta(self, fh: FileHandle, patch: dict[str, Any]) -> None:
        await self.segments.write(fh.sid, WriteOp(kind="setmeta", meta=patch),
                                  version=fh.version)

    # ------------------------------------------------------------------ #
    # NFS operations
    # ------------------------------------------------------------------ #

    async def getattr(self, fh: FileHandle) -> dict:
        """GETATTR — the most frequent NFS op; attributes only, no data,
        and the placement record of the stat that read them."""
        attrs, result = await self._stat(fh)
        return {"attrs": attrs.to_wire(), **self._hint(result)}

    async def _stat(self, fh: FileHandle,
                    ) -> tuple[FileAttrs, ReadResult | None]:
        """A file's attributes and the zero-byte read they came from."""
        if fh.sid == GLOBAL_ROOT_SID:
            return FileAttrs(ftype=FileType.DIRECTORY, mode=0o555), None
        result = await self.segments.stat(fh.sid, version=fh.version)
        return self._attrs_of(result), result

    async def setattr(self, fh: FileHandle, sattr: dict[str, Any]) -> dict:
        """SETATTR — mode/owner/times via setmeta; size via truncate (routed
        through the stripe map when the file is striped); answers the
        attributes a stat reads afterwards."""
        patch = sattr_to_meta(sattr)
        patch["ctime"] = self.kernel.now
        if "size" in sattr:
            size = int(sattr["size"])
            stat = await self.segments.stat(fh.sid, version=fh.version)
            smap = StripeMap.from_meta(stat.meta)
            patch["mtime"] = self.kernel.now
            if smap is not None:
                await self.striper.truncate(fh, stat, smap, size, patch)
            elif wants_stripes(stat.params, stat.meta, size):
                # growth past the threshold converts, exactly like the
                # write path — the tail becomes a sparse hole
                await self.striper.truncate_grow_convert(fh, stat, size,
                                                         patch)
            else:
                await self.segments.write(
                    fh.sid,
                    WriteOp(kind="truncate", length=size,
                            meta={**patch, "length": size}),
                    version=fh.version,
                )
        else:
            await self._touch_meta(fh, patch)
        attrs, _result = await self._stat(fh)
        return {"attrs": attrs.to_wire()}

    async def lookup(self, fh: FileHandle, name: str,
                     read: bool = False) -> dict:
        """LOOKUP — resolve one name in directory ``fh``, honoring ``foo;3``
        version syntax: the name's handle, its attributes, their read's
        placement record, and the directory's under ``dir_placement``.

        With ``read`` the file's bytes come along, as the READ reply's
        fields and counted as a READ, when this server serves them from its
        own replica — the zero-byte read found that §3.4 lets it answer —
        and a READ would return them without a stripe gather: an unstriped
        regular file.  The attributes are then the full read's.  Otherwise
        no bytes ride, so none are ever relayed (§5.3: the caller reads
        from the holder the placement names)."""
        base, version = split_version(name)
        entries, dir_result = await self._require_dir(fh)
        entry = entries.get(base)
        if entry is None:
            raise NfsError(NfsStat.ERR_NOENT, f"{base} not in {fh.sid}")
        child = FileHandle(sid=entry["h"])
        if version is not None:
            versions = await self.segments.list_versions(child.sid)
            if version not in versions:
                raise NfsError(NfsStat.ERR_NOENT, f"{base};{version}")
            child = child.qualified(version)
        attrs, result = await self._stat(child)
        me = self.segments.proc.addr
        whole = False
        if read and result is not None and result.served_by == me \
                and result.meta.get("ftype") == FileType.REGULAR.value \
                and StripeMap.from_meta(result.meta) is None:
            result = await self.segments.read(child.sid, version=child.version)
            attrs = self._attrs_of(result)
            whole = result.served_by == me \
                and StripeMap.from_meta(result.meta) is None
        if whole:
            self.metrics.incr("nfs.ops.read")
        return {"fh": child.encode(), "attrs": attrs.to_wire(),
                **(self._read_fields(result) if whole else self._hint(result)),
                **self._hint(dir_result, "dir_placement")}

    async def read(self, fh: FileHandle, offset: int = 0,
                   count: int | None = None, verify=None) -> dict:
        """READ — byte range of a regular file (or symlink data): the bytes
        **and** their version pair, for version-exact cache validation.

        With ``verify`` (the version pair of the caller's cached copy),
        answers ``unchanged`` while that copy is current — answered by the
        replica that would have served the bytes (§3.4 picks it), so
        revalidation never weakens a file's configured consistency.  An
        unchanged answer moves no payload bytes and charges no disk read.

        A striped file's parent read returns the map, not bytes; the
        requested range is then gathered from the affected stripes in
        parallel (each possibly served by a different holder server).
        The reply carries the *parent's* version pair, which range writes
        deliberately do not bump (that is what lets disjoint writers
        commute) — so a striped file never takes the ``verify`` shortcut:
        an unchanged parent does not prove unchanged contents, so a
        replica whose meta carries a stripe map never answers
        ``unchanged``.  Its placement record, though, is the *stripe's*,
        with the file's stripe width: a range inside one stripe names that
        stripe's holders and who served it, so the agent's next read of
        the stripe can enter at a holder; a multi-stripe gather names
        none.
        """
        result = await self.segments.read(fh.sid, offset=offset, count=count,
                                          version=fh.version, verify=verify)
        if result.meta.get("ftype") == FileType.DIRECTORY.value:
            raise NfsError(NfsStat.ERR_ISDIR, fh.sid)
        if result.unchanged:
            self.metrics.incr("nfs.reads_unchanged")
            return {"unchanged": True, "version": list(verify)}
        smap = StripeMap.from_meta(result.meta)
        if smap is not None:
            result.data, stripe = await self.striper.read_range(
                smap, offset, count)
            if stripe is None:
                result.placement = PlacementRecord()
            else:
                result.placement = stripe.placement._replace(
                    stripe_width=smap.stripe_size)
                result.served_by = stripe.served_by
        return self._read_fields(result)

    async def write(self, fh: FileHandle, offset: int = 0, data: bytes = b"",
                    truncate: bool = False, id: list | None = None) -> dict:
        """WRITE — one segment update; bumps mtime atomically.  Answers the
        attributes and the version pair the write produced.  Every attempt
        of one call carries its ``id`` (:attr:`WriteOp.uid`).

        Two shapes, each a single version bump:

        - plain positioned write: ``replace`` at ``offset``;
        - ``truncate=True``: whole-file replacement as one ``setdata``
          update — truncate-and-write in *one* atomic op, so a concurrent
          reader never observes the empty intermediate state and a crash
          never loses the old contents without producing the new ones.
          It carries ``single_update_hint`` (§3.3 optimization 2, the
          paper's own "likely only one update"): a server that is not the
          token holder passes it to the holder instead of taking the
          token, unless it is continuing a stream of its own (see
          :meth:`~repro.core.pipeline.update.UpdatePipeline.write`).

        The reply attributes are computed **from the write result** (the
        pre-write meta, the op's own meta patch, and the op-derived
        length), not from a follow-up getattr whose attrs could reflect a
        later concurrent write — and which would cost an extra segment op.
        The persisted ``length`` is derived inside update application
        (:meth:`~repro.core.segment.WriteOp.apply`), so it can never be
        poisoned by a truncate racing this write's pre-write stat.

        Striped routing: a file already carrying a stripe map, or one this
        write pushes past its ``stripe_size`` parameter, goes through the
        :class:`~repro.core.striping.striper.Striper` instead — per-stripe
        updates for ranges, an atomic whole-image install for rewrites and
        the blob→striped conversion.  The reply to a range inside one
        stripe carries that stripe's placement hint, as a range read's
        does, so a writer that never reads learns where its next write to
        the stripe goes.  A zero-length plain write is a POSIX no-op
        answered from the stat alone (no update, no version bump).
        """
        stat = await self.segments.stat(fh.sid, version=fh.version)
        if stat.meta.get("ftype") == FileType.DIRECTORY.value:
            raise NfsError(NfsStat.ERR_ISDIR, fh.sid)
        patch = {"mtime": self.kernel.now}
        if not truncate and not data:
            return {"attrs": self._attrs_of(stat).to_wire(),
                    "version": [stat.major, stat.version.sub]}
        projected = len(data) if truncate else \
            max(file_length(stat.meta), offset + len(data))
        if StripeMap.from_meta(stat.meta) is not None or \
                wants_stripes(stat.params, stat.meta, projected):
            reply_meta, new_length, version = await self.striper.write(
                fh, stat, offset, data, truncate, patch, id)
            return {"attrs": FileAttrs.from_meta(reply_meta,
                                                 new_length).to_wire(),
                    "version": [version.major, version.sub],
                    **({} if truncate else self._stripe_hint(
                        reply_meta, offset, len(data)))}
        if truncate:
            op = WriteOp(kind="setdata", data=data, meta=patch, uid=id)
        else:
            op = WriteOp(kind="replace", offset=offset, data=data, meta=patch,
                         uid=id)
        version = await self.segments.write(fh.sid, op, version=fh.version,
                                            single_update_hint=truncate)
        replica = self.segments.store.replicas.get((fh.sid, version.major))
        if replica is not None and replica.version == version:
            # this server holds the replica at exactly the version the
            # write produced: report its post-apply state verbatim (an
            # in-memory peek — zero extra segment ops)
            reply_meta = dict(replica.meta)
            new_length = len(replica.data)
        else:
            # forwarded or not-yet-applied locally: derive from the op;
            # for replace the pre-write length is a best-effort
            # base, but the *persisted* length is race-free regardless
            # (WriteOp.apply derives it at application)
            new_length = op.result_length(stat.meta.get("length", 0))
            reply_meta = {**stat.meta, **patch, "length": new_length}
        return {"attrs": FileAttrs.from_meta(reply_meta, new_length).to_wire(),
                "version": [version.major, version.sub]}

    async def create(self, fh: FileHandle, name: str,
                     sattr: dict[str, Any] | None = None) -> dict:
        """CREATE — new regular file in directory ``fh``; answers its
        handle, its attributes, and the directory's post-op version
        pair."""
        return await self._create_node(fh, name, FileType.REGULAR, b"", sattr)

    async def mkdir(self, fh: FileHandle, name: str,
                    sattr: dict[str, Any] | None = None) -> dict:
        """MKDIR — new directory (its own segment with an empty table)."""
        sattr = dict(sattr or {})
        sattr.setdefault("mode", 0o755)
        return await self._create_node(fh, name, FileType.DIRECTORY,
                                       encode_dir({}), sattr)

    async def symlink(self, fh: FileHandle, name: str, target: str) -> dict:
        """SYMLINK — soft link; the target string is the segment data."""
        return await self._create_node(fh, name, FileType.SYMLINK,
                                       target.encode(), None)

    async def readlink(self, fh: FileHandle) -> dict:
        """READLINK — the symlink's target."""
        result = await self.segments.read(fh.sid, version=fh.version)
        if result.meta.get("ftype") != FileType.SYMLINK.value:
            raise NfsError(NfsStat.ERR_IO, f"{fh.sid} is not a symlink")
        return {"target": result.data.decode()}

    async def _create_node(self, dirfh: FileHandle, name: str, ftype: FileType,
                           data: bytes, sattr: dict[str, Any] | None) -> dict:
        """Segment-create + **one** dirop add — two segment ops total.

        The reply attributes are the meta this method just built (the
        create distributed it verbatim), so no follow-up getattr round is
        paid — the namespace analogue of the write path deriving reply
        attrs from the write itself.  A rejected add (name exists, target
        sealed by a concurrent rmdir) rolls the orphan segment back.
        """
        validate_name(name)
        base, version = split_version(name)
        if version is not None:
            raise NfsError(NfsStat.ERR_EXIST,
                           "cannot create a version-qualified name")
        now = self.kernel.now
        attrs = FileAttrs(ftype=ftype, atime=now, mtime=now, ctime=now)
        for key, value in sattr_to_meta(sattr or {}).items():
            setattr(attrs, key, value)
        meta = attrs.to_meta()
        meta["length"] = len(data)
        meta["uplinks"] = [dirfh.sid]
        sid = await self.segments.create(data=data, meta=meta)
        try:
            dir_version = await self._dir_write(dirfh, [
                {"action": "add", "name": base,
                 "entry": {"h": sid, "t": ftype.value}}])
        except Exception as exc:
            await self.segments.delete(sid)  # roll back the orphan
            if isinstance(exc, DirOpConflict):
                raise self._map_dirop_conflict(exc, base) from exc
            raise
        return {"fh": FileHandle(sid=sid).encode(),
                "attrs": FileAttrs.from_meta(meta, len(data)).to_wire(),
                "dir_version": dir_version}

    @staticmethod
    def _map_dirop_conflict(exc: DirOpConflict, name: str) -> NfsError:
        """Translate a dirop precondition failure into an nfsstat."""
        status = {
            "exists": NfsStat.ERR_EXIST,
            "absent": NfsStat.ERR_NOENT,
            "notempty": NfsStat.ERR_NOTEMPTY,
            "notdir": NfsStat.ERR_NOTDIR,
            # a sealed directory is mid-rmdir: to this caller it is gone
            "sealed": NfsStat.ERR_NOENT,
            # "changed" means the caller's expectation went stale — ops
            # that can re-read and retry catch it before reaching here
            "changed": NfsStat.ERR_IO,
        }.get(exc.reason, NfsStat.ERR_IO)
        return NfsError(status, f"{name}: {exc}")

    async def remove(self, fh: FileHandle, name: str) -> dict:
        """REMOVE — unlink a file name; storage is garbage collected when
        no version of any uplinked directory still references it (§5.2).

        The dirop carries the handle the name resolved to as its
        ``expect`` guard, so a racing rename-over can never make this
        unlink the *new* file while the link decrement hits the *old* one:
        a swapped entry rejects the dirop and the operation re-reads and
        retargets.  Answers the directory's post-op version pair.
        """
        base, _version = split_version(name)
        for _attempt in range(MAX_DIR_RETRIES):
            entries, _result = await self._require_dir(fh)
            entry = entries.get(base)
            if entry is None:
                raise NfsError(NfsStat.ERR_NOENT, base)
            if entry["t"] == FileType.DIRECTORY.value:
                raise NfsError(NfsStat.ERR_ISDIR, base)
            try:
                dir_version = await self._dir_write(fh, [
                    {"action": "remove", "name": base, "expect": entry["h"]}])
            except DirOpConflict as exc:
                self.metrics.incr("nfs.dirop_conflicts")
                if exc.reason == "absent":
                    raise NfsError(NfsStat.ERR_NOENT, base) from exc
                # entry swapped under us: re-read and retarget (NFS REMOVE
                # is remove-by-name).  First run the GC decision for the
                # handle we *did* target: whoever swapped it may have left
                # it unreferenced, and it must not leak its storage.
                await collect_if_unreferenced(self, entry["h"])
                continue
            await self._decrement_link(FileHandle(sid=entry["h"]))
            return {"dir_version": dir_version}
        raise NfsError(NfsStat.ERR_IO, f"remove contention on {base}")

    async def rmdir(self, fh: FileHandle, name: str) -> dict:
        """RMDIR — remove an *empty* directory.

        Emptiness is not a separate read: the victim is **sealed** first
        (a dirop whose precondition is an empty table; every later create
        into it fails ``sealed``), then unlinked from the parent under an
        expected-handle guard, then deallocated.  A create racing the old
        check-then-drop window now either lands before the seal (rmdir
        answers NOTEMPTY) or loses to it (the create fails cleanly and
        rolls back) — never an orphaned child in a deleted directory.
        Answers the parent's post-op version pair.
        """
        base, _version = split_version(name)
        for _attempt in range(MAX_DIR_RETRIES):
            entries, _result = await self._require_dir(fh)
            entry = entries.get(base)
            if entry is None:
                raise NfsError(NfsStat.ERR_NOENT, base)
            if entry["t"] != FileType.DIRECTORY.value:
                raise NfsError(NfsStat.ERR_NOTDIR, base)
            victim = FileHandle(sid=entry["h"])
            try:
                await self._dir_write(victim, [{"action": "seal"}])
            except DirOpConflict as exc:
                if exc.reason == "notempty":
                    raise NfsError(NfsStat.ERR_NOTEMPTY, base) from exc
                if exc.reason != "sealed":
                    raise self._map_dirop_conflict(exc, base) from exc
                # already sealed: a seal only ever lands on an empty table
                # and blocks every create after it, so the victim is still
                # empty — proceed.  This is also the recovery path for a
                # directory a crashed/failed rmdir left sealed-but-linked;
                # a concurrent rmdir race is settled by the guarded parent
                # remove below (one wins, the other re-reads to NOENT).
            try:
                dir_version = await self._dir_write(fh, [
                    {"action": "remove", "name": base, "expect": entry["h"]}])
            except DirOpConflict:
                # the parent entry moved (concurrent rename of the victim):
                # retreat — unseal so the directory is usable again — and
                # restart from a fresh read
                self.metrics.incr("nfs.dirop_conflicts")
                await self._unseal_quietly(victim)
                continue
            except Exception:
                # any other failure (unreachable replicas, timeout): the
                # victim must not stay sealed-but-linked forever
                await self._unseal_quietly(victim)
                raise
            await self.segments.delete(victim.sid)
            return {"dir_version": dir_version}
        raise NfsError(NfsStat.ERR_IO, f"rmdir contention on {base}")

    async def _unseal_quietly(self, victim: FileHandle) -> None:
        """Best-effort seal rollback (the victim may already be deleted by
        a winning concurrent rmdir, or momentarily unreachable)."""
        try:
            await self._dir_write(victim, [{"action": "unseal"}])
        except SegmentError:
            pass

    async def rename(self, fh: FileHandle, fromname: str,
                     tofh: FileHandle, toname: str) -> dict:
        """RENAME — move an entry from directory ``fh`` to ``tofh``;
        updates the file's uplink list.

        §5.2 notes a move touches "two directories, a link count, and an
        uplink list ... in some safe order"; the order here is
        add-new-entry, update-uplinks, drop-old-entry, so a crash in the
        middle leaves the file reachable (possibly under both names) rather
        than lost.  Both table edits are dirops: the install is a
        ``replace`` guarded on exactly what this rename saw at ``toname``
        (a handle, or "must be absent"), so an overwritten target is
        *known*, its link count is decremented, and its storage is
        garbage-collected instead of leaking; the drop is guarded on the
        moved handle, so a concurrent re-create of ``fromname`` is never
        destroyed.  An install is rolled back if the moved segment turns
        out to have died mid-rename (a racing remove's GC), so a dangling
        entry is never left behind.

        Answers the reply :meth:`_renamed` builds.
        """
        fromdir, todir = fh, tofh
        frombase, _v1 = split_version(fromname)
        tobase, _v2 = split_version(toname)
        validate_name(tobase)
        if fromdir.sid == todir.sid and frombase == tobase:
            # rename onto itself: POSIX says do nothing, successfully.
            # No version is reported: this op produced none, and a current
            # version another client produced must never feed an agent's
            # "my op was the only change" cache patch
            entries, result = await self._require_dir(fromdir)
            entry = entries.get(frombase)
            if entry is None:
                raise NfsError(NfsStat.ERR_NOENT, frombase)
            return self._renamed(entry)
        for _attempt in range(MAX_DIR_RETRIES):
            entries, from_result = await self._require_dir(fromdir)
            entry = entries.get(frombase)
            if entry is None:
                raise NfsError(NfsStat.ERR_NOENT, frombase)
            if fromdir.sid == todir.sid:
                to_entries, to_result = entries, from_result
            else:
                to_entries, to_result = await self._require_dir(todir)
            existing = to_entries.get(tobase)
            if existing is not None and existing["h"] == entry["h"]:
                # both names already link the same file: POSIX rename is a
                # no-op (dropping the old name here would shed a directory
                # reference without its link decrement — a silent leak);
                # no versions = nothing was dropped, nothing was produced
                return self._renamed(entry)
            overwrites = existing is not None
            if overwrites and existing["t"] == FileType.DIRECTORY.value:
                raise NfsError(NfsStat.ERR_EXIST, tobase)
            try:
                to_version = await self._dir_write(todir, [
                    {"action": "replace", "name": tobase, "entry": dict(entry),
                     "expect": existing["h"] if existing is not None else None}])
            except DirOpConflict as exc:
                self.metrics.incr("nfs.dirop_conflicts")
                if exc.reason == "changed":
                    continue    # toname changed between read and dirop
                raise self._map_dirop_conflict(exc, tobase) from exc
            target = FileHandle(sid=entry["h"])
            try:
                stat = await self.segments.stat(target.sid,
                                                version=target.version)
            except (NoSuchSegment, ReplicaUnavailable) as exc:
                # the moved segment died between our read and the install
                # (a racing remove's GC, or an rmdir of the source): undo
                # the install — a dangling entry must never survive
                await self._undo_install(todir, tobase, entry["h"], existing)
                raise NfsError(NfsStat.ERR_NOENT, frombase) from exc
            if fromdir.sid != todir.sid:
                uplinks = list(stat.meta.get("uplinks", []))
                if todir.sid not in uplinks:
                    uplinks.append(todir.sid)
                if fromdir.sid in uplinks:
                    uplinks.remove(fromdir.sid)
                await self._touch_meta(target, {"uplinks": uplinks})
            try:
                from_version = await self._dir_write(fromdir, [
                    {"action": "remove", "name": frombase,
                     "expect": entry["h"]}])
            except DirOpConflict:
                # fromname no longer maps to the moved handle (concurrent
                # remove or re-create): the file is installed at toname,
                # which is the half that must not be lost — leave fromname
                # to whoever owns it now
                from_version = None
            if overwrites:
                # the entry this rename displaced lost its last link from
                # todir: correct its link-count hint and collect if
                # nothing references it any more (the §5.2 GC contract)
                await self._decrement_link(FileHandle(sid=existing["h"]))
            return self._renamed(entry, from_version, to_version)
        raise NfsError(NfsStat.ERR_IO, f"rename contention on {tobase}")

    @staticmethod
    def _renamed(entry: dict, from_version: list[int] | None = None,
                 to_version: list[int] | None = None) -> dict:
        """A RENAME reply: the two directories' post-op version pairs, when
        the rename produced any (from-side ``None`` = the old name was
        *not* dropped), and the entry actually installed at ``toname`` —
        the authority agents feed their readdir caches from, never their
        own possibly stale listings."""
        reply: dict[str, Any] = {}
        if from_version is not None or to_version is not None:
            reply["dir_versions"] = {"from": from_version, "to": to_version}
        reply["moved_entry"] = {"type": entry["t"],
                                "fh": FileHandle(sid=entry["h"]).encode()}
        return reply

    async def _undo_install(self, todir: FileHandle, tobase: str,
                            installed_h: str, previous: dict | None) -> None:
        """Best-effort rollback of a rename install: restore what the
        replace displaced (or remove the new entry), guarded so a
        concurrent re-bind of the name is left alone."""
        if previous is not None:
            undo = {"action": "replace", "name": tobase,
                    "entry": dict(previous), "expect": installed_h}
        else:
            undo = {"action": "remove", "name": tobase, "expect": installed_h}
        try:
            await self._dir_write(todir, [undo])
        except SegmentError:
            pass

    async def link(self, fh: FileHandle, tofh: FileHandle, name: str) -> dict:
        """LINK — hard link to ``fh`` in directory ``tofh``: new entry +
        uplink record + link-count hint.

        "When a hard link is made to f in directory d, d is added to the
        uplink list of all versions of f which can be updated at that
        time" (§5.2).  Answers the entry type actually recorded (the agent
        cache's authority) and the directory's post-op version pair.
        """
        base, _version = split_version(name)
        validate_name(base)
        stat = await self.segments.stat(fh.sid, version=fh.version)
        if stat.meta.get("ftype") == FileType.DIRECTORY.value:
            raise NfsError(NfsStat.ERR_ISDIR, fh.sid)

        try:
            dir_version = await self._dir_write(tofh, [
                {"action": "add", "name": base,
                 "entry": {"h": fh.sid,
                           "t": stat.meta.get("ftype", "reg")}}])
        except DirOpConflict as exc:
            raise self._map_dirop_conflict(exc, base) from exc
        uplinks = list(stat.meta.get("uplinks", []))
        if tofh.sid not in uplinks:
            uplinks.append(tofh.sid)
        await self._touch_meta(fh, {
            "uplinks": uplinks,
            "nlink": stat.meta.get("nlink", 1) + 1,
            "ctime": self.kernel.now,
        })
        return {"entry_type": stat.meta.get("ftype", "reg"),
                "dir_version": dir_version}

    async def _decrement_link(self, fh: FileHandle) -> None:
        """Drop the link-count *hint* by one; a zero hint triggers the
        authoritative §5.2 GC check (which corrects a wrong hint rather
        than trusting it).  A segment that is already gone — a racing
        unlink's GC beat us to it — is a completed outcome, not an error.
        """
        try:
            stat = await self.segments.stat(fh.sid, version=fh.version)
        except NoSuchSegment:
            return
        nlink = max(0, stat.meta.get("nlink", 1) - 1)
        await self._touch_meta(fh, {"nlink": nlink, "ctime": self.kernel.now})
        if nlink == 0:
            await collect_if_unreferenced(self, fh.sid)

    async def readdir(self, fh: FileHandle, verify=None) -> dict:
        """READDIR — entry names (unqualified) with types and handles,
        answered with the directory's version pair and its placement
        record, with version-exact revalidation.

        When ``verify`` (a cached version pair) is still current — answered
        by the segment layer exactly as for data reads — answers
        ``unchanged``: the caller's cached listing is valid and no entry
        bytes move.  Otherwise the version lets agents cache the listing
        version-exactly and keep it coherent from the dirop versions riding
        mutation replies, and the placement names where the directory's
        replicas live.
        """
        if fh.sid == GLOBAL_ROOT_SID:
            # "It cannot be listed, as it implicitly contains the full
            # machine names of every accessible Deceit server." (§2.2)
            raise NfsError(NfsStat.ERR_PERM, "the global root cannot be listed")
        entries, result = await self._require_dir(fh, verify)
        if result.unchanged:
            self.metrics.incr("nfs.readdirs_unchanged")
            return {"unchanged": True, "version": list(verify)}
        listing = [{"name": name, "type": e["t"],
                    "fh": FileHandle(sid=e["h"]).encode()}
                   for name, e in sorted(entries.items())]
        return {"entries": listing,
                "version": [result.major, result.version.sub],
                **self._hint(result)}

    async def statfs(self, fh: FileHandle) -> dict:
        """STATFS — synthetic filesystem totals (simulation-wide)."""
        return {"statfs": {"tsize": 8192, "bsize": 4096, "blocks": 1 << 20,
                           "bfree": 1 << 19, "bavail": 1 << 19}}
