"""The NFS file service envelope: NFS ops → segment ops (§5.2).

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
"""

from __future__ import annotations

from typing import Any

from repro.core import SegmentServer, WriteOp
from repro.core.dirtable import decode_dir, encode_dir
from repro.core.params import FileParams
from repro.core.pipeline.read_path import PlacementRecord, ReadResult
from repro.core.striping import StripeMap, Striper, file_length
from repro.errors import (
    DirOpConflict,
    NfsError,
    NfsStat,
    NoSuchSegment,
    ReplicaUnavailable,
    VersionConflict,
    WriteUnavailable,
    nfs_error,
)
from repro.nfs.attrs import FileAttrs, FileType, sattr_to_meta
from repro.nfs.fhandle import FileHandle
from repro.nfs.links import collect_if_unreferenced
from repro.nfs.names import split_version, validate_name

MAX_DIR_RETRIES = 16
#: Reserved handle for the global root directory (§2.2) — not a segment.
GLOBAL_ROOT_SID = "@global"

DirVersion = tuple[int, int]


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

    async def _read_segment(self, fh: FileHandle, offset: int = 0,
                            count: int | None = None) -> ReadResult:
        try:
            return await self.segments.read(fh.sid, offset=offset,
                                            count=count, version=fh.version)
        except NoSuchSegment as exc:
            raise nfs_error(NfsStat.ERR_STALE, str(exc)) from exc
        except ReplicaUnavailable as exc:
            raise nfs_error(NfsStat.ERR_IO, str(exc)) from exc

    async def _stat_segment(self, fh: FileHandle) -> ReadResult:
        try:
            return await self.segments.stat(fh.sid, version=fh.version)
        except NoSuchSegment as exc:
            raise nfs_error(NfsStat.ERR_STALE, str(exc)) from exc
        except ReplicaUnavailable as exc:
            raise nfs_error(NfsStat.ERR_IO, str(exc)) from exc

    @staticmethod
    def _attrs_of(result: ReadResult, size: int | None = None) -> FileAttrs:
        # a striped file's logical length lives in its stripe map, not in
        # the parent's (empty) data — file_length reads whichever applies
        length = size if size is not None else file_length(result.meta)
        return FileAttrs.from_meta(result.meta, length)

    async def _require_dir(self, fh: FileHandle) -> tuple[dict, ReadResult]:
        result = await self._read_segment(fh)
        if result.meta.get("ftype") != FileType.DIRECTORY.value:
            raise nfs_error(NfsStat.ERR_NOTDIR, fh.sid)
        return decode_dir(result.data), result

    async def _dir_write(self, fh: FileHandle, dirops: list[dict],
                         extra_meta: dict[str, Any] | None = None,
                         ) -> DirVersion | None:
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
        try:
            version = await self.segments.write(fh.sid, op, version=fh.version,
                                                single_update_hint=True)
        except NoSuchSegment as exc:
            raise nfs_error(NfsStat.ERR_STALE, str(exc)) from exc
        except (ReplicaUnavailable, WriteUnavailable) as exc:
            raise nfs_error(NfsStat.ERR_IO, str(exc)) from exc
        if version is None:
            # idempotent replay: the mutation holds, but no version was
            # produced by THIS call — callers must not report one
            return None
        return (version.major, version.sub)

    async def _touch_meta(self, fh: FileHandle, patch: dict[str, Any]) -> None:
        await self.segments.write(fh.sid, WriteOp(kind="setmeta", meta=patch),
                                  version=fh.version)

    # ------------------------------------------------------------------ #
    # NFS operations
    # ------------------------------------------------------------------ #

    async def getattr(self, fh: FileHandle,
                      ) -> tuple[FileAttrs, ReadResult | None]:
        """GETATTR — the most frequent NFS op; attributes only, no data.
        Also returns the stat it made (``None`` for the global root), whose
        placement record the reply carries."""
        self.metrics.incr("nfs.ops.getattr")
        if fh.sid == GLOBAL_ROOT_SID:
            return FileAttrs(ftype=FileType.DIRECTORY, mode=0o555), None
        result = await self._stat_segment(fh)
        return self._attrs_of(result), result

    async def setattr(self, fh: FileHandle, sattr: dict[str, Any]) -> FileAttrs:
        """SETATTR — mode/owner/times via setmeta; size via truncate (routed
        through the stripe map when the file is striped)."""
        self.metrics.incr("nfs.ops.setattr")
        patch = sattr_to_meta(sattr)
        patch["ctime"] = self.kernel.now
        if "size" in sattr:
            size = int(sattr["size"])
            stat = await self._stat_segment(fh)
            smap = StripeMap.from_meta(stat.meta)
            patch["mtime"] = self.kernel.now
            threshold = stat.params.stripe_size
            if smap is not None or (threshold is not None and size > threshold
                                    and stat.meta.get("ftype")
                                    == FileType.REGULAR.value):
                try:
                    if smap is not None:
                        await self.striper.truncate(fh, stat, smap, size,
                                                    patch)
                    else:
                        # growth past the threshold converts, exactly like
                        # the write path — the tail becomes a sparse hole
                        await self.striper.truncate_grow_convert(
                            fh, stat, size, patch)
                except NoSuchSegment as exc:
                    raise nfs_error(NfsStat.ERR_STALE, str(exc)) from exc
                except (ReplicaUnavailable, WriteUnavailable,
                        VersionConflict) as exc:
                    raise nfs_error(NfsStat.ERR_IO, str(exc)) from exc
            else:
                await self.segments.write(
                    fh.sid,
                    WriteOp(kind="truncate", length=size,
                            meta={**patch, "length": size}),
                    version=fh.version,
                )
        else:
            await self._touch_meta(fh, patch)
        return (await self.getattr(fh))[0]

    async def lookup(self, dirfh: FileHandle, name: str,
                     ) -> tuple[FileHandle, FileAttrs, ReadResult | None,
                                ReadResult]:
        """LOOKUP — resolve one name, honoring ``foo;3`` version syntax;
        the handle, its attributes, the stat they came from and the
        directory read the name was found in."""
        self.metrics.incr("nfs.ops.lookup")
        base, version = split_version(name)
        entries, dir_result = await self._require_dir(dirfh)
        entry = entries.get(base)
        if entry is None:
            raise nfs_error(NfsStat.ERR_NOENT, f"{base} not in {dirfh.sid}")
        fh = FileHandle(sid=entry["h"])
        if version is not None:
            versions = await self.segments.list_versions(fh.sid)
            if version not in versions:
                raise nfs_error(NfsStat.ERR_NOENT, f"{base};{version}")
            fh = fh.qualified(version)
        return (fh, *await self.getattr(fh), dir_result)

    async def read(self, fh: FileHandle, offset: int = 0,
                   count: int | None = None) -> bytes:
        """READ — byte range of a regular file (or symlink data)."""
        return (await self.read_result(fh, offset, count)).data

    async def read_result(self, fh: FileHandle, offset: int = 0,
                          count: int | None = None) -> ReadResult:
        """READ returning the full :class:`ReadResult` (data **and** the
        version pair), so callers can do version-exact cache validation.

        A striped file's parent read returns the map, not bytes; the
        requested range is then gathered from the affected stripes in
        parallel (each possibly served by a different holder server).
        The result carries the *parent's* version pair — range mutations
        deliberately do not bump it, so striped reads trade version-exact
        revalidation for commuting writes (see :meth:`read_validate`).
        Its placement record, though, is the *stripe's*, with the file's
        stripe width: a range inside one stripe names that stripe's
        holders and who served it, so the agent's next read of the stripe
        can enter at a holder; a multi-stripe gather names none.
        """
        self.metrics.incr("nfs.ops.read")
        result = await self._read_segment(fh, offset, count)
        if result.meta.get("ftype") == FileType.DIRECTORY.value:
            raise nfs_error(NfsStat.ERR_ISDIR, fh.sid)
        smap = StripeMap.from_meta(result.meta)
        if smap is not None:
            try:
                result.data, stripe = await self.striper.read_range(
                    smap, offset, count)
            except NoSuchSegment as exc:
                raise nfs_error(NfsStat.ERR_STALE, str(exc)) from exc
            except ReplicaUnavailable as exc:
                raise nfs_error(NfsStat.ERR_IO, str(exc)) from exc
            if stripe is None:
                result.placement = PlacementRecord()
            else:
                result.placement = stripe.placement._replace(
                    stripe_width=smap.stripe_size)
                result.served_by = stripe.served_by
        return result

    async def read_validate(self, fh: FileHandle, verify,
                            offset: int = 0,
                            count: int | None = None) -> ReadResult | None:
        """READ with version-exact revalidation.

        Returns ``None`` when the caller's cached copy (version pair
        ``verify``) is still current — decided by the segment layer, which
        refuses the shortcut during §3.4 instability so revalidation never
        weakens a file's configured consistency.  An unchanged answer moves
        no payload bytes and charges no disk read; a stale ``verify`` (or
        an unstable file) falls through to :meth:`read_result`.

        Striped files never take the shortcut: stripe writes do not bump
        the parent's version pair (that is what lets disjoint writers
        commute), so an unchanged *parent* does not prove unchanged
        *contents* — the gather must run.
        """
        try:
            if await self.segments.validate_version(fh.sid, verify,
                                                    version=fh.version) \
                    and not self._striped_locally(fh.sid):
                self.metrics.incr("nfs.ops.read")
                return None
        except NoSuchSegment as exc:
            raise nfs_error(NfsStat.ERR_STALE, str(exc)) from exc
        return await self.read_result(fh, offset, count)

    def _striped_locally(self, sid: str) -> bool:
        """Whether any local replica of ``sid`` carries a stripe map.

        Only consulted after ``validate_version`` answered True — which
        requires a local replica — so the in-memory peek is authoritative
        for the version the shortcut would have served.
        """
        return any(replica.meta.get("stripes")
                   for (rsid, _major), replica
                   in self.segments.store.replicas.items() if rsid == sid)

    async def write(self, fh: FileHandle, offset: int, data: bytes,
                    truncate: bool = False) -> FileAttrs:
        """WRITE — see :meth:`write_result`; returns the attributes only."""
        attrs, _version = await self.write_result(fh, offset, data,
                                                  truncate=truncate)
        return attrs

    async def write_result(self, fh: FileHandle, offset: int, data: bytes,
                           truncate: bool = False,
                           ) -> tuple[FileAttrs, tuple[int, int]]:
        """WRITE — one segment update; bumps mtime atomically.

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
        the blob→striped conversion.  A zero-length plain write is a POSIX
        no-op answered from the stat alone (no update, no version bump).
        """
        self.metrics.incr("nfs.ops.write")
        stat = await self._stat_segment(fh)
        if stat.meta.get("ftype") == FileType.DIRECTORY.value:
            raise nfs_error(NfsStat.ERR_ISDIR, fh.sid)
        patch = {"mtime": self.kernel.now}
        if not truncate and not data:
            return (self._attrs_of(stat),
                    (stat.major, stat.version.sub))
        smap = StripeMap.from_meta(stat.meta)
        if smap is not None or self._crosses_stripe_threshold(
                stat, offset, data, truncate):
            try:
                reply_meta, new_length, version = await self.striper.write(
                    fh, stat, offset, data, truncate, patch)
            except NoSuchSegment as exc:
                raise nfs_error(NfsStat.ERR_STALE, str(exc)) from exc
            except (ReplicaUnavailable, WriteUnavailable) as exc:
                raise nfs_error(NfsStat.ERR_IO, str(exc)) from exc
            return (FileAttrs.from_meta(reply_meta, new_length),
                    (version.major, version.sub))
        if truncate:
            op = WriteOp(kind="setdata", data=data, meta=patch)
        else:
            op = WriteOp(kind="replace", offset=offset, data=data, meta=patch)
        try:
            version = await self.segments.write(fh.sid, op, version=fh.version,
                                                single_update_hint=truncate)
        except NoSuchSegment as exc:
            raise nfs_error(NfsStat.ERR_STALE, str(exc)) from exc
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
        attrs = FileAttrs.from_meta(reply_meta, new_length)
        return attrs, (version.major, version.sub)

    @staticmethod
    def _crosses_stripe_threshold(stat: ReadResult, offset: int, data: bytes,
                                  truncate: bool) -> bool:
        """Whether this write pushes a blob file past its ``stripe_size``
        parameter (the in-place conversion trigger)."""
        threshold = stat.params.stripe_size
        if threshold is None or \
                stat.meta.get("ftype") != FileType.REGULAR.value:
            return False
        if truncate:
            projected = len(data)
        else:
            projected = max(file_length(stat.meta), offset + len(data))
        return projected > threshold

    async def restripe(self, fh: FileHandle) -> None:
        """Reshape a file to match its current ``stripe_size`` parameter —
        the ``setparam`` hook, mirroring how a raised replica level
        triggers replica generation (§4)."""
        try:
            await self.striper.restripe(fh)
        except NoSuchSegment as exc:
            raise nfs_error(NfsStat.ERR_STALE, str(exc)) from exc
        except (ReplicaUnavailable, WriteUnavailable) as exc:
            raise nfs_error(NfsStat.ERR_IO, str(exc)) from exc

    async def create(self, dirfh: FileHandle, name: str,
                     sattr: dict[str, Any] | None = None,
                     params: FileParams | None = None,
                     ) -> tuple[FileHandle, FileAttrs, DirVersion | None]:
        """CREATE — new regular file; returns handle, attributes, and the
        directory's post-op version pair (``None`` on an idempotent
        replay, which produced no version of its own)."""
        self.metrics.incr("nfs.ops.create")
        return await self._create_node(dirfh, name, FileType.REGULAR,
                                       b"", sattr, params)

    async def mkdir(self, dirfh: FileHandle, name: str,
                    sattr: dict[str, Any] | None = None,
                    params: FileParams | None = None,
                    ) -> tuple[FileHandle, FileAttrs, DirVersion | None]:
        """MKDIR — new directory (its own segment with an empty table)."""
        self.metrics.incr("nfs.ops.mkdir")
        sattr = dict(sattr or {})
        sattr.setdefault("mode", 0o755)
        return await self._create_node(dirfh, name, FileType.DIRECTORY,
                                       encode_dir({}), sattr, params)

    async def symlink(self, dirfh: FileHandle, name: str, target: str,
                      ) -> tuple[FileHandle, FileAttrs, DirVersion | None]:
        """SYMLINK — soft link; the target string is the segment data."""
        self.metrics.incr("nfs.ops.symlink")
        return await self._create_node(dirfh, name, FileType.SYMLINK,
                                       target.encode(), None, None)

    async def readlink(self, fh: FileHandle) -> str:
        """READLINK — return the symlink target."""
        self.metrics.incr("nfs.ops.readlink")
        result = await self._read_segment(fh)
        if result.meta.get("ftype") != FileType.SYMLINK.value:
            raise nfs_error(NfsStat.ERR_IO, f"{fh.sid} is not a symlink")
        return result.data.decode()

    async def _create_node(self, dirfh: FileHandle, name: str, ftype: FileType,
                           data: bytes, sattr: dict[str, Any] | None,
                           params: FileParams | None,
                           ) -> tuple[FileHandle, FileAttrs, DirVersion | None]:
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
            raise nfs_error(NfsStat.ERR_EXIST,
                            "cannot create a version-qualified name")
        now = self.kernel.now
        attrs = FileAttrs(ftype=ftype, atime=now, mtime=now, ctime=now)
        for key, value in sattr_to_meta(sattr or {}).items():
            setattr(attrs, key, value)
        meta = attrs.to_meta()
        meta["length"] = len(data)
        meta["uplinks"] = [dirfh.sid]
        sid = await self.segments.create(params=params, data=data, meta=meta)
        fh = FileHandle(sid=sid)

        try:
            dir_version = await self._dir_write(dirfh, [
                {"action": "add", "name": base,
                 "entry": {"h": sid, "t": ftype.value}}])
        except Exception as exc:
            await self.segments.delete(sid)  # roll back the orphan
            if isinstance(exc, DirOpConflict):
                raise self._map_dirop_conflict(exc, base) from exc
            raise
        return fh, FileAttrs.from_meta(meta, len(data)), dir_version

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
        return nfs_error(status, f"{name}: {exc}")

    async def remove(self, dirfh: FileHandle, name: str) -> DirVersion | None:
        """REMOVE — unlink a file name; storage is garbage collected when
        no version of any uplinked directory still references it (§5.2).

        The dirop carries the handle the name resolved to as its
        ``expect`` guard, so a racing rename-over can never make this
        unlink the *new* file while the link decrement hits the *old* one:
        a swapped entry rejects the dirop and the operation re-reads and
        retargets.
        """
        self.metrics.incr("nfs.ops.remove")
        base, _version = split_version(name)
        for _attempt in range(MAX_DIR_RETRIES):
            entries, _result = await self._require_dir(dirfh)
            entry = entries.get(base)
            if entry is None:
                raise nfs_error(NfsStat.ERR_NOENT, base)
            if entry["t"] == FileType.DIRECTORY.value:
                raise nfs_error(NfsStat.ERR_ISDIR, base)
            try:
                dir_version = await self._dir_write(dirfh, [
                    {"action": "remove", "name": base, "expect": entry["h"]}])
            except DirOpConflict as exc:
                self.metrics.incr("nfs.dirop_conflicts")
                if exc.reason == "absent":
                    raise nfs_error(NfsStat.ERR_NOENT, base) from exc
                # entry swapped under us: re-read and retarget (NFS REMOVE
                # is remove-by-name).  First run the GC decision for the
                # handle we *did* target: if our dirop actually applied but
                # its reply was lost (ambiguous forward timeout), the old
                # file is now unreferenced and must not leak its storage.
                await collect_if_unreferenced(self, entry["h"])
                continue
            await self._decrement_link(FileHandle(sid=entry["h"]))
            return dir_version
        raise nfs_error(NfsStat.ERR_IO, f"remove contention on {base}")

    async def rmdir(self, dirfh: FileHandle, name: str) -> DirVersion | None:
        """RMDIR — remove an *empty* directory.

        Emptiness is not a separate read: the victim is **sealed** first
        (a dirop whose precondition is an empty table; every later create
        into it fails ``sealed``), then unlinked from the parent under an
        expected-handle guard, then deallocated.  A create racing the old
        check-then-drop window now either lands before the seal (rmdir
        answers NOTEMPTY) or loses to it (the create fails cleanly and
        rolls back) — never an orphaned child in a deleted directory.
        """
        self.metrics.incr("nfs.ops.rmdir")
        base, _version = split_version(name)
        for _attempt in range(MAX_DIR_RETRIES):
            entries, _result = await self._require_dir(dirfh)
            entry = entries.get(base)
            if entry is None:
                raise nfs_error(NfsStat.ERR_NOENT, base)
            if entry["t"] != FileType.DIRECTORY.value:
                raise nfs_error(NfsStat.ERR_NOTDIR, base)
            victim = FileHandle(sid=entry["h"])
            try:
                await self._dir_write(victim, [{"action": "seal"}])
            except DirOpConflict as exc:
                if exc.reason == "notempty":
                    raise nfs_error(NfsStat.ERR_NOTEMPTY, base) from exc
                if exc.reason != "sealed":
                    raise self._map_dirop_conflict(exc, base) from exc
                # already sealed: a seal only ever lands on an empty table
                # and blocks every create after it, so the victim is still
                # empty — proceed.  This is also the recovery path for a
                # directory a crashed/failed rmdir left sealed-but-linked;
                # a concurrent rmdir race is settled by the guarded parent
                # remove below (one wins, the other re-reads to NOENT).
            try:
                dir_version = await self._dir_write(dirfh, [
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
            return dir_version
        raise nfs_error(NfsStat.ERR_IO, f"rmdir contention on {base}")

    async def _unseal_quietly(self, victim: FileHandle) -> None:
        """Best-effort seal rollback (the victim may already be deleted by
        a winning concurrent rmdir, or momentarily unreachable)."""
        try:
            await self._dir_write(victim, [{"action": "unseal"}])
        except (DirOpConflict, NfsError):
            pass

    async def rename(self, fromdir: FileHandle, fromname: str,
                     todir: FileHandle, toname: str,
                     ) -> tuple[DirVersion | None, DirVersion | None, dict]:
        """RENAME — move a directory entry; updates the file's uplink list.

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

        Returns the two directories' post-op version pairs (from-side
        ``None`` = the old name was *not* dropped) and the entry actually
        installed at ``toname`` — the authority agents feed their readdir
        caches from.
        """
        self.metrics.incr("nfs.ops.rename")
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
                raise nfs_error(NfsStat.ERR_NOENT, frombase)
            return None, None, dict(entry)
        for _attempt in range(MAX_DIR_RETRIES):
            entries, from_result = await self._require_dir(fromdir)
            entry = entries.get(frombase)
            if entry is None:
                raise nfs_error(NfsStat.ERR_NOENT, frombase)
            if fromdir.sid == todir.sid:
                to_entries, to_result = entries, from_result
            else:
                to_entries, to_result = await self._require_dir(todir)
            existing = to_entries.get(tobase)
            if existing is not None and existing["h"] == entry["h"]:
                # both names already link the same file: POSIX rename is a
                # no-op (dropping the old name here would shed a directory
                # reference without its link decrement — a silent leak);
                # None versions = nothing was dropped, nothing was produced
                return None, None, dict(entry)
            overwrites = existing is not None
            if overwrites and existing["t"] == FileType.DIRECTORY.value:
                raise nfs_error(NfsStat.ERR_EXIST, tobase)
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
                stat = await self._stat_segment(target)
            except NfsError as exc:
                # the moved segment died between our read and the install
                # (a racing remove's GC, or an rmdir of the source): undo
                # the install — a dangling entry must never survive
                await self._undo_install(todir, tobase, entry["h"], existing)
                raise nfs_error(NfsStat.ERR_NOENT, frombase) from exc
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
            return from_version, to_version, dict(entry)
        raise nfs_error(NfsStat.ERR_IO, f"rename contention on {tobase}")

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
        except (DirOpConflict, NfsError):
            pass

    async def link(self, fh: FileHandle, todir: FileHandle,
                   name: str) -> tuple[DirVersion | None, str]:
        """LINK — hard link: new entry + uplink record + link-count hint.

        "When a hard link is made to f in directory d, d is added to the
        uplink list of all versions of f which can be updated at that
        time" (§5.2).  Returns the directory's post-op version pair and
        the entry type actually recorded (the agent cache's authority).
        """
        self.metrics.incr("nfs.ops.link")
        base, _version = split_version(name)
        validate_name(base)
        stat = await self._stat_segment(fh)
        if stat.meta.get("ftype") == FileType.DIRECTORY.value:
            raise nfs_error(NfsStat.ERR_ISDIR, fh.sid)

        try:
            dir_version = await self._dir_write(todir, [
                {"action": "add", "name": base,
                 "entry": {"h": fh.sid,
                           "t": stat.meta.get("ftype", "reg")}}])
        except DirOpConflict as exc:
            raise self._map_dirop_conflict(exc, base) from exc
        uplinks = list(stat.meta.get("uplinks", []))
        if todir.sid not in uplinks:
            uplinks.append(todir.sid)
        await self._touch_meta(fh, {
            "uplinks": uplinks,
            "nlink": stat.meta.get("nlink", 1) + 1,
            "ctime": self.kernel.now,
        })
        return dir_version, stat.meta.get("ftype", "reg")

    async def _decrement_link(self, fh: FileHandle) -> None:
        """Drop the link-count *hint* by one; a zero hint triggers the
        authoritative §5.2 GC check (which corrects a wrong hint rather
        than trusting it).  A segment that is already gone — a racing
        unlink's GC beat us to it — is a completed outcome, not an error.
        """
        try:
            stat = await self._stat_segment(fh)
        except NfsError as exc:
            if exc.status == NfsStat.ERR_STALE:
                return
            raise
        nlink = max(0, stat.meta.get("nlink", 1) - 1)
        await self._touch_meta(fh, {"nlink": nlink, "ctime": self.kernel.now})
        if nlink == 0:
            await collect_if_unreferenced(self, fh.sid)

    async def readdir(self, dirfh: FileHandle) -> list[dict[str, str]]:
        """READDIR — entry names (unqualified) with types and handles."""
        entries, _version, _result = await self.readdir_result(dirfh)
        return entries

    async def readdir_result(
        self, dirfh: FileHandle, verify=None,
    ) -> tuple[list[dict[str, str]], DirVersion, ReadResult] | None:
        """READDIR returning the listing, the directory's version pair and
        the read they came from, with version-exact revalidation.

        When ``verify`` (a cached version pair) is still current — decided
        by the segment layer exactly as for data reads — returns ``None``:
        the caller's cached listing is valid and no entry bytes move.
        Otherwise returns ``(entries, version, result)`` so agents can
        cache the listing version-exactly, keep it coherent from the dirop
        versions riding mutation replies, and learn where the directory's
        replicas live.
        """
        self.metrics.incr("nfs.ops.readdir")
        if dirfh.sid == GLOBAL_ROOT_SID:
            # "It cannot be listed, as it implicitly contains the full
            # machine names of every accessible Deceit server." (§2.2)
            raise nfs_error(NfsStat.ERR_PERM, "the global root cannot be listed")
        if verify is not None:
            try:
                if await self.segments.validate_version(dirfh.sid, verify,
                                                        version=dirfh.version):
                    return None
            except NoSuchSegment as exc:
                raise nfs_error(NfsStat.ERR_STALE, str(exc)) from exc
        entries, result = await self._require_dir(dirfh)
        listing = [{"name": name, "type": e["t"],
                    "fh": FileHandle(sid=e["h"]).encode()}
                   for name, e in sorted(entries.items())]
        return listing, (result.major, result.version.sub), result

    async def statfs(self, fh: FileHandle) -> dict[str, int]:
        """STATFS — synthetic filesystem totals (simulation-wide)."""
        self.metrics.incr("nfs.ops.statfs")
        return {"tsize": 8192, "bsize": 4096,
                "blocks": 1 << 20, "bfree": 1 << 19, "bavail": 1 << 19}
