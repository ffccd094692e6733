"""CatalogService: segment / file-group / major-version metadata.

Owns the map of :class:`~repro.core.segment.SegmentCatalog` objects — the
volatile, group-shared knowledge about every segment this server has an
interest in — and the two ways a catalog comes into being locally: joining
the segment's ISIS file group (state transfer supplies it) or resurrecting
the group from non-volatile records after a total failure (§3.6).

The service depends on a *membership port* rather than a concrete
IsisProcess: any object with ``addr``, ``is_member(group)``,
``join_group(group, contact=None)`` and ``create_group(group)`` works, so
the catalog logic is unit testable with a stub (announcing a new replica
also needs its ``cbcast``).

Invariants
----------
- A catalog exists locally only while this server is (or is becoming) a
  member of the segment's file group; ``ensure_group`` is the sole way in.
- Catalog contents are *hints*, not authority: the durable truth about a
  major's version is its token holder's replica record.  Holders and
  version pairs here may lag by in-flight broadcasts but never by more —
  group multicasts (``replica_created`` / ``update`` / …) keep every
  member's catalog within one delivery of the group's state.
- ``resurrect`` may only run when the group is unlocatable cell-wide; the
  resurrected catalog trusts the local *replica* version over the local
  token record (the replica is what the disk guarantees, §3.6).
- The catalog never invents majors: every entry was installed by create,
  state transfer, a recovery announcement, or a group multicast.
"""

from __future__ import annotations

from repro.core.params import DEFAULT_PARAMS
from repro.core.pipeline.store import ReplicaStore
from repro.core.segment import MajorInfo, Replica, SegmentCatalog, Token
from repro.core.versions import HistoryIndex, MajorAllocator, VersionPair
from repro.errors import GroupNotFound, NoSuchSegment
from repro.metrics import Metrics
from repro.sim import Kernel


def group_of(sid: str) -> str:
    """The ISIS file-group name of a segment (§3.2)."""
    return f"fg:{sid}"


def sid_of(group: str) -> str:
    """Inverse of :func:`group_of`."""
    return group[3:]


class CatalogService:
    """Metadata half of the segment layer (see module docstring)."""

    def __init__(self, membership, store: ReplicaStore, alloc: MajorAllocator,
                 kernel: Kernel, metrics: Metrics | None = None):
        self.membership = membership
        self.store = store
        self.alloc = alloc
        self.kernel = kernel
        self.metrics = metrics or store.metrics
        self.catalogs: dict[str, SegmentCatalog] = {}

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #

    def get(self, sid: str) -> SegmentCatalog | None:
        return self.catalogs.get(sid)

    def joined(self, sid: str) -> bool:
        """Whether this server is a member of the segment's file group
        and holds its catalog."""
        return self.membership.is_member(group_of(sid)) and sid in self.catalogs

    def install(self, cat: SegmentCatalog) -> None:
        self.catalogs[cat.sid] = cat

    def drop(self, sid: str) -> None:
        self.catalogs.pop(sid, None)

    def pick_major(self, cat: SegmentCatalog, version: int | None) -> int:
        """Resolve an optional explicit version to a live major number."""
        if version is not None:
            if version not in cat.majors:
                raise NoSuchSegment(f"{cat.sid};{version}")
            return version
        major = cat.latest_major()
        if major is None:
            raise NoSuchSegment(cat.sid)
        return major

    # ------------------------------------------------------------------ #
    # group membership
    # ------------------------------------------------------------------ #

    async def ensure_group(self, sid: str) -> SegmentCatalog:
        """Be (or become) a member of the segment's file group.

        Segment ids embed their creating server (``<addr>.<counter>``), so
        the join tries that server as a location hint first — it created
        the group and nearly always still belongs to it.  Only when the
        hint fails (creator crashed or was evicted) does the join fall
        back to the §3.2 global search, which asks every cell peer.
        """
        if self.joined(sid):
            return self.catalogs[sid]
        group = group_of(sid)
        try:
            creator = sid.rsplit(".", 1)[0]
            if creator != self.membership.addr:
                try:
                    await self.membership.join_group(group, contact=creator)
                except Exception:
                    # stale hint: locate a live member the expensive way
                    await self.membership.join_group(group)
            else:
                await self.membership.join_group(group)
        except GroupNotFound:
            if self.store.disk_majors(sid):
                # sole survivor: resurrect the group from our disk state
                self.resurrect(sid)
            else:
                raise NoSuchSegment(sid) from None
        cat = self.catalogs.get(sid)
        if cat is None:
            raise NoSuchSegment(sid)
        return cat

    def resurrect(self, sid: str,
                  records: dict[int, tuple[dict, dict | None]] | None = None
                  ) -> SegmentCatalog:
        """Recreate a file group from local non-volatile state (§3.6).

        ``records`` (``major -> (replica record, token record)``) lets a
        whole-disk cold start hand over prefetched records from one bulk
        scan; without it each call re-scans the disk's key space for this
        sid, which is fine for a single resurrect but quadratic across a
        full cold start.
        """
        me = self.membership.addr
        self.membership.create_group(group_of(sid))
        branches = HistoryIndex()
        majors: dict[int, MajorInfo] = {}
        params = DEFAULT_PARAMS
        if records is None:
            records = {
                major: (record, self.store.token_record_now(sid, major))
                for major in self.store.disk_majors(sid)
                if (record := self.store.replica_record_now(sid, major))
                is not None
            }
        for major, (record, token_rec) in sorted(records.items()):
            replica = Replica.from_dict(record)
            self.store.replicas[(sid, major)] = replica
            branches.merge(replica.branches)
            params = replica.params
            holder = None
            if token_rec is not None:
                token = Token.from_dict(token_rec)
                # the holder's own replica may be behind the token's version
                # only by unsynced data lost in the crash; trust the replica
                token.version = replica.version
                token.applied = replica.applied
                token.holders = [me]
                self.store.tokens[(sid, major)] = token
                holder = me
            majors[major] = MajorInfo(
                major=major, version=replica.version, holder=holder,
                holders={me}, unstable=not replica.stable,
                last_update_ts=replica.write_ts,
            )
            self.alloc.observe(major)
        cat = SegmentCatalog(sid=sid, params=params,
                             branches=branches, majors=majors)
        self.catalogs[sid] = cat
        self.metrics.incr("deceit.groups_resurrected")
        return cat

    # ------------------------------------------------------------------ #
    # group-multicast handlers (catalog maintenance at every member)
    # ------------------------------------------------------------------ #

    async def deliver_state_inquiry(self, src: str, /, sid: str,
                                    major: int) -> dict:
        replica = self.store.replicas.get((sid, major))
        if replica is None:
            return {"have_replica": False}
        return {"have_replica": True, "stable": replica.stable,
                "version": replica.version.to_tuple()}

    async def broadcast_replica_created(self, sid: str, major: int,
                                        holder: str, *, tag: str) -> None:
        """Tell the file group that ``holder`` now keeps a replica of
        ``major`` (§3.1); :meth:`deliver_replica_created` is its handler."""
        await self.membership.cbcast(
            group_of(sid),
            {"op": "replica_created", "sid": sid, "major": major,
             "holder": holder},
            nreplies=0, tag=tag,
        )

    async def deliver_replica_created(self, src: str, /, sid: str,
                                      major: int, holder: str) -> dict:
        cat = self.catalogs.get(sid)
        if cat is not None and major in cat.majors:
            cat.majors[major].holders.add(holder)
            cat.majors[major].read_ts[holder] = self.kernel.now
        return {"ok": True}

    async def deliver_replica_recovered(self, src: str, /, sid: str,
                                        major: int, version: list) -> dict:
        cat = self.catalogs.get(sid)
        if cat is None:
            return {"ok": False}
        info = cat.majors.get(major)
        if info is None:
            info = MajorInfo(major=major,
                             version=VersionPair.from_tuple(version),
                             holder=None, holders=set())
            cat.majors[major] = info
        info.holders.add(src)
        return {"ok": True}

    # ------------------------------------------------------------------ #
    # ISIS state transfer
    # ------------------------------------------------------------------ #

    def export_state(self, sid: str) -> dict | None:
        cat = self.catalogs.get(sid)
        return cat.to_dict() if cat is not None else None

    def merge_state(self, state: dict | None) -> None:
        """Install (or fold in) a catalog arriving via state transfer."""
        if state is None:
            return
        cat = SegmentCatalog.from_dict(state)
        existing = self.catalogs.get(cat.sid)
        if existing is None:
            self.catalogs[cat.sid] = cat
        else:
            existing.merge(cat)
