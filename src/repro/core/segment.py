"""Segment, replica, token, and catalog records (§5.1, §3.3, §3.5).

A *segment* is an array of bytes plus: the values of the semantic
parameters, a version number pair, a process group, and read/write
timestamps.  What lives on a server's disk is a :class:`Replica` of one
*version* (major) of a segment, and possibly a :class:`Token` record when
that server currently holds the write token for that major.

The volatile, group-shared knowledge about a segment — which majors exist,
their version pairs, who holds each token, who holds replicas — is the
:class:`SegmentCatalog`; it is what ISIS state transfer ships to joining
members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.params import FileParams
from repro.core.versions import HistoryIndex, VersionPair


@dataclass
class WriteOp:
    """One modification to a segment (§5.1: replace, append, or truncate).

    Three pragmatic extensions the NFS envelope relies on:

    - ``setdata`` replaces the entire contents in one atomic update
      (rewrites — directory tables *and* whole-file writes — must not be a
      truncate *plus* a replace, or concurrent readers could observe the
      intermediate state and a crash between the two could lose both the
      old and the new contents);
    - ``batch`` applies a list of sub-operations (``parts``) as one
      atomically-distributed update — several positioned writes in a
      single version bump (``Striper`` builds one when a stripe gets
      more than one piece);
    - ``dirop`` applies single-name directory mutations (``dirops``, see
      :mod:`repro.core.dirtable`) to the entry table at update-application
      time — the commuting namespace path: concurrent creates of different
      names in one directory are two ordinary single-round updates instead
      of whole-table version-guard conflicts;
    - ``stripe_extend`` merges a stripe-map extension (``stripe``: a
      proposed length and sids for hole indexes, see :func:`repro.core.
      striping.stripemap.merge_extend`) into the parent segment's meta —
      commutative and idempotent, so concurrent writers growing a striped
      file never clobber each other's extensions;
    - any op may carry a ``meta`` patch, merged after the data transform —
      attribute changes (mtime with a write, uplink edits with a link) ride
      the same atomically-distributed update as the data they describe.
      A ``None`` value deletes the key.

    For every data-transforming kind, ``apply`` derives ``meta["length"]``
    from the bytes the op actually produced, *after* the meta patch is
    merged.  Callers therefore never need to pre-compute the new length
    from a stat — which could race with a concurrent truncate and persist
    a wrong length — and any length they do send is only advisory.
    """

    #: "replace" | "append" | "truncate" | "setdata" | "setmeta" | "batch"
    #: | "dirop" | "stripe_extend"
    kind: str
    offset: int = 0
    data: bytes = b""
    length: int = 0
    meta: dict[str, Any] = field(default_factory=dict)
    parts: list["WriteOp"] = field(default_factory=list)
    dirops: list[dict] = field(default_factory=list)
    stripe: dict[str, Any] = field(default_factory=dict)

    def apply(self, data: bytes, meta: dict[str, Any]) -> tuple[bytes, dict[str, Any]]:
        """Pure function: new (data, meta) after this operation."""
        if self.kind == "replace":
            # a zero-length write is a POSIX no-op: it must not extend the
            # file to its offset (padding happens only ahead of real bytes)
            if self.data:
                if self.offset > len(data):
                    data = data + b"\x00" * (self.offset - len(data))
                data = data[: self.offset] + self.data + data[self.offset + len(self.data):]
        elif self.kind == "append":
            data = data + self.data
        elif self.kind == "truncate":
            if self.length < 0:
                raise ValueError("truncate length must be >= 0")
            if self.length <= len(data):
                data = data[: self.length]
            else:
                data = data + b"\x00" * (self.length - len(data))
        elif self.kind == "setdata":
            data = self.data
        elif self.kind == "batch":
            for part in self.parts:
                data, meta = part.apply(data, meta)
        elif self.kind == "dirop":
            from repro.core.dirtable import apply_dirops
            data = apply_dirops(data, self.dirops)
        elif self.kind == "stripe_extend":
            from repro.core.striping.stripemap import merge_extend
            meta = merge_extend(meta, self.stripe)
        elif self.kind != "setmeta":
            raise ValueError(f"unknown write op kind {self.kind!r}")
        if self.meta:
            merged = dict(meta)
            for key, value in self.meta.items():
                if value is None:
                    merged.pop(key, None)
                else:
                    merged[key] = value
            meta = merged
        if self.touches_data() and "length" in meta:
            meta = {**meta, "length": len(data)}
        return data, meta

    def touches_data(self) -> bool:
        """Whether this op (or any batched part) transforms the data."""
        if self.kind in ("setmeta", "stripe_extend"):
            return False
        if self.kind == "batch":
            return any(part.touches_data() for part in self.parts)
        return True

    def result_length(self, old_length: int) -> int:
        """Data length after applying this op to data of ``old_length``.

        Pure arithmetic mirror of :meth:`apply`'s data transform — lets the
        NFS envelope compute reply attributes from the write itself instead
        of issuing a follow-up getattr.
        """
        if self.kind == "replace":
            if not self.data:
                return old_length  # zero-length writes are no-ops
            return max(old_length, self.offset + len(self.data))
        if self.kind == "append":
            return old_length + len(self.data)
        if self.kind == "truncate":
            return self.length
        if self.kind == "setdata":
            return len(self.data)
        if self.kind == "batch":
            for part in self.parts:
                old_length = part.result_length(old_length)
        # "dirop": the new table length depends on the current entries, so
        # old_length is the best pure-arithmetic answer; the persisted
        # length is derived at application and reply attrs for directory
        # mutations never come from result_length.
        return old_length

    def to_dict(self) -> dict:
        """Message/disk form."""
        out = {
            "kind": self.kind,
            "offset": self.offset,
            "data": self.data,
            "length": self.length,
            "meta": self.meta,
        }
        if self.parts:
            out["parts"] = [part.to_dict() for part in self.parts]
        if self.dirops:
            out["dirops"] = [dict(dop) for dop in self.dirops]
        if self.stripe:
            out["stripe"] = dict(self.stripe)
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "WriteOp":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=raw["kind"],
            offset=raw.get("offset", 0),
            data=raw.get("data", b""),
            length=raw.get("length", 0),
            meta=raw.get("meta", {}),
            parts=[cls.from_dict(p) for p in raw.get("parts", [])],
            dirops=[dict(dop) for dop in raw.get("dirops", [])],
            stripe=dict(raw.get("stripe", {})),
        )


@dataclass
class Replica:
    """One server's non-volatile copy of one major version of a segment."""

    sid: str
    major: int
    data: bytes
    meta: dict[str, Any]
    version: VersionPair
    params: FileParams
    branches: HistoryIndex
    stable: bool = True
    read_ts: float = 0.0
    write_ts: float = 0.0

    def to_dict(self) -> dict:
        """Disk form (everything a crash must not lose, §3.5)."""
        return {
            "sid": self.sid,
            "major": self.major,
            "data": self.data,
            "meta": self.meta,
            "version": self.version.to_tuple(),
            "params": self.params.to_dict(),
            "branches": self.branches.to_dict(),
            "stable": self.stable,
            "read_ts": self.read_ts,
            "write_ts": self.write_ts,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Replica":
        """Inverse of :meth:`to_dict`."""
        return cls(
            sid=raw["sid"],
            major=raw["major"],
            data=raw["data"],
            meta=dict(raw["meta"]),
            version=VersionPair.from_tuple(raw["version"]),
            params=FileParams.from_dict(raw["params"]),
            branches=HistoryIndex.from_dict(raw["branches"]),
            stable=raw["stable"],
            read_ts=raw["read_ts"],
            write_ts=raw["write_ts"],
        )


@dataclass
class Token:
    """A write token: the sole right to distribute updates for one major.

    ``version`` is the version pair replicas *should* have if up to date —
    comparing it against a replica's pair answers "has this replica received
    every update through this token" (§3.5).  ``holders`` is the token
    holder's upper bound on the replica set (all generation goes through the
    holder, §3.5 "Restricting updates...").
    """

    sid: str
    major: int
    version: VersionPair
    parent: tuple[int, int] | None   # (parent major, sub at branch); None = root
    holders: list[str]
    enabled: bool = True

    def to_dict(self) -> dict:
        """Disk form."""
        return {
            "sid": self.sid,
            "major": self.major,
            "version": self.version.to_tuple(),
            "parent": self.parent,
            "holders": list(self.holders),
            "enabled": self.enabled,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Token":
        """Inverse of :meth:`to_dict`."""
        parent = raw["parent"]
        return cls(
            sid=raw["sid"],
            major=raw["major"],
            version=VersionPair.from_tuple(raw["version"]),
            parent=tuple(parent) if parent is not None else None,
            holders=list(raw["holders"]),
            enabled=raw["enabled"],
        )


@dataclass
class MajorInfo:
    """Catalog entry for one major version of a segment."""

    major: int
    version: VersionPair
    holder: str | None               # current token holder (None = lost)
    holders: set[str] = field(default_factory=set)   # replica holders
    enabled: bool = True
    unstable: bool = False
    last_update_ts: float = 0.0
    read_ts: dict[str, float] = field(default_factory=dict)  # holder -> last read

    def to_dict(self) -> dict:
        """State-transfer form."""
        return {
            "major": self.major,
            "version": self.version.to_tuple(),
            "holder": self.holder,
            "holders": sorted(self.holders),
            "enabled": self.enabled,
            "unstable": self.unstable,
            "last_update_ts": self.last_update_ts,
            "read_ts": dict(self.read_ts),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "MajorInfo":
        """Inverse of :meth:`to_dict`."""
        return cls(
            major=raw["major"],
            version=VersionPair.from_tuple(raw["version"]),
            holder=raw["holder"],
            holders=set(raw["holders"]),
            enabled=raw["enabled"],
            unstable=raw["unstable"],
            last_update_ts=raw["last_update_ts"],
            read_ts=dict(raw["read_ts"]),
        )


@dataclass
class SegmentCatalog:
    """Group-shared metadata about one segment (volatile; rebuilt by state
    transfer on join and by recovery broadcasts after crashes)."""

    sid: str
    params: FileParams
    branches: HistoryIndex
    majors: dict[int, MajorInfo] = field(default_factory=dict)

    def latest_major(self) -> int | None:
        """The major an unqualified name resolves to (§3.5 version syntax).

        Rule: among *enabled leaf* majors (those no other major branched
        from at or past their current sub), pick the most recently updated;
        ties break toward the larger major number.  Falls back to all
        majors when every one is an interior node.
        """
        if not self.majors:
            return None
        candidates = []
        for major, info in self.majors.items():
            is_leaf = True
            for other in self.majors.values():
                parent = self.branches.parent_of(other.major)
                if parent is not None and parent[0] == major:
                    is_leaf = False
                    break
            if is_leaf:
                candidates.append(info)
        pool = candidates or list(self.majors.values())
        best = max(pool, key=lambda i: (i.last_update_ts, i.major))
        return best.major

    def incomparable_pairs(self) -> list[tuple[int, int]]:
        """Major pairs whose histories have diverged (conflict candidates)."""
        from repro.core.versions import Relation

        majors = sorted(self.majors)
        out = []
        for i, a in enumerate(majors):
            for b in majors[i + 1:]:
                rel = self.branches.compare(
                    self.majors[a].version, self.majors[b].version
                )
                if rel is Relation.INCOMPARABLE:
                    out.append((a, b))
        return out

    def to_dict(self) -> dict:
        """State-transfer form."""
        return {
            "sid": self.sid,
            "params": self.params.to_dict(),
            "branches": self.branches.to_dict(),
            "majors": {str(m): info.to_dict() for m, info in self.majors.items()},
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "SegmentCatalog":
        """Inverse of :meth:`to_dict`."""
        return cls(
            sid=raw["sid"],
            params=FileParams.from_dict(raw["params"]),
            branches=HistoryIndex.from_dict(raw["branches"]),
            majors={int(m): MajorInfo.from_dict(i) for m, i in raw["majors"].items()},
        )

    def merge(self, other: "SegmentCatalog") -> None:
        """Fold another catalog in (recovery / partition-heal reconciliation).

        Branch records union; per-major info merges by freshest version
        (higher sub wins for the same major); replica-holder sets union.
        """
        self.branches.merge(other.branches)
        for major, info in other.majors.items():
            mine = self.majors.get(major)
            if mine is None:
                self.majors[major] = MajorInfo.from_dict(info.to_dict())
                continue
            mine.holders |= info.holders
            if info.version.sub > mine.version.sub:
                mine.version = info.version
                mine.holder = info.holder
                mine.last_update_ts = max(mine.last_update_ts, info.last_update_ts)
            for addr, ts in info.read_ts.items():
                mine.read_ts[addr] = max(mine.read_ts.get(addr, 0.0), ts)
