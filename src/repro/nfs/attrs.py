"""NFS-style file attributes, stored in segment metadata.

Attribute reads dominate real NFS op mixes (§2.3 lists *get attribute* as
the most common operation), so attributes live in the segment's ``meta``
dict and travel with every read/stat — a getattr needs no data transfer.
Attribute *changes* ride the normal update-distribution path as ``setmeta``
write ops, giving them the same ordering and replication guarantees as
data.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

from repro.core.striping.stripemap import StripeMap


class FileType(Enum):
    """NFS v2 file types used by the envelope."""

    REGULAR = "reg"
    DIRECTORY = "dir"
    SYMLINK = "lnk"


@dataclass
class FileAttrs:
    """The attribute block NFS clients see.

    ``stripe_size`` is the striping hint piggybacked for agents: set (to
    the file's stripe width) exactly when the file is currently striped,
    so an agent that just looked a file up already knows it can fan a
    large read out across the stripes.  Derived from the stripe map, never
    settable — it does not fold back into segment meta.
    """

    ftype: FileType = FileType.REGULAR
    mode: int = 0o644
    uid: int = 0
    gid: int = 0
    size: int = 0
    nlink: int = 1
    atime: float = 0.0
    mtime: float = 0.0
    ctime: float = 0.0
    stripe_size: int | None = None

    def to_meta(self) -> dict[str, Any]:
        """Fold into segment metadata (size is derived, not stored)."""
        return {
            "ftype": self.ftype.value,
            "mode": self.mode,
            "uid": self.uid,
            "gid": self.gid,
            "nlink": self.nlink,
            "atime": self.atime,
            "mtime": self.mtime,
            "ctime": self.ctime,
        }

    @classmethod
    def from_meta(cls, meta: dict[str, Any], size: int) -> "FileAttrs":
        """Rebuild from segment metadata plus the live data length."""
        smap = StripeMap.from_meta(meta)
        return cls(
            ftype=FileType(meta.get("ftype", "reg")),
            mode=meta.get("mode", 0o644),
            uid=meta.get("uid", 0),
            gid=meta.get("gid", 0),
            size=size,
            nlink=meta.get("nlink", 1),
            atime=meta.get("atime", 0.0),
            mtime=meta.get("mtime", 0.0),
            ctime=meta.get("ctime", 0.0),
            stripe_size=smap.stripe_size if smap is not None else None,
        )

    def to_wire(self) -> dict[str, Any]:
        """RPC payload form (includes size and the striping hint)."""
        wire = self.to_meta()
        wire["size"] = self.size
        if self.stripe_size is not None:
            wire["stripe_size"] = self.stripe_size
        return wire

    @classmethod
    def from_wire(cls, raw: dict[str, Any]) -> "FileAttrs":
        """Inverse of :meth:`to_wire`."""
        attrs = cls.from_meta(raw, raw["size"])
        attrs.stripe_size = raw.get("stripe_size")
        return attrs


def sattr_to_meta(sattr: dict[str, Any]) -> dict[str, Any]:
    """Translate an NFS ``sattr`` (settable attributes) to a meta patch.

    Only mode/uid/gid/atime/mtime may be set this way; size changes go
    through truncate (the envelope handles that separately, as real NFS
    setattr does).
    """
    allowed = {"mode", "uid", "gid", "atime", "mtime"}
    unknown = set(sattr) - allowed - {"size"}
    if unknown:
        raise ValueError(f"sattr fields not settable: {sorted(unknown)}")
    return {k: v for k, v in sattr.items() if k in allowed}
