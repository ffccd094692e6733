"""The stripe map: how a large file is split across ordinary segments.

Deceit's signature idea is that system semantics are **per-file parameters**
(§2, §4); striping adds one more: ``stripe_size``.  A file whose contents
outgrow its ``stripe_size`` stops being one blob segment and becomes a
*parent* segment holding no data at all plus one ordinary replicated
segment per stripe, each carrying one fixed-size slice of the contents.
Every stripe has its own write token, version history, and replica set —
which is the whole point: disjoint-range writers commute on different
tokens, and a 2 MB read fans out across the stripe holders.

The map itself lives in the parent segment's metadata under
:data:`META_KEY`::

    {"stripe_size": 262144, "length": 2097152,
     "sids": ["s0.7", "s1.4", None, "s3.9", ...]}

``sids[i]`` is the segment holding bytes ``[i*stripe_size, (i+1)*
stripe_size)``; a ``None`` entry is a **hole** — a stripe no write ever
touched, read back as zeros (sparse files fall out of the representation).
Because the map is ordinary segment meta, it is mutated through the
existing update pipeline and inherits stability, recovery, and partition
versioning unchanged.

Map *extensions* (a write growing the file or filling a hole) ship as
``stripe_extend`` write ops whose merge — :func:`merge_extend` — is
commutative and idempotent: length is max-merged and the first writer to
claim a stripe index wins, so concurrent extenders never clobber each
other (the same design move as PR 4's commuting dirops).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: Parent-meta key holding the stripe map; absent = ordinary blob segment.
META_KEY = "stripes"


def file_length(meta: dict[str, Any]) -> int:
    """Logical file length: the stripe map's when striped, else the blob's."""
    smap = meta.get(META_KEY)
    if smap:
        return int(smap["length"])
    return int(meta.get("length", 0))


@dataclass(frozen=True)
class StripeRange:
    """One stripe's slice of a byte range: ``length`` bytes of stripe
    ``index`` (segment ``sid``, ``None`` = hole) starting at ``inner``
    within the stripe, i.e. absolute offset ``index*stripe_size+inner``."""

    index: int
    sid: str | None
    inner: int
    length: int


@dataclass(frozen=True)
class StripeMap:
    """Immutable view of a parent segment's stripe map."""

    stripe_size: int
    length: int
    sids: tuple[str | None, ...]

    @classmethod
    def from_meta(cls, meta: dict[str, Any]) -> "StripeMap | None":
        """The map recorded in parent metadata, or ``None`` (blob file)."""
        raw = meta.get(META_KEY)
        if not raw:
            return None
        return cls(stripe_size=int(raw["stripe_size"]),
                   length=int(raw["length"]),
                   sids=tuple(raw["sids"]))

    def to_meta(self) -> dict[str, Any]:
        """The dict stored under :data:`META_KEY` in parent metadata."""
        return {"stripe_size": self.stripe_size, "length": self.length,
                "sids": list(self.sids)}

    def sid_at(self, index: int) -> str | None:
        return self.sids[index] if index < len(self.sids) else None

    def live_sids(self) -> list[str]:
        """Every allocated stripe segment (holes excluded)."""
        return [sid for sid in self.sids if sid is not None]

    def ranges(self, offset: int, count: int | None) -> list[StripeRange]:
        """Per-stripe pieces of the byte range ``[offset, offset+count)``,
        clipped to the file length (a read past EOF truncates; a read at or
        beyond EOF is empty)."""
        end = self.length if count is None else min(offset + count, self.length)
        return self.pieces(offset, end)

    def write_ranges(self, offset: int, nbytes: int) -> list[StripeRange]:
        """Per-stripe pieces of a write — *not* clipped to the file length
        (writes extend; the hole they skip over stays unallocated)."""
        return self.pieces(offset, offset + nbytes)

    def pieces(self, start: int, end: int) -> list[StripeRange]:
        """Split ``[start, end)`` at stripe boundaries."""
        out: list[StripeRange] = []
        for offset, take in split_range(start, end, self.stripe_size):
            index = offset // self.stripe_size
            out.append(StripeRange(index=index, sid=self.sid_at(index),
                                   inner=offset - index * self.stripe_size,
                                   length=take))
        return out


def split_range(start: int, end: int,
                stripe_size: int) -> list[tuple[int, int]]:
    """Cut ``[start, end)`` at stripe boundaries: ``(offset, length)``
    pieces, each inside one stripe.  The one splitting rule everything —
    map range math, agent fan-out, per-stripe flush grouping — shares."""
    out: list[tuple[int, int]] = []
    pos = max(0, start)
    while pos < end:
        index = pos // stripe_size
        take = min(end - pos, (index + 1) * stripe_size - pos)
        out.append((pos, take))
        pos += take
    return out


def merge_extend(meta: dict[str, Any], proposal: dict[str, Any]) -> dict[str, Any]:
    """Apply a ``stripe_extend`` proposal to segment metadata — the pure
    merge the update pipeline runs at every replica.

    Commutative and idempotent by construction: ``length`` is max-merged,
    and a proposed sid lands only on an index that is still a hole (first
    writer wins; the loser reconciles by re-reading the authoritative map).
    A proposal against a non-striped parent is a no-op — the map it meant
    to extend was atomically replaced (restripe/unstripe) after the
    proposal was issued, and the replacement already carries final state.
    """
    current = meta.get(META_KEY)
    if not current:
        return meta
    sids = list(current["sids"])
    for index, sid in sorted(proposal.get("sids", {}).items()):
        index = int(index)
        while len(sids) <= index:
            sids.append(None)
        if sids[index] is None:
            sids[index] = sid
    merged = {
        "stripe_size": current["stripe_size"],
        "length": max(int(current["length"]), int(proposal.get("length", 0))),
        "sids": sids,
    }
    return {**meta, META_KEY: merged}
