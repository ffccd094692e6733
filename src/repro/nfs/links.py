"""Uplink lists, hint link counts, and garbage collection (§5.2).

The segment server has no notion of links, so the envelope must decide when
a file is unreachable and its segment can be deallocated.  With multiple
versions of both files *and* directories, a plain link count is unsafe (it
can be corrupted by an ill-timed crash and is "extremely expensive (or
impossible) to recalculate"), so Deceit stores with every file:

- ``nlink`` — a standard hard-link count, **treated only as a hint**;
- ``uplinks`` — the list of directory segments that ever referenced it.

When the hint count reaches zero, the envelope checks *every available
version of every directory in the uplink list*: if none still holds a link,
the segment is deallocated; otherwise the hint is corrected.

(:func:`total_link_count` implements the paper's *rejected* alternative —
counting one per replica per version per directory, as in Figure 7 — so the
F7 benchmark can contrast the two schemes.)
"""

from __future__ import annotations

from repro.core.dirtable import decode_dir
from repro.core.striping.stripemap import StripeMap
from repro.errors import NoSuchSegment, ReplicaUnavailable


async def _scan_uplinks(envelope, file_sid: str, copies: bool) -> int:
    """Links to ``file_sid`` across every available version of every
    directory in its uplink list — one per directory entry, or with
    ``copies`` one per replica of that version.  A directory or version
    gone or unreachable contributes nothing."""
    stat = await envelope.segments.stat(file_sid)
    found = 0
    for dir_sid in stat.meta.get("uplinks", []):
        try:
            versions = await envelope.segments.list_versions(dir_sid)
        except (NoSuchSegment, ReplicaUnavailable):
            continue
        for major in versions:
            try:
                result = await envelope.segments.read(dir_sid, version=major)
                replicas = len((await envelope.segments.locate_replicas(
                    dir_sid, version=major))["holders"]) if copies else 1
            except (NoSuchSegment, ReplicaUnavailable):
                continue
            entries = decode_dir(result.data)
            found += replicas * sum(1 for e in entries.values()
                                    if e["h"] == file_sid)
    return found


async def count_references(envelope, file_sid: str) -> int:
    """Links to ``file_sid`` across every available version of every
    directory in its uplink list (one per directory *entry*, not replica)."""
    return await _scan_uplinks(envelope, file_sid, copies=False)


async def collect_if_unreferenced(envelope, file_sid: str) -> bool:
    """GC decision point, called when the hint link count reaches zero.

    Returns ``True`` when the segment was deallocated.  When live links are
    found instead, the hint count is corrected (§5.2: "otherwise, the link
    count is corrected").
    """
    envelope.metrics.incr("nfs.gc_checks")
    try:
        live = await count_references(envelope, file_sid)
    except (NoSuchSegment, ReplicaUnavailable):
        return False  # cannot prove unreachability: never collect blindly
    if live == 0:
        # a striped file's bytes live in its stripe segments — they die
        # with the parent, or they would leak unreachable storage forever.
        # The map is re-read HERE, after the reference scan: a stripe
        # allocated while the scan ran must not escape the collection.
        try:
            stat = await envelope.segments.stat(file_sid)
        except (NoSuchSegment, ReplicaUnavailable):
            return False  # gone (or unprovable) under us: nothing to do
        smap = StripeMap.from_meta(stat.meta)
        stripe_sids = smap.live_sids() if smap is not None else []
        await envelope.segments.delete(file_sid)
        for sid in stripe_sids:
            try:
                await envelope.segments.delete(sid)
            except (NoSuchSegment, ReplicaUnavailable):
                pass  # already retired (or unreachable; audit reclaims)
        envelope.metrics.incr("nfs.gc_collected")
        return True
    from repro.core import WriteOp
    await envelope.segments.write(
        file_sid, WriteOp(kind="setmeta", meta={"nlink": live})
    )
    envelope.metrics.incr("nfs.gc_corrected")
    return False


async def total_link_count(envelope, file_sid: str) -> int:
    """Figure 7's *rejected* scheme: total number of link **copies**, one per
    replica of every version of every directory referencing the file.

    Kept for the F7 experiment; the production GC path never uses it.
    """
    return await _scan_uplinks(envelope, file_sid, copies=True)
