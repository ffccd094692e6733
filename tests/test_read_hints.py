"""Reads without joining (§3.2): a server outside a file's group asks a
member instead of joining, and keeps a volatile read hint.

The hint is routing only — every answer comes from a member's catalog and
a replica that member holds or relays to.  A server joins when a read it
forwarded finds the major unstable (§3.4), and falls back to the join path
when no hinted holder and not the creator answers.
"""

from repro.core import FileParams, WriteOp
from repro.core.pipeline import group_of
from repro.core.pipeline.read_path import PlacementRecord
from repro.testbed import build_core_cluster


def setdata(data: bytes) -> WriteOp:
    return WriteOp(kind="setdata", data=data)


def _three_holders(cluster, data=b"v1"):
    """A file created at s0 on s0, s1 and s2, written once and let go
    stable; s3 is outside its group."""
    s0 = cluster.servers[0]

    async def setup():
        sid = await s0.create(params=FileParams(min_replicas=3), data=data)
        await s0.write(sid, setdata(data + b"+"))
        await cluster.kernel.sleep(1000.0)
        return sid

    return cluster.run(setup())


def test_a_non_member_reads_and_stats_current_data_without_joining():
    cluster = build_core_cluster(4, seed=1)
    s3 = cluster.servers[3]
    sid = _three_holders(cluster)

    async def main():
        snap = cluster.metrics.snapshot()
        read = await s3.read(sid)
        stat = await s3.stat(sid)
        return read, stat, cluster.metrics.delta(snap)

    read, stat, delta = cluster.run(main())
    assert read.data == b"v1+"
    assert (stat.data, stat.version) == (b"", read.version)
    assert read.placement.holders == ("s0", "s1", "s2")
    assert delta.get("isis.view_changes", 0) == 0
    assert delta.get("isis.joins", 0) == 0
    assert not s3.proc.is_member(group_of(sid))
    assert s3.reads.hints[sid] == PlacementRecord(("s0", "s1", "s2"), "s0", False)
    # counted where it was asked, as a forwarded read
    assert (delta["deceit.reads"], delta["deceit.reads_forwarded"],
            delta["deceit.stats"]) == (1, 1, 1)
    cluster.close()


def test_a_non_member_never_validates_and_does_not_join_to_say_so():
    cluster = build_core_cluster(4, seed=1)
    s3 = cluster.servers[3]
    sid = _three_holders(cluster)

    async def main():
        version = (await s3.read(sid)).version
        snap = cluster.metrics.snapshot()
        ok = await s3.validate_version(sid, version.to_tuple())
        return ok, cluster.metrics.delta(snap)

    ok, delta = cluster.run(main())
    assert ok is False
    assert delta.get("isis.joins", 0) == 0
    cluster.close()


def test_a_stale_hint_falls_back_to_the_creator():
    cluster = build_core_cluster(4, seed=1)
    s3 = cluster.servers[3]
    sid = _three_holders(cluster)
    cluster.crash(1)
    s3.reads.hints[sid] = PlacementRecord(("s1",), "s1", False)

    async def main():
        snap = cluster.metrics.snapshot()
        result = await s3.read(sid)
        return result, cluster.metrics.delta(snap)

    result, delta = cluster.run(main())
    assert result.data == b"v1+"
    assert result.served_by == "s0"
    assert delta.get("isis.joins", 0) == 0
    # the hint is now what the creator's catalog says
    assert s3.reads.hints[sid] == PlacementRecord(("s0", "s1", "s2"), "s0", False)
    cluster.close()


def test_when_no_hinted_holder_nor_the_creator_answers_the_read_joins():
    cluster = build_core_cluster(4, seed=1)
    s3 = cluster.servers[3]
    sid = _three_holders(cluster)
    s3.reads.hints[sid] = PlacementRecord(("s1",), "s1", False)
    cluster.crash(0)
    cluster.crash(1)
    cluster.settle(3000.0)              # s2 is left alone in the view

    async def main():
        snap = cluster.metrics.snapshot()
        result = await s3.read(sid)
        return result, cluster.metrics.delta(snap)

    result, delta = cluster.run(main())
    assert (result.data, result.served_by) == (b"v1+", "s2")
    assert delta["isis.locates"] == 1          # the §3.2 global search
    assert s3.proc.is_member(group_of(sid))
    assert sid not in s3.reads.hints
    cluster.close()


def test_a_read_that_finds_the_major_unstable_joins():
    cluster = build_core_cluster(4, seed=1)
    s0, s3 = cluster.servers[0], cluster.servers[3]
    sid = _three_holders(cluster)

    async def main():
        await s0.write(sid, setdata(b"v2"))         # a burst: unstable
        first = await s3.read(sid)
        joined = s3.proc.is_member(group_of(sid))
        snap = cluster.metrics.snapshot()
        await s0.write(sid, setdata(b"v3"))
        second = await s3.read(sid)
        return first, joined, second, cluster.metrics.delta(snap)

    first, joined, second, delta = cluster.run(main())
    assert first.data == b"v2" and joined
    assert sid not in s3.reads.hints
    # the next read follows the token from s3's own catalog: no join
    assert (second.data, second.served_by) == (b"v3", "s0")
    assert delta.get("isis.joins", 0) == 0
    cluster.close()


def test_a_crash_clears_the_read_hints():
    cluster = build_core_cluster(4, seed=1)
    s3 = cluster.servers[3]
    sid = _three_holders(cluster)
    cluster.run(s3.read(sid))
    assert sid in s3.reads.hints
    cluster.crash(3)
    assert s3.reads.hints == {}
    cluster.close()
