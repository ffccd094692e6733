"""Integration tests for the distributed segment server (§5.1 + §3).

These drive full clusters from :mod:`repro.testbed` through the public
segment API: create/read/write/setparam, token movement, replication,
conditional writes, and the special commands.
"""

import pytest

from repro.core import FileParams, WriteOp
from repro.core.replication import REPLICA_IDLE_MS
from repro.errors import NoSuchSegment, VersionConflict
from repro.net.network import Node
from repro.testbed import build_core_cluster


def test_create_and_read_back():
    cluster = build_core_cluster(3)
    s0 = cluster.servers[0]

    async def main():
        sid = await s0.create(data=b"hello")
        result = await s0.read(sid)
        return result

    result = cluster.run(main())
    assert result.data == b"hello"
    assert result.version.sub == 0
    assert result.served_by == "s0"


def test_write_advances_version_pair():
    cluster = build_core_cluster(3)
    s0 = cluster.servers[0]

    async def main():
        sid = await s0.create(data=b"")
        v1 = await s0.write(sid, WriteOp(kind="append", data=b"a"))
        v2 = await s0.write(sid, WriteOp(kind="append", data=b"b"))
        result = await s0.read(sid)
        return v1, v2, result

    v1, v2, result = cluster.run(main())
    assert v2.sub == v1.sub + 1
    assert result.data == b"ab"
    assert result.version == v2


def test_write_ops_semantics():
    cluster = build_core_cluster(2)
    s0 = cluster.servers[0]

    async def main():
        sid = await s0.create(data=b"0123456789")
        await s0.write(sid, WriteOp(kind="replace", offset=2, data=b"XY"))
        await s0.write(sid, WriteOp(kind="truncate", length=6))
        await s0.write(sid, WriteOp(kind="append", data=b"!"))
        return (await s0.read(sid)).data

    assert cluster.run(main()) == b"01XY45!"


def test_setmeta_merges_and_deletes_keys():
    cluster = build_core_cluster(2)
    s0 = cluster.servers[0]

    async def main():
        sid = await s0.create(data=b"x", meta={"mode": 0o644})
        await s0.write(sid, WriteOp(kind="setmeta", meta={"uid": 10}))
        await s0.write(sid, WriteOp(kind="setmeta", meta={"mode": None}))
        return (await s0.read(sid)).meta

    assert cluster.run(main()) == {"uid": 10}


def test_read_from_other_server_is_forwarded():
    cluster = build_core_cluster(3)
    s0, s1 = cluster.servers[0], cluster.servers[1]

    async def main():
        sid = await s0.create(data=b"remote data")
        result = await s1.read(sid)
        return result

    result = cluster.run(main())
    assert result.data == b"remote data"
    assert result.served_by == "s0"  # forwarded, no local replica (migration off)


def test_min_replicas_places_copies_at_create():
    cluster = build_core_cluster(4)
    s0 = cluster.servers[0]

    async def main():
        sid = await s0.create(params=FileParams(min_replicas=3), data=b"r")
        return await s0.locate_replicas(sid)

    located = cluster.run(main())
    assert len(located["holders"]) == 3
    assert located["token_holder"] == "s0"


def test_replicated_write_reaches_all_replicas():
    cluster = build_core_cluster(3)
    s0 = cluster.servers[0]

    async def main():
        sid = await s0.create(params=FileParams(min_replicas=3, write_safety=3),
                              data=b"")
        await s0.write(sid, WriteOp(kind="append", data=b"payload"))
        await cluster.kernel.sleep(300.0)
        return [srv.replicas.get((sid, next(iter(srv.replicas))[1])) if srv.replicas
                else None for srv in cluster.servers]

    replicas = cluster.run(main())
    live = [r for r in replicas if r is not None]
    assert len(live) == 3
    assert all(r.data == b"payload" for r in live)


def test_write_from_non_holder_acquires_token():
    cluster = build_core_cluster(3)
    s0, s1 = cluster.servers[0], cluster.servers[1]
    metrics = cluster.metrics

    async def main():
        sid = await s0.create(params=FileParams(min_replicas=2), data=b"")
        before = metrics.get("deceit.token_passes")
        await s1.write(sid, WriteOp(kind="append", data=b"x"))
        after = metrics.get("deceit.token_passes")
        located = await s1.locate_replicas(sid)
        return before, after, located

    before, after, located = cluster.run(main())
    assert after == before + 1
    assert located["token_holder"] == "s1"


def test_token_stays_for_stream_of_updates():
    """§3.3: acquisition happens only for the first of a series of updates."""
    cluster = build_core_cluster(3)
    s1 = cluster.servers[1]
    s0 = cluster.servers[0]
    metrics = cluster.metrics

    async def main():
        sid = await s0.create(params=FileParams(min_replicas=2), data=b"")
        for _ in range(5):
            await s1.write(sid, WriteOp(kind="append", data=b"x"))
        return metrics.get("deceit.token_requests")

    assert cluster.run(main()) == 1


def test_conditional_write_guard_conflict():
    """§5.1: a write with a stale version pair fails like an aborted txn."""
    cluster = build_core_cluster(2)
    s0 = cluster.servers[0]

    async def main():
        sid = await s0.create(data=b"")
        first = await s0.read(sid)
        await s0.write(sid, WriteOp(kind="append", data=b"a"))  # interloper
        with pytest.raises(VersionConflict):
            await s0.write(sid, WriteOp(kind="append", data=b"b"),
                           guard=first.version)
        # retry after re-read succeeds
        fresh = await s0.read(sid)
        await s0.write(sid, WriteOp(kind="append", data=b"b"),
                       guard=fresh.version)
        return (await s0.read(sid)).data

    assert cluster.run(main()) == b"ab"


def test_optimistic_retry_loop_converges_with_two_writers():
    cluster = build_core_cluster(2)
    s0, s1 = cluster.servers[0], cluster.servers[1]

    async def append_with_retry(server, sid, entry):
        while True:
            current = await server.read(sid)
            try:
                await server.write(
                    sid, WriteOp(kind="append", data=entry),
                    guard=current.version,
                )
                return
            except VersionConflict:
                continue

    async def main():
        sid = await s0.create(params=FileParams(min_replicas=2), data=b"")
        tasks = [
            cluster.kernel.spawn(append_with_retry(s0, sid, b"A")),
            cluster.kernel.spawn(append_with_retry(s1, sid, b"B")),
        ]
        await cluster.kernel.all_of(tasks)
        return (await s0.read(sid)).data

    data = cluster.run(main())
    assert sorted(data.decode()) == ["A", "B"]


def test_setparam_changes_propagate():
    cluster = build_core_cluster(3)
    s0, s2 = cluster.servers[0], cluster.servers[2]

    async def main():
        sid = await s0.create(data=b"x")
        await s0.setparam(sid, write_safety=0, stability_notification=False)
        result = await s2.read(sid)
        return result.params

    params = cluster.run(main())
    assert params.write_safety == 0
    assert not params.stability_notification


def test_setparam_raising_min_replicas_generates_copies():
    """Replica generation method 2 (§3.1)."""
    cluster = build_core_cluster(4)
    s0 = cluster.servers[0]

    async def main():
        sid = await s0.create(data=b"grow me")
        await s0.setparam(sid, min_replicas=3)
        return await s0.locate_replicas(sid)

    located = cluster.run(main())
    assert len(located["holders"]) == 3


def test_explicit_create_replica_command():
    """Replica generation method 3 (§3.1)."""
    cluster = build_core_cluster(3)
    s0 = cluster.servers[0]

    async def main():
        sid = await s0.create(data=b"placed")
        ok = await s0.create_replica(sid, "s2")
        return ok, await s0.locate_replicas(sid)

    ok, located = cluster.run(main())
    assert ok
    assert "s2" in located["holders"]


def test_explicit_delete_replica_command():
    cluster = build_core_cluster(3)
    s0 = cluster.servers[0]

    async def main():
        sid = await s0.create(params=FileParams(min_replicas=2), data=b"x")
        located = await s0.locate_replicas(sid)
        victim = [h for h in located["holders"] if h != "s0"][0]
        ok = await s0.delete_replica(sid, victim)
        await cluster.kernel.sleep(100.0)
        return ok, await s0.locate_replicas(sid)

    ok, located = cluster.run(main())
    assert ok
    assert located["holders"] == ["s0"]


def test_token_holder_without_a_replica_has_a_remote_holder_feed_the_target():
    """§3.1 "a replica holder feeds a copy of the file to the site where
    the replica is being generated": the token holder's own copy was
    explicitly deleted (§6.2), so it tells a remote holder to blast its
    copy to the target, then does the same bookkeeping as for a local feed."""
    cluster = build_core_cluster(4, seed=1)
    s0 = cluster.servers[0]
    remote_feeds = []
    feed = s0._feed_via_remote_holder

    async def counted(sid, major, target):
        remote_feeds.append(target)
        return await feed(sid, major, target)

    s0._feed_via_remote_holder = counted

    async def main():
        sid = await s0.create(data=b"dispersed")
        assert await s0.create_replica(sid, "s1")
        assert await s0.delete_replica(sid, "s0")
        await cluster.kernel.sleep(100.0)
        ok = await s0.create_replica(sid, "s2")
        await cluster.kernel.sleep(100.0)       # replica_created lands
        return sid, ok, (await cluster.servers[2].read(sid)).served_by

    sid, ok, served_by = cluster.run(main())
    assert ok and remote_feeds == ["s2"]
    assert served_by == "s2"                    # s2 really holds the bytes
    (major, token), = [(m, t) for (tsid, m), t in s0.tokens.items()
                       if tsid == sid]
    assert (sid, major) not in s0.replicas      # the holder fed nothing itself
    # the catalog at every member, the token and its durable record agree
    for server in cluster.servers[:3]:
        assert server.catalogs[sid].majors[major].holders == {"s1", "s2"}
    assert {"s1", "s2"} <= set(token.holders)
    assert s0.store.token_record_now(sid, major)["holders"] == token.holders
    cluster.close()


def test_delete_replica_refuses_last_copy():
    cluster = build_core_cluster(2)
    s0 = cluster.servers[0]

    async def main():
        sid = await s0.create(data=b"only")
        return await s0.delete_replica(sid, "s0")

    assert cluster.run(main()) is False


def test_migration_creates_local_replica_on_read():
    """Replica generation method 4 (§3.1): working sets migrate."""
    cluster = build_core_cluster(3)
    s0, s1 = cluster.servers[0], cluster.servers[1]

    async def main():
        sid = await s0.create(params=FileParams(file_migration=True),
                              data=b"wander")
        first = await s1.read(sid)
        await cluster.kernel.sleep(500.0)  # background migration completes
        second = await s1.read(sid)
        return first.served_by, second.served_by

    first_by, second_by = cluster.run(main())
    assert first_by == "s0"
    assert second_by == "s1"


def test_no_migration_by_default():
    cluster = build_core_cluster(3)
    s0, s1 = cluster.servers[0], cluster.servers[1]

    async def main():
        sid = await s0.create(data=b"stay")
        await s1.read(sid)
        await cluster.kernel.sleep(500.0)
        result = await s1.read(sid)
        return result.served_by

    assert cluster.run(main()) == "s0"


def test_delete_segment_releases_all_storage():
    cluster = build_core_cluster(3)
    s0 = cluster.servers[0]

    async def main():
        sid = await s0.create(params=FileParams(min_replicas=3), data=b"gone")
        await s0.delete(sid)
        await cluster.kernel.sleep(100.0)
        return sid, [srv.store.disk_majors(sid) for srv in cluster.servers]

    sid, disk_state = cluster.run(main())
    assert all(majors == [] for majors in disk_state)


def test_read_unknown_segment_raises():
    cluster = build_core_cluster(2)
    s0 = cluster.servers[0]

    async def main():
        with pytest.raises(NoSuchSegment):
            await s0.read("nonexistent.1")

    cluster.run(main())


def test_get_version_and_list_versions():
    cluster = build_core_cluster(2)
    s0 = cluster.servers[0]

    async def main():
        sid = await s0.create(data=b"")
        await s0.write(sid, WriteOp(kind="append", data=b"x"))
        version = await s0.get_version(sid)
        versions = await s0.list_versions(sid)
        return version, versions

    version, versions = cluster.run(main())
    assert version.sub == 1
    assert list(versions.values()) == [version]


def test_stat_moves_no_data():
    cluster = build_core_cluster(2)
    s0, s1 = cluster.servers[0], cluster.servers[1]

    async def main():
        sid = await s0.create(data=b"A" * 10_000, meta={"kind": "file"})
        result = await s1.stat(sid)
        return result

    result = cluster.run(main())
    assert result.data == b""
    assert result.meta == {"kind": "file"}


def test_update_metrics_counted():
    cluster = build_core_cluster(2)
    s0 = cluster.servers[0]

    async def main():
        sid = await s0.create(data=b"")
        for _ in range(3):
            await s0.write(sid, WriteOp(kind="append", data=b"x"))

    cluster.run(main())
    assert cluster.metrics.get("deceit.updates") == 3
    assert cluster.metrics.get("deceit.segments_created") == 1


def test_lru_victims_break_ties_in_address_order():
    """§3.1's "least-recently-used order" must be total: holders that were
    never read share a stamp, and which of them go may not depend on how
    the interpreter happens to hash their addresses."""
    cluster = build_core_cluster(2)
    s0 = cluster.servers[0]
    sid = cluster.run(s0.create(data=b"x"))
    cluster.settle(REPLICA_IDLE_MS + 1.0)
    cat = s0.catalogs[sid]
    (major, info), = cat.majors.items()
    address_sets = [
        {"s1", "s2", "s3", "s4", "s5", "s6"},
        {"s10", "s11", "s12", "s13", "s14", "s15"},
        {"mit.s0", "mit.s1", "mit.s2", "cornell.s0", "cornell.s1"},
        {"a", "b", "c", "d", "e", "f", "g"},
        {"alpha", "bravo", "charlie", "delta", "echo"},
        {"s1", "s3", "s5", "s7", "s9", "s11", "s13"},
        {"cell/s1", "cell/s2", "cell/s3", "cell/s4", "cell/s5"},
        {"n07", "n06", "n05", "n04", "n03", "n02", "n01"},
        {"x9", "x8", "x7", "x6", "x5", "x4"},
    ]
    # the drop counts reachable holders only: put every address on the
    # network once, as a stub node
    for addr in sorted(set().union(*address_sets)):
        if addr not in cluster.network.nodes:
            Node(cluster.network, addr)
    for candidates in address_sets:
        info.holders = {s0.proc.addr} | candidates
        info.read_ts = {}                  # every stamp ties at 0.0
        excess = len(candidates) // 2
        cat.params = cat.params.with_updates(
            min_replicas=len(info.holders) - excess)
        assert s0._pick_lru_victims(sid, major) == sorted(candidates)[:excess]
    # a real stamp still outranks the address: the most recently read
    # holder is the one kept, whatever it is called
    info.holders = {s0.proc.addr, "s1", "s2", "s3"}
    info.read_ts = {"s1": 2.0, "s2": 1.0, "s3": 1.0}
    cat.params = cat.params.with_updates(min_replicas=2)
    assert s0._pick_lru_victims(sid, major) == ["s2", "s3"]


def test_lru_drop_counts_only_reachable_holders():
    """A crashed holder never hears an update, so §3.1's LRU drop may not
    name it or count it: the drop trims the replicas replenishment counts.
    Once the holder is back, it counts, and is dropped, again."""
    cluster = build_core_cluster(3)
    s0 = cluster.servers[0]
    drops = []
    pick = s0.pipeline.hooks.pick_lru_victims

    def recorded(sid, major):
        victims = pick(sid, major)
        drops.append((sid, victims))
        return victims

    s0.pipeline.hooks.pick_lru_victims = recorded

    async def two_files():
        sids = []
        for _ in range(2):
            # s2's copy is made first, so it is the least recently used
            sid = await s0.create(params=FileParams(min_replicas=1), data=b"x")
            assert await s0.create_replica(sid, "s2")
            assert await s0.create_replica(sid, "s1")
            await s0.setparam(sid, min_replicas=2)
            sids.append(sid)
        return sids

    written, idle = cluster.run(two_files())
    cluster.crash(2)
    cluster.settle(REPLICA_IDLE_MS + 1.0)
    cluster.run(s0.write(written, WriteOp(kind="append", data=b"y")))
    # s0 and s1 are all the replicas s0 reaches: nothing is extra
    assert drops == [(written, [])]
    cluster.run(cluster.recover(2))
    cluster.settle(REPLICA_IDLE_MS + 1.0)
    cluster.run(s0.write(idle, WriteOp(kind="append", data=b"z")))
    assert drops[-1] == (idle, ["s2"])
