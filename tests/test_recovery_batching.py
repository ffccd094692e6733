"""Crash recovery of the ReplicaStore under group-commit batching.

The group-commit engine makes a batch atomic: a crash before the commit
fires loses every record in it, exactly like the asynchronous write-behind
buffer behind write-safety 0.  These tests pin the §3.5/§3.6 durability
contract across that machinery:

- a crash mid-batch loses the whole batch (no torn creates: never a
  counter without its replica/token records);
- write-safety-0 updates buffered but unflushed at the crash are gone, and
  ``recover()`` reconciles to the last durable version — the seed's
  semantics ("asynchronous unsafe writes");
- write-safety-1 updates, which only return once their commit fired, are
  always durable;
- a write-safety-0 holder that lost its tail catches back up from the
  group when a surviving replica has the newer version.
"""

from repro.core import FileParams, WriteOp
from repro.testbed import build_core_cluster

WS0 = FileParams(min_replicas=1, write_safety=0, stability_notification=False)
WS1 = FileParams(min_replicas=1, write_safety=1, stability_notification=False)


def test_crash_mid_batch_loses_the_whole_batch():
    """Server dies while its create batch waits on the commit: none of the
    three records (counter, replica, token) survive — atomically."""
    cluster = build_core_cluster(1)
    s0 = cluster.servers[0]
    cluster.settle(50.0)

    task = cluster.kernel.spawn(s0.create(params=WS1, data=b"doomed"))
    cluster.kernel.run(until=cluster.kernel.now + 5.0)  # < write_ms: batch pending
    assert not task.done()
    cluster.crash(0)
    cluster.settle(100.0)

    assert cluster.disks[0].keys("seg/") == []          # nothing durable
    assert s0.store.counter_now() is None               # no torn counter
    assert cluster.metrics.get("disk.lost_on_crash") >= 3

    cluster.run(cluster.recover(0))
    cluster.settle(200.0)
    assert s0.store.disk_sids() == []
    assert s0.catalogs == {}


def test_ws0_buffered_update_lost_and_reconciled():
    """Write-safety 0: the update sits in the write-behind buffer; a crash
    before the flush interval reverts the segment to its durable version."""
    cluster = build_core_cluster(1)
    s0 = cluster.servers[0]

    async def setup():
        sid = await s0.create(params=WS0, data=b"v0")
        await s0.write(sid, WriteOp(kind="append", data=b"+v1"))
        # let the (asynchronous) self-delivery apply, well inside the
        # 500 ms flush interval so the record is still only buffered
        await cluster.kernel.sleep(20.0)
        return sid

    sid = cluster.run(setup())
    # in memory the update applied...
    major = next(m for (s, m) in s0.replicas if s == sid)
    assert s0.replicas[(sid, major)].data == b"v0+v1"
    # ...but crash inside the 500 ms flush interval loses it
    cluster.crash(0)
    cluster.run(cluster.recover(0))
    cluster.settle(300.0)

    async def read_back():
        return await s0.read(sid)

    result = cluster.run(read_back())
    assert result.data == b"v0"            # durable version only
    assert result.version.sub == 0         # version pair rolled back too
    token = s0.tokens[(sid, major)]
    assert token.version == result.version  # reclaimed token trusts replica


def test_ws1_update_survives_crash():
    """Write-safety 1 returns only after the commit fired: never lost."""
    cluster = build_core_cluster(1)
    s0 = cluster.servers[0]

    async def setup():
        sid = await s0.create(params=WS1, data=b"v0")
        await s0.write(sid, WriteOp(kind="append", data=b"+v1"))
        return sid

    sid = cluster.run(setup())
    cluster.crash(0)
    cluster.run(cluster.recover(0))
    cluster.settle(300.0)

    async def read_back():
        return (await s0.read(sid)).data

    assert cluster.run(read_back()) == b"v0+v1"


def test_concurrent_creates_lost_together_are_both_recoverable_absent():
    """Two creates riding one commit window: a crash loses both cleanly —
    recovery finds a consistent (empty) store, not a half-create."""
    cluster = build_core_cluster(1)
    s0 = cluster.servers[0]
    cluster.settle(50.0)

    t1 = cluster.kernel.spawn(s0.create(params=WS1, data=b"a"))
    t2 = cluster.kernel.spawn(s0.create(params=WS1, data=b"b"))
    cluster.kernel.run(until=cluster.kernel.now + 5.0)
    assert not t1.done() and not t2.done()
    cluster.crash(0)
    cluster.run(cluster.recover(0))
    cluster.settle(200.0)

    assert s0.store.disk_sids() == []
    assert s0.store.counter_now() is None

    # and the server is healthy: the next create starts from a clean slate
    sid = cluster.run(s0.create(params=WS1, data=b"fresh"))

    async def read_back():
        return (await s0.read(sid)).data

    assert cluster.run(read_back()) == b"fresh"


def test_ws0_holder_catches_up_from_surviving_replica():
    """A write-safety-0 token holder crashes with the tail unflushed; a
    surviving replica has the newer version, and recovery repairs the
    holder from the group instead of resurrecting the stale copy."""
    params = FileParams(min_replicas=2, write_safety=0,
                        stability_notification=False)
    cluster = build_core_cluster(2)
    s0, s1 = cluster.servers[0], cluster.servers[1]

    async def setup():
        sid = await s0.create(params=params, data=b"v0")
        await cluster.kernel.sleep(50.0)
        await s0.write(sid, WriteOp(kind="append", data=b"+v1"))
        await cluster.kernel.sleep(30.0)   # update reaches s1's memory
        return sid

    sid = cluster.run(setup())
    # force s1's buffered copy durable, then kill s0 inside its own window
    cluster.run(cluster.disks[1].sync())
    cluster.crash(0)
    cluster.settle(800.0)
    cluster.run(cluster.recover(0))
    cluster.settle(1500.0)

    async def read_back(server):
        return (await server.read(sid)).data

    assert cluster.run(read_back(s1)) == b"v0+v1"
    # s0 reconciled: it either repaired to the group's version or serves
    # reads through it — never the stale v0 as the group's answer
    assert cluster.run(read_back(s0)) == b"v0+v1"


def test_crash_fails_pending_sync_writers_instead_of_hanging():
    """A writer awaiting a commit the crash destroyed must resume with
    DiskCrashed, not hang as a permanently suspended coroutine."""
    from repro.storage import Disk, DiskCrashed
    from repro.sim import Kernel

    kernel = Kernel()
    disk = Disk(kernel)
    outcome = []

    async def writer():
        try:
            await disk.write("k", 1, sync=True)
            outcome.append("committed")
        except DiskCrashed:
            outcome.append("crashed")

    kernel.spawn(writer())
    kernel.run(until=5.0)           # inside the commit window
    disk.crash()
    kernel.run(until=100.0)
    assert outcome == ["crashed"]
    assert disk.read_now("k") is None
