"""Stability notification (§3.4): the unstable mark rides a burst's first
update, and while a major is unstable only the token holder's replica
serves.

The burst head is one round: every member marks and applies the update in
one delivery, and the token holder holds its own reads of the major until
every member has answered.  Mid-round, one member may already be
``(unstable, k+1)`` while another is still ``(stable, k)``; these tests pin
that no reader can see k+1 and then k because of it.
"""

from repro.core import FileParams, WriteOp
from repro.testbed import build_core_cluster


class SlowLink:
    """Latency model wrapper: ``extra_ms`` more on one directed link."""

    def __init__(self, inner, src: str, dst: str, extra_ms: float):
        self.inner, self.src, self.dst = inner, src, dst
        self.extra_ms = extra_ms

    def delay(self, src, dst, size_bytes, rng):
        base = self.inner.delay(src, dst, size_bytes, rng)
        if (src, dst) == (self.src, self.dst):
            return base + self.extra_ms
        return base


def gate_next_update(server, gate):
    """Pause ``server``'s next update delivery on ``gate`` (the delivery
    analogue of test_striping's parent-update gate)."""
    orig = server.pipeline.deliver_update

    async def gated(sid, payload):
        server.pipeline.deliver_update = orig
        await gate
        return await orig(sid, payload)

    server.pipeline.deliver_update = gated


def setdata(data: bytes) -> WriteOp:
    return WriteOp(kind="setdata", data=data)


def test_forwarded_read_of_unstable_file_is_served_by_the_token_holder():
    """A server without a replica must not read a non-token holder's copy
    while the file is unstable: that holder may lag acked writes."""
    cluster = build_core_cluster(4, seed=3)
    s0, s1, s2, _s3 = cluster.servers

    async def main():
        sid = await s2.create(params=FileParams(min_replicas=3,
                                                write_safety=2), data=b"old")
        where = await s2.locate_replicas(sid)
        assert (where["holders"], where["token_holder"]) == \
            (["s0", "s2", "s3"], "s2")
        # s1 asks the creator without joining; its read hint names s0 first
        assert (await s1.read(sid)).data == b"old"
        cluster.network.latency = SlowLink(cluster.network.latency,
                                           "s2", "s0", 100.0)
        await s2.write(sid, setdata(b"mid"))
        await s2.write(sid, setdata(b"new"))
        # s0 lags "new" but knows the major is unstable: it relays to s2
        return await s1.read(sid)

    result = cluster.run(main())
    assert (result.data, result.served_by) == (b"new", "s2")
    cluster.close()


def test_a_relayed_read_names_the_token_holder():
    """A forwarded ``seg_read`` that a lagging holder H relays to the token
    holder T names T as the server that served it, not H: agents put
    ``served_by`` first in their placement hints."""
    cluster = build_core_cluster(4, seed=3)
    s1, s2 = cluster.servers[1], cluster.servers[2]

    async def main():
        sid = await s2.create(params=FileParams(min_replicas=3,
                                                write_safety=2), data=b"old")
        cluster.network.latency = SlowLink(cluster.network.latency,
                                           "s2", "s0", 100.0)
        await s2.write(sid, setdata(b"mid"))
        await s2.write(sid, setdata(b"new"))
        major = (await s2.locate_replicas(sid))["major"]
        return await s1.reads._ask("s0", "seg_read", sid, major,
                                   offset=0, count=None)

    result = cluster.run(main())
    assert (result.data, result.served_by) == (b"new", "s2")
    cluster.close()


def test_burst_head_reads_never_go_backwards():
    """While a gated member still holds k as stable, the token holder's
    readers wait for the marked round instead of getting k+1 — so a reader
    at the holder and a reader at the gated member never see k+1, then k."""
    cluster = build_core_cluster(3, seed=11)
    s0, _s1, s2 = cluster.servers
    kernel = cluster.kernel
    observed = []

    async def reader(server, sid, rounds):
        for _ in range(rounds):
            result = await server.read(sid)
            observed.append((server.proc.addr, result.version.sub))
            await kernel.sleep(5.0)

    async def main():
        sid = await s0.create(params=FileParams(min_replicas=3,
                                                write_safety=1), data=b"k")
        await kernel.sleep(300.0)                  # stable, all at sub 0
        gate = kernel.create_future()
        gate_next_update(s2, gate)
        write = kernel.spawn(s0.write(sid, setdata(b"k+1")))
        readers = [kernel.spawn(reader(server, sid, 12))
                   for server in (s0, s2)]
        await kernel.sleep(40.0)                   # the round is at the gate
        assert not write.done()
        gate.set_result(None)
        await write
        for task in readers:
            await task

    cluster.run(main())
    subs = [sub for _addr, sub in observed]
    assert {addr for addr, _sub in observed} == {"s0", "s2"}
    assert 0 in subs and 1 in subs
    assert subs == sorted(subs), observed
    cluster.close()


def test_holder_crash_inside_the_marked_round():
    """The token holder dies after its burst head reached s1 but before it
    reached s2: s1 is durably (unstable, k+1), s2 still (stable, k).  After
    the holder recovers, the acked write is there, the unacked one is
    absent or whole, and readers at s1 and s2 agree and never go back."""
    cluster = build_core_cluster(3, seed=17)
    s0, s1, s2 = cluster.servers
    kernel = cluster.kernel

    async def main():
        sid = await s0.create(params=FileParams(min_replicas=3,
                                                write_safety=1), data=b"v0")
        await s0.write(sid, setdata(b"v1"))               # acked: k
        await kernel.sleep(300.0)                          # stable again
        cluster.network.latency = SlowLink(cluster.network.latency,
                                           "s0", "s2", 50.0)
        write = kernel.spawn(s0.write(sid, setdata(b"v2")))  # k+1
        await kernel.sleep(20.0)          # s1 has committed it, s2 has not
        assert not write.done()
        major = (await s0.locate_replicas(sid))["major"]
        states = [(srv.replicas[(sid, major)].stable,
                   srv.replicas[(sid, major)].data) for srv in (s1, s2)]
        cluster.crash(0)
        return sid, states

    sid, states = cluster.run(main())
    assert states == [(False, b"v2"), (True, b"v1")]     # the mid-round state
    seen = []

    async def read_both():
        return [(await srv.read(sid)).data for srv in (s1, s2)]

    seen.append(cluster.run(read_both()))
    cluster.settle(1000.0)
    seen.append(cluster.run(read_both()))
    cluster.run(cluster.recover(0))
    for _ in range(4):
        seen.append(cluster.run(read_both()))
        cluster.settle(200.0)
    for pair in seen:
        assert pair[0] == pair[1], seen                   # s1, s2 agree
        assert pair[0] in (b"v1", b"v2"), seen           # acked, or whole
    order = [pair[0] for pair in seen]
    assert order == sorted(order), seen                   # never back
    cluster.close()
