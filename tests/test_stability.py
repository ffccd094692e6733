"""Stability notification (§3.4): the unstable mark rides a burst's first
update, and while a major is unstable only the token holder's replica
serves.

The burst head is one round: every member marks and applies the update in
one delivery, and the token holder holds its own reads of the major until
every member has answered.  Mid-round, one member may already be
``(unstable, k+1)`` while another is still ``(stable, k)``; these tests pin
that no reader can see k+1 and then k because of it.
"""

from repro.agent import AgentConfig
from repro.core import FileParams, WriteOp
from repro.testbed import build_cluster, build_core_cluster


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
    orig = server.group_ops["update"]

    async def gated(src, /, **fields):
        server.group_ops["update"] = orig
        await gate
        return await orig(src, **fields)

    server.group_ops["update"] = gated


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
        return await s1.reads._ask("s0", sid, major, offset=0, count=None)

    result = cluster.run(main())
    assert (result.data, result.served_by) == (b"new", "s2")
    cluster.close()


def test_a_stat_at_a_lagging_holder_answers_with_the_token_holders_version():
    """A getattr follows the read rule (§3.4): a holder that lags the
    token holder's acked writes while the major is unstable does not
    answer from its own copy, but asks the token holder."""
    cluster = build_core_cluster(4, seed=3)
    s0, s2 = cluster.servers[0], cluster.servers[2]

    async def main():
        sid = await s2.create(params=FileParams(min_replicas=3,
                                                write_safety=2), data=b"old")
        cluster.network.latency = SlowLink(cluster.network.latency,
                                           "s2", "s0", 100.0)
        await s2.write(sid, setdata(b"mid"))
        written = await s2.write(sid, setdata(b"new"))
        lagging = s0.store.replicas[(sid, written.major)].version
        return written, lagging, await s0.stat(sid)

    written, lagging, stat = cluster.run(main())
    assert lagging.sub < written.sub
    assert (stat.version, stat.served_by, stat.data) == (written, "s2", b"")
    cluster.close()


def test_a_cold_agent_read_at_a_lagging_holder_returns_the_token_holders_version():
    """An agent's LOOKUP asking for the bytes follows the read rule (§3.4):
    a directory server holding a lagging replica while the major is
    unstable sends none of its own bytes, so the read returns the token
    holder's version.  Once the major is stable again the same server's
    replica answers, and the cold read is the LOOKUP alone."""
    cluster = build_cluster(n_servers=4, n_agents=1, seed=3)
    agent = cluster.agents[0]
    s0, s2 = (cluster.servers[i].segments for i in (0, 2))
    metrics = cluster.metrics

    async def cold_read():
        agent._handle_cache.pop("/d/f")
        agent._data_cache.clear()
        snap = metrics.snapshot()
        data = await agent.read_file("/d/f")
        fh = await agent.lookup_path("/d/f")
        version = agent._data_cache.peek(fh.encode())[2]
        return data, version, metrics.delta(snap).get("nfs.requests")

    async def main():
        await agent.mount()
        await agent.mkdir("/", "d")                    # held at s0
        agent.current = 2
        fh = await agent.create("/d", "f")             # held at s2
        await agent.write_file("/d/f", b"old")
        await agent.set_params("/d/f", min_replicas=3, write_safety=2)
        agent.current = 0
        assert await agent.create_replica("/d/f", "s0")
        await cluster.kernel.sleep(300.0)
        located = await agent.locate("/d/f")
        assert "s0" in located["holders"]
        assert located["token_holder"] == "s2"
        cluster.network.latency = SlowLink(cluster.network.latency,
                                           "s2", "s0", 100.0)
        await s2.write(fh.sid, setdata(b"mid"))
        written = await s2.write(fh.sid, setdata(b"new"))
        lagging = s0.store.replicas[(fh.sid, written.major)].version
        unstable = await cold_read()
        cluster.network.latency = cluster.network.latency.inner
        await cluster.kernel.sleep(1000.0)
        return written, lagging, unstable, await cold_read()

    written, lagging, unstable, stable = cluster.run(main())
    assert lagging.sub < written.sub
    assert unstable == (b"new", written.to_tuple(), 2)
    assert stable == (b"new", written.to_tuple(), 1)
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


def test_the_token_holder_of_an_unstable_major_answers_unchanged():
    """The replica §3.4 picks answers a revalidation "unchanged" even
    while its major is unstable: a caller whose version pair equals the
    token holder's already holds the bytes it would ship."""
    cluster = build_cluster(n_servers=3, n_agents=1,
                            agent_config=AgentConfig(data_ttl_ms=100,
                                                     attr_ttl_ms=100))
    agent = cluster.agents[0]
    metrics = cluster.metrics

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        await agent.write_file("/f", b"before")
        await agent.read_file("/f")
        await agent.write_file("/f", b"fourteen bytes")
        await agent.read_file("/f")
        await cluster.kernel.sleep(150.0)
        snap = metrics.snapshot()
        data = await agent.read_file("/f")
        return data, metrics.delta(snap)

    data, delta = cluster.run(main())
    assert data == b"fourteen bytes"
    assert delta.get("nfs.reads_unchanged", 0) == 1
    cluster.close()
