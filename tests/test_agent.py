"""Tests for the client agent: caching, failover, shortcuts (§5.3)."""

import math

import pytest

from repro.agent import Agent, AgentConfig, Placement
from repro.agent.agent import TOKEN_HOLDER_WRITE_TIMEOUT_MS, _Cache
from repro.errors import NfsError
from repro.net.network import NetConfig
from repro.obs.admission import AdmissionConfig, AdmissionGate
from repro.testbed import build_cluster


def make(agent_config=None, n_servers=3):
    return build_cluster(n_servers=n_servers, n_agents=1,
                         agent_config=agent_config)


async def _move_replicas(agent, path, to=("s1",), away="s0"):
    """Hold ``path`` on the servers ``to`` and not on ``away``."""
    for server in to:
        assert await agent.create_replica(path, server)
    assert await agent.delete_replica(path, away)


async def _create_through(agent, server, name, data):
    """Create and write ``/name`` through ``agent.servers[server]``, which
    then holds its one replica and its write token; the agent stays
    mounted where it was."""
    mounted, agent.current = agent.current, server
    await agent.create("/", name)
    await agent.write_file(f"/{name}", data)
    agent.current = mounted


def test_failover_to_surviving_server():
    """§2.1: "When one machine fails, Deceit clients can connect to another
    machine and continue operation." """
    cluster = make(AgentConfig(failover=True, cache=False))
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        await agent.write_file("/f", b"survives")
        await agent.set_params("/f", min_replicas=3)
        cluster.crash(0)  # the connected server
        await cluster.kernel.sleep(800.0)
        await agent.write_file("/f", b"written after the crash")
        return await agent.read_file("/f")

    assert cluster.run(main()) == b"written after the crash"
    assert cluster.metrics.get("agent.failovers") >= 1
    assert cluster.agents[0].server != "s0"


def test_no_failover_blocks_on_crash():
    cluster = make(AgentConfig(failover=False, cache=False))
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        cluster.crash(0)
        await cluster.kernel.sleep(500.0)
        with pytest.raises(NfsError):
            await agent.read_file("/f")
        return True

    assert cluster.run(main())


def test_attr_cache_hits():
    cluster = make(AgentConfig(cache=True))
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        await agent.getattr("/f")
        for _ in range(5):
            await agent.getattr("/f")

    cluster.run(main())
    assert cluster.metrics.get("agent.attr_cache_hits") >= 5


def test_data_cache_avoids_server_reads():
    cluster = make(AgentConfig(cache=True))
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        await agent.write_file("/f", b"cached")
        await agent.read_file("/f")
        before = cluster.metrics.get("nfs.ops.read")
        for _ in range(4):
            await agent.read_file("/f")
        after = cluster.metrics.get("nfs.ops.read")
        return before, after

    before, after = cluster.run(main())
    assert after == before  # all four served from the agent cache
    assert cluster.metrics.get("agent.data_cache_hits") == 4


def test_cache_ttl_expires():
    cluster = make(AgentConfig(cache=True, data_ttl_ms=100.0))
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        await agent.write_file("/f", b"v1")
        await agent.read_file("/f")
        await cluster.kernel.sleep(200.0)  # past TTL
        before = cluster.metrics.get("nfs.ops.read")
        await agent.read_file("/f")
        return cluster.metrics.get("nfs.ops.read") - before

    assert cluster.run(main()) == 1  # had to go back to the server


def test_own_write_invalidates_cache():
    cluster = make(AgentConfig(cache=True))
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        await agent.write_file("/f", b"old")
        await agent.read_file("/f")
        await agent.write_file("/f", b"new")
        return await agent.read_file("/f")

    assert cluster.run(main()) == b"new"


def test_no_cache_always_hits_server():
    cluster = make(AgentConfig(cache=False))
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        await agent.write_file("/f", b"x")
        before = cluster.metrics.get("nfs.ops.read")
        for _ in range(3):
            await agent.read_file("/f")
        return cluster.metrics.get("nfs.ops.read") - before

    assert cluster.run(main()) == 3


def test_shortcut_reads_go_to_replica_holder():
    """§5.3 third agent function: direct access to the correct server.
    Reconnected to a server that holds no replica, the agent's lookup
    reply names the holder, so the read goes straight there instead of
    being relayed."""
    cluster = make(AgentConfig(cache=False, shortcut=True))
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        await agent.write_file("/f", b"direct")
        agent.current = 2          # s2 holds no replica of /f
        routed = cluster.metrics.get("agent.routed_reads")
        forwarded = cluster.metrics.get("deceit.reads_forwarded")
        data = await agent.read_file("/f")
        return (data, cluster.metrics.get("agent.routed_reads") - routed,
                cluster.metrics.get("deceit.reads_forwarded") - forwarded)

    assert cluster.run(main()) == (b"direct", 1, 0)


def test_routed_reads_fall_back_when_the_hinted_holder_crashes():
    """A crashed hinted holder costs the agent one routed timeout, not one
    per file: the failure drops that server from every hint, and both
    reads still return the right bytes — the first through the mount
    server, the second straight from the surviving holder.  (The mount
    server's own forward to the dead holder, which it tries first in
    address order, expires once more, as it does without the shortcut.)"""
    cluster = build_cluster(n_servers=4, n_agents=1,
                            net_config=NetConfig(tag_metrics=True))
    agent = cluster.agents[0]
    names = ("a", "b")

    async def main():
        await agent.mount()
        for name in names:
            await agent.create("/", name)
            await agent.write_file(f"/{name}", name.encode() * 8)
            await _move_replicas(agent, f"/{name}", to=("s1", "s2"))
            await agent.read_file(f"/{name}")     # relayed by s0: teaches s1
        hinted = [agent._placement_cache[(await agent.lookup_path(
            f"/{name}")).sid][0] for name in names]
        cluster.crash(1)
        await cluster.kernel.sleep(800.0)         # the cell sees s1 gone
        agent._data_cache.clear()
        snap = cluster.metrics.snapshot()
        data = [await agent.read_file(f"/{name}") for name in names]
        delta = cluster.metrics.delta(snap)
        return hinted, data, (delta.get("net.rpc_expired.nfs", 0),
                              delta.get("net.rpc_expired", 0),
                              delta.get("agent.routed_reads", 0))

    hinted, data, (agent_expired, expired, routed) = cluster.run(main())
    assert hinted == ["s1", "s1"]
    assert data == [name.encode() * 8 for name in names]
    assert routed == 2                 # /a at s1 (dead), /b at s2
    assert agent_expired == 1
    assert expired == 2                # + the mount server's forward to s1


def _namespace_reads(agent_config):
    """Lookup and readdir deltas on a 3-server cell whose ``/d`` and
    ``/d/x`` are held at ``s1`` only while the agent's mount server is
    ``s0``: (lookup, first readdir, revalidating readdir), each
    ``(routed, forwarded, unchanged)``."""
    cluster = make(agent_config)
    agent = cluster.agents[0]
    metrics = cluster.metrics

    def counts():
        return (metrics.get("agent.routed_reads"),
                metrics.get("deceit.reads_forwarded"),
                metrics.get("nfs.readdirs_unchanged"))

    async def measured(call):
        before = counts()
        result = await call
        return result, tuple(b - a for a, b in zip(before, counts()))

    async def main():
        await agent.mount()
        await agent.mkdir("/", "d")
        x = await agent.create("/d", "x")
        await _move_replicas(agent, "/d")
        await _move_replicas(agent, "/d/x")
        await cluster.kernel.sleep(50.0)
        assert agent.server == "s0"
        agent._handle_cache.pop("/d/x")
        await agent.lookup_path("/d/x")   # relayed by s0: teaches s1
        agent._handle_cache.pop("/d/x")
        fh, lookup = await measured(agent.lookup_path("/d/x"))
        assert fh == x
        listing, first = await measured(agent.readdir("/d"))
        assert [e["name"] for e in listing] == ["x"]
        await cluster.kernel.sleep(agent_config.attr_ttl_ms + 1.0)
        listing, again = await measured(agent.readdir("/d"))
        assert [e["name"] for e in listing] == ["x"]
        return lookup, first, again

    return cluster.run(main())


def test_namespace_reads_go_to_the_directory_holder():
    """§5.3: a lookup or readdir enters at the directory's replica holder
    its last hint named, so the holder reads the directory locally instead
    of the mount server relaying it; a lapsed listing's version check
    reaches a holder, which answers "unchanged".  Without the shortcut
    both are relayed by the mount server."""
    assert _namespace_reads(AgentConfig(attr_ttl_ms=200.0)) == (
        (1, 0, 0), (1, 0, 0), (1, 0, 1))
    assert _namespace_reads(AgentConfig(attr_ttl_ms=200.0,
                                        shortcut=False)) == (
        (0, 1, 0), (0, 1, 0), (0, 1, 0))


@pytest.mark.parametrize("seed", [1, 2, 3, 42])
def test_routed_lookup_sees_a_create_acked_to_another_agent(seed):
    """One-copy semantics for namespace reads: a name another agent's
    create was acked for is found by a lookup routed to a directory
    holder that is not the token holder."""
    cluster = build_cluster(n_servers=4, n_agents=2, seed=seed)
    a, b = cluster.agents

    async def main():
        await a.mount()
        await b.mount()
        await a.mkdir("/", "d")
        await a.set_params("/d", min_replicas=3)
        await cluster.kernel.sleep(200.0)
        located = await a.locate("/d")
        holders, token = located["holders"], located["token_holder"]
        assert len(holders) == 3
        outside = next(s for s in b.servers if s not in holders)
        b.current = b.servers.index(outside)
        dirfh = await b.lookup_path("/d")
        replica = next(s for s in sorted(holders) if s != token)
        misses = 0
        for i in range(40):
            fh = await a.create("/d", f"x{i}")
            # every lookup's reply re-teaches the hint; keep it off the
            # token holder
            b._placement_cache[dirfh.sid] = [replica]
            try:
                misses += await b.lookup_path(f"/d/x{i}") != fh
            except NfsError:
                misses += 1
        return misses

    assert cluster.run(main()) == 0


def test_routed_lookup_falls_back_when_the_directory_holder_crashes():
    """A lookup routed to a crashed directory holder costs one routed
    timeout and still returns the right handle through the mount server;
    the failure drops that server from every hint, so a lookup in another
    directory it was hinted for goes straight to a survivor."""
    cluster = build_cluster(n_servers=4, n_agents=1,
                            net_config=NetConfig(tag_metrics=True))
    agent = cluster.agents[0]
    dirs = ("p", "q")

    async def main():
        await agent.mount()
        handles = []
        for name in dirs:
            await agent.mkdir("/", name)
            handles.append(await agent.create(f"/{name}", "f"))
            await _move_replicas(agent, f"/{name}", to=("s1", "s2"))
            agent._handle_cache.pop(f"/{name}/f")
            await agent.lookup_path(f"/{name}/f")   # relayed: teaches s1
        hinted = [agent._placement_cache[
            (await agent.lookup_path(f"/{name}")).sid][0] for name in dirs]
        cluster.crash(1)
        await cluster.kernel.sleep(800.0)       # the cell sees s1 gone
        deltas, found = [], []
        for name in dirs:
            agent._handle_cache.pop(f"/{name}/f")
            snap = cluster.metrics.snapshot()
            found.append(await agent.lookup_path(f"/{name}/f"))
            delta = cluster.metrics.delta(snap)
            deltas.append((delta.get("net.rpc_expired.nfs", 0),
                           delta.get("agent.routed_reads", 0)))
        return hinted, found == handles, deltas

    hinted, found, deltas = cluster.run(main())
    assert hinted == ["s1", "s1"]
    assert found
    assert deltas == [(1, 1), (0, 1)]   # /p at s1 (dead), /q at s2


def test_alternating_writers_leave_the_token_at_the_holder():
    """§3.3 optimization 2 through the §5.3 shortcut: two agents mounted on
    different servers take turns rewriting one file.  Each whole-file
    write goes to the holder the file's hint named, which holds the token,
    so the token never moves and no write is forwarded."""
    cluster = build_cluster(n_servers=3, n_agents=2, scatter_agents=True)
    a, b = cluster.agents

    async def main():
        await a.mount()
        await b.mount()
        assert (a.server, b.server) == ("s0", "s1")
        await a.create("/", "f")
        await a.write_file("/f", b"start")
        await b.lookup_path("/f")            # relayed by s1: teaches s0
        snap = cluster.metrics.snapshot()
        acked = b""
        for i in range(20):
            writer = (a, b)[i % 2]
            image = f"image {i} from {writer.addr}".encode()
            await writer.write_file("/f", image)
            acked = image
        delta = cluster.metrics.delta(snap)
        return (acked, await a.read_file("/f"), await b.read_file("/f"),
                (delta.get("deceit.token_passes", 0),
                 delta.get("deceit.forwarded_writes", 0),
                 delta.get("agent.routed_writes", 0)))

    acked, read_a, read_b, counts = cluster.run(main())
    assert read_a == read_b == acked
    assert counts == (0, 0, 10)        # b's ten writes went to s0


def test_routed_write_falls_back_when_the_hinted_holder_crashes():
    """A whole-file write routed to a crashed server — a hint gone stale:
    the token moved on, and the server it names crashed since — costs the
    agent one routed timeout, then enters at the mount server, which
    passes it to the live token holder; it is acked and reads back."""
    cluster = build_cluster(n_servers=4, n_agents=1,
                            net_config=NetConfig(tag_metrics=True))
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "a")
        await agent.write_file("/a", b"before")
        await agent.set_params("/a", min_replicas=3)
        await cluster.kernel.sleep(200.0)
        located = await agent.locate("/a")
        holders, token = located["holders"], located["token_holder"]
        agent.current = next(i for i, s in enumerate(agent.servers)
                             if s not in holders)
        agent._data_cache.clear()
        await agent.read_file("/a")      # the reply names the token holder
        sid = (await agent.lookup_path("/a")).sid
        assert agent._token_hints[sid] == token
        replica = next(s for s in sorted(holders) if s != token)
        agent._token_hints[sid] = replica
        cluster.crash(agent.servers.index(replica))
        await cluster.kernel.sleep(2000.0)       # the group view drops it
        snap = cluster.metrics.snapshot()
        await agent.write_file("/a", b"after the crash")
        delta = cluster.metrics.delta(snap)
        return await agent.read_file("/a"), (
            delta.get("net.rpc_expired.nfs", 0),
            delta.get("agent.routed_writes", 0),
            delta.get("agent.failovers", 0))

    data, counts = cluster.run(main())
    assert data == b"after the crash"
    assert counts == (1, 1, 0)


def test_a_write_timed_out_at_a_slow_token_holder_does_not_apply_late():
    """One-copy semantics across a routed write's fallback.  The token
    holder is alive but slow (its update lock for the file is held past
    the routed bound): the routed write times out and enters again at the
    mount server, whose copy queues behind the first at the holder, so
    both apply before the writer is acked.  A second agent's write acked
    after that is the final image, and stays so.  (The stall ends within
    the mount server's own bound: a stall that outlasts that too sends
    the write on to further servers, see ROADMAP.)"""
    cluster = build_cluster(n_servers=3, n_agents=2, scatter_agents=True,
                            agent_config=AgentConfig(cache=False),
                            net_config=NetConfig(tag_metrics=True))
    owner, writer = cluster.agents          # mounted on s0 and s1
    holder = cluster.servers[0].segments

    async def stall(lock, ms):
        await lock.acquire()
        await cluster.kernel.sleep(ms)
        lock.release()

    async def main():
        await owner.mount()
        await writer.mount()
        await owner.create("/", "f")
        await owner.write_file("/f", b"start")          # token at s0
        await writer.read_file("/f")        # teaches: s0 holds the token
        sid = (await writer.lookup_path("/f")).sid
        assert writer._token_hints[sid] == "s0"
        cluster.kernel.spawn(stall(holder._update_lock(sid),
                                   TOKEN_HOLDER_WRITE_TIMEOUT_MS + 300.0))
        snap = cluster.metrics.snapshot()
        await writer.write_file("/f", b"first writer")
        delta = cluster.metrics.delta(snap)
        await owner.write_file("/f", b"second writer")
        await cluster.kernel.sleep(3000.0)
        return (await owner.read_file("/f"), await writer.read_file("/f"),
                (delta.get("agent.routed_writes", 0),
                 delta.get("net.rpc_expired.nfs", 0),
                 delta.get("deceit.updates", 0)))

    read_owner, read_writer, counts = cluster.run(main())
    assert read_owner == read_writer == b"second writer"
    # one routed attempt that expired; its copy and the mount server's
    # both applied before the first writer's ack
    assert counts == (1, 1, 2)


def _routed_writes(agent_config):
    """``agent.routed_writes`` for one whole-file write, then one range
    write, of a file held (replica and token) at ``s1`` only, by an agent
    mounted on ``s0`` whose last read taught it that."""
    cluster = make(agent_config)
    agent = cluster.agents[0]

    async def routed(call):
        before = cluster.metrics.get("agent.routed_writes")
        await call
        return cluster.metrics.get("agent.routed_writes") - before

    async def main():
        await agent.mount()
        await _create_through(agent, 1, "f", b"held at s1")
        await agent.read_file("/f")              # relayed by s0: teaches s1
        counts = (await routed(agent.write_file("/f", b"whole")),
                  await routed(agent.write_at("/f", 0, b"range")))
        agent._data_cache.clear()
        assert await agent.read_file("/f") == b"range"
        return counts

    return cluster.run(main())


def test_only_whole_file_writes_are_routed():
    """A range write enters at the mount server; a whole-file write is
    routed only while the shortcut is on."""
    assert _routed_writes(AgentConfig(cache=False)) == (1, 0)
    assert _routed_writes(AgentConfig(cache=False, shortcut=False)) == (0, 0)


def _busy_holder(call):
    """Run ``call(agent)`` against a file held (replica and token) at
    ``s1`` only, once ``s1``'s admission gate admits nothing, by an agent
    mounted on ``s0`` whose last read taught it that; its result, then
    the deltas of the routing and BUSY counters."""
    cluster = make(AgentConfig(cache=False))
    agent = cluster.agents[0]
    metrics = cluster.metrics

    async def main():
        await agent.mount()
        await _create_through(agent, 1, "f", b"held at s1")
        await agent.read_file("/f")              # relayed by s0: teaches s1
        cluster.servers[1].set_admission(AdmissionGate(
            cluster.kernel, AdmissionConfig(rate_per_ms=0.0, burst=0.0)))
        snap = metrics.snapshot()
        result = await call(agent)
        delta = metrics.delta(snap)
        return result, tuple(delta.get(name, 0) for name in (
            "agent.routed_reads", "agent.routed_writes",
            "nfs.busy_rejected", "agent.busy_retries", "agent.failovers"))

    return cluster.run(main())


def test_a_busy_routed_holder_hands_the_call_to_the_mount_server():
    """BUSY from a routed read holder's admission gate is not retried
    against that holder: the read goes to the mount server at once, with
    no backoff and no failover."""
    data, counts = _busy_holder(lambda agent: agent.read_file("/f"))
    assert data == b"held at s1"
    assert counts == (1, 0, 1, 0, 0)     # rejected once by s1, s0 serves


def test_a_busy_token_holder_is_backed_off_against():
    """BUSY from the token holder a whole-file write was routed to is
    backed off against, as a busy mount server's is: the mount server
    would only forward the write to that holder, past its gate.  Once the
    BUSY budget is spent, the mount server takes the write."""
    async def rewrite(agent):
        await agent.write_file("/f", b"rewritten")
        return await agent.read_file("/f")

    data, counts = _busy_holder(rewrite)
    retries = AgentConfig().busy_retries
    assert data == b"rewritten"
    # the routed write and its retries all rejected by s1, then s0 passes
    # it on; the read after it is routed to s1 and rejected once more
    assert counts == (1, 1, retries + 2, retries, 0)


def test_special_commands_fail_over():
    """A special command whose server crashed fails over like an NFS call
    instead of surfacing a raw RPC timeout."""
    cluster = build_cluster(n_servers=3, n_agents=1, seed=1)
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        await agent.write_file("/f", b"everywhere")
        await agent.set_params("/f", min_replicas=3)
        cluster.crash(0)               # the connected server
        return await agent.locate("/f")

    located = cluster.run(main())
    assert cluster.agents[0].server != "s0"
    assert "s1" in located["holders"]
    assert cluster.metrics.get("agent.failovers") >= 1


def test_placement_hop_costs_differ():
    assert Placement.USER_LIBRARY.hop_ms < Placement.KERNEL.hop_ms
    assert Placement.KERNEL.hop_ms < Placement.AUX_PROCESS.hop_ms


def test_agent_requires_servers(kernel, network):
    with pytest.raises(ValueError):
        Agent(network, "c0", servers=[])


def test_handle_cache_speeds_path_walks():
    cluster = make(AgentConfig(cache=True))
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.mkdir("/", "a")
        await agent.mkdir("/a", "b")
        await agent.create("/a/b", "deep")
        await agent.write_file("/a/b/deep", b"x")
        before = cluster.metrics.get("nfs.ops.lookup")
        await agent.read_file("/a/b/deep")
        return cluster.metrics.get("nfs.ops.lookup") - before

    assert cluster.run(main()) == 0  # fully cached path walk


# --------------------------------------------------------------------- #
# _Cache: the one coherence type behind all seven agent caches
# --------------------------------------------------------------------- #

def test_cache_disabled_stores_nothing(kernel):
    cache = _Cache(kernel, 100.0, enabled=False)
    cache.put("k", "v", version=(1, 2))
    assert cache.fresh("k") is None and cache.peek("k") is None
    assert cache.keys() == []


def test_cache_peek_returns_lapsed_entry_fresh_refuses(kernel):
    cache = _Cache(kernel, 100.0)
    cache.put("k", "v", version=(1, 2))
    assert cache.fresh("k") == ("v", 100.0, (1, 2))
    kernel.run(until=100.0)             # expiry is exclusive: lapsed at 100
    assert cache.fresh("k") is None
    assert cache.peek("k") == ("v", 100.0, (1, 2))
    cache.pop("k")
    cache.pop("k")                      # popping a missing key is fine
    assert cache.peek("k") is None


def test_cache_infinite_ttl_never_lapses(kernel):
    cache = _Cache(kernel, math.inf)
    cache.put("/a", "fh")
    kernel.run(until=1e12)
    assert cache.fresh("/a") == ("fh", math.inf, None)


def test_cache_limit_sweeps_expired_first(kernel):
    cache = _Cache(kernel, 100.0, limit=512)
    for i in range(300):
        cache.put(("old", i), True)
    kernel.run(until=100.0)             # the first 300 lapse
    for i in range(211):
        cache.put(("new", i), True)
    assert len(cache.keys()) == 511     # one short of the limit: no sweep
    cache.put(("new", 211), True)
    assert len(cache.keys()) == 512
    cache.put("trigger", True)          # at the limit: lapsed entries go
    assert len(cache.keys()) == 213
    assert not any(k[0] == "old" for k in cache.keys())


def test_cache_limit_evicts_soonest_to_expire_half_when_all_live(kernel):
    cache = _Cache(kernel, 1000.0, limit=512)
    for i in range(512):
        kernel.run(until=float(i))      # entry i expires at i + 1000
        cache.put(i, True)
    assert len(cache.keys()) == 512     # the 512th insert did not sweep
    cache.put(512, True)                # this one does: all 512 are live
    assert cache.keys() == list(range(256, 513))
