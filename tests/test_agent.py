"""Tests for the client agent: caching, failover, shortcuts (§5.3)."""

import math

import pytest

from repro.agent import Agent, AgentConfig, Placement
from repro.agent.agent import _Cache
from repro.errors import NfsError
from repro.net.network import NetConfig
from repro.testbed import build_cluster


def make(agent_config=None, n_servers=3):
    return build_cluster(n_servers=n_servers, n_agents=1,
                         agent_config=agent_config)


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
            assert await agent.create_replica(f"/{name}", "s1")
            assert await agent.create_replica(f"/{name}", "s2")
            assert await agent.delete_replica(f"/{name}", "s0")
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
