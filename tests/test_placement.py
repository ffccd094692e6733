"""Placement tests: the method-4 migration barrier and the agent router.

Covers the ``quiesced()`` barrier over §3.1 method-4 one-shot migrations
(immediate when idle, awaits in-flight pulls, survives a crash
mid-migration) and the agent-side router that follows placement hints
piggybacked on read replies.
"""

from repro.agent import AgentConfig
from repro.core import FileParams
from repro.testbed import build_cluster, build_core_cluster


# ---------------------------------------------------------------------- #
# quiescence
# ---------------------------------------------------------------------- #

def test_quiesced_is_immediate_when_nothing_is_pending():
    cluster = build_core_cluster(2)  # nothing in flight

    async def main():
        await cluster.servers[0].quiesced()
        return True

    assert cluster.run(main())


def test_quiesced_awaits_one_shot_migrations():
    """Every §3.1 one-shot migration is counted in flight, so
    ``quiesced()`` replaces the fixed sleeps the migration benchmarks used
    to race against."""
    cluster = build_core_cluster(3)
    s0, s1 = cluster.servers[0], cluster.servers[1]

    async def main():
        sid = await s0.create(params=FileParams(file_migration=True),
                              data=b"m" * 2048)
        await s1.read(sid)   # forwarded; spawns the migration
        await s1.quiesced()  # deterministic completion barrier
        return sid

    sid = cluster.run(main())
    assert any(k[0] == sid for k in s1.replicas)


def test_quiesced_survives_crash_mid_migration():
    """A crash while a tracked migration is in flight must neither wedge
    pending quiesced() waiters nor underflow the in-flight counter (the
    cancelled task's ``finally`` runs after the crash already zeroed it)."""
    cluster = build_core_cluster(3)
    s0, s1 = cluster.servers[0], cluster.servers[1]

    async def main():
        sid = await s0.create(params=FileParams(file_migration=True),
                              data=b"q" * 4096)
        await s1.read(sid)  # spawns the tracked one-shot migration
        waiter = cluster.kernel.spawn(s1.quiesced())
        cluster.crash(1)
        await cluster.kernel.sleep(300.0)
        assert waiter.done()                 # resolved, not wedged
        assert s1._migrations_inflight == 0  # no underflow
        await s1.quiesced()                  # fresh waiters resolve too
        return True

    assert cluster.run(main())


# ---------------------------------------------------------------------- #
# the agent-side router
# ---------------------------------------------------------------------- #

def test_agent_router_follows_placement_hint():
    """After one forwarded read the agent has learned the holder set from
    the reply hint and sends the next read straight to a holder."""
    cluster = build_cluster(3, 1, agent_config=AgentConfig(
        cache=False, route_hints=True))
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        await agent.write_file("/f", b"routed")
        # move the data off the mount server: only s1 holds a replica
        assert await agent.create_replica("/f", "s1")
        assert await agent.delete_replica("/f", "s0")
        first = await agent.read_file("/f")       # forwarded s0 -> s1
        forwarded = cluster.metrics.get("deceit.reads_forwarded")
        second = await agent.read_file("/f")      # routed directly to s1
        return first, second, \
            cluster.metrics.get("deceit.reads_forwarded") - forwarded

    first, second, extra_forwards = cluster.run(main())
    assert first == second == b"routed"
    assert extra_forwards == 0  # the routed read was served locally at s1
    assert cluster.metrics.get("agent.placement_hints") >= 1
    assert cluster.metrics.get("agent.routed_reads") >= 1


def test_agent_router_falls_back_when_hinted_holder_dies():
    cluster = build_cluster(3, 1, agent_config=AgentConfig(
        cache=False, route_hints=True))
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        await agent.write_file("/f", b"still there")
        await agent.set_params("/f", min_replicas=2)  # held on s0 and s1
        await agent.read_file("/f")  # learn the hint
        # aim the router at s1, then kill it
        agent._placement_cache[(await agent.lookup_path("/f")).sid] = ["s1"]
        cluster.crash(1)
        await cluster.kernel.sleep(500.0)
        return await agent.read_file("/f")  # falls back to the mount server

    assert cluster.run(main()) == b"still there"
