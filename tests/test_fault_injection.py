"""Failure-injection integration tests: message loss, crashes mid-operation,
and end-to-end consistency checks across the full stack."""

import pytest

from repro.agent import AgentConfig
from repro.core import FileParams, WriteOp
from repro.errors import NfsError
from repro.testbed import build_cluster, build_core_cluster


def test_rpc_layer_retries_cover_moderate_message_loss():
    """The op mix survives 5% message loss: RPC timeouts surface as
    failures the agent retries via failover, not as corruption."""
    cluster = build_core_cluster(3, drop_probability=0.05, seed=77)
    s0 = cluster.servers[0]

    async def main():
        sid = await s0.create(params=FileParams(min_replicas=2,
                                                stability_notification=False),
                              data=b"")
        ok = 0
        for i in range(20):
            try:
                await s0.write(sid, WriteOp(kind="append", data=b"x"))
                ok += 1
            except Exception:
                pass
        result = await s0.read(sid)
        return ok, result.data

    ok, data = cluster.run(main(), limit=2_000_000.0)
    # every acknowledged write is present; no phantom or lost-but-acked data
    assert len(data) >= ok - 1  # at most the in-flight tail is ambiguous
    assert ok >= 15


def test_heartbeats_keep_views_stable_under_loss():
    """Random loss below the FD timeout threshold must not evict members."""
    cluster = build_core_cluster(3, drop_probability=0.05, seed=78)
    s0 = cluster.servers[0]

    async def main():
        sid = await s0.create(params=FileParams(min_replicas=3), data=b"x")
        await cluster.kernel.sleep(3000.0)
        return cluster.procs[0].members(f"fg:{sid}")

    members = cluster.run(main(), limit=2_000_000.0)
    assert len(members) == 3  # nobody falsely expelled


def test_crash_during_directory_update_leaves_namespace_consistent():
    """A server dying mid-create must not corrupt the directory: the entry
    either exists with a live segment, or does not exist at all."""
    cluster = build_cluster(n_servers=3, n_agents=1,
                            agent_config=AgentConfig(cache=False))
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.set_params("/", min_replicas=3)  # root survives crashes
        create = cluster.kernel.spawn(agent.create("/", "racy"))
        await cluster.kernel.sleep(5.0)  # mid-operation
        cluster.crash(0)
        try:
            await create
        except NfsError:
            pass
        await cluster.kernel.sleep(1000.0)
        agent._handle_cache.clear()
        entries = [e["name"] for e in await agent.readdir("/")]
        if "racy" in entries:
            # entry exists: the file must be fully usable
            await agent.write_file("/racy", b"ok")
            return await agent.read_file("/racy")
        return b"absent"

    result = cluster.run(main(), limit=2_000_000.0)
    assert result in (b"ok", b"absent")


def test_double_crash_and_staggered_recovery():
    """Two of three replica holders crash and recover in turn; the file
    converges to one consistent version everywhere."""
    cluster = build_core_cluster(3)
    s0 = cluster.servers[0]

    async def main():
        sid = await s0.create(params=FileParams(min_replicas=3, write_safety=3),
                              data=b"gen0")
        cluster.crash(1)
        await cluster.kernel.sleep(800.0)
        await s0.write(sid, WriteOp(kind="append", data=b"+gen1"))
        cluster.crash(2)
        await cluster.kernel.sleep(800.0)
        await s0.write(sid, WriteOp(kind="append", data=b"+gen2"))
        await cluster.recover(1)
        await cluster.kernel.sleep(1500.0)
        await cluster.recover(2)
        await cluster.kernel.sleep(1500.0)
        return sid

    sid = cluster.run(main(), limit=3_000_000.0)
    cluster.settle(2000.0)

    async def verify():
        reads = []
        for server in cluster.servers:
            result = await server.read(sid)
            reads.append(result.data)
        return reads

    reads = cluster.run(verify(), limit=2_000_000.0)
    assert all(r == b"gen0+gen1+gen2" for r in reads)


def test_rapid_crash_recover_cycles_do_not_duplicate_majors():
    """A flapping server must not mint duplicate majors on recovery
    (the allocator observes its own past majors from disk)."""
    cluster = build_core_cluster(2)
    s0 = cluster.servers[0]

    async def create():
        return await s0.create(data=b"flap")

    sid = cluster.run(create())
    for _ in range(3):
        cluster.crash(0)
        cluster.settle(300.0)
        cluster.run(cluster.recover(0))
        cluster.settle(500.0)

    async def versions():
        return await s0.list_versions(sid)

    versions = cluster.run(versions(), limit=2_000_000.0)
    assert len(versions) == 1


def test_agent_survives_total_then_partial_outage():
    cluster = build_cluster(n_servers=3, n_agents=1,
                            agent_config=AgentConfig(cache=False))
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        await agent.write_file("/f", b"persistent")
        await agent.set_params("/f", min_replicas=3)
        for i in range(3):
            cluster.crash(i)
        await cluster.kernel.sleep(500.0)
        with pytest.raises(NfsError):
            await agent.read_file("/f")
        # one server comes back with its disk intact
        await cluster.recover(0)
        await cluster.kernel.sleep(1500.0)
        return await agent.read_file("/f")

    assert cluster.run(main(), limit=3_000_000.0) == b"persistent"


def test_cold_restart_during_regeneration_still_converges(tmp_path):
    """Crash one member, then ``kill -9`` the whole cell while replica
    regeneration is still in flight.  The cold-restarted cell must end up
    with the file at full replica level again: the crashed member's
    durable replica comes back with the cell, and a half-transferred
    replica either completed durably or vanished — it never counts."""
    cluster = build_cluster(n_servers=4, n_agents=1, seed=17,
                            backend="journal",
                            storage_dir=str(tmp_path / "regen"))
    agent = cluster.agents[0]

    async def setup():
        await agent.mount()
        await agent.create("/", "f")
        await agent.write_file("/f", b"replicated payload")
        await agent.set_params("/f", min_replicas=3)
        fh = await agent.lookup_path("/f")
        return fh.sid

    sid = cluster.run(setup())
    cluster.settle(500.0)           # three replicas placed
    cluster.crash(1)                # one holder gone: level drops below 3
    cluster.settle(100.0)

    async def trigger_regen():      # re-assert the level: replenish starts
        await agent.set_params("/f", min_replicas=3)

    cluster.kernel.spawn(trigger_regen())
    cluster.kernel.run(until=cluster.kernel.now + 6.0)  # transfer in flight
    cluster.kill()
    cluster.restart()
    cluster.settle(8000.0)          # repairs land

    async def verify():
        reads = []
        for server in cluster.servers:
            result = await server.segments.read(sid)
            reads.append(result.data)
        return reads

    reads = cluster.run(verify(), limit=2_000_000.0)
    assert all(r == b"replicated payload" for r in reads)
    durable = sum(1 for server in cluster.servers
                  if server.segments.store.disk_majors(sid))
    assert durable >= 3, f"only {durable} durable replicas after restart"
    live = [server.addr for server in cluster.servers
            if any(key[0] == sid for key in server.segments.replicas)]
    assert len(live) >= 3, f"live holders after restart: {live}"
    cluster.close()


def test_partition_during_replica_generation_is_clean():
    """A partition cutting off the transfer target mid-replenish leaves no
    half-installed replica visible to reads."""
    cluster = build_core_cluster(3)
    s0 = cluster.servers[0]

    async def main():
        sid = await s0.create(data=b"D" * 200_000)  # big: slow transfer
        task = cluster.kernel.spawn(s0.setparam(sid, min_replicas=3))
        await cluster.kernel.sleep(5.0)  # transfer in flight
        cluster.partition({0}, {1, 2})
        try:
            await task
        except Exception:
            pass
        await cluster.kernel.sleep(500.0)
        result = await s0.read(sid)
        return result.data

    data = cluster.run(main(), limit=3_000_000.0)
    assert data == b"D" * 200_000
