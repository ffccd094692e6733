"""Striped large-file subsystem tests.

Covers the conversion triggers (growth past ``stripe_size``, ``set_params``
restriping), range I/O through the map, the sparse/boundary semantics the
blob path and the striped path must share (write beyond EOF zero-fills,
read past EOF truncates, zero-length ops are no-ops), restriping atomicity
from a concurrent reader's point of view (interleaved-coroutine tests in
the style of tests/test_namespace_races.py), stripe GC, and availability
across a stripe-holder crash.
"""

import pytest

from repro.agent import AgentConfig
from repro.core.striping import StripeMap
from repro.core.striping.striper import RETIRE_DELAY_MS
from repro.errors import NfsError
from repro.net.network import NetConfig
from repro.nfs.attrs import FileAttrs
from repro.testbed import build_cluster
from tests.conftest import record_nfs

SS = 128  # stripe size used throughout: small enough to reason about


def payload_bytes(n: int) -> bytes:
    return bytes(i % 251 for i in range(n))


async def make_striped(cluster, agent, name="big", size=6 * SS,
                       stripe_size=SS):
    """Create a file, arm striping, and write it past the threshold."""
    await agent.mount()
    await agent.create("/", name)
    await agent.set_params(f"/{name}", stripe_size=stripe_size)
    payload = payload_bytes(size)
    await agent.write_file(f"/{name}", payload)
    return payload


async def parent_map(cluster, agent, path):
    fh = await agent.lookup_path(path)
    stat = await cluster.servers[0].segments.stat(fh.sid)
    raw = stat.meta.get("stripes")
    return StripeMap.from_meta(stat.meta) if raw else None


def fresh(agent) -> None:
    """Drop the agent's data/range caches so reads hit the servers."""
    agent._data_cache.clear()
    agent._range_cache.clear()


def segment_gone(cluster, sid: str) -> bool:
    return all(s.segments.store.disk_majors(sid) == [] for s in cluster.servers)


# --------------------------------------------------------------------- #
# conversion triggers
# --------------------------------------------------------------------- #


def test_small_file_stays_blob():
    cluster = build_cluster(3, n_agents=1, seed=11)
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "small")
        await agent.set_params("/small", stripe_size=SS)
        await agent.write_file("/small", b"x" * (SS // 2))
        assert await parent_map(cluster, agent, "/small") is None
        fresh(agent)
        assert await agent.read_file("/small") == b"x" * (SS // 2)

    cluster.run(main())
    assert cluster.metrics.get("striping.conversions") == 0
    cluster.close()


def test_growth_past_threshold_converts_in_place():
    cluster = build_cluster(4, n_agents=1, seed=12)
    agent = cluster.agents[0]

    async def main():
        payload = await make_striped(cluster, agent)
        smap = await parent_map(cluster, agent, "/big")
        assert smap is not None and smap.stripe_size == SS
        assert smap.length == len(payload)
        assert len(smap.sids) == 6 and all(smap.sids)
        fresh(agent)
        assert await agent.read_file("/big") == payload
        attrs = await agent.getattr("/big")
        assert attrs.size == len(payload)
        assert attrs.stripe_size == SS

    cluster.run(main())
    assert cluster.metrics.get("striping.conversions") == 1
    # the stripes were scattered across the cell, not piled on the creator
    assert cluster.metrics.get("striping.stripes_scattered") > 0
    cluster.close()


def test_positioned_write_crossing_threshold_converts():
    cluster = build_cluster(3, n_agents=1, seed=13)
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        await agent.set_params("/f", stripe_size=SS)
        await agent.write_file("/f", b"a" * SS)          # at threshold: blob
        assert await parent_map(cluster, agent, "/f") is None
        await agent.write_at("/f", SS, b"b" * SS)        # crosses: converts
        assert await parent_map(cluster, agent, "/f") is not None
        fresh(agent)
        assert await agent.read_file("/f") == b"a" * SS + b"b" * SS

    cluster.run(main())
    assert cluster.metrics.get("striping.conversions") == 1
    cluster.close()


# --------------------------------------------------------------------- #
# range I/O through the map
# --------------------------------------------------------------------- #


def test_range_write_touches_only_affected_stripes():
    cluster = build_cluster(4, n_agents=1, seed=14)
    agent = cluster.agents[0]

    async def main():
        payload = await make_striped(cluster, agent)
        smap = await parent_map(cluster, agent, "/big")
        seg = cluster.servers[0].segments
        before = {sid: await seg.get_version(sid) for sid in smap.sids}
        fh = await agent.lookup_path("/big")
        parent_before = await seg.get_version(fh.sid)
        await agent.write_at("/big", SS + 7, b"PATCH")   # inside stripe 1
        after = {sid: await seg.get_version(sid) for sid in smap.sids}
        changed = [i for i, sid in enumerate(smap.sids)
                   if after[sid] != before[sid]]
        assert changed == [1]
        # a non-extending range write moves NO parent state at all
        assert await seg.get_version(fh.sid) == parent_before
        fresh(agent)
        data = await agent.read_file("/big")
        assert data[SS + 7:SS + 12] == b"PATCH"
        assert data[:SS + 7] == payload[:SS + 7]
        assert data[SS + 12:] == payload[SS + 12:]

    cluster.run(main())
    cluster.close()


def test_ranged_reads_and_readahead():
    cluster = build_cluster(4, n_agents=1, seed=15)
    agent = cluster.agents[0]

    async def main():
        payload = await make_striped(cluster, agent)
        fresh(agent)
        # a scan: chunked sequential read_at over the whole file
        out = b""
        pos = 0
        while True:
            chunk = await agent.read_at("/big", pos, SS)
            if not chunk:
                break
            out += chunk
            pos += len(chunk)
            await cluster.kernel.sleep(20.0)     # let the readahead land
            # whole-file cache dropped: the next chunk must come from the
            # readahead range cache or a fresh RPC
            agent._data_cache.clear()
        assert out == payload
        assert cluster.metrics.get("agent.readahead_prefetches") > 0
        assert cluster.metrics.get("agent.readahead_hits") > 0
        # a multi-stripe range fans out and reassembles exactly
        fresh(agent)
        assert await agent.read_at("/big", SS // 2, 3 * SS) == \
            payload[SS // 2:SS // 2 + 3 * SS]

    cluster.run(main())
    cluster.close()


def test_a_cold_read_of_a_striped_file_reassembles_through_the_fan_out():
    """The LOOKUP that asks for a striped file's bytes gets none (a READ
    would have gathered them): its attributes carry the stripe width, and
    the agent fans the read out per stripe."""
    cluster = build_cluster(4, n_agents=1, seed=15)
    agent = cluster.agents[0]

    async def main():
        payload = await make_striped(cluster, agent)
        agent._handle_cache.pop("/big")
        fresh(agent)
        calls = record_nfs(agent)
        data = await agent.read_file("/big")
        return payload, data, calls

    payload, data, calls = cluster.run(main())
    assert data == payload
    op, args, reply = calls[0]
    assert (op, args.get("read"), "data" in reply) == ("lookup", True, False)
    assert reply["attrs"]["stripe_size"] == SS
    assert [op for op, _args, _reply in calls[1:]] == ["read"] * 6
    assert cluster.metrics.get("agent.striped_reads") == 1
    cluster.close()


def test_whole_file_rewrite_of_striped_file():
    cluster = build_cluster(4, n_agents=1, seed=16)
    agent = cluster.agents[0]

    async def main():
        await make_striped(cluster, agent)
        old_map = await parent_map(cluster, agent, "/big")
        new_payload = payload_bytes(8 * SS + 13)[::-1]
        await agent.write_file("/big", new_payload)
        fresh(agent)
        assert await agent.read_file("/big") == new_payload
        smap = await parent_map(cluster, agent, "/big")
        assert smap.length == len(new_payload)
        # the old stripes are retired once the reader grace period passes
        await cluster.kernel.sleep(3000.0)   # past the retire grace
        for sid in old_map.live_sids():
            assert segment_gone(cluster, sid)

    cluster.run(main())
    cluster.close()


def test_rewrite_shrinking_below_threshold_returns_to_blob():
    cluster = build_cluster(3, n_agents=1, seed=17)
    agent = cluster.agents[0]

    async def main():
        await make_striped(cluster, agent)
        await agent.write_file("/big", b"tiny")
        assert await parent_map(cluster, agent, "/big") is None
        fresh(agent)
        assert await agent.read_file("/big") == b"tiny"

    cluster.run(main())
    assert cluster.metrics.get("striping.unstripes") == 1
    cluster.close()


# --------------------------------------------------------------------- #
# sparse / boundary semantics — identical on the blob and striped paths
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("striped", [False, True])
def test_write_beyond_eof_zero_fills_the_hole(striped):
    cluster = build_cluster(4, n_agents=1, seed=18)
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        if striped:
            await agent.set_params("/f", stripe_size=SS)
        await agent.write_file("/f", b"head" + b"x" * (2 * SS if striped else 8))
        base = 2 * SS + 4 if striped else 12
        hole_end = 4 * SS + 9 if striped else 40
        await agent.write_at("/f", hole_end, b"tail")
        fresh(agent)
        data = await agent.read_file("/f")
        assert len(data) == hole_end + 4
        assert data[base:hole_end] == b"\x00" * (hole_end - base)
        assert data[hole_end:] == b"tail"
        if striped:
            smap = await parent_map(cluster, agent, "/f")
            # the skipped-over stripe was never allocated: a real hole
            assert None in smap.sids

    cluster.run(main())
    cluster.close()


@pytest.mark.parametrize("striped", [False, True])
def test_read_past_eof_truncates(striped):
    cluster = build_cluster(4, n_agents=1, seed=19)
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        if striped:
            await agent.set_params("/f", stripe_size=SS)
        payload = payload_bytes(3 * SS if striped else 64)
        await agent.write_file("/f", payload)
        fresh(agent)
        assert await agent.read_at("/f", len(payload) - 10, 1000) == \
            payload[-10:]
        fresh(agent)
        assert await agent.read_at("/f", len(payload) + 50, 10) == b""

    cluster.run(main())
    cluster.close()


@pytest.mark.parametrize("striped", [False, True])
def test_zero_length_ops_are_noops(striped):
    cluster = build_cluster(4, n_agents=1, seed=20)
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        if striped:
            await agent.set_params("/f", stripe_size=SS)
        payload = payload_bytes(3 * SS if striped else 64)
        await agent.write_file("/f", payload)
        fh = await agent.lookup_path("/f")
        seg = cluster.servers[0].segments
        before = await seg.get_version(fh.sid)
        # zero-length write far past EOF: no extension, no version bump
        await agent.write_at("/f", len(payload) + 500, b"")
        assert await seg.get_version(fh.sid) == before
        attrs = await agent.getattr("/f")
        assert attrs.size == len(payload)
        # zero-length read: empty, wherever it lands
        assert await agent.read_at("/f", 0, 0) == b""
        fresh(agent)
        assert await agent.read_file("/f") == payload

    cluster.run(main())
    cluster.close()


# --------------------------------------------------------------------- #
# restriping via set_params, and its reader-atomicity
# --------------------------------------------------------------------- #


def test_set_params_restripes_existing_blob_and_back():
    cluster = build_cluster(4, n_agents=1, seed=21)
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        payload = payload_bytes(5 * SS)
        await agent.write_file("/f", payload)           # blob: no param yet
        assert await parent_map(cluster, agent, "/f") is None

        await agent.set_params("/f", stripe_size=SS)    # restripes in place
        smap = await parent_map(cluster, agent, "/f")
        assert smap is not None and smap.stripe_size == SS
        fresh(agent)
        assert await agent.read_file("/f") == payload

        await agent.set_params("/f", stripe_size=2 * SS)  # re-split wider
        smap2 = await parent_map(cluster, agent, "/f")
        assert smap2.stripe_size == 2 * SS
        fresh(agent)
        assert await agent.read_file("/f") == payload

        await agent.set_params("/f", stripe_size=None)  # back to one blob
        assert await parent_map(cluster, agent, "/f") is None
        fresh(agent)
        assert await agent.read_file("/f") == payload
        # every stripe segment is reclaimed after the grace period
        await cluster.kernel.sleep(3000.0)
        for sid in smap.live_sids() + smap2.live_sids():
            assert segment_gone(cluster, sid)

    cluster.run(main())
    assert cluster.metrics.get("striping.unstripes") == 1
    cluster.close()


def gate_parent_update(striper, gate):
    """Pause the striper's next parent-map install on ``gate`` (the
    restriping analogue of test_namespace_races' dir-write gates)."""
    orig = striper._parent_update

    async def gated(sid, op, guard, version):
        striper._parent_update = orig
        await gate
        return await orig(sid, op, guard, version)

    striper._parent_update = gated


def test_restripe_is_atomic_for_a_concurrent_reader():
    cluster = build_cluster(4, n_agents=2, seed=22)
    writer, reader = cluster.agents

    async def main():
        await writer.mount()
        await reader.mount()
        await writer.create("/", "f")
        payload = payload_bytes(5 * SS)
        await writer.write_file("/f", payload)

        # gate the conversion's map install: stripes get fully written,
        # then the flip hangs until we release it
        gate = cluster.kernel.create_future()
        gate_parent_update(cluster.servers[0].envelope.striper, gate)
        restripe = cluster.kernel.spawn(
            writer.set_params("/f", stripe_size=SS))

        observed = []
        for _ in range(4):
            fresh(reader)
            reader._attr_cache.clear()
            observed.append(await reader.read_file("/f"))
            await cluster.kernel.sleep(10.0)
        gate.try_set_result(None)
        await restripe

        # mid-restripe readers saw the complete old contents, never a
        # half-converted hybrid or an empty parent
        assert all(snapshot == payload for snapshot in observed)
        assert await parent_map(cluster, writer, "/f") is not None
        fresh(reader)
        reader._attr_cache.clear()
        assert await reader.read_file("/f") == payload

    cluster.run(main())
    cluster.close()


def test_striped_whole_file_rewrite_is_atomic_for_a_concurrent_reader():
    cluster = build_cluster(4, n_agents=2, seed=23)
    writer, reader = cluster.agents

    async def main():
        old = await make_striped(cluster, writer)
        new = payload_bytes(7 * SS)[::-1]

        gate = cluster.kernel.create_future()
        gate_parent_update(cluster.servers[0].envelope.striper, gate)
        rewrite = cluster.kernel.spawn(writer.write_file("/big", new))

        observed = []
        for _ in range(4):
            fresh(reader)
            reader._attr_cache.clear()
            observed.append(await reader.read_file("/big"))
            await cluster.kernel.sleep(10.0)
        gate.try_set_result(None)
        await rewrite
        fresh(reader)
        reader._attr_cache.clear()
        final = await reader.read_file("/big")

        assert all(snapshot == old for snapshot in observed)
        assert final == new

    cluster.run(main())
    cluster.close()


# --------------------------------------------------------------------- #
# truncate through the map
# --------------------------------------------------------------------- #


def test_truncate_striped_shrink_and_grow():
    cluster = build_cluster(4, n_agents=1, seed=24)
    agent = cluster.agents[0]

    async def main():
        payload = await make_striped(cluster, agent)   # 6 stripes
        fh = await agent.lookup_path("/big")
        env = cluster.servers[0].envelope
        old_map = await parent_map(cluster, agent, "/big")

        attrs = FileAttrs.from_wire(
            (await env.setattr(fh, {"size": 2 * SS + 5}))["attrs"])
        assert attrs.size == 2 * SS + 5
        smap = await parent_map(cluster, agent, "/big")
        assert smap.length == 2 * SS + 5 and len(smap.sids) == 3
        fresh(agent)
        agent._attr_cache.clear()
        assert await agent.read_file("/big") == payload[:2 * SS + 5]

        attrs = FileAttrs.from_wire(
            (await env.setattr(fh, {"size": 4 * SS}))["attrs"])
        assert attrs.size == 4 * SS
        fresh(agent)
        agent._attr_cache.clear()
        data = await agent.read_file("/big")
        assert data == payload[:2 * SS + 5] + \
            b"\x00" * (4 * SS - (2 * SS + 5))
        await cluster.kernel.sleep(3000.0)   # past the retire grace
        for sid in old_map.sids[3:]:
            assert segment_gone(cluster, sid)

    cluster.run(main())
    cluster.close()


# --------------------------------------------------------------------- #
# GC, concurrent hole claims, crash availability
# --------------------------------------------------------------------- #


def test_removing_a_striped_file_collects_its_stripes():
    cluster = build_cluster(4, n_agents=1, seed=25)
    agent = cluster.agents[0]

    async def main():
        await make_striped(cluster, agent)
        smap = await parent_map(cluster, agent, "/big")
        fh = await agent.lookup_path("/big")
        await agent.remove("/", "big")
        return fh.sid, smap.live_sids()

    parent_sid, stripe_sids = cluster.run(main())
    cluster.settle(500.0)
    assert segment_gone(cluster, parent_sid)
    for sid in stripe_sids:
        assert segment_gone(cluster, sid)
    cluster.close()


def test_concurrent_growth_into_the_same_hole_commutes():
    """Two writers allocating the same missing stripe: one claim wins,
    the loser lands its bytes in the winner — nothing is lost."""
    cluster = build_cluster(4, n_agents=2, seed=26)
    a0, a1 = cluster.agents

    async def main():
        payload = await make_striped(cluster, a0)
        await a1.mount()
        a1.current = 1          # the two writes route via different servers
        t0 = cluster.kernel.spawn(a0.write_at("/big", 8 * SS, b"L" * 16))
        t1 = cluster.kernel.spawn(
            a1.write_at("/big", 8 * SS + SS // 2, b"R" * 16))
        await cluster.kernel.all_of([t0, t1])
        fresh(a0)
        a0._attr_cache.clear()
        data = await a0.read_file("/big")
        assert data[8 * SS:8 * SS + 16] == b"L" * 16
        assert data[8 * SS + SS // 2:8 * SS + SS // 2 + 16] == b"R" * 16
        assert data[:6 * SS] == payload
        smap = await parent_map(cluster, a0, "/big")
        assert smap.length == 8 * SS + SS // 2 + 16

    cluster.run(main())
    cluster.close()


def test_availability_across_a_stripe_holder_crash():
    cluster = build_cluster(4, n_agents=1, seed=27)
    agent = cluster.agents[0]

    async def main():
        payload = await make_striped(cluster, agent, size=8 * SS)
        smap = await parent_map(cluster, agent, "/big")
        # ring placement: stripe i lives on server i % 4 — crash s2
        located = await cluster.servers[0].segments.locate_replicas(
            smap.sids[2])
        assert located["holders"] == ["s2"]
        cluster.crash(2)
        fresh(agent)
        agent._attr_cache.clear()
        # surviving stripes still serve their ranges
        assert await agent.read_at("/big", 0, SS) == payload[:SS]
        assert await agent.read_at("/big", SS, SS) == payload[SS:2 * SS]
        assert await agent.read_at("/big", 3 * SS, SS) == \
            payload[3 * SS:4 * SS]
        # the crashed stripe's range is what fails — not the whole file
        with pytest.raises(NfsError):
            await agent.read_at("/big", 2 * SS, SS)
        await cluster.recover(2)        # drive §3.6 recovery to completion
        await cluster.kernel.sleep(200.0)
        fresh(agent)
        agent._attr_cache.clear()
        # the failed stripe recovered through the existing pipeline
        assert await agent.read_file("/big") == payload

    cluster.run(main(), limit=2_000_000.0)
    cluster.close()


def test_fanout_read_never_returns_a_hybrid():
    """Agent fan-out vs a concurrent whole-image rewrite: the per-reply
    parent versions disagree when the flip lands mid-fan-out, the read
    falls back to one server-side gather, and the caller only ever sees
    the complete old contents or the complete new ones."""
    cluster = build_cluster(4, n_agents=2, seed=28)
    writer, reader = cluster.agents

    async def main():
        old = await make_striped(cluster, writer, size=8 * SS)
        new = payload_bytes(8 * SS)[::-1]
        await reader.mount()
        for delay in range(0, 14, 2):
            await writer.write_file("/big", old)
            fresh(reader)
            reader._attr_cache.clear()
            await reader.getattr("/big")        # fresh fan-out hint
            gate = cluster.kernel.create_future()
            gate_parent_update(cluster.servers[0].envelope.striper, gate)
            rewrite = cluster.kernel.spawn(writer.write_file("/big", new))
            await cluster.kernel.sleep(80.0)    # rewrite now at the gate
            read_task = cluster.kernel.spawn(reader.read_file("/big"))
            await cluster.kernel.sleep(float(delay))
            gate.try_set_result(None)           # flip lands mid-fan-out
            data = await read_task
            await rewrite
            assert data in (old, new), f"hybrid read at delay {delay}"
            await cluster.kernel.sleep(3000.0)  # drain stripe retirement

    cluster.run(main(), limit=5_000_000.0)
    # the sweep genuinely caught flips mid-fan-out (deterministic per
    # seed): the no-hybrid guarantee above was the fallback's doing
    assert cluster.metrics.get("agent.striped_read_fallbacks") >= 1
    cluster.close()


def test_fanout_read_of_a_file_grown_since_the_hint():
    """The reader's cached attrs say four stripes; the writer has since
    grown the file by more than a stripe.  The whole-file fan-out must not
    stop at the hinted size: the read returns the complete new image."""
    cluster = build_cluster(4, n_agents=2, seed=31)
    writer, reader = cluster.agents
    ss = 64 * 1024

    async def main():
        old = await make_striped(cluster, writer, size=4 * ss, stripe_size=ss)
        await reader.mount()
        await reader.getattr("/big")            # the hint: four stripes
        tail = b"T" * (ss + 100)
        await writer.write_at("/big", 4 * ss, tail)
        return old + tail, await reader.read_file("/big")

    want, got = cluster.run(main(), limit=5_000_000.0)
    assert got == want
    assert cluster.metrics.get("agent.striped_reads") == 1
    cluster.close()


def test_setattr_growth_past_threshold_converts_sparsely():
    """SETATTR size far past the threshold stripes the current contents
    and records the length — the grown tail is a hole, not dense zeros."""
    cluster = build_cluster(4, n_agents=1, seed=29)
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        await agent.set_params("/f", stripe_size=SS)
        await agent.write_file("/f", b"head")
        fh = await agent.lookup_path("/f")
        env = cluster.servers[0].envelope
        attrs = FileAttrs.from_wire(
            (await env.setattr(fh, {"size": 10 * SS}))["attrs"])
        assert attrs.size == 10 * SS
        smap = await parent_map(cluster, agent, "/f")
        assert smap is not None and smap.length == 10 * SS
        # only the stripe holding the original bytes was allocated
        assert sum(1 for sid in smap.sids if sid is not None) == 1
        fresh(agent)
        agent._attr_cache.clear()
        data = await agent.read_file("/f")
        assert data == b"head" + b"\x00" * (10 * SS - 4)

    cluster.run(main())
    assert cluster.metrics.get("striping.conversions") == 1
    cluster.close()


def test_prefetch_cannot_resurrect_pre_write_bytes():
    """A readahead prefetch in flight across this agent's own write must
    not repopulate the range cache with the pre-write contents."""
    cluster = build_cluster(4, n_agents=1, seed=31)
    agent = cluster.agents[0]

    async def main():
        await make_striped(cluster, agent, size=6 * SS)
        fresh(agent)
        # sequential scan arms a prefetch of [SS, 2*SS)
        await agent.read_at("/big", 0, SS)
        await agent.read_at("/big", SS, SS)
        assert cluster.metrics.get("agent.readahead_prefetches") > 0
        # write into the prefetched range while the prefetch is in flight
        await agent.write_at("/big", 2 * SS + 1, b"NEW")
        await cluster.kernel.sleep(100.0)    # the stale reply lands (or not)
        agent._data_cache.clear()
        window = await agent.read_at("/big", 2 * SS, SS)
        assert window[1:4] == b"NEW"

    cluster.run(main())
    cluster.close()


def test_a_prefetch_that_times_out_does_not_fail_the_agent_over():
    """Readahead is best-effort: a prefetch whose mount server does not
    answer is dropped, and the agent stays mounted where it was.  The
    next user op fails over as before."""
    cluster = build_cluster(4, n_agents=2, seed=15, scatter_agents=True)
    owner, reader = cluster.agents          # mounted at s0 and s1

    async def main():
        payload = await make_striped(cluster, owner)
        await reader.mount()
        fh = await reader.lookup_path("/big")
        clear_caches(reader)
        reader._placement.clear()           # no hint aims the prefetch
        cluster.crash(1)
        snap = cluster.metrics.snapshot()
        await reader._prefetch(fh, 2 * SS, SS)
        stayed = reader.server, cluster.metrics.delta(snap).get(
            "agent.failovers", 0)
        window = await reader.read_at("/big", 2 * SS, SS)
        return stayed, reader.server, window == payload[2 * SS:3 * SS]

    stayed, after, correct = cluster.run(main(), limit=2_000_000.0)
    assert stayed == ("s1", 0)
    assert after != "s1" and correct
    cluster.close()


# --------------------------------------------------------------------- #
# routing: a one-stripe range read enters at a holder of that stripe
# --------------------------------------------------------------------- #

RS = 64 * 1024       # routing tests: stripes big enough to dominate traffic
RSTRIPES = 8         # ring placement puts stripes i and i + 4 on server i % 4


def clear_caches(agent) -> None:
    fresh(agent)
    agent._attr_cache.clear()       # no attr-borne stripe hint either


async def reverse_scan(agent, payload: bytes) -> None:
    """Read every stripe, last first: never sequential, so no readahead."""
    for index in reversed(range(RSTRIPES)):
        window = await agent.read_at("/big", index * RS, RS)
        assert window == payload[index * RS:(index + 1) * RS]


async def make_replicated_striped(agent) -> bytes:
    """``RSTRIPES`` stripes of ``RS`` bytes, each at ``min_replicas`` 2."""
    await agent.mount()
    await agent.create("/", "big")
    await agent.set_params("/big", stripe_size=RS, min_replicas=2)
    payload = payload_bytes(RSTRIPES * RS)
    await agent.write_file("/big", payload)
    return payload


def test_every_stripe_is_born_at_its_replica_floor():
    """Scattering a fresh stripe to a home server that already holds one
    of its birth copies must not drop the local copy: every stripe keeps
    ``min_replicas`` holders."""
    cluster = build_cluster(4, n_agents=1, seed=15)
    agent = cluster.agents[0]

    async def main():
        await make_replicated_striped(agent)
        smap = await parent_map(cluster, agent, "/big")
        segments = cluster.servers[0].segments
        return [(await segments.locate_replicas(sid))["holders"]
                for sid in smap.sids]

    holders = cluster.run(main(), limit=2_000_000.0)
    assert len(holders) == RSTRIPES
    assert all(len(per_stripe) >= 2 for per_stripe in holders), holders
    cluster.close()


def test_stripe_reads_route_to_the_stripe_holder():
    """After one pass has taught the agent each stripe's holders, a stripe
    read goes straight to its holder: the bytes cross the network once,
    not holder -> mount server -> agent.  The two stripes the mount
    server holds itself are not routed."""
    cluster = build_cluster(4, n_agents=1, seed=15)
    agent = cluster.agents[0]
    size = RSTRIPES * RS

    async def main():
        payload = await make_striped(cluster, agent, size=size,
                                     stripe_size=RS)
        passes = []
        for _pass in range(3):
            clear_caches(agent)
            snap = cluster.metrics.snapshot()
            await reverse_scan(agent, payload)
            delta = cluster.metrics.delta(snap)
            passes.append((delta.get("net.bytes_moved", 0) / size,
                           delta.get("agent.routed_reads", 0)))
        return passes

    first, *later = cluster.run(main(), limit=2_000_000.0)
    # the teaching pass relays the six remote stripes through s0
    assert first[0] > 1.5 and first[1] == 0
    for moved, routed in later:
        assert moved <= 1.1
        assert routed == RSTRIPES - RSTRIPES // 4
    cluster.close()


def test_hinted_holder_that_lost_its_stripe_still_serves_and_reteaches():
    """A hint is only where a read enters: a holder that lost the stripe
    forwards to whoever holds it now, and the reply re-teaches the hint."""
    cluster = build_cluster(4, n_agents=1, seed=15)
    agent = cluster.agents[0]

    async def main():
        payload = await make_striped(cluster, agent, size=RSTRIPES * RS,
                                     stripe_size=RS)
        clear_caches(agent)
        await reverse_scan(agent, payload)
        sid = (await agent.lookup_path("/big")).sid
        smap = await parent_map(cluster, agent, "/big")
        assert agent._placement[(sid, 1)].holders[0] == "s1"
        segments = cluster.servers[0].segments
        assert await segments.create_replica(smap.sids[1], "s3")
        assert await segments.delete_replica(smap.sids[1], "s1")
        clear_caches(agent)
        routed = cluster.metrics.get("agent.routed_reads")
        window = await agent.read_at("/big", RS, RS)   # enters at s1
        assert cluster.metrics.get("agent.routed_reads") == routed + 1
        assert window == payload[RS:2 * RS]
        assert agent._placement[(sid, 1)].holders[0] == "s3"
        clear_caches(agent)
        assert await agent.read_at("/big", RS, RS) == payload[RS:2 * RS]

    cluster.run(main(), limit=2_000_000.0)
    cluster.close()


def test_routed_stripe_read_falls_back_when_hinted_holder_dies():
    """A stripe read aimed at a hinted holder that crashed falls back to
    the mount server, returns the right bytes, and re-teaches the hint."""
    cluster = build_cluster(4, n_agents=1, seed=15)
    agent = cluster.agents[0]

    async def main():
        payload = await make_replicated_striped(agent)
        clear_caches(agent)
        await reverse_scan(agent, payload)
        sid = (await agent.lookup_path("/big")).sid
        hinted = agent._placement[(sid, 2)].holders[0]
        assert hinted == "s1"
        cluster.crash(1)
        clear_caches(agent)
        routed = cluster.metrics.get("agent.routed_reads")
        window = await agent.read_at("/big", 2 * RS, RS)   # aimed at s1
        assert cluster.metrics.get("agent.routed_reads") == routed + 1
        return window == payload[2 * RS:3 * RS], \
            agent._placement[(sid, 2)].holders

    correct, retaught = cluster.run(main(), limit=2_000_000.0)
    assert correct
    assert retaught and retaught[0] != "s1"   # the survivor that answered
    cluster.close()


def stripe_writer_cell(**kwargs):
    """Four servers; the owner mounts ``s0``, the writer ``s2``.  The
    owner's striped file leaves stripe 1's token at ``s0`` and its one
    replica at ``s1`` (ring placement), so the writer's mount server holds
    neither."""
    return build_cluster(4, n_agents=3, seed=15, scatter_agents=True,
                         **kwargs)


async def stripe_one(cluster, owner, writer) -> tuple[bytes, str]:
    payload = await make_striped(cluster, owner, size=RSTRIPES * RS,
                                 stripe_size=RS)
    await writer.mount()
    sid = (await parent_map(cluster, owner, "/big")).sids[1]
    located = await cluster.servers[0].segments.locate_replicas(sid)
    assert (located["holders"], located["token_holder"]) == (["s1"], "s0")
    return payload, sid


def test_a_range_write_enters_where_its_stripe_lives():
    """A writer that never reads learns where a stripe lives from its
    first range write's reply, and its next writes to that stripe go
    there.  The token moves once, to the replica holder; no server
    without a replica takes it, so no replica is fetched and the stripe
    keeps its one copy."""
    cluster = stripe_writer_cell()
    owner, _, writer = cluster.agents

    async def main():
        payload, sid = await stripe_one(cluster, owner, writer)
        snap = cluster.metrics.snapshot()
        routed = []
        for i in range(3):
            before = cluster.metrics.get("agent.routed_writes")
            await writer.write_at("/big", RS + i * 8, b"w" * 8)
            routed.append(cluster.metrics.get("agent.routed_writes") - before)
        delta = cluster.metrics.delta(snap)
        located = await cluster.servers[0].segments.locate_replicas(sid)
        fresh(writer)
        window = await writer.read_at("/big", RS, RS)
        return (routed, located["holders"], located["token_holder"],
                tuple(delta.get(name, 0) for name in (
                    "deceit.forwarded_writes", "deceit.token_passes",
                    "deceit.replica_fetches")),
                window == b"w" * 24 + payload[RS + 24:2 * RS])

    routed, holders, token_holder, counts, correct = cluster.run(
        main(), limit=2_000_000.0)
    # the first write enters at the mount server, the others at s1
    assert routed == [0, 1, 1]
    assert (holders, token_holder) == (["s1"], "s1")
    # s2 passed the first to s1, which took the token from s0 for it
    assert counts == (1, 1, 0)
    assert correct
    cluster.close()


def test_a_writer_without_the_shortcut_takes_the_stripe_token_after_one_forward():
    """An agent without the access shortcut keeps writing a stripe at its
    mount server, which holds no replica.  The first piece is passed on
    (§3.3 optimization 2); the next continues the server's own stream, so
    it takes the token, and a replica after it, once ("paid only for the
    first of a stream of updates"); the third applies where it entered."""
    cluster = stripe_writer_cell(agent_config=AgentConfig(shortcut=False))
    owner, _, writer = cluster.agents

    async def main():
        _payload, sid = await stripe_one(cluster, owner, writer)
        forwards = []
        for i in range(3):
            before = cluster.metrics.get("deceit.forwarded_writes")
            await writer.write_at("/big", RS + i * 8, b"w" * 8)
            forwards.append(cluster.metrics.get("deceit.forwarded_writes")
                            - before)
        located = await cluster.servers[0].segments.locate_replicas(sid)
        return forwards, located["holders"], located["token_holder"]

    forwards, holders, token_holder = cluster.run(main(), limit=2_000_000.0)
    assert forwards == [1, 0, 0]
    assert (holders, token_holder) == (["s1", "s2"], "s2")
    assert cluster.metrics.get("agent.routed_writes") == 0
    cluster.close()


def test_a_range_across_stripes_takes_the_token_where_it_enters():
    """The agent aims no range that spans stripes; its pieces enter at the
    mount server and take each stripe's token there, as a stream of them
    would, instead of being passed on one by one."""
    cluster = stripe_writer_cell()
    owner, _, writer = cluster.agents

    async def main():
        payload, sid = await stripe_one(cluster, owner, writer)
        snap = cluster.metrics.snapshot()
        await writer.write_at("/big", 2 * RS - 4, b"w" * 8)
        delta = cluster.metrics.delta(snap)
        located = await cluster.servers[0].segments.locate_replicas(sid)
        fresh(writer)
        window = await writer.read_at("/big", RS, 2 * RS)
        return (delta.get("deceit.forwarded_writes", 0),
                located["token_holder"],
                window == payload[RS:2 * RS - 4] + b"w" * 8
                + payload[2 * RS + 4:3 * RS])

    forwards, token_holder, correct = cluster.run(main(), limit=2_000_000.0)
    assert (forwards, token_holder) == (0, "s2")
    assert correct
    cluster.close()


def test_a_range_write_forwarded_to_a_slow_stripe_holder_applies_once():
    """§3.3 optimization 2 for a range write: the writer's mount server
    holds no replica of the stripe, so it passes the piece to the token
    holder under the write's id.  The holder is alive but slow — its
    update lock is held past one forward attempt — so the forward is
    sent again under that id, and the holder applies it once."""
    cluster = stripe_writer_cell(net_config=NetConfig(tag_metrics=True))
    owner, teacher, writer = cluster.agents

    async def stall(lock, ms):
        await lock.acquire()
        await cluster.kernel.sleep(ms)
        lock.release()

    async def main():
        payload, sid = await stripe_one(cluster, owner, writer)
        await teacher.mount()
        await teacher.write_at("/big", RS, b"at s1")    # s1 takes the token
        holder = cluster.servers[1].segments
        before = (await holder.locate_replicas(sid))["version"]
        cluster.kernel.spawn(stall(holder._update_lock(sid), 600.0))
        snap = cluster.metrics.snapshot()
        await writer.write_at("/big", RS, b"once")
        delta = cluster.metrics.delta(snap)
        after = (await holder.locate_replicas(sid))["version"]
        fresh(writer)
        window = await writer.read_at("/big", RS, 8)
        return before, after, delta, window == b"once1" + payload[RS + 5:RS + 8]

    before, after, delta, correct = cluster.run(main(), limit=2_000_000.0)
    assert (after.major, after.sub) == (before.major, before.sub + 1)
    assert tuple(delta.get(name, 0) for name in (
        "deceit.forwarded_writes", "net.rpc_expired.seg_forward_write",
        "deceit.updates", "deceit.duplicate_updates",
        "deceit.token_passes", "agent.failovers")) == (1, 1, 1, 1, 0, 0)
    assert correct
    cluster.close()


def test_blob_reads_go_to_the_holder_the_last_reply_named():
    """§5.3's access shortcut: a blob whose only replica is elsewhere is
    read through the mount server once; that reply names the holder, so
    the next read and a getattr go straight to it.  With ``shortcut`` off
    both reads are relayed by the mount server."""
    def run(config):
        cluster = build_cluster(4, n_agents=1, seed=15, agent_config=config)
        agent = cluster.agents[0]

        async def main():
            await agent.mount()
            await agent.create("/", "blob")
            await agent.write_file("/blob", b"blob bytes")
            assert await agent.create_replica("/blob", "s1")
            assert await agent.delete_replica("/blob", "s0")
            routed = cluster.metrics.get("agent.routed_reads")
            forwarded = cluster.metrics.get("deceit.reads_forwarded")
            for _read in range(2):
                clear_caches(agent)
                assert await agent.read_file("/blob") == b"blob bytes"
            reads = (cluster.metrics.get("agent.routed_reads") - routed,
                     cluster.metrics.get("deceit.reads_forwarded")
                     - forwarded)
            clear_caches(agent)
            await agent.getattr("/blob")
            return reads, (cluster.metrics.get("agent.routed_reads")
                           - routed - reads[0])

        out = cluster.run(main(), limit=2_000_000.0)
        cluster.close()
        return out

    # (routed, forwarded) reads, then routed getattrs
    assert run(None) == ((1, 1), 1)
    assert run(AgentConfig(shortcut=False)) == ((0, 2), 0)


# --------------------------------------------------------------------- #
# the map where the stripes are served (§3.1 method 4 for a parent)
# --------------------------------------------------------------------- #


def gathering_cell(n_agents: int = 2):
    """4 servers, agents mounted ring-style: ``c0`` at ``s0`` writes,
    ``c1`` at ``s1`` (outside the parent's group) reads."""
    return build_cluster(4, n_agents=n_agents, seed=41, scatter_agents=True,
                         net_config=NetConfig(tag_metrics=True))


async def striped_and_quiet(cluster, writer, reader):
    """``/big`` striped by ``writer`` and let go stable, ``reader``
    mounted; returns the payload and the parent's sid."""
    payload = await make_striped(cluster, writer)
    await reader.mount()
    await cluster.kernel.sleep(1000.0)     # the bursts end (§3.4)
    return payload, (await writer.lookup_path("/big")).sid


def parent_reads(cluster) -> int:
    """Forwarded reads, getattrs included: every ``seg_read`` sent."""
    return cluster.metrics.get("net.msgs.tag.seg_read")


def test_a_stripe_holder_gathers_the_map_and_then_serves_range_ops_alone():
    """A stripe holder outside the parent's group pulls a parent replica
    on its first range read (§3.1 method 4); from then on its range reads
    and writes read the map locally, with no forwarded read or stat."""
    cluster = gathering_cell()
    writer, reader = cluster.agents
    s1 = cluster.servers[1].segments

    async def main():
        payload, sid = await striped_and_quiet(cluster, writer, reader)
        assert not s1.cat.joined(sid)
        fresh(reader)
        assert await reader.read_at("/big", SS, SS) == payload[SS:2 * SS]
        await s1.quiesced()
        assert any(key[0] == sid for key in s1.replicas)
        sent, forwarded = (parent_reads(cluster),
                           cluster.metrics.get("deceit.reads_forwarded"))
        fresh(reader)
        assert await reader.read_at("/big", SS, SS) == payload[SS:2 * SS]
        await reader.write_at("/big", SS, b"w" * SS)
        return (parent_reads(cluster) - sent,
                cluster.metrics.get("deceit.reads_forwarded") - forwarded)

    assert cluster.run(main(), limit=2_000_000.0) == (0, 0)
    cluster.close()


def test_a_gathered_map_follows_a_rewrite_and_a_restripe():
    """The gathering server's parent replica is a group member's: after
    another agent rewrites the file, and again after it restripes it, the
    next range read served there returns the new bytes — never those of
    a stripe the rewrite retired, nor a read of a stripe the restripe
    retired and reclaimed."""
    cluster = gathering_cell()
    writer, reader = cluster.agents
    s1 = cluster.servers[1].segments

    async def main():
        _payload, sid = await striped_and_quiet(cluster, writer, reader)
        fresh(reader)
        await reader.read_at("/big", SS, SS)
        await s1.quiesced()
        assert any(key[0] == sid for key in s1.replicas)
        rewritten = bytes(255 - b for b in payload_bytes(6 * SS))
        await writer.write_file("/big", rewritten)
        fresh(reader)
        windows = [await reader.read_at("/big", SS, SS)]
        await writer.set_params("/big", stripe_size=2 * SS)
        await cluster.kernel.sleep(RETIRE_DELAY_MS + 500.0)
        fresh(reader)
        windows += [await reader.read_at("/big", SS, SS),
                    await reader.read_at("/big", 0, 6 * SS)]
        return rewritten, windows, await parent_map(cluster, writer, "/big")

    rewritten, windows, smap = cluster.run(main(), limit=2_000_000.0)
    assert smap.stripe_size == 2 * SS
    assert windows == [rewritten[SS:2 * SS]] * 2 + [rewritten]
    cluster.close()


def test_removing_a_gathered_parent_leaves_no_replica_or_token():
    """A server that gathered the map is a member of the parent's group,
    so the remove's delete reaches it: no server keeps a parent replica
    or a token record."""
    cluster = gathering_cell()
    writer, reader = cluster.agents
    s1 = cluster.servers[1].segments

    async def main():
        _payload, sid = await striped_and_quiet(cluster, writer, reader)
        fresh(reader)
        await reader.read_at("/big", SS, SS)
        await s1.quiesced()
        assert any(key[0] == sid for key in s1.replicas)
        await writer.remove("/", "big")
        return sid

    sid = cluster.run(main(), limit=2_000_000.0)
    cluster.settle(500.0)
    for server in cluster.servers:
        segments = server.segments
        assert not [key for key in segments.replicas if key[0] == sid]
        assert not [key for key in segments.tokens if key[0] == sid]
    assert segment_gone(cluster, sid)
    cluster.close()


def test_concurrent_first_reads_at_one_server_join_the_parent_once():
    """Two readers mounted at one server touch the parent at once: only
    the first joins its group to gather the map, the other asks a member
    meanwhile, so the server runs no two joins of one group (a second
    join would stall the first, finding (8))."""
    cluster = gathering_cell(n_agents=6)     # c1 and c5 mount s1
    writer, first, second = (cluster.agents[i] for i in (0, 1, 5))

    async def main():
        payload, _sid = await striped_and_quiet(cluster, writer, first)
        await second.mount()
        await cluster.kernel.sleep(1000.0)
        joins = cluster.metrics.get("isis.joins")
        reads = [cluster.kernel.spawn(agent.read_at("/big", SS, SS))
                 for agent in (first, second)]
        windows = await cluster.kernel.all_of(reads)
        assert windows == [payload[SS:2 * SS]] * 2
        return cluster.metrics.get("isis.joins") - joins

    assert cluster.run(main(), limit=2_000_000.0) == 1
    cluster.close()
