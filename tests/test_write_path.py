"""The rebuilt whole-file write path (PR 3).

Covers the tentpole — the atomic single-round truncating write and the
agent write-behind buffer — plus regression tests for the three satellite
bugfixes:

- rename/rmdir/remove used to leave stale descendant entries in the
  agent's handle cache;
- link never invalidated the target file's cached attrs (stale nlink);
- the envelope computed the persisted ``length`` from a pre-write stat a
  concurrent truncate could stale.
"""

import pytest

from repro.agent import AgentConfig
from repro.core import WriteOp
from repro.errors import NfsError, NfsStat
from repro.testbed import build_cluster


def make(agent_config=None, n_servers=3, n_agents=1):
    return build_cluster(n_servers=n_servers, n_agents=n_agents,
                         agent_config=agent_config)


# --------------------------------------------------------------------- #
# tentpole: atomic whole-file write
# --------------------------------------------------------------------- #

def test_whole_file_write_is_one_round_one_version_bump():
    cluster = make(AgentConfig(cache=True))
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        fh = await agent.lookup_path("/f")
        await agent.write_file(fh, b"seed")
        before_versions = await agent.list_versions(fh)
        snap = cluster.metrics.snapshot()
        await agent.write_file(fh, b"one round")
        delta = cluster.metrics.delta(snap)
        after_versions = await agent.list_versions(fh)
        return delta, before_versions, after_versions

    delta, before, after = cluster.run(main())
    # one NFS request, one write op, zero setattr/getattr follow-ups
    assert delta.get("nfs.requests", 0) == 1
    assert delta.get("nfs.ops.write", 0) == 1
    assert delta.get("nfs.ops.setattr", 0) == 0
    assert delta.get("nfs.ops.getattr", 0) == 0
    # one segment update → exactly one version (sub) bump
    assert delta.get("deceit.updates", 0) == 1
    (major,) = before.keys()
    assert after[major][1] == before[major][1] + 1


def test_reader_never_observes_truncate_intermediate_state():
    """A whole-file rewrite is atomic: a concurrent reader sees the old
    contents or the new contents, never the empty in-between (this fails
    on the seed's setattr(size=0)+write two-op path)."""
    old, new = b"OLD" * 64, b"NEW" * 64
    cluster = make(AgentConfig(cache=False), n_agents=2)
    writer, reader = cluster.agents

    async def main():
        await writer.mount()
        await reader.mount()
        await writer.create("/", "f")
        await writer.write_file("/f", old)
        observations: list[bytes] = []
        done = False

        async def read_loop():
            while not done:
                observations.append(await reader.read_file("/f"))

        task = cluster.kernel.spawn(read_loop())
        for _ in range(5):
            await writer.write_file("/f", new)
            await writer.write_file("/f", old)
        done = True
        await task
        return observations

    observations = cluster.run(main())
    assert observations, "reader never ran"
    for seen in observations:
        assert seen in (old, new), f"intermediate state observed: {seen!r}"


def test_write_reply_attrs_come_from_the_write():
    """The write reply's attrs reflect exactly the written state — no
    follow-up getattr round that could see a later concurrent write."""
    cluster = make(AgentConfig(cache=False))
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        attrs = await agent.write_file("/f", b"12345678")
        grown = await agent.write_at("/f", 6, b"abcd")
        return attrs, grown

    attrs, grown = cluster.run(main())
    assert attrs.size == 8
    assert grown.size == 10
    assert attrs.mtime > 0


# --------------------------------------------------------------------- #
# satellite: handle-cache pruning on rename / rmdir / remove
# --------------------------------------------------------------------- #

def test_rename_dir_prunes_descendant_handles():
    cluster = make(AgentConfig(cache=True))
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.mkdir("/", "a")
        await agent.create("/a", "f")
        await agent.write_file("/a/f", b"payload")
        await agent.read_file("/a/f")       # warm the handle cache
        await agent.rename("/", "a", "/", "b")
        moved = await agent.read_file("/b/f")
        with pytest.raises(NfsError) as err:
            await agent.getattr("/a/f")     # old path must be dead
        return moved, err.value.status

    moved, status = cluster.run(main())
    assert moved == b"payload"
    assert status == NfsStat.ERR_NOENT


def test_rmdir_and_recreate_does_not_resolve_stale_descendants():
    cluster = make(AgentConfig(cache=True))
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.mkdir("/", "x")
        await agent.create("/x", "f")
        await agent.write_file("/x/f", b"first life")
        await agent.read_file("/x/f")       # warm /x/f in the handle cache
        await agent.remove("/x", "f")
        await agent.rmdir("/", "x")
        await agent.mkdir("/", "x")
        await agent.create("/x", "f")
        await agent.write_file("/x/f", b"second life")
        return await agent.read_file("/x/f")

    assert cluster.run(main()) == b"second life"


def test_remove_prunes_cached_handle():
    cluster = make(AgentConfig(cache=True))
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "gone")
        await agent.write_file("/gone", b"bytes")
        await agent.read_file("/gone")
        await agent.remove("/", "gone")
        with pytest.raises(NfsError) as err:
            await agent.read_file("/gone")
        return err.value.status

    assert cluster.run(main()) == NfsStat.ERR_NOENT


# --------------------------------------------------------------------- #
# satellite: link invalidates the target's cached attrs
# --------------------------------------------------------------------- #

def test_link_refreshes_cached_nlink():
    cluster = make(AgentConfig(cache=True))
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.mkdir("/", "d")
        await agent.create("/", "f")
        first = (await agent.getattr("/f")).nlink   # caches nlink=1
        await agent.link("/f", "/d", "g")
        second = (await agent.getattr("/f")).nlink  # must NOT be stale
        return first, second

    first, second = cluster.run(main())
    assert first == 1
    assert second == 2


# --------------------------------------------------------------------- #
# satellite: length derived at update application, not pre-write stat
# --------------------------------------------------------------------- #

def test_writeop_apply_derives_length_from_result():
    op = WriteOp(kind="replace", offset=0, data=b"zz",
                 meta={"mtime": 1.0, "length": 999})   # stale advisory
    data, meta = op.apply(b"0123456789", {"length": 10})
    assert data == b"zz23456789"
    assert meta["length"] == 10          # derived, stale patch overridden

    trunc = WriteOp(kind="truncate", length=4, meta={"length": 4})
    data, meta = trunc.apply(data, meta)
    assert (data, meta["length"]) == (b"zz23", 4)

    batch = WriteOp(kind="batch", parts=[
        WriteOp(kind="replace", offset=2, data=b"AB"),
        WriteOp(kind="append", data=b"!"),
    ], meta={"mtime": 2.0})
    data, meta = batch.apply(data, meta)
    assert data == b"zzAB!"
    assert meta["length"] == 5
    assert batch.result_length(4) == 5

    setmeta = WriteOp(kind="setmeta", meta={"length": 123, "mode": 0o600})
    _data, meta2 = setmeta.apply(data, meta)
    assert meta2["length"] == 123        # pure meta ops stay authoritative


def test_concurrent_truncate_cannot_persist_stale_length():
    """A truncate landing between a write's pre-write stat and the write
    itself must not leave segment meta claiming the pre-truncate length."""
    cluster = make(AgentConfig(cache=False))
    agent = cluster.agents[0]
    env = cluster.servers[0].envelope

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        await agent.write_file("/f", b"0123456789")
        fh = await agent.lookup_path("/f")

        fired = {"on": True}
        orig = env._stat_segment

        async def stat_then_truncate(stat_fh):
            result = await orig(stat_fh)
            if fired["on"]:
                fired["on"] = False
                await env.setattr(fh, {"size": 4})   # the racing truncate
            return result

        env._stat_segment = stat_then_truncate
        try:
            await env.write(fh, 0, b"zz")
        finally:
            env._stat_segment = orig
        data = await env.read(fh)
        attrs = await env.getattr(fh)
        return data, attrs

    data, attrs = cluster.run(main())
    assert data == b"zz23"
    assert attrs.size == len(data)       # meta length matches the bytes


# --------------------------------------------------------------------- #
# tentpole: agent write-behind
# --------------------------------------------------------------------- #

def wb_config(**kw):
    return AgentConfig(write_behind=True, **kw)


def test_write_behind_acks_on_buffer_at_safety_zero():
    cluster = make(wb_config())
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "hot")
        await agent.set_params("/hot", write_safety=0,
                               stability_notification=False)
        snap = cluster.metrics.snapshot()
        t0 = cluster.kernel.now
        await agent.write_file("/hot", b"buffered")
        ack_ms = cluster.kernel.now - t0
        writes_before_flush = cluster.metrics.delta(snap).get(
            "nfs.ops.write", 0)
        ryw = await agent.read_file("/hot")
        await agent.flush("/hot")
        durable = cluster.metrics.delta(snap).get("nfs.ops.write", 0)
        return ack_ms, writes_before_flush, ryw, durable

    ack_ms, before_flush, ryw, durable = cluster.run(main())
    assert ack_ms <= 1.0                 # acked on buffer: no server round
    assert before_flush == 0             # nothing hit the wire yet
    assert ryw == b"buffered"            # read-your-writes from the buffer
    assert durable == 1                  # flush = one NFS write
    assert cluster.metrics.get("agent.wb_read_your_writes") >= 1


def test_write_behind_coalesces_overlapping_writes_to_one_update():
    cluster = make(wb_config())
    agent = cluster.agents[0]
    n = 8

    async def main():
        await agent.mount()
        await agent.create("/", "hot")
        await agent.set_params("/hot", write_safety=0,
                               stability_notification=False)
        snap = cluster.metrics.snapshot()
        for i in range(n):
            await agent.write_at("/hot", i * 2, bytes([65 + i]) * 4)
        await agent.flush("/hot")
        delta = cluster.metrics.delta(snap)
        return delta, await agent.read_file("/hot")

    delta, data = cluster.run(main())
    assert delta.get("nfs.ops.write", 0) == 1       # one flush round
    assert delta.get("deceit.updates", 0) == 1      # one segment update
    assert len(data) == (n - 1) * 2 + 4
    assert cluster.metrics.get("agent.wb_writes_coalesced") == n - 1


def test_write_behind_safety_one_acks_on_flush_durability():
    cluster = make(wb_config(), n_agents=2)
    writer, other = cluster.agents

    async def main():
        await writer.mount()
        await other.mount()
        await writer.create("/", "f")    # default write_safety=1
        snap = cluster.metrics.snapshot()
        await writer.write_file("/f", b"durable before ack")
        delta = cluster.metrics.delta(snap)
        # the ack implies the flush already ran: another agent sees it
        seen = await other.read_file("/f")
        return delta, seen

    delta, seen = cluster.run(main())
    assert delta.get("nfs.ops.write", 0) == 1
    assert seen == b"durable before ack"


def test_write_behind_safety_one_window_coalesces_concurrent_writers():
    cluster = make(wb_config())
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        snap = cluster.metrics.snapshot()
        await cluster.kernel.all_of([
            cluster.kernel.spawn(agent.write_at("/f", i * 3, b"xyz"))
            for i in range(6)
        ])
        return cluster.metrics.delta(snap)

    delta = cluster.run(main())
    # six concurrent writers join one group-commit window: one NFS round,
    # one batched segment update
    assert delta.get("nfs.ops.write", 0) == 1
    assert delta.get("deceit.updates", 0) == 1


def test_write_behind_ttl_flush_runs_without_explicit_flush():
    cluster = make(wb_config(write_behind_ttl_ms=40.0))
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "lazy")
        await agent.set_params("/lazy", write_safety=0,
                               stability_notification=False)
        await agent.write_file("/lazy", b"ttl flushed")
        await cluster.kernel.sleep(300.0)    # past the TTL
        snap = cluster.metrics.snapshot()
        data = await agent.read_file("/lazy")
        served_from_buffer = cluster.metrics.delta(snap).get(
            "agent.wb_read_your_writes", 0)
        return data, served_from_buffer

    data, from_buffer = cluster.run(main())
    assert data == b"ttl flushed"
    assert from_buffer == 0              # buffer drained by the TTL flush
    assert cluster.metrics.get("agent.wb_flushes") >= 1


def test_write_behind_close_flushes_and_releases():
    cluster = make(wb_config(), n_agents=2)
    writer, other = cluster.agents

    async def main():
        await writer.mount()
        await other.mount()
        await writer.create("/", "f")
        await writer.set_params("/f", write_safety=0,
                                stability_notification=False)
        await writer.write_at("/f", 0, b"abc")
        await writer.write_at("/f", 3, b"def")
        await writer.close("/f")
        assert not writer._write_buffers
        return await other.read_file("/f")

    assert cluster.run(main()) == b"abcdef"


def test_write_behind_survives_mount_server_crash():
    """A buffered write must not fail just because the getparam probe hit
    a crashed mount server — the flush path has failover, and an unknown
    safety level conservatively acks on durability."""
    cluster = make(wb_config(failover=True))
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        await agent.write_file("/f", b"before crash")
        await agent.set_params("/f", min_replicas=3)
        agent._params_cache.clear()          # force a fresh getparam probe
        cluster.crash(0)                     # the connected mount server
        await cluster.kernel.sleep(800.0)
        await agent.write_file("/f", b"after crash")   # must fail over
        await agent.flush("/f")
        return await agent.read_file("/f")

    assert cluster.run(main()) == b"after crash"


def test_write_behind_buffered_attrs_keep_base_size():
    """A safety-0 buffered write_at's synthesized attrs must not report
    the file shrunk to the patch extent."""
    cluster = make(wb_config())
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        await agent.write_file("/f", b"x" * 100)
        await agent.flush("/f")
        await agent.set_params("/f", write_safety=0,
                               stability_notification=False)
        await agent.getattr("/f")            # cache the 100-byte attrs
        attrs = await agent.write_at("/f", 0, b"y" * 10)
        return attrs.size

    assert cluster.run(main()) == 100


def test_write_behind_deferred_error_stays_with_its_handle():
    """A failed background (safety-0) flush of handle B surfaces on B's
    next flush, not on an unrelated handle's close."""
    cluster = make(wb_config(write_behind_ttl_ms=30.0), n_servers=1)
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "a")
        await agent.create("/", "b")
        for name in ("a", "b"):
            await agent.set_params("/" + name, write_safety=0,
                                   stability_notification=False)
        await agent.write_file("/b", b"doomed")
        cluster.crash(0)                     # only server: TTL flush fails
        await cluster.kernel.sleep(2500.0)   # let the TTL flush fail
        await agent.close("/a")              # clean handle: must not raise
        with pytest.raises(NfsError):
            await agent.flush("/b")          # B's loss surfaces on B
        return True

    assert cluster.run(main())


def test_write_behind_read_your_writes_overlays_patches():
    cluster = make(wb_config())
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        await agent.write_file("/f", b"0000000000")
        await agent.flush("/f")
        await agent.set_params("/f", write_safety=0,
                               stability_notification=False)
        await agent.write_at("/f", 2, b"AB")
        await agent.write_at("/f", 3, b"CD")      # overlaps the first
        data = await agent.read_file("/f")        # base + overlay
        attrs = await agent.getattr("/f")
        await agent.flush("/f")
        flushed = await agent.read_file("/f")
        return data, attrs.size, flushed

    data, size, flushed = cluster.run(main())
    assert data == b"00ACD00000"
    assert size == 10
    assert flushed == data               # the flush persisted the overlay


def test_write_behind_ranged_read_overlays_patches_across_their_edges(
        monkeypatch):
    """read_at before the TTL flush: only the patches intersecting the
    range overlay its server bytes, clipped at both range edges, and a
    patch past the fetched range's end extends it."""
    from repro.agent.agent import _WriteBuffer
    calls = []
    real = _WriteBuffer.overlay_range

    def counted(self, base, offset, count):
        calls.append((len(base), offset, count))
        return real(self, base, offset, count)

    monkeypatch.setattr(_WriteBuffer, "overlay_range", counted)
    cluster = make(wb_config())
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "f")
        await agent.write_file("/f", b"0123456789" * 10)     # 100 bytes
        await agent.flush("/f")
        await agent.set_params("/f", write_safety=0,
                               stability_notification=False)
        snap = cluster.metrics.snapshot()
        await agent.write_at("/f", 10, b"AAAA")      # [10, 14)
        await agent.write_at("/f", 95, b"B" * 10)    # [95, 105): past EOF
        inside = await agent.read_at("/f", 12, 6)    # patch's right edge
        before = await agent.read_at("/f", 4, 8)     # patch's left edge
        tail = await agent.read_at("/f", 90, 30)     # server has 10 of these
        untouched = await agent.read_at("/f", 40, 5)
        unflushed = cluster.metrics.delta(snap).get("nfs.ops.write", 0) == 0
        await agent.flush("/f")
        return inside, before, tail, untouched, unflushed, \
            await agent.read_file("/f")

    inside, before, tail, untouched, unflushed, flushed = cluster.run(main())
    assert unflushed                     # every read ran ahead of the flush
    assert inside == b"AA4567"
    assert before == b"456789AA"
    assert tail == b"01234" + b"B" * 10  # extended past the fetched range
    assert untouched == b"01234"
    assert flushed[:16] == b"0123456789AAAA45" and flushed[95:] == b"B" * 10
    assert calls == [(6, 12, 6), (8, 4, 8), (10, 90, 30), (5, 40, 5)]
    cluster.close()
