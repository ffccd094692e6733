"""The rebuilt whole-file write path (PR 3).

Covers the tentpole — the atomic single-round truncating write — plus
regression tests for the three satellite bugfixes:

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
        attrs, _stat = await env.getattr(fh)
        return data, attrs

    data, attrs = cluster.run(main())
    assert data == b"zz23"
    assert attrs.size == len(data)       # meta length matches the bytes
