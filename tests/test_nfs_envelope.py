"""End-to-end NFS tests: agent → DeceitServer → envelope → segments."""

import pytest

from repro.errors import NfsError, NfsStat
from repro.nfs.attrs import FileType
from repro.testbed import build_cluster


@pytest.fixture
def cluster():
    return build_cluster(n_servers=3, n_agents=2)


def test_mount_returns_root(cluster):
    agent = cluster.agents[0]

    async def main():
        fh = await agent.mount()
        attrs = await agent.getattr(fh)
        return attrs

    attrs = cluster.run(main())
    assert attrs.ftype is FileType.DIRECTORY


def test_create_write_read_roundtrip(cluster):
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "hello.txt")
        await agent.write_file("/hello.txt", b"hello deceit")
        return await agent.read_file("/hello.txt")

    assert cluster.run(main()) == b"hello deceit"


def test_bootstrap_gives_priv_global(cluster):
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        entries = await agent.readdir("/")
        priv = await agent.readdir("/priv")
        return entries, priv

    entries, priv = cluster.run(main())
    assert [e["name"] for e in entries] == ["priv"]
    assert [e["name"] for e in priv] == ["global"]


def test_bootstrap_installs_global_entry_by_dirop():
    """/priv holds exactly ``global`` → the reserved global-root handle,
    and bootstrap wrote both of its directory entries (``priv`` into the
    root, ``global`` into /priv) as dirops, not table rewrites."""
    cluster = build_cluster(3, 1)
    metrics = cluster.metrics
    assert metrics.get("deceit.dirops") == metrics.get("deceit.updates") == 2
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        return await agent.readdir("/priv")

    assert cluster.run(main()) == [
        {"name": "global", "type": "dir", "fh": "@global||"}]
    cluster.close()


def test_global_root_cannot_be_listed(cluster):
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        with pytest.raises(NfsError) as excinfo:
            await agent.readdir("/priv/global")
        return excinfo.value.status

    assert cluster.run(main()) == NfsStat.ERR_PERM


def test_mkdir_and_nested_paths(cluster):
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.mkdir("/", "usr")
        await agent.mkdir("/usr", "local")
        await agent.create("/usr/local", "tool")
        await agent.write_file("/usr/local/tool", b"#!bin")
        return await agent.read_file("/usr/local/tool")

    assert cluster.run(main()) == b"#!bin"


def test_lookup_noent(cluster):
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        with pytest.raises(NfsError) as excinfo:
            await agent.read_file("/missing")
        return excinfo.value.status

    assert cluster.run(main()) == NfsStat.ERR_NOENT


def test_create_duplicate_rejected(cluster):
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "dup")
        with pytest.raises(NfsError) as excinfo:
            await agent.create("/", "dup")
        return excinfo.value.status

    assert cluster.run(main()) == NfsStat.ERR_EXIST


def test_remove_then_lookup_fails(cluster):
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "gone")
        await agent.remove("/", "gone")
        agent._handle_cache.clear()
        with pytest.raises(NfsError):
            await agent.getattr("/gone")
        return True

    assert cluster.run(main())


def test_remove_garbage_collects_segment(cluster):
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        fh = await agent.create("/", "trash")
        await agent.write_file("/trash", b"bytes")
        await agent.remove("/", "trash")
        return fh

    fh = cluster.run(main())
    assert cluster.metrics.get("nfs.gc_collected") == 1
    # the segment is gone on every server
    for server in cluster.servers:
        assert server.segments.store.disk_majors(fh.sid) == []


def test_hard_link_prevents_collection(cluster):
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.mkdir("/", "d2")
        await agent.create("/", "original")
        await agent.write_file("/original", b"shared")
        await agent.link("/original", "/d2", "alias")
        await agent.remove("/", "original")
        # still reachable through the second link
        return await agent.read_file("/d2/alias")

    assert cluster.run(main()) == b"shared"
    assert cluster.metrics.get("nfs.gc_collected") == 0


def test_link_count_correction_path(cluster):
    """Removing the last link collects even if the hint was wrong."""
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.mkdir("/", "d2")
        await agent.create("/", "f")
        await agent.link("/f", "/d2", "f2")
        await agent.remove("/", "f")
        await agent.remove("/d2", "f2")
        return True

    assert cluster.run(main())
    assert cluster.metrics.get("nfs.gc_collected") == 1


def test_rename_within_directory(cluster):
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "before")
        await agent.write_file("/before", b"data")
        await agent.rename("/", "before", "/", "after")
        agent._handle_cache.clear()
        data = await agent.read_file("/after")
        with pytest.raises(NfsError):
            await agent.getattr("/before")
        return data

    assert cluster.run(main()) == b"data"


def test_rename_across_directories_updates_uplinks(cluster):
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.mkdir("/", "src")
        await agent.mkdir("/", "dst")
        await agent.create("/src", "f")
        await agent.write_file("/src/f", b"moved")
        await agent.rename("/src", "f", "/dst", "f")
        agent._handle_cache.clear()
        data = await agent.read_file("/dst/f")
        # removing the moved file must collect it (uplinks were updated)
        await agent.remove("/dst", "f")
        return data

    assert cluster.run(main()) == b"moved"
    assert cluster.metrics.get("nfs.gc_collected") == 1


def test_symlink_roundtrip(cluster):
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.symlink("/", "ln", "/usr/bin/target")
        return await agent.readlink("/ln")

    assert cluster.run(main()) == "/usr/bin/target"


def test_rmdir_requires_empty(cluster):
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.mkdir("/", "full")
        await agent.create("/full", "occupant")
        with pytest.raises(NfsError) as excinfo:
            await agent.rmdir("/", "full")
        status = excinfo.value.status
        await agent.remove("/full", "occupant")
        await agent.rmdir("/", "full")
        return status

    assert cluster.run(main()) == NfsStat.ERR_NOTEMPTY


def test_setattr_mode_and_truncate(cluster):
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        fh = await agent.create("/", "f")
        await agent.write_file("/f", b"0123456789")
        snap = cluster.metrics.snapshot()
        await agent._nfs("setattr", {"fh": fh.encode(),
                                     "sattr": {"mode": 0o600, "size": 4}})
        delta = cluster.metrics.delta(snap)
        agent._invalidate(fh)
        attrs = await agent.getattr("/f")
        data = await agent.read_file("/f")
        return attrs, data, delta

    attrs, data, delta = cluster.run(main())
    assert attrs.mode == 0o600
    assert data == b"0123"
    assert attrs.size == 4
    # one SETATTR is one setattr: the attributes it answers are no GETATTR
    assert delta.get("nfs.ops.setattr", 0) == 1
    assert delta.get("nfs.ops.getattr", 0) == 0


@pytest.mark.parametrize("op,args", [
    ("set_root", {}),
    ("_dir_write", {"dirops": [{"action": "add", "name": "x",
                                "entry": {"h": "@global", "t": "dir"}}]}),
    ("__init__", {}),
])
def test_only_nfs_ops_reach_the_envelope(cluster, op, args):
    """The op name comes off the network: a name outside the op table —
    a public method, a helper, a dunder — answers ERR_IO and runs nothing."""
    agent = cluster.agents[0]
    server = cluster.servers[0]

    async def main():
        root = await agent.mount()
        other = await agent.mkdir("/", "d")
        snap = cluster.metrics.snapshot()
        reply = await agent.call(server.addr, "nfs", op=op,
                                 args={"fh": other.encode(), **args})
        return root, reply, cluster.metrics.delta(snap)

    root, reply, delta = cluster.run(main())
    assert reply["status"] == NfsStat.ERR_IO
    assert [key for key in delta if key.startswith("nfs.ops.")] == []
    assert server.envelope.root_fh == root


@pytest.mark.parametrize("op,args", [
    ("getattr", {"bogus": 1}),          # a key the op does not take
    ("lookup", {}),                     # without the name it needs
], ids=["extra-key", "missing-key"])
def test_arguments_that_do_not_fit_the_op_answer_err_io(cluster, op, args):
    """A request whose arguments do not fit its op is answered ERR_IO,
    like an unknown op, and runs nothing: it is not an RPC error an agent
    would fail over on."""
    agent = cluster.agents[0]
    server = cluster.servers[0]

    async def main():
        await agent.mount()
        other = await agent.mkdir("/", "d")
        snap = cluster.metrics.snapshot()
        reply = await agent.call(server.addr, "nfs", op=op,
                                 args={"fh": other.encode(), **args})
        return reply, cluster.metrics.delta(snap)

    reply, delta = cluster.run(main())
    assert reply["status"] == NfsStat.ERR_IO
    assert [key for key in delta if key.startswith("nfs.ops.")] == []


def test_two_agents_share_namespace(cluster):
    a0, a1 = cluster.agents

    async def main():
        await a0.mount()
        await a1.mount()
        await a0.create("/", "shared")
        await a0.write_file("/shared", b"from a0")
        return await a1.read_file("/shared")

    assert cluster.run(main()) == b"from a0"


def test_attrs_size_tracks_writes(cluster):
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "grow")
        await agent.write_file("/grow", b"xxxx")
        agent._attr_cache.clear()
        return await agent.getattr("/grow")

    attrs = cluster.run(main())
    assert attrs.size == 4
    assert attrs.mtime > 0


def test_version_qualified_lookup_after_divergence(cluster):
    """foo;N syntax resolves a specific major (§3.5 version control)."""
    agent = cluster.agents[0]

    async def setup():
        await agent.mount()
        fh = await agent.create("/", "vfile")
        await agent.write_file("/vfile", b"main line")
        await agent.set_params("/vfile", min_replicas=3,
                               write_availability="high")
        return fh

    fh = cluster.run(setup())
    cluster.partition({0, 1}, {2})
    cluster.settle(800.0)

    async def diverge():
        # both sides write: majority through the existing token, minority
        # through a freshly generated one — true divergence (§3.6 hard case)
        from repro.core import WriteOp
        await agent.write_file("/vfile", b"majority line")
        await cluster.servers[2].segments.write(
            fh.sid, WriteOp(kind="setdata", data=b"minority line",
                            meta={"length": 13}))

    cluster.run(diverge())
    cluster.heal()
    cluster.settle(3000.0)

    async def inspect():
        versions = await agent.list_versions("/vfile")
        datas = {}
        for major in versions:
            datas[major] = await agent.read_file(fh.qualified(major))
        return datas

    datas = cluster.run(inspect())
    assert len(datas) == 2
    assert sorted(datas.values()) == [b"majority line", b"minority line"]


@pytest.mark.parametrize("case", [
    "setattr_removed", "set_params_removed",
    "getattr_garbage", "getattr_bad_version",
])
def test_dead_or_malformed_handle_answers_stale_without_failover(cluster,
                                                                 case):
    """A handle naming no file is answered ERR_STALE by the server it was
    sent to (§2.1: handles live "as long as a replica of the file
    exists"): the segment layer's NoSuchSegment, or a handle that does
    not parse, becomes a status at the RPC boundary — not an RPC error
    the agent would fail over through every server on."""
    agent, other = cluster.agents

    async def main():
        await agent.mount()
        await other.mount()
        fh = await agent.create("/", "f")
        await other.remove("/", "f")
        before = cluster.metrics.get("agent.failovers")
        with pytest.raises(NfsError) as excinfo:
            if case == "setattr_removed":
                await agent._nfs("setattr", {"fh": fh.encode(),
                                             "sattr": {"mode": 0o600}})
            elif case == "set_params_removed":
                await agent.set_params(fh, min_replicas=2)
            else:
                raw = "garbage" if case == "getattr_garbage" else "s0.1|x|"
                await agent._nfs("getattr", {"fh": raw})
        return (excinfo.value.status,
                cluster.metrics.get("agent.failovers") - before)

    status, failovers = cluster.run(main())
    assert status == NfsStat.ERR_STALE
    assert failovers == 0
