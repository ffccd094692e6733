"""Tests for the plain-NFS baseline and for Deceit cells (§2.1, §2.2)."""

import pytest

from repro.baseline import BaselineClient, BaselineNfsServer
from repro.errors import NfsError
from repro.metrics import Metrics
from repro.net import Network, UniformLatency
from repro.testbed import build_cells
from tests.conftest import run


@pytest.fixture
def baseline(kernel):
    network = Network(kernel, latency=UniformLatency(1.0, 3.0), seed=3,
                      metrics=Metrics())
    srv_a = BaselineNfsServer(network, "nfs-a")
    srv_b = BaselineNfsServer(network, "nfs-b")
    client = BaselineClient(network, "client", mounts={
        "/": "nfs-a",
        "/usr": "nfs-b",
    })
    return kernel, network, srv_a, srv_b, client


def test_baseline_roundtrip(baseline):
    kernel, _net, _a, _b, client = baseline

    async def main():
        await client.create("/", "hello")
        await client.write_file("/hello", b"plain nfs")
        return await client.read_file("/hello")

    assert run(kernel, main()) == b"plain nfs"


def test_baseline_mount_table_routes_by_prefix(baseline):
    """Figure 1: /usr lives on a different server than /."""
    kernel, _net, srv_a, srv_b, client = baseline

    async def main():
        await client.create("/", "rootfile")
        await client.mkdir("/usr", "bin")
        await client.create("/usr/bin", "sh")
        await client.write_file("/usr/bin/sh", b"#!shell")
        return await client.read_file("/usr/bin/sh")

    assert run(kernel, main()) == b"#!shell"
    # the file physically lives on nfs-b, not nfs-a
    assert any(n.data == b"#!shell" for n in srv_b._inodes.values())
    assert not any(n.data == b"#!shell" for n in srv_a._inodes.values())


def test_baseline_no_failover_on_server_crash(baseline):
    """Figure 2 contrast: a dead baseline server takes its subtree down."""
    kernel, _net, _a, srv_b, client = baseline

    async def main():
        await client.create("/usr", "doc")
        srv_b.crash()
        with pytest.raises(NfsError):
            await client.read_file("/usr/doc")
        # the other server's subtree still works
        await client.create("/", "alive")
        return await client.read_file("/alive")

    assert run(kernel, main()) == b""


def test_baseline_handles_are_server_bound(baseline):
    kernel, _net, srv_a, _b, client = baseline

    async def main():
        fh = await client.create("/", "f")
        return fh

    fh = run(kernel, main())
    assert fh.startswith("nfs-a:")


def test_baseline_nested_dirs_and_readdir(baseline):
    kernel, _net, _a, _b, client = baseline

    async def main():
        await client.mkdir("/", "home")
        await client.mkdir("/home", "alice")
        await client.create("/home/alice", "notes")
        return [e["name"] for e in await client.readdir("/home/alice")]

    assert run(kernel, main()) == ["notes"]


# --------------------------------------------------------------------- #
# cells (§2.2)
# --------------------------------------------------------------------- #


def test_cells_are_independent_namespaces():
    cells = build_cells({"cornell": 2, "mit": 2})
    cornell = cells["cornell"]
    mit = cells["mit"]
    a_cornell = cornell.agents[0]
    a_mit = mit.agents[0]

    async def main():
        await a_cornell.mount()
        await a_mit.mount()
        await a_cornell.create("/", "cornell-only")
        with pytest.raises(NfsError):
            await a_mit.read_file("/cornell-only")
        return True

    assert cornell.run(main())


def test_cross_cell_access_via_global_root():
    """cd /priv/global/<machine> reaches the foreign cell (§2.2)."""
    cells = build_cells({"cornell": 2, "mit": 2})
    cornell = cells["cornell"]
    mit = cells["mit"]

    async def main():
        a_mit = mit.agents[0]
        await a_mit.mount()
        await a_mit.create("/", "paper.tex")
        await a_mit.write_file("/paper.tex", b"\\title{ISIS}")

        a_cornell = cornell.agents[0]
        await a_cornell.mount()
        # walk into MIT through the global root (machine names are dotted,
        # like the paper's "foo.cs.mit.edu")
        return await a_cornell.read_file("/priv/global/mit.s0/paper.tex")

    assert cornell.run(main()) == b"\\title{ISIS}"


def test_cross_cell_write_through_proxy():
    cells = build_cells({"cornell": 2, "mit": 2})
    cornell = cells["cornell"]

    async def main():
        agent = cornell.agents[0]
        await agent.mount()
        mit_root = await agent.lookup_path("/priv/global/mit.s0")
        assert mit_root.foreign
        reply = await agent._nfs("create", {"fh": mit_root.encode(),
                                            "name": "from-cornell",
                                            "sattr": {}})
        from repro.nfs import FileHandle
        fh = FileHandle.decode(reply["fh"])
        assert fh.foreign  # handles stay foreign-stamped through the proxy
        await agent._nfs("write", {"fh": fh.encode(), "offset": 0,
                                   "data": b"hello mit"})
        return await agent.read_file(fh)

    assert cornell.run(main()) == b"hello mit"


def test_file_groups_never_span_cells():
    """Replication must be contained within a cell (§2.2).  A special
    command on a foreign handle runs in the file's own cell, the local
    cell acting as a client to it: its last LOOKUP, setparam and locate
    are proxied, and no local server joins the foreign file group."""
    for path, home, proxied in [("/local", "cornell", 0),
                                ("/priv/global/mit.s0/paper.tex", "mit", 3)]:
        cells = build_cells({"cornell": 3, "mit": 3})
        cornell, mit = cells["cornell"], cells["mit"]

        async def main():
            await mit.agents[0].mount()
            await mit.agents[0].create("/", "paper.tex")
            agent = cornell.agents[0]
            await agent.mount()
            await agent.create("/", "local")
            before = cornell.metrics.get("nfs.proxied")
            await agent.set_params(path, min_replicas=3)
            located = await agent.locate(path)
            return located, cornell.metrics.get("nfs.proxied") - before

        located, relayed = cornell.run(main())
        assert all(h.startswith(f"{home}.") for h in located["holders"]), path
        assert len(located["holders"]) == 3, path
        assert relayed == proxied, path
        assert not [group for server in cornell.servers
                    for group in server.proc.groups
                    if group.startswith("fg:mit.")], path


def test_global_lookup_unknown_machine_fails():
    cells = build_cells({"cornell": 2})
    cornell = cells["cornell"]

    async def main():
        agent = cornell.agents[0]
        await agent.mount()
        with pytest.raises(NfsError):
            await agent.lookup_path("/priv/global/nowhere.s9")
        return True

    assert cornell.run(main())
