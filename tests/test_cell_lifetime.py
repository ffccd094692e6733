"""A cell that ends gives its memory back at once, whoever still holds it.

``Cluster.close()`` releases the cell, and ``Cluster.restart()`` releases
the old incarnation: each server drops what a crash drops plus its disk's
RAM copy of the records, each agent its caches, and a memory backend a
disk made for itself its records.  Without that, the cell is cyclic
garbage that stays resident until a generation-2 pass, and a harness that
builds cell after cell holds two of them at its peak.

Measured with ``tracemalloc`` while the test still holds the ``Cluster``
(and, for a restart, the old incarnation's servers and agents).
"""

import gc
import tracemalloc

import pytest

from repro.core.conflicts import CONFLICT_GROUP
from repro.nfs.fhandle import FileHandle
from repro.testbed import build_cluster, build_core_cluster

MIB = 1 << 20


def _pattern() -> bytes:
    return bytes(range(256)) * (2 * MIB // 256)


def _cell_with_file(**kwargs):
    """A 3-server cell holding one 2 MiB file, written and read back
    through its agent and flushed to every disk."""
    cluster = build_cluster(3, 1, seed=5, **kwargs)
    agent = cluster.agents[0]

    async def fill():
        await agent.mount()
        await agent.create("/", "big")
        await agent.write_file("/big", _pattern())
        assert await agent.read_file("/big") == _pattern()

    cluster.run(fill())
    cluster.settle(1000.0)   # past the write-behind flush
    return cluster


def _traced() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def _fd_state(server):
    fd = server.proc.fd
    return (sorted(fd.suspected), dict(fd.last_heard), fd.alarm_until,
            server.proc.members(CONFLICT_GROUP))


@pytest.fixture
def traced():
    tracemalloc.start()
    yield
    tracemalloc.stop()


def test_close_frees_the_cell_while_the_cluster_is_held(traced):
    cluster = _cell_with_file()
    addrs = [server.addr for server in cluster.servers]
    counters = cluster.metrics.snapshot()
    fds = [_fd_state(server) for server in cluster.servers]
    before = _traced()
    cluster.close()
    assert before - _traced() >= 2 * MIB
    # what callers read after close() stays readable, and unchanged
    assert [server.addr for server in cluster.servers] == addrs
    assert cluster.metrics.snapshot() == counters
    assert [_fd_state(server) for server in cluster.servers] == fds


def test_close_keeps_a_memory_backend_the_caller_passed_in():
    from repro.storage import MemoryBackend

    backends = [MemoryBackend() for _ in range(3)]
    cluster = build_cluster(3, 1, seed=5, backends=backends)
    agent = cluster.agents[0]

    async def fill():
        await agent.mount()
        await agent.create("/", "f")
        await agent.write_file("/f", b"kept")

    cluster.run(fill())
    cluster.settle(1000.0)
    records = [backend.load() for backend in backends]
    cluster.close()
    assert all(records)
    assert [backend.load() for backend in backends] == records


@pytest.mark.parametrize("backend", ["memory", "journal"])
def test_restart_frees_the_old_incarnation(traced, backend, tmp_path):
    kwargs = {} if backend == "memory" else {
        "backend": backend, "storage_dir": str(tmp_path)}
    cluster = _cell_with_file(**kwargs)
    old = cluster.servers, cluster.agents     # held, as a caller might
    cluster.kill()
    cluster.restart()
    with_old = _traced()
    del old
    assert with_old - _traced() < MIB
    # the backend the new incarnation reopened still holds every record
    agent = cluster.agents[0]

    async def read():
        await agent.mount()
        return await agent.read_file("/big")

    assert cluster.run(read()) == _pattern()
    # and the restarted cell, closed, gives it all back — a memory
    # backend reopen() handed on is the new incarnation's to empty
    before = _traced()
    cluster.close()
    assert before - _traced() >= 2 * MIB


def test_core_cluster_close_frees_replicas_and_disks(traced):
    from repro import FileParams

    cluster = build_core_cluster(3, seed=1)
    s0 = cluster.servers[0]

    async def create():
        await s0.create(params=FileParams(min_replicas=2), data=_pattern())

    cluster.run(create())
    cluster.settle(1000.0)
    before = _traced()
    cluster.close()
    assert before - _traced() >= 2 * MIB
    assert not any(server.replicas for server in cluster.servers)
    assert not any(disk.stable_keys for disk in cluster.disks)


# ---- the per-version memo (what a server derived from a local replica) --- #


def _memo_cell():
    """A 3-server cell whose every server has looked up ``/d/f`` and
    stat'ed it, so each holds memo entries beside its local replicas."""
    cluster = build_cluster(3, 1, seed=6)
    agent = cluster.agents[0]

    async def fill():
        await agent.mount()
        await agent.mkdir("/", "d")
        await agent.create("/d", "f")
        await agent.set_params("/d", min_replicas=3)
        await agent.set_params("/d/f", min_replicas=3)
        for server in cluster.servers:
            envelope = server.envelope
            d = await envelope.lookup(envelope.root_fh, "d")
            await envelope.lookup(FileHandle.decode(d["fh"]), "f")

    cluster.run(fill())
    cluster.settle(500.0)
    assert all(_memo(server) for server in cluster.servers)
    return cluster


def _memo(server) -> dict:
    return server.segments.store.derived


def test_no_memo_entry_survives_crash_close_or_restart():
    cluster = _memo_cell()
    cluster.crash(1)
    assert not _memo(cluster.servers[1])
    assert _memo(cluster.servers[0])
    cluster.close()
    assert not any(_memo(server) for server in cluster.servers)

    cluster = _memo_cell()
    old = cluster.servers
    cluster.kill()
    cluster.restart()
    assert not any(_memo(server) for server in [*old, *cluster.servers])
    cluster.close()


def test_a_memo_entry_goes_with_its_replica():
    cluster = _memo_cell()
    server = cluster.servers[2]
    key = next(iter(_memo(server)))
    assert key in server.segments.store.replicas
    cluster.run(server.segments.store.destroy_replica(*key))
    assert key not in _memo(server)
    assert _memo(server)
    cluster.close()
