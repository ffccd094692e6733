"""Cold-restart measurement machinery (shared by the benchmark and CLI).

One restart cycle is: build a journal/sqlite/memory-backed cell, create a
probe file through a real agent, bulk-load a synthetic namespace, ``kill
-9`` every server, cold-restart the cell from the storage backends alone
(no reconcile — the synthetic segments are single-replica, so there is
nothing to merge), and prove "serving" with a fresh mount and an
end-to-end read of the probe file.

Populating 100k segments through the full distributed create protocol
would cost minutes of wall clock and measure the *create* path; the bulk
load instead writes each server's share straight through its
:class:`~repro.core.pipeline.store.ReplicaStore` — the identical replica
and token records a single-replica create leaves behind, committed in the
same group-commit batches — so the restart path sees exactly the disk
state a real history would have produced.
"""

from __future__ import annotations

import time
import tracemalloc

from repro.core import FileParams
from repro.core.segment import Replica, Token
from repro.core.versions import HistoryIndex, VersionPair
from repro.testbed import build_cluster

N_SERVERS = 4
SEED = 31
PAYLOAD = b"r" * 64
BATCH_RECORDS = 1_000   # kv entries per group-commit batch while loading


def populate(cluster, n_segments: int) -> float:
    """Load ``n_segments`` synthetic segments across the cell's disks.

    Each segment gets the durable footprint of a single-replica create —
    one replica record plus one token record — committed in group-commit
    batches.  Returns the wall seconds spent."""
    t0 = time.perf_counter()

    async def fill():
        for rank, server in enumerate(cluster.servers):
            store = server.segments.store
            alloc = server.segments.alloc
            share = n_segments // len(cluster.servers) + (
                1 if rank < n_segments % len(cluster.servers) else 0)
            params = FileParams(min_replicas=1, stability_notification=False)
            batch = []
            for i in range(share):
                major = alloc.next_major()
                sid = f"{server.addr}.b{i}"
                version = VersionPair(major, 1)
                replica = Replica(sid=sid, major=major, data=PAYLOAD,
                                  meta={}, version=version, params=params,
                                  branches=HistoryIndex())
                token = Token(sid=sid, major=major, version=version,
                              parent=None, holders=[server.addr])
                batch.append((store._rep_key(sid, major), replica.to_dict()))
                batch.append((store._tok_key(sid, major), token.to_dict()))
                if len(batch) >= BATCH_RECORDS:
                    await store.kv.put_batch(batch, sync=True)
                    batch = []
            if batch:
                await store.kv.put_batch(batch, sync=True)

    cluster.run(fill(), limit=10_000_000.0)
    return time.perf_counter() - t0


def restart_cycle(backend: str, storage_root, n_segments: int) -> dict:
    """Build, populate, kill -9, restart, serve; return the timings."""
    kw = {}
    if backend != "memory":
        kw = {"backend": backend,
              "storage_dir": str(storage_root / f"{backend}-{n_segments}")}
    cluster = build_cluster(N_SERVERS, n_agents=1, seed=SEED, **kw)
    agent = cluster.agents[0]

    async def probe_setup():
        await agent.mount()
        await agent.create("/", "probe")
        await agent.write_file("/probe", b"served after restart")

    cluster.run(probe_setup())
    populate_s = populate(cluster, n_segments)
    cluster.settle(100.0)
    cluster.kill()

    replay = {"records": 0, "bytes": 0, "wall_s": 0.0, "peak_bytes": 0}
    if backend == "journal":
        # replay one server's journal in isolation for a clean throughput
        # number (restart below replays it again from the same frames)
        t0 = time.perf_counter()
        reloaded = cluster.servers[0].disk.backend.reopen()
        reloaded.load()
        replay["wall_s"] = time.perf_counter() - t0
        replay.update({k: reloaded.replay_stats[k]
                       for k in ("records", "bytes")})
        # and once more, untimed, under tracemalloc for its memory peak
        reloaded = reloaded.reopen()
        tracemalloc.start()
        reloaded.load()
        replay["peak_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        reloaded.close()

    t0 = time.perf_counter()
    cluster.restart(reconcile=False)
    restart_s = time.perf_counter() - t0

    agent = cluster.agents[0]

    async def first_read():
        await agent.mount()
        return await agent.read_file("/probe")

    t0 = time.perf_counter()
    data = cluster.run(first_read())
    serve_s = time.perf_counter() - t0
    assert data == b"served after restart"

    resurrected = cluster.metrics.get("deceit.groups_resurrected")
    cluster.close()
    return {
        "backend": backend,
        "segments": n_segments,
        "populate_s": populate_s,
        "restart_s": restart_s,
        "first_read_s": serve_s,
        "to_serving_s": restart_s + serve_s,
        "us_per_segment": (restart_s + serve_s) / n_segments * 1e6,
        "resurrected": resurrected,
        "replay": replay,
    }
