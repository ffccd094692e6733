"""P1 — pipeline performance evidence: group-commit batching and the
versioned read cache.

Four claims, each measured in virtual time against the serial floor (one
15 ms commit per record):

1. N sync writes queued in one window cost one 15 ms disk commit, not N;
2. a segment create commits counter + replica + token in a single batch,
   beating three serial sync commits;
3. a burst of write-safety-1 updates to different segments on one server
   amortizes its durability cost through the shared commit window —
   measurably cheaper than N x 15 ms, in fewer than N commits;
4. a warm re-read never touches the disk, and a token transfer invalidates
   the warm entry (version-exact: the next read re-validates, then serves
   the *new* version from cache once the update lands).
"""

from repro.core import FileParams, WriteOp
from repro.sim import Kernel
from repro.storage import Disk
from repro.testbed import build_core_cluster
from benchmarks.conftest import run_once

WRITE_MS = 15.0
READ_MS = 8.0
N_WRITES = 8


def test_group_commit_amortizes_sync_writes(benchmark, report):
    """Claim 1: one commit window, one latency charge."""
    r = {}

    def scenario():
        kernel = Kernel()
        disk = Disk(kernel)

        async def burst():
            t0 = kernel.now
            await kernel.all_of([
                disk.write(f"k{i}", i, sync=True) for i in range(N_WRITES)
            ])
            return kernel.now - t0

        r["elapsed_ms"] = kernel.run_until_complete(burst())
        r["commits"] = disk.metrics.get("disk.commits")
        return r

    run_once(benchmark, scenario)
    report(
        f"P1.1 — {N_WRITES} concurrent sync writes, one disk",
        ["virtual ms", "commits", "serial floor ms"],
        [[f"{r['elapsed_ms']:.1f}", r["commits"],
          f"{N_WRITES * WRITE_MS:.1f}"]],
    )
    assert r["commits"] == 1
    assert r["elapsed_ms"] <= WRITE_MS + 1e-9
    assert r["elapsed_ms"] < N_WRITES * WRITE_MS


def test_create_commits_once(benchmark, report):
    """Claim 2: create = one batch commit, not three serial commits."""
    results = {}

    def scenario():
        cluster = build_core_cluster(1, seed=3)
        s0 = cluster.servers[0]
        m = cluster.metrics

        async def run():
            await cluster.kernel.sleep(50.0)
            snap = m.snapshot()
            t0 = cluster.kernel.now
            await s0.create(params=FileParams(min_replicas=1), data=b"x")
            return {"create_ms": cluster.kernel.now - t0,
                    "commits": m.delta(snap).get("disk.commits", 0)}

        results.update(cluster.run(run()))
        return results

    run_once(benchmark, scenario)
    report(
        "P1.2 — segment create durability cost",
        ["metric", "value"],
        [["virtual ms", f"{results['create_ms']:.1f}"],
         ["disk commits", results["commits"]],
         ["seed serial floor (3 records x 15 ms)", f"{3 * WRITE_MS:.1f}"]],
    )
    assert results["commits"] == 1
    assert results["create_ms"] <= WRITE_MS + 1e-9
    assert results["create_ms"] < 3 * WRITE_MS


def test_ws1_write_burst_batched(benchmark, report):
    """Claim 3: concurrent write-safety-1 updates share commit windows."""
    results = {}
    params = FileParams(min_replicas=1, write_safety=1,
                        stability_notification=False)

    def scenario():
        cluster = build_core_cluster(1, seed=5)
        s0 = cluster.servers[0]

        async def run():
            sids = []
            for _ in range(N_WRITES):
                sids.append(await s0.create(params=params, data=b""))
            await cluster.kernel.sleep(50.0)
            snap = cluster.metrics.snapshot()
            t0 = cluster.kernel.now
            await cluster.kernel.all_of([
                cluster.kernel.spawn(
                    s0.write(sid, WriteOp(kind="append", data=b"y")))
                for sid in sids
            ])
            delta = cluster.metrics.delta(snap)
            return {"elapsed_ms": cluster.kernel.now - t0,
                    "commits": delta.get("disk.commits", 0)}

        results.update(cluster.run(run()))
        return results

    run_once(benchmark, scenario)
    report(
        f"P1.3 — {N_WRITES} concurrent write-safety-1 updates, one server",
        ["virtual ms", "commits", "serial floor ms"],
        [[f"{results['elapsed_ms']:.1f}", results["commits"],
          f"{N_WRITES * WRITE_MS:.1f}"]],
    )
    # cheaper than one commit per update, in time and in commits
    assert results["elapsed_ms"] < N_WRITES * WRITE_MS
    assert results["commits"] < N_WRITES


def test_read_cache_warm_rereads_and_token_invalidation(benchmark, report):
    """Claim 4: cold read charges the disk, warm re-read is free, token
    transfer invalidates, update delivery re-warms at the new version."""
    results = {}
    params = FileParams(min_replicas=2, write_safety=1,
                        stability_notification=False)

    def scenario():
        cluster = build_core_cluster(2, seed=11)
        s0, s1 = cluster.servers[0], cluster.servers[1]
        m = cluster.metrics

        async def run():
            sid = await s0.create(params=params, data=b"v0")
            await cluster.kernel.sleep(100.0)
            # a restart would leave the page cache cold; model exactly that
            s0.store.cache.clear()
            t0 = cluster.kernel.now
            assert (await s0.read(sid)).data == b"v0"
            cold_ms = cluster.kernel.now - t0
            t0 = cluster.kernel.now
            assert (await s0.read(sid)).data == b"v0"
            warm_ms = cluster.kernel.now - t0
            # token transfer: s1 acquires the token by writing
            snap = m.snapshot()
            await s1.write(sid, WriteOp(kind="append", data=b"+v1"))
            await cluster.kernel.sleep(100.0)
            invalidations = m.delta(snap).get(
                "deceit.read_cache_invalidations", 0)
            # the delivered update re-warmed s0 at the new version: the read
            # below must serve the new bytes, version-exactly, from cache
            t0 = cluster.kernel.now
            rewarmed = await s0.read(sid)
            reread_ms = cluster.kernel.now - t0
            return {"cold_ms": cold_ms, "warm_ms": warm_ms,
                    "invalidations": invalidations,
                    "reread_ms": reread_ms, "reread_data": rewarmed.data,
                    "hits": m.get("deceit.read_cache_hits")}

        results.update(cluster.run(run()))
        return results

    run_once(benchmark, scenario)
    report(
        "P1.4 — versioned read cache",
        ["metric", "value"],
        [["cold read (virtual ms)", f"{results['cold_ms']:.1f}"],
         ["warm re-read (virtual ms)", f"{results['warm_ms']:.1f}"],
         ["invalidations on token transfer", results["invalidations"]],
         ["re-read after remote update (ms)", f"{results['reread_ms']:.1f}"],
         ["cache hits", results["hits"]]],
    )
    assert results["cold_ms"] >= READ_MS - 1e-9      # charged the disk
    assert results["warm_ms"] == 0.0                  # served warm
    assert results["invalidations"] >= 1              # token transfer dropped it
    assert results["reread_data"] == b"v0+v1"         # version-exact freshness
    assert results["reread_ms"] == 0.0                # re-warmed by delivery
    assert results["hits"] >= 2
