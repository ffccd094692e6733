"""P3 — write-path performance evidence: the single-round atomic
whole-file write.

A whole-file write is **1 NFS round / 1 segment update / 1 version
bump** — the seed's setattr(size=0)+write path cost 2 rounds, 2 updates,
and 2 version bumps (and exposed an empty intermediate state).  Measured
in virtual time with pinned round/commit counters.
"""

from repro.testbed import build_cluster
from benchmarks.conftest import run_once


def test_whole_file_write_single_round(benchmark, report):
    """One round, one update, one version bump (vs 2/2/2)."""
    results = {}

    def scenario():
        cluster = build_cluster(3, n_agents=1, seed=13)
        agent = cluster.agents[0]
        m = cluster.metrics

        async def run():
            await agent.mount()
            await agent.create("/", "f")
            fh = await agent.lookup_path("/f")
            await agent.set_params(fh, stability_notification=False)
            await agent.write_file(fh, b"warmup" * 16)   # token settles
            payload = b"x" * 1024

            snap = m.snapshot()
            t0 = cluster.kernel.now
            await agent.write_file(fh, payload)
            new = {"ms": cluster.kernel.now - t0, **m.delta(snap)}

            # the seed's two-op emulation, for the comparison row
            snap = m.snapshot()
            t0 = cluster.kernel.now
            await agent._nfs("setattr", {"fh": fh.encode(),
                                         "sattr": {"size": 0}})
            await agent._nfs("write", {"fh": fh.encode(), "offset": 0,
                                       "data": payload},
                             size_bytes=len(payload))
            agent._invalidate(fh)
            seed = {"ms": cluster.kernel.now - t0, **m.delta(snap)}
            versions = await agent.list_versions(fh)
            return {"new": new, "seed": seed, "versions": versions}

        results.update(cluster.run(run()))
        return results

    run_once(benchmark, scenario)
    new, seed = results["new"], results["seed"]
    rows = [
        [label,
         r.get("nfs.requests", 0), r.get("deceit.updates", 0),
         r.get("disk.commits", 0), f"{r['ms']:.1f}"]
        for label, r in (("atomic truncating write", new),
                         ("seed: setattr + write", seed))
    ]
    report(
        "P3.1 — whole-file write cost (1 KB file)",
        ["path", "NFS rounds", "segment updates", "disk commits",
         "virtual ms"],
        rows,
    )
    assert new.get("nfs.requests", 0) == 1
    assert new.get("deceit.updates", 0) == 1
    assert seed.get("nfs.requests", 0) == 2
    assert seed.get("deceit.updates", 0) == 2
    assert new["ms"] < seed["ms"]

