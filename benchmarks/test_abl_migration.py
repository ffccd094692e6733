"""A4 — ablation: file migration (§3.1 method 4, §4).

With migration on, "each client slowly gathers its working set of files to
the server to which it has connected": first reads are forwarded, later
reads are local.  With it off, every read keeps paying the forwarding hop.
Also shows the disk-space cost — the reason §6.2 turns it off for huge
files.
"""

from repro.core import FileParams
from repro.testbed import build_core_cluster
from benchmarks.conftest import run_once

FILES = 6
READS_PER_FILE = 4


def _working_set_reads(migration: bool) -> dict:
    cluster = build_core_cluster(3, seed=500)
    s0, s1 = cluster.servers[0], cluster.servers[1]

    async def run():
        sids = []
        for i in range(FILES):
            sid = await s0.create(
                params=FileParams(file_migration=migration),
                data=bytes([i]) * 4096)
            sids.append(sid)
        # the client's working set is read repeatedly through s1
        first_ms = later_ms = 0.0
        for sid in sids:
            t0 = cluster.kernel.now
            await s1.read(sid)
            first_ms += cluster.kernel.now - t0
        # deterministic barrier: background migrations have drained (every
        # one-shot §3.1 pull is counted in flight, so no timed sleep)
        await s1.quiesced()
        for _round in range(READS_PER_FILE - 1):
            for sid in sids:
                t0 = cluster.kernel.now
                await s1.read(sid)
                later_ms += cluster.kernel.now - t0
        local_replicas = sum(1 for (sid, _m) in s1.replicas if sid in sids)
        disk_bytes = sum(len(r.data) for r in s1.replicas.values())
        return {
            "first_ms": first_ms / FILES,
            "later_ms": later_ms / (FILES * (READS_PER_FILE - 1)),
            "replicas_on_s1": local_replicas,
            "disk_bytes_on_s1": disk_bytes,
        }

    return cluster.run(run(), limit=2_000_000.0)


def test_abl_file_migration(benchmark, report):
    results = {}

    def scenario():
        results["on"] = _working_set_reads(True)
        results["off"] = _working_set_reads(False)
        return results

    run_once(benchmark, scenario)
    on, off = results["on"], results["off"]
    report(
        "A4: file migration — working set gathering at the contacted server",
        ["migration", "first read ms", "steady read ms",
         "replicas migrated", "disk bytes at s1"],
        [["on", f"{on['first_ms']:.1f}", f"{on['later_ms']:.1f}",
          on["replicas_on_s1"], on["disk_bytes_on_s1"]],
         ["off", f"{off['first_ms']:.1f}", f"{off['later_ms']:.1f}",
          off["replicas_on_s1"], off["disk_bytes_on_s1"]]],
    )
    # migration converges to local-speed reads
    assert on["later_ms"] < off["later_ms"]
    assert on["replicas_on_s1"] == FILES
    assert off["replicas_on_s1"] == 0
    # and costs disk at the gathering server (why §6.2 turns it off)
    assert on["disk_bytes_on_s1"] > off["disk_bytes_on_s1"]
    benchmark.extra_info.update({
        "migration_steady_ms": on["later_ms"],
        "no_migration_steady_ms": off["later_ms"],
    })
