"""A3 — ablation: stability notification (§3.4, §4).

"The main benefit of stability notification is that updates become visible
to all clients simultaneously ... overhead is incurred at the beginning and
end of a stream of updates.  This overhead can be expensive if updates are
short and rare."  We measure exactly that: cost per update for long streams
vs isolated rare updates, with notification on and off.

The unstable mark rides the burst's first update (no round of its own), so
what notification still costs is the head's wait for *every* member's
answer instead of ``write_safety`` durable ones, plus the end-of-burst
stable mark.  At seed 400 (r=3): isolated updates 19.7 ms against 15.0 ms
off (+32 %), streams of 20 9.19 ms against 9.0.
"""

from repro.core import FileParams, WriteOp
from repro.testbed import build_core_cluster
from benchmarks.conftest import run_once


def _stream_cost(stability: bool, stream_len: int, n_streams: int) -> float:
    cluster = build_core_cluster(4, seed=400)
    server = cluster.servers[0]

    async def run():
        sid = await server.create(
            params=FileParams(min_replicas=3, write_safety=1,
                              stability_notification=stability),
            data=b"")
        t0 = cluster.kernel.now
        for _burst in range(n_streams):
            for _i in range(stream_len):
                await server.write(sid, WriteOp(kind="append", data=b"x" * 32))
            # quiet gap between streams: stable mark fires (when enabled)
            await cluster.kernel.sleep(600.0)
        total = cluster.kernel.now - t0 - 600.0 * n_streams
        return total / (stream_len * n_streams)

    return cluster.run(run(), limit=5_000_000.0)


def test_abl_stability_notification(benchmark, report):
    results = {}

    def scenario():
        # long streams amortize the boundary overhead
        results["long_on"] = _stream_cost(True, stream_len=20, n_streams=2)
        results["long_off"] = _stream_cost(False, stream_len=20, n_streams=2)
        # short rare updates pay it every time
        results["short_on"] = _stream_cost(True, stream_len=1, n_streams=8)
        results["short_off"] = _stream_cost(False, stream_len=1, n_streams=8)
        return results

    run_once(benchmark, scenario)
    long_overhead = results["long_on"] / results["long_off"] - 1.0
    short_overhead = results["short_on"] / results["short_off"] - 1.0
    report(
        "A3: stability notification cost per update (r=3) — the burst "
        "head's all-member wait plus the end-of-burst stable mark",
        ["update pattern", "off (ms)", "on (ms)", "overhead"],
        [["streams of 20", f"{results['long_off']:.1f}",
          f"{results['long_on']:.1f}", f"{long_overhead:+.0%}"],
         ["isolated single updates", f"{results['short_off']:.1f}",
          f"{results['short_on']:.1f}", f"{short_overhead:+.0%}"]],
    )
    # notification costs something in both regimes...
    assert results["long_on"] >= results["long_off"]
    assert results["short_on"] > results["short_off"]
    # ...but short/rare updates are hurt proportionally much more (§3.4)
    assert short_overhead > long_overhead
    benchmark.extra_info.update(results)
