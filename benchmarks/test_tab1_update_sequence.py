"""T1 — Table 1: the typical sequence of events in an update.

Reproduces the table's precondition→action ladder by driving a write
stream from a non-token-holder and tracing which protocol steps fire:
token acquisition and unstable-marking are paid once at the head of the
stream, each update is a single distributed round, and the stable mark
follows the quiet period (§3.3–§3.4).
"""

from repro.core import FileParams, WriteOp
from repro.net import NetConfig
from repro.testbed import build_core_cluster
from benchmarks.conftest import run_once

STREAM = 10


def test_tab1_update_sequence(benchmark, report):
    results = {}

    def scenario():
        cluster = build_core_cluster(3, seed=7, net_config=NetConfig(tag_metrics=True))
        s0, s1 = cluster.servers[0], cluster.servers[1]
        m = cluster.metrics

        async def run():
            sid = await s0.create(
                params=FileParams(min_replicas=3, write_safety=1), data=b"")
            await cluster.kernel.sleep(100.0)
            snap = m.snapshot()
            # first update of a stream from a server that lacks the token
            t0 = cluster.kernel.now
            await s1.write(sid, WriteOp(kind="append", data=b"head"))
            first_ms = cluster.kernel.now - t0
            head = m.delta(snap)
            # steady state: the rest of the stream
            snap = m.snapshot()
            t0 = cluster.kernel.now
            for _ in range(STREAM - 1):
                await s1.write(sid, WriteOp(kind="append", data=b"x"))
            rest_ms = (cluster.kernel.now - t0) / (STREAM - 1)
            rest = m.delta(snap)
            # quiet period passes → stable mark
            await cluster.kernel.sleep(500.0)
            return {"first_ms": first_ms, "rest_ms": rest_ms,
                    "head": head, "rest": rest,
                    "stable_clears": m.get("deceit.stability_clears")}

        results.update(cluster.run(run(), limit=600_000.0))
        return results

    run_once(benchmark, scenario)
    head, rest = results["head"], results["rest"]
    rows = [
        ["token is not held", "acquire token",
         head.get("deceit.token_requests", 0),
         rest.get("deceit.token_requests", 0)],
        ["replicas not marked unstable", "mark replicas as unstable",
         head.get("deceit.stability_marks", 0),
         rest.get("deceit.stability_marks", 0)],
        ["(always)", "distributed update",
         head.get("deceit.updates", 0), rest.get("deceit.updates", 0)],
        ["period of no write activity", "mark replicas as stable",
         0, results["stable_clears"]],
    ]
    report(
        "T1: Table-1 event ladder — first update vs steady-state stream",
        ["precondition", "action", "first update", f"next {STREAM-1} updates"],
        rows,
    )
    report(
        "T1: latency amortization",
        ["position in stream", "virtual ms/update"],
        [["first (token + unstable marks)", f"{results['first_ms']:.1f}"],
         ["steady state", f"{results['rest_ms']:.1f}"]],
    )
    # token acquisition and unstable-marking happen exactly once, up front
    assert head.get("deceit.token_requests", 0) == 1
    assert rest.get("deceit.token_requests", 0) == 0
    assert head.get("deceit.stability_marks", 0) == 1
    assert rest.get("deceit.stability_marks", 0) == 0
    # the mark rides the head's update: no stability-tagged multicast
    assert head.get("net.msgs.tag.stability", 0) == 0
    # steady-state updates are cheaper than the stream head (§3.3)
    assert results["rest_ms"] < results["first_ms"]
    assert results["stable_clears"] >= 1
    benchmark.extra_info.update({"first_ms": results["first_ms"],
                                 "steady_ms": results["rest_ms"]})


def _head_msgs(forward: bool) -> float:
    cluster = build_core_cluster(3, seed=8, net_config=NetConfig(tag_metrics=True))
    s0, s1 = cluster.servers[0], cluster.servers[1]
    m = cluster.metrics

    async def run():
        sid = await s0.create(
            params=FileParams(min_replicas=3, write_safety=1,
                              stability_notification=False), data=b"")
        await cluster.kernel.sleep(100.0)
        before = m.get("net.msgs") - m.get("net.msgs.tag.heartbeat")
        await s1.write(sid, WriteOp(kind="append", data=b"x"),
                       single_update_hint=forward)
        await cluster.kernel.sleep(100.0)
        return (m.get("net.msgs") - m.get("net.msgs.tag.heartbeat")) - before

    return cluster.run(run(), limit=600_000.0)


def test_tab1_token_optimizations(benchmark, report):
    """§3.3 lists two optimizations Deceit did not yet use.  Optimization 2
    is built, engaged by the single-update hint; we measure what it saves
    on the head of a write stream from a non-holder.  Optimization 1 (the
    update riding the token request) is not built: a request asked again
    of a busy holder would carry the update twice."""
    results = {}

    def scenario():
        results["base"] = _head_msgs(forward=False)
        results["forward"] = _head_msgs(forward=True)
        return results

    run_once(benchmark, scenario)
    report(
        "T1-ext: §3.3 optimizations — messages for the first update from a "
        "non-holder (r=3)",
        ["protocol variant", "payload msgs"],
        [["base (request, pass, update)", results["base"]],
         ["opt 2: forward single update to holder", results["forward"]]],
    )
    assert results["forward"] < results["base"]
    benchmark.extra_info.update(results)
