"""F8 — Figure 8: agent/server configurations.

"These different configurations provide widely differing performance."
We sweep the agent placements (kernel / user library / auxiliary process)
and feature sets (caching, shortcut) and measure per-op latency over a
read-heavy probe, plus the failover property on a server crash.  The
shortcut is on by default; every row but the shortcut row turns it off,
so those rows pay the mount server's forwarding hop the shortcut skips
(the agent learns the holder from a lookup or getattr reply and sends
getattr and reads there).  The shortcut also routes a lookup to its
directory's holder, and with ``cache=False`` every getattr here walks the
path again; but the probe's one directory is the root, which all three
servers hold, so its lookups stay at the mount server.  Per-op virtual ms
(seed 0): aux process 18.19, kernel 17.74, kernel + cache 0.50, user
library + cache 0.50, kernel + shortcut 13.76.
"""

from repro.agent import AgentConfig, Placement
from repro.testbed import build_cluster
from benchmarks.conftest import run_once

READS = 20

CONFIGS = [
    ("aux process, no cache", AgentConfig(placement=Placement.AUX_PROCESS,
                                          cache=False, shortcut=False)),
    ("kernel, no cache", AgentConfig(placement=Placement.KERNEL,
                                     cache=False, shortcut=False)),
    ("kernel + cache", AgentConfig(placement=Placement.KERNEL,
                                   cache=True, shortcut=False)),
    ("user library + cache", AgentConfig(placement=Placement.USER_LIBRARY,
                                         cache=True, shortcut=False)),
    ("kernel + shortcut, no cache", AgentConfig(placement=Placement.KERNEL,
                                                cache=False, shortcut=True)),
]


def _measure(config: AgentConfig) -> float:
    cluster = build_cluster(n_servers=3, n_agents=1, agent_config=config)
    agent = cluster.agents[0]

    async def run():
        await agent.mount()
        await agent.create("/", "hot")
        await agent.write_file("/hot", b"hot data" * 32)
        # now connect the agent to a server that does NOT hold the file, so
        # the shortcut configuration has a forwarding hop to eliminate
        agent.current = 1
        t0 = cluster.kernel.now
        for _ in range(READS):
            await agent.getattr("/hot")
            await agent.read_file("/hot")
        return (cluster.kernel.now - t0) / (2 * READS)

    return cluster.run(run(), limit=600_000.0)


def test_fig8_agent_configurations(benchmark, report):
    results = {}

    def scenario():
        for label, config in CONFIGS:
            results[label] = _measure(config)
        return results

    run_once(benchmark, scenario)
    rows = [[label, f"{ms:.2f}"] for label, ms in results.items()]
    report(
        "F8: per-op latency by agent configuration (read-heavy probe)",
        ["agent configuration", "virtual ms/op"],
        rows,
    )
    # caching dominates everything else
    assert results["kernel + cache"] < results["kernel, no cache"]
    # the aux-process hop is the most expensive placement
    assert results["aux process, no cache"] > results["kernel, no cache"]
    # the user-library agent is the fastest cached configuration (§5.3:
    # "this agent should greatly improve file performance")
    assert results["user library + cache"] <= results["kernel + cache"]
    # the shortcut helps a client whose server lacks the replica
    assert results["kernel + shortcut, no cache"] < results["kernel, no cache"]
    benchmark.extra_info.update({k: v for k, v in results.items()})
