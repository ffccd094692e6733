"""P4 — namespace-path performance evidence: commuting server-side dirops.

The paper calls the root directory the hottest file in the system (§7) and
builds the namespace on §5.1's optimistic version-pair transaction — which
makes *every* pair of concurrent mutations of one directory conflict.
Dirops commute instead.  Three claims, measured in virtual time with
pinned counters:

1. N agents creating into one shared directory complete with **zero**
   name conflicts, zero directory reads and one directory major — every
   file visible;
2. a create is **segment-create + one dirop** — no directory read before
   the mutation and no follow-up getattr round (reply attrs derive from
   the create itself);
3. the agent's version-validated readdir cache turns a listing poll of an
   unchanged hot directory into "unchanged" answers that move no entry
   bytes.
"""

from repro.testbed import build_cluster
from benchmarks.conftest import run_once

N_AGENTS = 4
N_CREATES = 12


def _shared_dir_storm(cluster):
    """All agents create into one shared directory concurrently; returns
    per-create virtual-ms latencies and the metric delta of the storm."""
    kernel = cluster.kernel
    agents = cluster.agents
    m = cluster.metrics

    async def run():
        for i, agent in enumerate(agents):
            # spread the agents across mount servers: contention on the
            # shared directory then involves real forwarding rounds, as a
            # hot directory in a deployed cell would
            agent.current = i % len(cluster.servers)
            await agent.mount()
        await agents[0].mkdir("/", "shared")
        for agent in agents:
            await agent.lookup_path("/shared")
        latencies = []

        async def one_create(agent, i):
            t0 = kernel.now
            await agent.create("/shared", f"f{i}")
            latencies.append(kernel.now - t0)

        snap = m.snapshot()
        tasks = [
            kernel.spawn(one_create(agents[i % len(agents)], i))
            for i in range(N_CREATES)
        ]
        for task in tasks:
            await task
        delta = m.delta(snap)
        agents[0]._dir_cache.clear()
        names = [e["name"] for e in await agents[0].readdir("/shared")]
        return latencies, delta, names

    latencies, delta, names = cluster.run(run())
    latencies.sort()
    return latencies, delta, names


def test_hot_directory_creates_commute(benchmark, report):
    """Claim 1: concurrent creates in one directory never conflict."""
    r = {}

    def scenario():
        cluster = build_cluster(3, n_agents=N_AGENTS, seed=37)
        latencies, delta, names = _shared_dir_storm(cluster)
        r.update({
            "p50": latencies[len(latencies) // 2],
            "p_max": latencies[-1],
            "dirop_conflicts": delta.get("nfs.dirop_conflicts", 0),
            "reads": delta.get("deceit.reads", 0)
            + delta.get("deceit.stats", 0),
            "branches": delta.get("deceit.tokens_generated", 0),
            "lost": N_CREATES - len(names),
        })
        cluster.close()
        return r

    run_once(benchmark, scenario)
    report(
        f"P4.1 — {N_CREATES} concurrent creates, {N_AGENTS} agents, "
        "one shared directory",
        ["p50 create ms", "max create ms", "name conflicts",
         "segment reads+stats", "dir majors branched", "files not visible"],
        [[f"{r['p50']:.1f}", f"{r['p_max']:.1f}", r["dirop_conflicts"],
          r["reads"], r["branches"], r["lost"]]],
    )
    # all creates visible, one directory major — forwarded single updates
    # keep the hot directory's token put
    assert r["lost"] == 0 and r["branches"] == 0
    assert r["dirop_conflicts"] == 0
    assert r["reads"] == 0                  # dirops never read the table


def test_create_is_two_segment_ops(benchmark, report):
    """Claim 2: one quiet create = segment-create + one dirop update,
    zero directory reads, zero getattr stats (reply attrs are derived)."""
    r = {}

    def scenario():
        cluster = build_cluster(3, n_agents=1, seed=41)
        agent = cluster.agents[0]
        m = cluster.metrics

        async def run():
            await agent.mount()
            await agent.lookup_path("/")
            snap = m.snapshot()
            t0 = cluster.kernel.now
            await agent.create("/", "solo")
            return {"ms": cluster.kernel.now - t0, **m.delta(snap)}

        r.update(cluster.run(run()))
        cluster.close()
        return r

    run_once(benchmark, scenario)
    report(
        "P4.2 — cost of one uncontended create",
        ["NFS rounds", "segment updates", "segment reads", "segment stats",
         "virtual ms"],
        [[r.get("nfs.requests", 0), r.get("deceit.updates", 0),
          r.get("deceit.reads", 0), r.get("deceit.stats", 0),
          f"{r['ms']:.1f}"]],
    )
    assert r.get("nfs.requests", 0) == 1
    assert r.get("deceit.updates", 0) == 1     # the single dirop
    assert r.get("deceit.reads", 0) == 0       # no table read
    assert r.get("deceit.stats", 0) == 0       # no getattr round


def test_readdir_poll_revalidates_without_bytes(benchmark, report):
    """Claim 3: polling an unchanged listing after each TTL lapse costs
    an "unchanged" round, not an entry refetch."""
    results = {}
    POLLS = 6

    def scenario():
        cluster = build_cluster(3, n_agents=1, seed=43)
        agent = cluster.agents[0]
        m = cluster.metrics

        async def run():
            await agent.mount()
            for i in range(8):
                await agent.create("/", f"f{i}")
            await agent.readdir("/")
            snap = m.snapshot()
            for _ in range(POLLS):
                await cluster.kernel.sleep(agent.config.attr_ttl_ms + 1)
                listing = await agent.readdir("/")
            return {"entries": len(listing), **m.delta(snap)}

        results.update(cluster.run(run()))
        cluster.close()
        return results

    run_once(benchmark, scenario)
    report(
        f"P4.3 — {POLLS} readdir polls of an unchanged 9-entry directory "
        "(TTL lapsed each time)",
        ["metric", "value"],
        [["server readdir rounds", results.get("nfs.ops.readdir", 0)],
         ["answered unchanged", results.get("nfs.readdirs_unchanged", 0)],
         ["agent revalidations",
          results.get("agent.dir_cache_revalidations", 0)]],
    )
    assert results.get("nfs.readdirs_unchanged", 0) == POLLS
    assert results.get("agent.dir_cache_revalidations", 0) == POLLS
