"""S1 — performance: the simulator at O(100)-server cell sizes (§5).

The paper's cell is "three Sun 3/60s" (§5), but its design arguments —
per-file-group traffic, cell-confined global search, all-pairs failure
detection — are about how the system *would* scale.  This suite drives
the same seeded zipf-hotspot workload through cells of 4, 16, 64, and
128 servers built with :func:`repro.testbed.build_scale_cluster` and
charts:

- ops/sec of *wall clock* — how fast the simulator itself runs, the
  number the kernel/network/metrics fast paths exist for;
- kernel events/sec — simulator throughput independent of op mix;
- p50/p99 *virtual* latency — what the simulated clients experienced.

The table is a chart, not a gate: the wall-clock numbers depend on the
host, so the committed ruler for simulator speed is ``bench/``'s
``scale_hotspot`` ``sim_ops_per_s`` (parent vs change on one machine).
What this suite asserts is that every op succeeds at every size.
"""

import time

from repro.testbed import build_scale_cluster
from repro.workloads import WorkloadGenerator, hotspot_config
from repro.workloads.replay import replay
from benchmarks.conftest import run_once

#: (n_servers, n_agents) — agents grow sublinearly, as in a real cell
#: where one server fronts a handful of client machines.
CELLS = [(4, 8), (16, 16), (64, 32), (128, 48)]
DURATION_MS = 10_000.0
SEED = 42


def _run_cell(n_servers: int, n_agents: int) -> dict:
    cfg = hotspot_config(n_clients=n_agents, duration_ms=DURATION_MS,
                         seed=SEED)
    ops = WorkloadGenerator(cfg).generate()
    cluster = build_scale_cluster(n_servers=n_servers, n_agents=n_agents,
                                  seed=SEED)
    t0 = time.perf_counter()
    stats = cluster.run(replay(cluster, ops), limit=10_000_000.0)
    wall = time.perf_counter() - t0
    events = cluster.kernel.events_processed
    out = {
        "n_servers": n_servers,
        "n_agents": n_agents,
        "ops": stats.attempted,
        "ok": stats.succeeded,
        "wall_s": wall,
        "ops_per_sec": stats.attempted / wall,
        "events": events,
        "events_per_sec": events / wall,
        "p50_ms": stats.latency.percentile(50),
        "p99_ms": stats.latency.percentile(99),
        "vclock_ms": cluster.kernel.now,
        "net_msgs": cluster.metrics.get("net.msgs"),
    }
    cluster.close()
    return out


def test_perf_scale_cells(benchmark, report):
    rows = []
    results = {}

    def scenario():
        for n_servers, n_agents in CELLS:
            results[n_servers] = _run_cell(n_servers, n_agents)
        return results

    run_once(benchmark, scenario)
    for n_servers, r in sorted(results.items()):
        rows.append([
            f"{n_servers}x{r['n_agents']}", r["ops"],
            f"{r['wall_s']:.2f}", f"{r['ops_per_sec']:.0f}",
            f"{r['events_per_sec'] / 1000:.0f}k",
            f"{r['p50_ms']:.1f}", f"{r['p99_ms']:.0f}",
        ])
    report(
        "S1: simulator throughput vs cell size — zipf hotspot, "
        f"{DURATION_MS / 1000:.0f}s virtual",
        ["cell (srv x ag)", "ops", "wall s", "ops/s", "events/s",
         "p50 ms", "p99 ms"],
        rows,
    )
    # every op the workload attempted succeeded, at every size
    for r in results.values():
        assert r["ok"] == r["ops"]
    benchmark.extra_info["cells"] = {str(n): r for n, r in results.items()}
