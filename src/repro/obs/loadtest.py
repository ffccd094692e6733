"""The saturation/SLO harness: ramp concurrency until the cell saturates.

Malhotra et al.'s DFS comparison (PAPERS.md) frames saturation — the
knee point and p99 under overload — as *the* axis distributed file
systems differ on.  This driver ramps closed-loop agent concurrency
stepwise over fresh same-seed cells, measures virtual-time throughput
and latency percentiles per step, and locates the knee: the last step
where offered concurrency still bought meaningful throughput.

Each step is an independent deterministic simulation (fresh cluster,
same seed), so a step's numbers never depend on what ran before it and
the whole ramp is reproducible.  Clients are *closed-loop*: each issues
its next op when the previous completes, so offered load self-limits —
saturation shows up as per-op latency growth, exactly as in a real
benchmark rig.

The same driver powers the overload comparison: run at 2x the knee with
the admission gate off (queueing: p99 collapses) and on (BUSY + agent
backoff: p99 bounded, goodput held) — ``benchmarks/test_perf_slo.py``
pins both.
"""

from __future__ import annotations

import random
import time  # wall-clock is reported, never simulated (see detlint ALLOWLIST)
from dataclasses import asdict, dataclass

from repro.agent import AgentConfig
from repro.errors import NfsError
from repro.metrics import LatencyStats
from repro.obs.admission import AdmissionConfig
from repro.testbed import build_scale_cluster

DEFAULT_STEPS = (1, 2, 4, 8, 16)
#: A step whose throughput gain over the previous step is below this
#: fraction marks the knee (ops/s plateau).
KNEE_GAIN = 0.10


@dataclass
class StepResult:
    """One ramp step's outcome."""

    concurrency: int
    attempted: int
    succeeded: int
    failed: int
    ops_per_vs: float       # ops per *virtual* second — the paper-shaped number
    p50_ms: float
    p99_ms: float
    nfs_requests: int       # envelope requests issued (≥ attempted: a user
                            # op fans out into lookups + the data op)
    busy_rejected: int      # envelope-side BUSY answers (gate on)
    busy_retries: int       # agent-side BUSY retries (gate on)
    wall_s: float           # real seconds the step took to simulate


def _closed_loop(cluster, n_clients: int, duration_ms: float,
                 n_files: int, write_fraction: float, payload: bytes,
                 seed: int) -> tuple[LatencyStats, dict]:
    """Run ``n_clients`` closed-loop clients for ``duration_ms`` virtual."""
    kernel = cluster.kernel
    agents = cluster.agents
    stats = LatencyStats()
    counts = {"attempted": 0, "ok": 0, "failed": 0}

    n_servers = len(cluster.servers)

    async def drive():
        setup = agents[0]
        await setup.mount()
        try:
            # replicate the *directories* on every server (§4 tunable
            # replication): otherwise servers without a replica forward
            # every path lookup to the holders, and under overload their
            # clients jam on those internal hops instead of reaching the
            # local admission gate.  File data keeps its default replica
            # level — write cost stays representative.
            await setup.set_params("/", min_replicas=n_servers)
            await setup.mkdir("/", "lt")
            await setup.set_params("/lt", min_replicas=n_servers)
        except NfsError:
            pass
        paths = []
        for i in range(n_files):
            name = f"f{i}"
            try:
                await setup.create("/lt", name)
                await setup.write_file(f"/lt/{name}", payload)
            except NfsError:
                pass
            paths.append(f"/lt/{name}")
        end = kernel.now + duration_ms

        async def client(idx: int) -> None:
            agent = agents[idx]
            rng = random.Random((seed << 8) ^ idx)
            await agent.mount()
            while kernel.now < end:
                path = paths[rng.randrange(len(paths))]
                counts["attempted"] += 1
                t0 = kernel.now
                try:
                    if rng.random() < write_fraction:
                        await agent.write_file(path, payload)
                    else:
                        await agent.read_file(path)
                except NfsError:
                    counts["failed"] += 1
                    continue
                counts["ok"] += 1
                stats.record(kernel.now - t0)

        tasks = [kernel.spawn(client(i), name=f"lt:client:{i}")
                 for i in range(n_clients)]
        await kernel.all_of(tasks)

    cluster.run(drive(), limit=10_000_000.0)
    return stats, counts


def run_step(concurrency: int, n_servers: int = 4,
             duration_ms: float = 1500.0, seed: int = 42,
             n_files: int = 4, write_fraction: float = 0.3,
             payload_bytes: int = 2048,
             admission: AdmissionConfig | None = None,
             agent_config: AgentConfig | None = None) -> StepResult:
    """One ramp step on a fresh cell: ``concurrency`` closed-loop clients."""
    if agent_config is None:
        # no client caching: every op exercises the servers, so the step
        # measures cell capacity rather than agent-memory hit rates.
        # Patient BUSY handling: clients facing an admission gate should
        # wait out backpressure (bounded, staggered backoff) rather than
        # fail fast and hammer with fresh ops — ungated runs never see
        # BUSY, so this only shapes gated steps.
        agent_config = AgentConfig(cache=False, busy_retries=12)
    cluster = build_scale_cluster(n_servers=n_servers, n_agents=concurrency,
                                  seed=seed, agent_config=agent_config,
                                  admission=admission)
    wall0 = time.perf_counter()
    stats, counts = _closed_loop(cluster, concurrency, duration_ms,
                                 n_files, write_fraction,
                                 b"x" * payload_bytes, seed)
    wall = time.perf_counter() - wall0
    result = StepResult(
        concurrency=concurrency,
        attempted=counts["attempted"],
        succeeded=counts["ok"],
        failed=counts["failed"],
        ops_per_vs=counts["ok"] / (duration_ms / 1000.0),
        p50_ms=stats.percentile(50),
        p99_ms=stats.percentile(99),
        nfs_requests=cluster.metrics.get("nfs.requests"),
        busy_rejected=cluster.metrics.get("nfs.busy_rejected"),
        busy_retries=cluster.metrics.get("agent.busy_retries"),
        wall_s=wall,
    )
    cluster.close()
    return result


def find_knee(steps: list[StepResult],
              gain: float = KNEE_GAIN) -> StepResult:
    """The knee: the last step that still bought ``gain`` more ops/s.

    Walking the ramp in order, the first step whose throughput improves
    by less than ``gain`` over its predecessor marks the plateau — the
    predecessor is the knee.  A ramp that never plateaus knees at its
    last step (the cell out-scaled the ramp).
    """
    knee = steps[0]
    for prev, cur in zip(steps, steps[1:]):
        if cur.ops_per_vs < prev.ops_per_vs * (1.0 + gain):
            return prev
        knee = cur
    return knee


def loadtest(n_servers: int = 4, steps: tuple[int, ...] = DEFAULT_STEPS,
             duration_ms: float = 1500.0, seed: int = 42,
             slo_p99_ms: float | None = None,
             admission: AdmissionConfig | None = None,
             n_files: int = 4, write_fraction: float = 0.3,
             payload_bytes: int = 2048,
             agent_config: AgentConfig | None = None) -> dict:
    """Run the full ramp; report per-step numbers, the knee, and SLO fit."""
    results = [run_step(c, n_servers=n_servers, duration_ms=duration_ms,
                        seed=seed, n_files=n_files,
                        write_fraction=write_fraction,
                        payload_bytes=payload_bytes, admission=admission,
                        agent_config=agent_config)
               for c in steps]
    knee = find_knee(results)
    report: dict = {
        "n_servers": n_servers,
        "duration_ms": duration_ms,
        "seed": seed,
        "gated": admission is not None,
        "steps": [asdict(r) for r in results],
        "knee": asdict(knee),
        "slo_p99_ms": slo_p99_ms,
    }
    if slo_p99_ms is not None:
        report["slo_met_through"] = max(
            (r.concurrency for r in results if r.p99_ms <= slo_p99_ms),
            default=None)
    return report


def format_report(report: dict) -> str:
    """Operator-facing ramp table (``repro loadtest``)."""
    slo = report.get("slo_p99_ms")
    lines = [f"saturation ramp — {report['n_servers']} servers, "
             f"{report['duration_ms'] / 1000:.1f}s virtual per step, "
             f"seed {report['seed']}, gate "
             f"{'on' if report['gated'] else 'off'}"]
    header = (f"{'clients':>8} {'ops':>7} {'ok':>7} {'ops/vs':>9} "
              f"{'p50 ms':>8} {'p99 ms':>8} {'busy':>6} {'wall s':>7}")
    if slo is not None:
        header += f"  p99<={slo:g}?"
    lines.append(header)
    knee_c = report["knee"]["concurrency"]
    for row in report["steps"]:
        line = (f"{row['concurrency']:>8} {row['attempted']:>7} "
                f"{row['succeeded']:>7} {row['ops_per_vs']:>9.1f} "
                f"{row['p50_ms']:>8.2f} {row['p99_ms']:>8.2f} "
                f"{row['busy_rejected']:>6} {row['wall_s']:>7.2f}")
        if slo is not None:
            line += f"  {'yes' if row['p99_ms'] <= slo else 'NO'}"
        if row["concurrency"] == knee_c:
            line += "   <- knee"
        lines.append(line)
    lines.append(f"knee: {knee_c} clients at "
                 f"{report['knee']['ops_per_vs']:.1f} ops/virtual-s "
                 f"(p99 {report['knee']['p99_ms']:.2f} ms)")
    return "\n".join(lines)


def overload_comparison(n_servers: int = 4, duration_ms: float = 1500.0,
                        seed: int = 42, steps: tuple[int, ...] = DEFAULT_STEPS,
                        n_files: int = 4, write_fraction: float = 0.3,
                        payload_bytes: int = 2048,
                        rate_margin: float = 1.1,
                        burst: float | None = None) -> dict:
    """Gate-off vs gate-on at 2x the knee (the SLO benchmark's headline).

    First the ungated ramp finds the knee; then the cell is driven at
    twice the knee concurrency, once ungated (queueing) and once with a
    per-server token bucket admitting ``rate_margin`` times the knee
    throughput (split evenly across servers — the gate charges one
    token per *data* op, so knee ops/s is the right calibration unit).
    Graceful degradation means the gated run's p99 stays near the
    knee's while its goodput stays within ~10% of the ungated peak.
    """
    ramp = loadtest(n_servers=n_servers, steps=steps,
                    duration_ms=duration_ms, seed=seed, n_files=n_files,
                    write_fraction=write_fraction,
                    payload_bytes=payload_bytes)
    knee = ramp["knee"]
    overload = 2 * knee["concurrency"]
    common = dict(n_servers=n_servers, duration_ms=duration_ms, seed=seed,
                  n_files=n_files, write_fraction=write_fraction,
                  payload_bytes=payload_bytes)
    ungated = run_step(overload, **common)
    rate_per_ms = (knee["ops_per_vs"] / 1000.0) * rate_margin / n_servers
    gate = AdmissionConfig(rate_per_ms=rate_per_ms,
                           burst=burst if burst is not None else
                           max(8.0, 100.0 * rate_per_ms))
    gated = run_step(overload, admission=gate, **common)
    peak = max(s["ops_per_vs"] for s in ramp["steps"])
    return {
        "ramp": ramp,
        "overload_concurrency": overload,
        "gate": {"rate_per_ms": rate_per_ms, "burst": gate.burst},
        "ungated": asdict(ungated),
        "gated": asdict(gated),
        "peak_ops_per_vs": peak,
        # goodput under the *same* 2x-knee offered load, gate on vs off:
        # the gate should shed latency, not throughput
        "goodput_ratio": (gated.ops_per_vs / ungated.ops_per_vs
                          if ungated.ops_per_vs else 0.0),
        "p99_ratio": (gated.p99_ms / ungated.p99_ms
                      if ungated.p99_ms else 0.0),
        # gated overload p99 relative to the knee's own p99 — "bounded"
        # means this stays near 1 while the ungated run's multiple grows
        "gated_p99_vs_knee": (gated.p99_ms / knee["p99_ms"]
                              if knee["p99_ms"] else 0.0),
    }
