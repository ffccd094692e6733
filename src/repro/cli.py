"""Console entry point (``repro`` on the CLI).

Subcommands:

- ``repro`` / ``repro quickstart`` — the tour.  Mirrors
  ``examples/quickstart.py``: a three-server Deceit cell that creates a
  file, tunes its per-file semantics (§4), crashes the connected server,
  and keeps working through client failover.
- ``repro profile`` — the perf-work loop.  Runs a named workload
  (``hotspot`` / ``baseline`` / ``streaming``) on a scale-profile cell
  under :mod:`cProfile` and prints the top hotspots, so "what is the
  simulator spending its time on at N servers?" is one command instead
  of a scratch script.
- ``repro restart-bench`` — one cold-restart cycle at a chosen size and
  backend: populate, ``kill -9`` the cell, restart from the storage
  backends alone, and print where the restart wall clock went.  The
  quick interactive face of ``benchmarks/test_perf_restart.py``.
- ``repro detlint`` — the determinism-contract linter
  (:mod:`repro.analysis.detlint`): flags host-clock reads, global RNG
  use, OS entropy, id()-ordering, and unordered dict/set iteration
  that feeds scheduling, in sim-domain sources.  Exits non-zero on any
  unsuppressed violation, so it gates in CI.
- ``repro detcheck`` — run a seeded workload twice with a witness hash
  chain attached and compare (:mod:`repro.analysis.detcheck`); on
  divergence, binary-search the checkpoints and name the first
  divergent event.  ``--inject-fault`` plants a controlled divergence
  to demo/exercise the bisector.
- ``repro racelint`` — the atomicity-contract linter
  (:mod:`repro.analysis.racelint`): flags unguarded lock acquires,
  stale reads across awaits, leaked waiter futures, and shared-state
  mutation from non-task callbacks.  Exits non-zero on any
  unsuppressed violation, so it gates in CI.
- ``repro racecheck`` — run N seeded schedule perturbations of a
  workload with the yield sanitizer armed
  (:mod:`repro.analysis.racecheck`): same-timestamp tie-breaking is
  shuffled by a dedicated RNG, check-then-act races are reported with
  both tasks and event positions, and any hit replays exactly from
  ``(seed, perturb_seed)``.
- ``repro loadtest`` — the saturation/SLO harness
  (:mod:`repro.obs.loadtest`): ramp closed-loop client concurrency
  stepwise over fresh same-seed cells, print per-step throughput and
  latency percentiles, and mark the knee where throughput plateaus.
  ``--gate-rate`` arms the per-server admission token bucket so the
  gated/ungated overload comparison is one flag away.
- ``repro trace`` — run a seeded workload with request tracing armed
  (:mod:`repro.obs.tracer`) and print waterfall renderings of the
  slowest end-to-end requests: agent envelope → RPC service → pipeline
  → disk commit → network hops, all in virtual time.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import time

from repro.testbed import build_cluster, build_scale_cluster
from repro.workloads import NAMED_WORKLOADS, named_ops, replay


def quickstart() -> bytes:
    """The demo scenario; returns the bytes read back after the crash."""
    cluster = build_cluster(n_servers=3, n_agents=1)
    agent = cluster.agents[0]

    async def demo():
        await agent.mount()
        print(f"mounted root {agent.root_fh} via {agent.server}")

        # ordinary NFS operations — no client modification needed
        await agent.mkdir("/", "home")
        await agent.create("/home", "notes.txt")
        await agent.write_file("/home/notes.txt", b"Deceit quickstart\n")
        print("wrote /home/notes.txt:", await agent.read_file("/home/notes.txt"))

        # the Deceit extras: per-file semantic parameters (§4)
        params = await agent.set_params("/home/notes.txt",
                                        min_replicas=3, write_safety=2)
        print("tuned params:", params)
        located = await agent.locate("/home/notes.txt")
        print(f"replicas now on {located['holders']}, "
              f"token at {located['token_holder']}")

        # kill the server the client is talking to — and keep going
        victim = agent.server
        cluster.crash([s.addr for s in cluster.servers].index(victim))
        print(f"crashed {victim}; client fails over transparently...")
        # wait out the agent's cache TTL so the read really goes remote
        await cluster.kernel.sleep(3500.0)

        data = await agent.read_file("/home/notes.txt")
        print(f"read after crash via {agent.server}: {data!r}")
        assert agent.server != victim
        return data

    result = cluster.run(demo())
    print(f"\nvirtual time elapsed: {cluster.kernel.now:.1f} ms")
    print(f"network messages: {cluster.metrics.get('net.msgs')}")
    cluster.close()  # drop queued events and never-started tasks cleanly
    return result


def profile(workload: str = "hotspot", n_servers: int = 16,
            n_agents: int = 8, duration_ms: float = 5_000.0, seed: int = 42,
            top: int = 20, sort: str = "cumulative") -> pstats.Stats:
    """Profile one seeded workload replay; print the ``top`` hotspots.

    The workload is generated up front and the cell is built *outside*
    the profiled region, so the numbers are the steady-state simulation
    cost — the thing the kernel/network fast paths optimize — not
    cluster construction.
    """
    ops = named_ops(workload, n_agents, duration_ms, seed)
    cluster = build_scale_cluster(n_servers=n_servers, n_agents=n_agents,
                                  seed=seed)
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    stats = cluster.run(replay(cluster, ops), limit=10_000_000.0)
    profiler.disable()
    wall = time.perf_counter() - t0
    events = cluster.kernel.events_processed
    print(f"{workload} workload on {n_servers} servers / {n_agents} agents: "
          f"{stats.attempted} ops ({stats.succeeded} ok) in {wall:.2f}s wall "
          f"— {stats.attempted / wall:.0f} ops/s, "
          f"{events / wall:,.0f} events/s, "
          f"p50 {stats.latency.percentile(50):.1f} ms virtual")
    ps = pstats.Stats(profiler)
    ps.sort_stats(sort).print_stats(top)
    cluster.close()
    return ps


def restart_bench(backend: str = "journal", segments: int = 10_000,
                  storage_dir: str | None = None) -> dict:
    """One populate → kill -9 → cold-restart cycle; print the timings."""
    import pathlib
    import tempfile

    from repro.restartbench import restart_cycle

    root = pathlib.Path(storage_dir or tempfile.mkdtemp(prefix="deceit-"))
    r = restart_cycle(backend, root, segments)
    rep = r["replay"]
    print(f"{backend} backend, {segments} segments on 4 servers:")
    print(f"  populate          {r['populate_s']:8.2f} s")
    print(f"  restart (replay + cold start) {r['restart_s']:8.3f} s")
    print(f"  first mount+read  {r['first_read_s']:8.3f} s")
    print(f"  restart-to-serving {r['to_serving_s']:7.3f} s "
          f"({r['us_per_segment']:.1f} us/segment)")
    if rep["records"]:
        print(f"  journal replay    {rep['records'] / rep['wall_s']:,.0f} "
              f"records/s, {rep['bytes'] / rep['wall_s'] / 1e6:.1f} MB/s")
    print(f"  file groups resurrected: {r['resurrected']}")
    return r


def loadtest_cmd(n_servers: int = 4, steps: tuple[int, ...] | None = None,
                 duration_ms: float = 1500.0, seed: int = 42,
                 write_fraction: float = 0.3, slo_p99_ms: float | None = None,
                 gate_rate: float | None = None,
                 gate_burst: float = 32.0) -> dict:
    """Run the saturation ramp and print the operator table."""
    from repro.obs.admission import AdmissionConfig
    from repro.obs.loadtest import DEFAULT_STEPS, format_report, loadtest

    admission = (AdmissionConfig(rate_per_ms=gate_rate, burst=gate_burst)
                 if gate_rate is not None else None)
    report = loadtest(n_servers=n_servers,
                      steps=tuple(steps) if steps else DEFAULT_STEPS,
                      duration_ms=duration_ms, seed=seed,
                      write_fraction=write_fraction, slo_p99_ms=slo_p99_ms,
                      admission=admission)
    print(format_report(report))
    return report


def trace_cmd(workload: str = "hotspot", n_servers: int = 4,
              n_agents: int = 4, duration_ms: float = 1_000.0,
              seed: int = 42, slowest: int = 5) -> None:
    """Run a traced seeded workload; print the slowest-request waterfalls."""
    ops = named_ops(workload, n_agents, duration_ms, seed)
    cluster = build_scale_cluster(n_servers=n_servers, n_agents=n_agents,
                                  seed=seed, tracing=True)
    stats = cluster.run(replay(cluster, ops), limit=10_000_000.0)
    print(f"{workload} workload on {n_servers} servers / {n_agents} agents: "
          f"{stats.attempted} ops ({stats.succeeded} ok), "
          f"{cluster.kernel.now:.0f} ms virtual\n")
    assert cluster.tracer is not None
    print(cluster.tracer.report(slowest))
    cluster.close()


def _workload_flags(sub: argparse.ArgumentParser, workload: str, servers: int,
                    agents: int, duration_ms: float) -> None:
    """The five flags every seeded-workload subcommand takes."""
    sub.add_argument("--workload", default=workload,
                     choices=list(NAMED_WORKLOADS),
                     help=f"named workload mix (default: {workload})")
    sub.add_argument("--servers", type=int, default=servers,
                     help=f"cell size (default: {servers})")
    sub.add_argument("--agents", type=int, default=agents,
                     help=f"client agents (default: {agents})")
    sub.add_argument("--duration-ms", type=float, default=duration_ms,
                     help=f"virtual workload duration (default: {duration_ms:g})")
    sub.add_argument("--seed", type=int, default=42)


def main(argv: list[str] | None = None) -> None:
    """``repro`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Deceit reproduction: demos and tooling.")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("quickstart", help="run the guided tour (the default)")
    prof = sub.add_parser(
        "profile", help="cProfile a seeded workload on a scale-profile cell")
    _workload_flags(prof, "hotspot", 16, 8, 5_000.0)
    prof.add_argument("--top", type=int, default=20,
                      help="hotspot rows to print (default: 20)")
    prof.add_argument("--sort", default="cumulative",
                      choices=["cumulative", "tottime", "ncalls"],
                      help="pstats sort key (default: cumulative)")
    rb = sub.add_parser(
        "restart-bench",
        help="time one kill -9 / cold-restart cycle of a populated cell")
    rb.add_argument("--backend", default="journal",
                    choices=["memory", "journal", "sqlite"],
                    help="storage backend (default: journal)")
    rb.add_argument("--segments", type=int, default=10_000,
                    help="segments to populate cell-wide (default: 10000)")
    rb.add_argument("--storage-dir", default=None,
                    help="where backend files go (default: a temp dir)")
    dl = sub.add_parser(
        "detlint",
        help="lint sim-domain sources against the determinism contract")
    dl.add_argument("paths", nargs="*", default=["src"],
                    help="files or directories to lint (default: src)")
    dl.add_argument("--list-rules", action="store_true",
                    help="print the rule catalog and exit")
    dc = sub.add_parser(
        "detcheck",
        help="run a seeded workload twice and bisect any divergence")
    _workload_flags(dc, "hotspot", 16, 8, 2_000.0)
    dc.add_argument("--checkpoint-interval", type=int, default=1024,
                    help="events per witness checkpoint (default: 1024)")
    dc.add_argument("--inject-fault", type=int, default=None, metavar="N",
                    help="steal one RNG draw before event N in run 2 "
                         "(a controlled divergence, to exercise the "
                         "bisector)")
    rl = sub.add_parser(
        "racelint",
        help="lint sim-domain sources against the atomicity contract")
    rl.add_argument("paths", nargs="*", default=["src"],
                    help="files or directories to lint (default: src)")
    rl.add_argument("--list-rules", action="store_true",
                    help="print the rule catalog and exit")
    rc = sub.add_parser(
        "racecheck",
        help="run N perturbed schedules with the yield sanitizer armed")
    _workload_flags(rc, "zipf", 16, 8, 2_000.0)
    rc.add_argument("--schedules", type=int, default=8,
                    help="perturbed schedules to run (default: 8)")
    lt = sub.add_parser(
        "loadtest",
        help="ramp client concurrency to saturation; report the knee")
    lt.add_argument("--servers", type=int, default=4,
                    help="cell size (default: 4)")
    lt.add_argument("--steps", default=None,
                    help="comma-separated concurrency ramp "
                         "(default: 1,2,4,8,16)")
    lt.add_argument("--duration-ms", type=float, default=1500.0,
                    help="virtual duration per step (default: 1500)")
    lt.add_argument("--seed", type=int, default=42)
    lt.add_argument("--write-fraction", type=float, default=0.3,
                    help="fraction of ops that are writes (default: 0.3)")
    lt.add_argument("--slo-p99-ms", type=float, default=None,
                    help="per-op p99 SLO to check each step against")
    lt.add_argument("--gate-rate", type=float, default=None, metavar="OPS_MS",
                    help="arm per-server admission at this ops/ms rate")
    lt.add_argument("--gate-burst", type=float, default=32.0,
                    help="admission token-bucket burst (default: 32)")
    tr = sub.add_parser(
        "trace",
        help="run a traced workload; print the slowest request waterfalls")
    _workload_flags(tr, "hotspot", 4, 4, 1_000.0)
    tr.add_argument("--slowest", type=int, default=5,
                    help="traces to render (default: 5)")
    args = parser.parse_args(argv)
    if args.command == "detlint":
        from repro.analysis import detlint
        lint_args = list(args.paths or ["src"])
        if args.list_rules:
            lint_args.append("--list-rules")
        raise SystemExit(detlint.main(lint_args))
    if args.command == "detcheck":
        from repro.analysis.detcheck import detcheck, format_report
        report = detcheck(workload=args.workload, n_servers=args.servers,
                          n_agents=args.agents, duration_ms=args.duration_ms,
                          seed=args.seed,
                          checkpoint_interval=args.checkpoint_interval,
                          inject_fault_at=args.inject_fault)
        print(format_report(report))
        raise SystemExit(0 if report["identical"] else 1)
    if args.command == "racelint":
        from repro.analysis import racelint
        lint_args = list(args.paths or ["src"])
        if args.list_rules:
            lint_args.append("--list-rules")
        raise SystemExit(racelint.main(lint_args))
    if args.command == "racecheck":
        from repro.analysis.racecheck import format_report as format_races
        from repro.analysis.racecheck import racecheck
        report = racecheck(workload=args.workload, n_servers=args.servers,
                           n_agents=args.agents,
                           duration_ms=args.duration_ms, seed=args.seed,
                           schedules=args.schedules)
        print(format_races(report))
        raise SystemExit(0 if report["clean"] else 1)
    if args.command == "loadtest":
        steps = (tuple(int(s) for s in args.steps.split(","))
                 if args.steps else None)
        loadtest_cmd(n_servers=args.servers, steps=steps,
                     duration_ms=args.duration_ms, seed=args.seed,
                     write_fraction=args.write_fraction,
                     slo_p99_ms=args.slo_p99_ms, gate_rate=args.gate_rate,
                     gate_burst=args.gate_burst)
        return
    if args.command == "trace":
        trace_cmd(workload=args.workload, n_servers=args.servers,
                  n_agents=args.agents, duration_ms=args.duration_ms,
                  seed=args.seed, slowest=args.slowest)
        return
    if args.command == "restart-bench":
        restart_bench(backend=args.backend, segments=args.segments,
                      storage_dir=args.storage_dir)
        return
    if args.command == "profile":
        profile(workload=args.workload, n_servers=args.servers,
                n_agents=args.agents, duration_ms=args.duration_ms,
                seed=args.seed, top=args.top, sort=args.sort)
        return
    data = quickstart()
    assert data == b"Deceit quickstart\n"
    print("quickstart OK")


if __name__ == "__main__":
    main()
