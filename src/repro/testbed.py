"""Cluster harness: assemble simulated Deceit deployments in one call.

Used by the examples, the test suite, and every benchmark.  Two levels:

- :func:`build_core_cluster` — segment servers only (the §5.1 layer), for
  protocol-level experiments;
- :func:`build_cluster` — full Deceit servers (segment server + NFS
  envelope) plus client agents, for end-to-end scenarios.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass, field

from repro.agent import Agent, AgentConfig
from repro.core import SegmentServer
from repro.isis import IsisProcess
from repro.metrics import Metrics
from repro.net import LanWanLatency, NetConfig, Network, UniformLatency
from repro.nfs import DeceitServer, FileHandle
from repro.sim import Kernel
from repro.storage import Disk, StorageBackend, make_backend


@dataclass
class CoreCluster:
    """A kernel + network + N segment servers, ready for protocol work."""

    kernel: Kernel
    network: Network
    metrics: Metrics
    procs: list[IsisProcess]
    servers: list[SegmentServer]
    disks: list[Disk]

    def run(self, awaitable, limit: float = 300_000.0):
        """Drive the simulation until ``awaitable`` resolves."""
        return self.kernel.run_until_complete(awaitable, limit=limit)

    def settle(self, ms: float = 500.0) -> None:
        """Let background work (timers, audits, FD) run for ``ms``."""
        self.kernel.run(until=self.kernel.now + ms)

    def crash(self, index: int) -> None:
        """Fail-stop server ``index`` (volatile state lost, disk kept)."""
        self.servers[index].crash()

    def recover(self, index: int):
        """Restart server ``index`` and run its recovery protocol."""
        return self.servers[index].restart()

    def partition(self, *groups: set[int]) -> None:
        """Partition by server index, e.g. ``partition({0, 1}, {2})``."""
        self.network.partition([{f"s{i}" for i in group} for group in groups])

    def heal(self) -> None:
        """Remove the partition."""
        self.network.heal()

    def close(self) -> None:
        """End the simulation: drop queued events, close un-run tasks."""
        self.kernel.shutdown()


def build_core_cluster(
    n_servers: int = 3,
    seed: int = 0,
    drop_probability: float = 0.0,
    fd_timeout_ms: float = 200.0,
    net_config: NetConfig | None = None,
) -> CoreCluster:
    """Stand up ``n_servers`` segment servers named ``s0`` … ``s{n-1}``.

    Every server joins the cell-wide conflict group at boot (scheduled; run
    the kernel briefly or await your first operation before relying on it).
    ``net_config`` tunes network accounting (e.g.
    ``NetConfig(tag_metrics=True)`` for per-tag message breakdowns).
    """
    kernel = Kernel()
    metrics = Metrics()
    network = Network(kernel, latency=UniformLatency(1.0, 3.0),
                      drop_probability=drop_probability, seed=seed,
                      metrics=metrics, config=net_config)
    addrs = [f"s{i}" for i in range(n_servers)]
    procs: list[IsisProcess] = []
    servers: list[SegmentServer] = []
    disks: list[Disk] = []
    for rank, addr in enumerate(addrs):
        proc = IsisProcess(network, addr, cell_peers=addrs,
                           fd_timeout_ms=fd_timeout_ms)
        disk = Disk(kernel, name=f"{addr}.disk", metrics=metrics)
        server = SegmentServer(proc, disk, rank, metrics=metrics)
        proc.set_cell_peers(addrs)
        proc.start()
        procs.append(proc)
        servers.append(server)
        disks.append(disk)
    for server in servers:
        kernel.spawn(server.join_conflict_group())
        server.start_merge_audit()
    return CoreCluster(kernel=kernel, network=network, metrics=metrics,
                       procs=procs, servers=servers, disks=disks)


@dataclass
class Cluster:
    """A full Deceit deployment: servers + client agents + bootstrapped FS."""

    kernel: Kernel
    network: Network
    metrics: Metrics
    servers: list[DeceitServer]
    agents: list[Agent]
    root: FileHandle
    build_args: dict = field(default_factory=dict)
    incarnation: int = 0
    killed: bool = False
    det_guard: object | None = None
    ysan: object | None = None
    tracer: object | None = None
    sampler: object | None = None

    def run(self, awaitable, limit: float = 600_000.0):
        """Drive the simulation until ``awaitable`` resolves."""
        return self.kernel.run_until_complete(awaitable, limit=limit)

    def settle(self, ms: float = 500.0) -> None:
        """Let background work (timers, audits, FD, merges) proceed."""
        self.kernel.run(until=self.kernel.now + ms)

    def crash(self, index: int) -> None:
        """Fail-stop server ``index``."""
        self.servers[index].crash()

    def recover(self, index: int):
        """Restart server ``index``; returns the recovery task."""
        return self.servers[index].recover()

    def partition(self, *groups: set[int], agents_with: int = 0) -> None:
        """Partition servers by index; agents ride with group ``agents_with``."""
        sets = [{self.servers[i].addr for i in group} for group in groups]
        sets[agents_with] |= {agent.addr for agent in self.agents}
        self.network.partition(sets)

    def heal(self) -> None:
        """Remove the partition."""
        self.network.heal()

    async def drain_agents(self) -> None:
        """Benchmark barrier: agents write through, so this has nothing to do."""

    def scrape_health(self, timeout_ms: float = 200.0) -> list[dict]:
        """Scrape every server's ``health`` RPC (see
        :mod:`repro.obs.health`); advances virtual time to do it.  Dead
        servers come back as ``ERR_UNREACHABLE`` rows, surviving peers'
        rows carry their last-known suspicion state.  From inside an
        async workload, ``await scrape_cell(cluster)`` directly instead.
        """
        from repro.obs.health import scrape_cell
        return self.kernel.run_until_complete(
            scrape_cell(self, timeout_ms=timeout_ms), limit=600_000.0)

    def close(self) -> None:
        """End the simulation: drop queued events, close un-run tasks."""
        self.kernel.shutdown()
        for server in self.servers:
            server.disk.close()
        if self.det_guard is not None:
            from repro.analysis import guard as _guard
            _guard.release(self.det_guard)
            self.det_guard = None
        # a closed cell is cyclic garbage: without a full pass here it
        # stays resident until generation 2 next happens to run, and a
        # harness that builds cell after cell measures GC phase, not the
        # cells, as its peak RSS
        gc.collect()

    # ------------------------------------------------------------------ #
    # whole-cell kill / cold restart
    # ------------------------------------------------------------------ #

    def kill(self) -> None:
        """``kill -9`` the whole cell mid-flight.

        The kernel dies where it stands — queued events, open group-commit
        windows, unflushed write-behind buffers, and every other volatile
        structure are lost.  Only the storage backends survive, holding
        exactly what the last completed commit made durable, the way a
        machine-room power cut would leave them.
        """
        if self.killed:
            return
        self.killed = True
        self.kernel.shutdown()
        for server in self.servers:
            server.disk.close()

    def restart(self, settle_ms: float = 2000.0,
                reconcile: bool = True) -> "Cluster":
        """Whole-cell cold restart from durable state (§3.6 total failure).

        Kills whatever is left of the old incarnation, reopens every
        storage backend (replaying journals), rebuilds a fresh kernel /
        network / cell over them with bootstrap skipped, cold-starts every
        server from its own disk, and — unless ``reconcile=False`` — drives
        the recovery merge so divergent majors reconcile before control
        returns.  Mutates this Cluster in place (fresh agents included) and
        returns it, so ``cluster.kill(); cluster.restart()`` reads like the
        operational procedure it models.  Only single-cell clusters built
        by :func:`build_cluster` can restart (``build_cells`` cells share
        one kernel).
        """
        if not self.build_args:
            raise RuntimeError("restart() needs a build_cluster()-built cell")
        if not self.killed:
            self.kill()
        self.incarnation += 1
        backends = [server.disk.backend.reopen() for server in self.servers]
        fresh = _incarnate(self.build_args, self.metrics, self.incarnation,
                           backends, bootstrap=False)
        self.kernel, self.network = fresh.kernel, fresh.network
        self.servers, self.agents = fresh.servers, fresh.agents
        self.root = fresh.root
        self.killed = False
        self._arm()
        if reconcile:
            self.reconcile(settle_ms=settle_ms)
        return self

    def _arm(self) -> None:
        """Attach every instrument the cell was built with to the current
        kernel and servers: once at build, again after each
        :meth:`restart` — the instruments outlive an incarnation, the
        kernel and servers they hook do not.  (Schedule perturbation is the
        exception: it has to be in force before bootstrap runs, so
        :func:`_incarnate` seeds it where the kernel is made.)
        """
        kernel = self.kernel
        if self.det_guard is not None:
            kernel.set_det_guard(self.det_guard)
        if self.tracer is not None:
            # spans keep accumulating across incarnations (trace ids are
            # cell-lifetime unique; the new kernel's clock restarts at 0)
            kernel.set_tracer(self.tracer)
        if self.sampler is not None:
            self.sampler.attach(kernel)
        admission = self.build_args["admission"]
        if admission is not None:
            from repro.obs.admission import AdmissionGate
            for server in self.servers:
                server.set_admission(AdmissionGate(kernel, admission,
                                                   self.metrics))
        if self.ysan is not None:
            from repro.analysis.ysan import arm_cluster
            kernel.set_ysan(self.ysan)
            arm_cluster(self.ysan, self.servers)

    def reconcile(self, settle_ms: float = 2000.0) -> None:
        """Drive every server's recovery merge to completion.

        Deterministic address order: for each file group, the instances
        whose coordinator address is larger dissolve into the smallest
        one, so a single pass per server converges the cell.  A settle
        window afterwards lets the spawned replica repairs land.
        """
        async def _merge():
            for server in self.servers:
                await server.segments.recovery.merge_after_heal()
        self.kernel.run_until_complete(_merge(), limit=600_000.0)
        self.settle(settle_ms)


def build_cluster(
    n_servers: int = 3,
    n_agents: int = 1,
    seed: int = 0,
    agent_config: AgentConfig | None = None,
    fd_timeout_ms: float = 200.0,
    net_config: NetConfig | None = None,
    fd_interval_ms: float = 50.0,
    merge_audit_interval_ms: float | None = None,
    scatter_agents: bool = False,
    backend: str = "memory",
    storage_dir: str | None = None,
    backends: list[StorageBackend] | None = None,
    det_guard: bool = False,
    ysan: bool = False,
    perturb_seed: int | None = None,
    tracing: bool = False,
    sampler_period_ms: float | None = None,
    admission=None,
) -> Cluster:
    """Stand up a full Deceit cell with a bootstrapped namespace.

    Servers are ``s0`` …; agents are ``c0`` …, all mounted on server 0
    initially (failover takes them elsewhere when enabled) unless
    ``scatter_agents`` spreads the mounts ring-style (agent *i* mounts
    server ``i mod n`` — the large-cell default, where a single mount point
    would be a hotspot).

    ``backend`` selects each server's durable store: ``"memory"`` (the
    default — state survives :meth:`Cluster.restart` but not the process),
    ``"journal"`` (append-only fsync'd log file, replayed on open), or
    ``"sqlite"``.  File-backed kinds need ``storage_dir``; each server gets
    ``<storage_dir>/<addr>.<ext>``.  Pre-built ``backends`` (one per
    server, e.g. reopened from a previous incarnation) override both.

    ``det_guard=True`` arms the runtime determinism tripwire
    (:mod:`repro.analysis.guard`): while the kernel dispatches events,
    reading the host clock or the process-global RNG raises
    :class:`~repro.analysis.guard.DeterminismError` at the offending call
    site.  Released by :meth:`Cluster.close`.

    ``ysan=True`` arms the yield sanitizer (:mod:`repro.analysis.ysan`):
    every server's token table, replica records, and catalogs are wrapped
    in tracked containers, and check-then-act races across yield points
    are recorded on ``cluster.ysan``.  ``perturb_seed`` additionally arms
    seeded schedule perturbation (``Kernel.set_perturbation``): a
    dedicated RNG shuffles same-timestamp zero-delay tie-breaking, so the
    run explores a different but reproducible interleaving (each
    :meth:`Cluster.restart` incarnation re-seeds it as
    ``random.Random(perturb_seed)``).  Both are off by default and cost
    nothing when off.

    The observability plane (:mod:`repro.obs`) arms the same way:
    ``tracing=True`` attaches a request :class:`~repro.obs.tracer.Tracer`
    on ``cluster.tracer`` (spans recorded per NFS op across agent / rpc /
    pipeline / disk / net); ``sampler_period_ms`` attaches a
    :class:`~repro.obs.sampler.MetricsSampler` on ``cluster.sampler``
    snapshotting the counters every that-many virtual ms; ``admission``
    (an :class:`~repro.obs.admission.AdmissionConfig`) installs a
    per-server token-bucket gate at the NFS envelope.  All three are off
    by default at one ``is None`` test per hook, and — like the guard and
    the sanitizer — are re-armed on the new kernel by
    :meth:`Cluster.restart`.
    """
    if backends is None and backend != "memory":
        if storage_dir is None:
            raise ValueError(f"backend={backend!r} needs storage_dir=")
        import os
        os.makedirs(storage_dir, exist_ok=True)
        ext = {"journal": "journal", "sqlite": "db"}[backend]
        backends = [
            make_backend(backend,
                         path=os.path.join(storage_dir, f"s{i}.{ext}"))
            for i in range(n_servers)
        ]
    build_args = dict(
        seed=seed, net_config=net_config,
        perturb_seed=perturb_seed, admission=admission,
        cell=dict(n_servers=n_servers, n_agents=n_agents,
                  agent_config=agent_config, fd_timeout_ms=fd_timeout_ms,
                  fd_interval_ms=fd_interval_ms,
                  merge_audit_interval_ms=merge_audit_interval_ms,
                  scatter_agents=scatter_agents))
    cluster = _incarnate(build_args, Metrics(), 0, backends, bootstrap=True)
    cluster.build_args = build_args
    if tracing:
        from repro.obs.tracer import Tracer
        cluster.tracer = Tracer()
    if sampler_period_ms is not None:
        from repro.obs.sampler import MetricsSampler
        cluster.sampler = MetricsSampler(cluster.metrics,
                                         period_ms=sampler_period_ms)
    if det_guard:
        from repro.analysis import guard as _guard
        cluster.det_guard = _guard.acquire()
    if ysan:
        from repro.analysis.ysan import YieldSanitizer
        cluster.ysan = YieldSanitizer()
    cluster._arm()
    return cluster


def build_scale_cluster(
    n_servers: int,
    n_agents: int,
    fd_interval_ms: float | None = None,
    merge_audit_interval_ms: float | None = None,
    **kwargs,
) -> Cluster:
    """A large-cell profile of :func:`build_cluster` for O(100)-server runs.

    Differences from the default builder, all motivated by what a real
    large deployment does:

    - agents mount ring-scattered (agent *i* → server ``i mod n``), so
      files they create are token-held and initially placed around the
      whole ring instead of piling onto server 0;
    - the failure-detector period stretches with cell size
      (``max(50 ms, n × 4 ms)`` by default): no 100-server production
      system pings at 20 Hz, and while an alarm runs the detector is the
      all-pairs mesh (calm, it pings ring neighbours only — see
      :mod:`repro.isis.failure_detector`); suspicion latency scales
      accordingly (timeout stays 4× the interval);
    - the periodic merge audit stretches the same way
      (``max(2 s, n × 250 ms)``): each tick asks every peer which of the
      hosted groups it shares, and partition heals are caught immediately
      by the failure detector anyway — the audit is a backstop for silent
      evictions, not the primary heal path;
    - per-tag message counters stay off (the default) so ``transmit()``
      never builds key strings.

    Every other keyword is :func:`build_cluster`'s and is forwarded as is.
    """
    if fd_interval_ms is None:
        fd_interval_ms = max(50.0, n_servers * 4.0)
    if merge_audit_interval_ms is None:
        merge_audit_interval_ms = max(2000.0, n_servers * 250.0)
    return build_cluster(
        n_servers=n_servers, n_agents=n_agents,
        fd_interval_ms=fd_interval_ms, fd_timeout_ms=4 * fd_interval_ms,
        merge_audit_interval_ms=merge_audit_interval_ms,
        scatter_agents=True, **kwargs)


def _incarnate(build_args: dict, metrics: Metrics, incarnation: int,
               backends: list[StorageBackend] | None,
               bootstrap: bool) -> Cluster:
    """One incarnation of a :func:`build_cluster` cell: a fresh kernel and
    network with the cell built (``bootstrap``) or cold-started over
    ``backends``.  The network stream is re-seeded per incarnation."""
    kernel = Kernel()
    if build_args["perturb_seed"] is not None:
        kernel.set_perturbation(random.Random(build_args["perturb_seed"]))
    network = Network(
        kernel, latency=UniformLatency(1.0, 3.0),
        seed=build_args["seed"] + 7919 * incarnation, metrics=metrics,
        config=build_args["net_config"])
    return _build_cell(kernel, network, metrics, **build_args["cell"],
                       backends=backends, bootstrap=bootstrap)


def _build_cell(kernel, network, metrics, n_servers, n_agents,
                agent_config, fd_timeout_ms, cell="", fd_interval_ms=50.0,
                merge_audit_interval_ms=None,
                scatter_agents=False, backends=None,
                bootstrap=True) -> Cluster:
    prefix = f"{cell}." if cell else ""
    addrs = [f"{prefix}s{i}" for i in range(n_servers)]
    servers = [
        DeceitServer(network, addr, cell_peers=addrs, rank=rank,
                     metrics=metrics, fd_timeout_ms=fd_timeout_ms,
                     fd_interval_ms=fd_interval_ms,
                     merge_audit_interval_ms=merge_audit_interval_ms,
                     backend=backends[rank] if backends else None)
        for rank, addr in enumerate(addrs)
    ]
    for server in servers:
        server.proc.set_cell_peers(addrs)
        server.start()
    if bootstrap:
        root = kernel.run_until_complete(servers[0].bootstrap_namespace(),
                                         limit=120_000.0)
        for server in servers[1:]:
            server.set_root(root)
    else:
        # cold restart: every server rebuilds from its own disk alone
        for server in servers:
            server.cold_start()
        root = servers[0].envelope.root_fh
        if root is None:
            raise RuntimeError(
                "cold start found no durable root handle on server 0")
    agents = [
        Agent(network, f"{prefix}c{i}", servers=addrs, config=agent_config)
        for i in range(n_agents)
    ]
    if scatter_agents:
        for i, agent in enumerate(agents):
            agent.current = i % n_servers
    return Cluster(kernel=kernel, network=network, metrics=metrics,
                   servers=servers, agents=agents, root=root)


def build_cells(
    cells: dict[str, int],
    n_agents_per_cell: int = 1,
    seed: int = 0,
    agent_config: AgentConfig | None = None,
) -> dict[str, Cluster]:
    """Multiple independent cells on one wide-area network (§2.2, Figure 3).

    ``cells`` maps cell name → server count.  Intra-cell traffic pays LAN
    latency, inter-cell traffic pays WAN latency.  Each cell is a fully
    independent Deceit instantiation with its own namespace; access between
    cells goes through ``/priv/global/<machine>``.
    """
    kernel = Kernel()
    metrics = Metrics()
    network = Network(kernel, latency=LanWanLatency(), seed=seed,
                      metrics=metrics)
    out: dict[str, Cluster] = {}
    for name, count in cells.items():
        out[name] = _build_cell(kernel, network, metrics, count,
                                n_agents_per_cell, agent_config, 200.0, name)
    return out
