"""The observability plane: tracing, health scraping, admission, loadtest.

Covers the ops control plane end to end:

- span propagation agent → rpc → pipeline → disk → net within one trace
  id, across RPC boundaries and task spawns;
- zero-perturbation arming: a traced (and sampled) same-seed run produces
  *identical* simulation outcomes to an unarmed one — the hooks observe,
  they never steer;
- the ``health`` admin RPC and ``scrape_cell``, including crashed-server
  rows (``ERR_UNREACHABLE``) and survivors' suspicion state, through the
  whole-cell kill/restart matrix;
- the admission token bucket: BUSY at the envelope, agent backoff/retry,
  eventual ERR_BUSY surfacing when patience runs out;
- the saturation ramp: a 4-server ramp finds a knee (tier-1 smoke).
"""

import pytest

from repro.agent import AgentConfig
from repro.errors import NfsError, NfsStat
from repro.isis.failure_detector import RING_NEIGHBOURS
from repro.obs import AdmissionConfig, AdmissionGate, ERR_UNREACHABLE, Tracer
from repro.sim import Kernel
from repro.testbed import build_cluster
from tests.conftest import record_nfs


# --------------------------------------------------------------------- #
# tracer unit behavior
# --------------------------------------------------------------------- #

def test_tracer_ring_buffer_and_slowest_ranking():
    tracer = Tracer(capacity=4)
    assert tracer.mint() == 1 and tracer.mint() == 2
    tracer.record(1, 0.0, 10.0, "agent", "nfs.read")
    tracer.record(1, 1.0, 3.0, "rpc", "nfs")
    tracer.record(2, 0.0, 30.0, "agent", "nfs.write")
    tracer.record(2, 2.0, 28.0, "pipeline", "write")
    ranked = tracer.slowest(5)
    assert [tid for _d, tid, _s in ranked] == [2, 1]
    assert ranked[0][0] == 30.0
    # ring bound: a fifth span evicts the oldest (trace 1's root) and
    # trace 1, now rootless, drops out of the ranking
    tracer.record(2, 5.0, 6.0, "disk", "commit")
    assert len(tracer.spans) == 4
    assert [tid for _d, tid, _s in tracer.slowest(5)] == [2]
    rendered = tracer.format_trace(2, tracer.traces()[2])
    assert "nfs.write" in rendered and "[disk" in rendered


def test_tracer_report_empty():
    assert "no complete traces" in Tracer().report()


# --------------------------------------------------------------------- #
# end-to-end span propagation
# --------------------------------------------------------------------- #

def _traced_cluster(**kw):
    cluster = build_cluster(n_servers=3, n_agents=1, tracing=True, **kw)
    agent = cluster.agents[0]

    async def work():
        await agent.mount()
        await agent.mkdir("/", "d")
        await agent.create("/d", "f")
        await agent.write_file("/d/f", b"payload")
        return await agent.read_file("/d/f")

    data = cluster.run(work())
    assert data == b"payload"
    return cluster


def test_trace_propagates_across_every_layer():
    cluster = _traced_cluster()
    tracer = cluster.tracer
    assert tracer is not None and tracer.minted >= 4
    traces = tracer.traces()
    # the write's trace crosses all five layers: the agent envelope, the
    # serving RPC, the update pipeline, the disk commit, the wire
    write_spans = next(spans for spans in traces.values()
                       if any(s[3] == "agent" and s[4] == "nfs.write"
                              for s in spans))
    layers = {s[3] for s in write_spans}
    assert {"agent", "rpc", "pipeline", "disk", "net"} <= layers
    assert any(s[3] == "pipeline" and s[4] == "write" for s in write_spans)
    root = [s for s in write_spans if s[3] == "agent"]
    assert len(root) == 1 and root[0][4] == "nfs.write"
    # every span of the trace starts inside the root's envelope (ends may
    # trail it: group-commit batches settle after the reply is sent)
    for _tid, start, end, _layer, _label in write_spans:
        assert root[0][1] <= start <= end
    # reply network hops are attributed to the trace too
    assert any(s[3] == "net" and s[4] == "nfs.reply" for s in write_spans)
    cluster.close()


def test_tracing_is_off_by_default():
    cluster = build_cluster(n_servers=2, n_agents=1)
    assert cluster.tracer is None
    assert cluster.kernel._tracer is None
    agent = cluster.agents[0]

    async def work():
        await agent.mount()
        await agent.mkdir("/", "x")

    cluster.run(work())
    assert cluster.kernel._current is None
    cluster.close()


def test_tracer_report_names_slowest_requests():
    cluster = _traced_cluster()
    report = cluster.tracer.report(3)
    assert "slowest" in report and "nfs." in report
    cluster.close()


# --------------------------------------------------------------------- #
# metrics sampler
# --------------------------------------------------------------------- #

def test_sampler_snapshots_counters_on_a_virtual_period():
    cluster = build_cluster(n_servers=3, n_agents=1, tracing=True,
                            sampler_period_ms=100.0)
    agent = cluster.agents[0]

    async def work():
        await agent.mount()
        await agent.mkdir("/", "d")
        await agent.create("/d", "f")
        for i in range(5):
            await agent.write_file("/d/f", bytes([i]) * 64)
            await cluster.kernel.sleep(150.0)

    cluster.run(work())
    sampler = cluster.sampler
    assert sampler is not None and len(sampler.samples) >= 5
    times = [s["t_ms"] for s in sampler.samples]
    assert times == sorted(times)
    series = sampler.series("nfs.requests")
    # counters are cumulative, so the series is monotone and ends > 0
    values = [v for _t, v in series]
    assert values == sorted(values) and values[-1] > 0
    lat = sampler.latency_series("pipeline.write_ms", quantile="p99")
    assert lat and lat[-1][1] >= 0.0
    sampler.stop()
    n = len(sampler.samples)
    cluster.settle(500.0)
    assert len(sampler.samples) == n  # stopped: no further ticks
    cluster.close()


# --------------------------------------------------------------------- #
# admission gate
# --------------------------------------------------------------------- #

def test_token_bucket_refills_lazily_in_virtual_time():
    kernel = Kernel()
    gate = AdmissionGate(kernel, AdmissionConfig(rate_per_ms=1.0, burst=2.0))
    assert gate.try_admit() and gate.try_admit()
    assert not gate.try_admit()          # burst exhausted, no time passed
    kernel.run(until=1.5)                # 1.5 tokens refill
    snap = gate.snapshot()               # peeking must not spend
    assert snap["tokens"] == pytest.approx(1.5)
    assert gate.try_admit()
    assert not gate.try_admit()          # 0.5 left
    kernel.run(until=100.0)
    assert gate.snapshot()["tokens"] == pytest.approx(2.0)  # capped at burst
    assert gate.admitted == 3 and gate.rejected == 2


def test_admission_gate_rejects_with_busy_and_agent_retries():
    # refill far below the closed-loop issue rate (one token per 100 ms
    # against ~20 ms ops) forces BUSY; patient agents back off and
    # eventually get through
    cluster = build_cluster(
        n_servers=2, n_agents=1,
        agent_config=AgentConfig(busy_retries=30),
        admission=AdmissionConfig(rate_per_ms=0.01, burst=2.0))
    agent = cluster.agents[0]

    async def work():
        await agent.mount()
        await agent.mkdir("/", "d")
        await agent.create("/d", "f")
        for i in range(6):
            await agent.write_file("/d/f", bytes([i]) * 32)

    cluster.run(work())
    assert cluster.metrics.get("nfs.busy_rejected") > 0
    assert cluster.metrics.get("agent.busy_retries") > 0
    # every op eventually succeeded: BUSY is backpressure, not failure
    assert cluster.metrics.get("agent.failovers") == 0
    cluster.close()


def test_busy_surfaces_as_nfs_error_when_retries_exhausted():
    cluster = build_cluster(
        n_servers=2, n_agents=1,
        agent_config=AgentConfig(busy_retries=0, failover=False),
        admission=AdmissionConfig(rate_per_ms=0.0001, burst=1.0))
    agent = cluster.agents[0]

    async def work():
        await agent.mount()
        # the single burst token goes to the first op; the next gated op
        # surfaces ERR_BUSY to the caller
        await agent.mkdir("/", "d")
        with pytest.raises(NfsError) as exc:
            await agent.mkdir("/", "e")
        assert exc.value.status == NfsStat.ERR_BUSY

    cluster.run(work())
    cluster.close()


def test_a_lookup_carrying_read_takes_an_admission_token():
    """A LOOKUP that asks for the file's bytes is the user operation's
    data op: it takes one admission token, as the READ it stands in for
    would, and is answered BUSY when none is left.  A plain LOOKUP rides
    free."""
    cluster = build_cluster(
        n_servers=2, n_agents=1,
        agent_config=AgentConfig(busy_retries=0, failover=False),
        admission=AdmissionConfig(rate_per_ms=0.0001, burst=3.0))
    agent = cluster.agents[0]
    gate = cluster.servers[0].admission

    async def work():
        await agent.mount()
        await agent.mkdir("/", "d")
        await agent.create("/d", "f")           # two tokens spent
        calls = record_nfs(agent)
        agent._handle_cache.pop("/d/f")
        assert await agent.read_file("/d/f") == b""    # the third
        agent._handle_cache.pop("/d/f")
        with pytest.raises(NfsError) as exc:
            await agent.read_file("/d/f")
        assert exc.value.status == NfsStat.ERR_BUSY
        agent._handle_cache.pop("/d/f")
        await agent.lookup_path("/d/f")
        return [(op, args.get("read"), reply is not None)
                for op, args, reply in calls]

    assert cluster.run(work()) == [("lookup", True, True),
                                   ("lookup", True, False),
                                   ("lookup", None, True)]
    assert (gate.admitted, gate.rejected) == (3, 1)
    cluster.close()


# --------------------------------------------------------------------- #
# health scraping, live and through crashes
# --------------------------------------------------------------------- #

def test_health_rpc_reports_server_vitals():
    cluster = build_cluster(n_servers=3, n_agents=1)
    agent = cluster.agents[0]

    async def work():
        await agent.mount()
        await agent.mkdir("/", "d")
        await agent.create("/d", "f")
        await agent.write_file("/d/f", b"x" * 128)

    cluster.run(work())
    rows = cluster.scrape_health()
    assert [r["addr"] for r in rows] == [s.addr for s in cluster.servers]
    for row in rows:
        assert row["status"] == 0 and row["alive"]
        assert row["suspected"] == []
        assert all(p["watched"] for p in row["peers"].values())
        assert row["alarm_until_ms"] == 0.0     # a boot raises no alarm
        assert row["replicas"] >= 0 and row["tokens_held"] >= 0
        assert row["backend"] == "MemoryBackend"
        assert set(row["queues"]) == {"disk_async_buffered",
                                      "disk_pending_batches", "rpc_tasks"}
        assert row["admission"] is None
        # at rest no view change is under way, and the view logs are short
        assert row["groups_flushing"] == 0
        assert 0 <= row["isis_log_entries"] <= 2 * row["groups"]
    # the cell's segments live somewhere
    assert sum(r["replicas"] for r in rows) > 0
    assert sum(r["tokens_held"] for r in rows) > 0
    # a flush that no install has ended shows, and so does what a log holds
    proc = cluster.servers[0].proc
    state = proc.groups[proc.group_names()[0]]
    state.flushing = True
    state.log[("s9", 1)] = {}
    before, after = rows[0], cluster.scrape_health()[0]
    assert after["groups_flushing"] == 1
    assert after["isis_log_entries"] == before["isis_log_entries"] + 1
    cluster.close()

    # above four peers a calm server watches its ring neighbours only; the
    # rest are listed, with whatever it last happened to hear from them
    cluster = build_cluster(n_servers=8, n_agents=1)
    for row in cluster.scrape_health():
        assert len(row["peers"]) == 7
        assert sum(p["watched"] for p in row["peers"].values()) == \
            2 * RING_NEIGHBOURS
        assert row["alarm_until_ms"] == 0.0
    cluster.close()


def test_health_scrape_marks_dead_servers_unreachable():
    cluster = build_cluster(n_servers=3, n_agents=1, fd_timeout_ms=200.0)
    agent = cluster.agents[0]
    cluster.run(agent.mount())
    cluster.crash(2)
    cluster.settle(1_000.0)  # heartbeats lapse; survivors suspect s2

    rows = cluster.scrape_health()
    dead = rows[2]
    # a string status, deliberately distinguishable from every NfsStat code
    assert dead["status"] == ERR_UNREACHABLE
    assert dead["alive"] is False
    survivors = rows[:2]
    victim = cluster.servers[2].addr
    for row in survivors:
        assert row["status"] == 0
        assert victim in row["suspected"]
        peer = row["peers"][victim]
        assert peer["suspected"]
        # last-known state: when the suspicion began and for how long
        assert peer["suspected_since_ms"] <= row["now_ms"]
        assert peer["suspected_for_ms"] == pytest.approx(
            row["now_ms"] - peer["suspected_since_ms"])
        # the suspicion raised an alarm
        assert row["alarm_until_ms"] > peer["suspected_since_ms"]

    # recovery clears the suspicion rows
    cluster.run(cluster.recover(2))
    cluster.settle(1_000.0)
    rows = cluster.scrape_health()
    assert all(r["status"] == 0 and r["suspected"] == [] for r in rows)
    cluster.close()


def test_health_scrape_survives_kill_restart_matrix():
    cluster = build_cluster(n_servers=3, n_agents=1, tracing=True,
                            sampler_period_ms=250.0,
                            admission=AdmissionConfig(rate_per_ms=10.0,
                                                      burst=100.0))
    agent = cluster.agents[0]

    async def work():
        await agent.mount()
        await agent.mkdir("/", "d")
        await agent.create("/d", "f")
        await agent.write_file("/d/f", b"durable")

    cluster.run(work())
    pre = cluster.scrape_health()
    assert all(r["status"] == 0 for r in pre)
    assert all(r["admission"] is not None for r in pre)

    cluster.kill()
    cluster.restart()
    rows = cluster.scrape_health()
    assert all(r["status"] == 0 and r["alive"] for r in rows)
    # the observability plane re-armed across the incarnation
    assert cluster.kernel._tracer is cluster.tracer
    assert all(s.admission is not None for s in cluster.servers)
    agent = cluster.agents[0]

    async def readback():
        await agent.mount()
        return await agent.read_file("/d/f")

    assert cluster.run(readback()) == b"durable"
    cluster.close()


# --------------------------------------------------------------------- #
# determinism: arming the plane must not steer the simulation
# --------------------------------------------------------------------- #

def _seeded_outcome(tracing, sampler_ms=None):
    from repro.testbed import build_scale_cluster
    from repro.workloads import WorkloadGenerator, hotspot_config
    from repro.workloads.replay import replay

    cfg = hotspot_config(n_clients=6, duration_ms=1_200.0, seed=23)
    ops = WorkloadGenerator(cfg).generate()
    cluster = build_scale_cluster(n_servers=8, n_agents=6, seed=23,
                                  tracing=tracing,
                                  sampler_period_ms=sampler_ms)
    stats = cluster.run(replay(cluster, ops), limit=1_000_000.0)
    sim = (stats.attempted, stats.succeeded, cluster.metrics.snapshot(),
           cluster.kernel.now, stats.latency.percentile(50),
           stats.latency.percentile(99))
    obs = (cluster.tracer.snapshot() if cluster.tracer else None,
           cluster.sampler.snapshot() if cluster.sampler else None)
    cluster.close()
    return sim, obs


def test_armed_observability_is_deterministic_and_non_perturbing():
    base, _ = _seeded_outcome(tracing=False)
    sim1, obs1 = _seeded_outcome(tracing=True, sampler_ms=200.0)
    sim2, obs2 = _seeded_outcome(tracing=True, sampler_ms=200.0)
    # same-seed armed runs are byte-identical, spans and series included
    assert sim1 == sim2 and obs1 == obs2
    assert obs1[0] and obs1[1]
    # and arming observes without steering: sim outcomes match unarmed
    assert sim1 == base


# --------------------------------------------------------------------- #
# saturation ramp (tier-1 smoke)
# --------------------------------------------------------------------- #

def test_four_server_ramp_finds_a_knee():
    """Which step plateaus is a coin-flip per seed, so the knee and the
    plateau limit are asserted on the median over five seeds.  Since a
    getattr forwarded to a holder carries its placement record, agents
    route reads to holders, and on 8 files the cell no longer plateaus by
    256 clients (seeds 42-46 knee at 256 / 256 / 256 / 128 / 256), so the
    ramp runs on 4 files, where write contention still makes a knee.

    The 700 ms p99 SLO is asserted on 8 files, at 64 clients exactly (p99
    107-150 ms at seeds 42-46).  On 4 files one agent attempt expiring at
    ``RPC_TIMEOUT_MS`` sets the p99 from 64 clients on at some seeds (772
    and 765 ms at seeds 44 and 45)."""
    import statistics

    from repro.obs.loadtest import loadtest

    ramp = (64, 128, 256)
    seeds = range(42, 47)
    reports = [loadtest(n_servers=4, steps=ramp, duration_ms=2_000.0,
                        seed=seed, n_files=4, write_fraction=0.2)
               for seed in seeds]
    slo = [loadtest(n_servers=4, steps=(64,), duration_ms=2_000.0,
                    seed=seed, n_files=8, write_fraction=0.2,
                    slo_p99_ms=700.0)
           for seed in seeds]
    for report in reports + slo:
        steps = report["steps"]
        assert all(s["succeeded"] > 0 and s["p99_ms"] > s["p50_ms"] > 0
                   for s in steps)
        # ungated runs never see BUSY
        assert all(s["busy_rejected"] == 0 for s in steps)
    assert all(tuple(s["concurrency"] for s in r["steps"]) == ramp
               for r in reports)
    assert [r["slo_met_through"] for r in slo] == [64] * len(seeds)
    # the plateau is found *inside* the ramp, not by running out of steps
    assert statistics.median(r["knee"]["concurrency"] for r in reports) == 128
    assert statistics.median(r["steps"][-1]["ops_per_vs"]
                             / r["knee"]["ops_per_vs"] for r in reports) < 1.10


def test_find_knee_plateau_detection():
    from repro.obs.loadtest import StepResult, find_knee

    def step(c, ops):
        return StepResult(concurrency=c, attempted=0, succeeded=0, failed=0,
                          ops_per_vs=ops, p50_ms=1.0, p99_ms=2.0,
                          nfs_requests=0, busy_rejected=0, busy_retries=0,
                          wall_s=0.0)

    ramp = [step(1, 100.0), step(2, 190.0), step(4, 199.0), step(8, 400.0)]
    assert find_knee(ramp).concurrency == 2       # first sub-10% step stops
    rising = [step(1, 100.0), step(2, 200.0), step(4, 400.0)]
    assert find_knee(rising).concurrency == 4     # never plateaus: last
