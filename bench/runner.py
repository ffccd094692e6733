"""Run one workload's rounds and fold them into named metrics."""

from __future__ import annotations

import cProfile
import hashlib
import os
import resource
import shutil
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.restartbench import populate as bulk_load

from bench import OUT_DIR, layers
from bench.driver import CLOSED, OPEN, WARMUP_FRAC, Oracle, Replayer, Window, percentile
from bench.metrics import END_TO_END, PER_LAYER
from bench.workloads import RAMP_P99_LIMIT_VMS, SETUP_SAMPLES, WORKLOADS, Scenario

PLAIN, TRACED, PROFILED = "plain", "traced", "profiled"


@dataclass
class Round:
    """What one round measured.  Virtual fields repeat exactly per seed."""

    label: str
    window: Window
    counters: dict[str, int]
    events: int
    pipeline_p50: dict[str, float]
    user_bytes: int
    written_bytes: int
    fd_detect_vms: float
    corrupt: int
    lost: int
    complaints: list[str]
    # host clock
    setup_s: float
    host_s: float
    cpu_s: float
    slice_rates: list[float] = field(default_factory=list)      # ops per host second
    #: this box's speed around the round, 1.0 = the defining box (HostSpeed)
    host_speed: float = 1.0
    journal_bytes: int = 0
    restart_s: float = 0.0
    replay_records_per_s: float = 0.0
    self_time: dict[str, float] = field(default_factory=dict)   # traced rounds only
    gen_lag_total: float = 0.0
    shares: dict[str, float] = field(default_factory=dict)      # profiled rounds only
    slowest: list = field(default_factory=list)                  # traced rounds only

    def digest_parts(self) -> tuple:
        return (self.label, self.window.recs, sorted(self.window.errors.items()),
                sorted(self.counters.items()), self.events, self.window.end_ms,
                self.fd_detect_vms, self.corrupt, self.lost)


#: seconds ``_reference_loop`` takes on the defining box when it is quiet
REFERENCE_S = 0.1095


def _reference_loop() -> float:
    """Host seconds for a fixed piece of pure-Python work that no change
    to this repository can speed up or slow down."""
    t0 = time.perf_counter()
    total, table = 0, {}
    for i in range(1_500_000):
        total += i & 7
        table[i & 1023] = total
    return time.perf_counter() - t0


class HostSpeed:
    """Tells a slow *machine* from a slow *program*.

    This box has episodes, a run or two long, in which everything takes
    1.5-1.8x as long (the reference loop and the simulator alike: their
    speeds correlate at 0.8).  The reference loop is timed between
    rounds; a round's host timings are divided by the speed measured
    around it, which halves their run-to-run spread and takes the
    episodes out.  1.0 is the defining box when quiet.
    """

    def __init__(self) -> None:
        self.last = _reference_loop()

    def lap(self) -> float:
        """Host speed since the previous lap (or construction): the mean
        of the reference timings taken before and after."""
        before, self.last = self.last, _reference_loop()
        return REFERENCE_S / ((before + self.last) / 2.0)


def _set_up(scn: Scenario, storage_dir: str | None, mark_tasks: bool):
    """Build the cell, prepopulate and replay the untimed warm-up.
    Returns ``(cluster, replayer, timed ops, trace start)``."""
    cluster = scn.build(storage_dir)
    try:
        kernel = cluster.kernel
        replayer = Replayer(cluster, Oracle(), mark_tasks=mark_tasks)
        cluster.run(replayer.populate(scn.files), limit=1e9)
        warm_ms = WARMUP_FRAC * scn.duration_ms
        start = kernel.now
        if scn.mode == OPEN:
            warm = [[op for op in ops if op.at_ms < warm_ms] for ops in scn.ops]
            timed = [[op for op in ops if op.at_ms >= warm_ms] for ops in scn.ops]
            cluster.run(replayer.run(warm, OPEN, warm_ms, start_ms=start), limit=1e9)
            if kernel.now < start + warm_ms:
                cluster.settle(start + warm_ms - kernel.now)
        else:
            timed = [iter(ops) for ops in scn.ops]   # the warm-up consumes a prefix
            cluster.run(replayer.run(timed, CLOSED, warm_ms), limit=1e9)
            start = None
        return cluster, replayer, timed, start
    except BaseException:
        cluster.close()
        raise


def _storage_dir(scn: Scenario) -> str | None:
    os.makedirs(OUT_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix="journal-", dir=OUT_DIR) if scn.journal else None


def time_setup(scn: Scenario) -> float:
    """One more ``setup_s`` sample: set a cell up and throw it away."""
    storage_dir = _storage_dir(scn)
    try:
        t0 = time.perf_counter()
        cluster = _set_up(scn, storage_dir, False)[0]
        setup_s = time.perf_counter() - t0
        cluster.close()
        return setup_s
    finally:
        if storage_dir is not None:
            shutil.rmtree(storage_dir, ignore_errors=True)


def run_round(scn: Scenario, how: str = PLAIN) -> Round:
    """Build, warm, measure, verify and tear down one round."""
    storage_dir = _storage_dir(scn)
    cluster = None
    try:
        t_setup = time.perf_counter()
        cluster, replayer, timed, start = _set_up(scn, storage_dir, how == TRACED)
        setup_s = time.perf_counter() - t_setup
        kernel, oracle = cluster.kernel, replayer.oracle
        warm_ms = WARMUP_FRAC * scn.duration_ms

        fd_detect: list[float] = []
        span = scn.duration_ms - warm_ms
        faults = [((warm_ms if scn.mode == OPEN else 0.0) + share * span,
                   _fault(cluster, what, index, fd_detect))
                  for share, what, index in scn.faults]
        tracer = profile = None
        if how == TRACED:
            tracer = layers.OpTracer(kernel)
            kernel.set_tracer(tracer)
        journal0 = _journal_bytes(storage_dir)
        before, events0 = cluster.metrics.snapshot(), kernel.events_processed
        if how == PROFILED:
            profile = cProfile.Profile()
            profile.enable()
        t0, c0 = time.perf_counter(), time.process_time()
        window = cluster.run(replayer.run(timed, scn.mode, span, start_ms=start,
                                          faults=faults), limit=1e9)
        host_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
        if profile is not None:
            profile.disable()
        kernel.set_tracer(None)

        out = Round(
            label=scn.label, window=window, counters=cluster.metrics.delta(before),
            events=kernel.events_processed - events0,
            pipeline_p50={name: cluster.metrics.latency(name).percentile(50)
                          for name in ("pipeline.write_ms", "pipeline.read_ms")},
            user_bytes=sum(r[7] for r in window.recs),
            written_bytes=sum(r[7] for r in window.recs if r[2].startswith("write")),
            fd_detect_vms=fd_detect[0] if fd_detect else 0.0,
            corrupt=0, lost=0, complaints=[],
            setup_s=setup_s, host_s=host_s, cpu_s=cpu_s,
            slice_rates=_slice_rates(window.host_acks, t0),
            journal_bytes=_journal_bytes(storage_dir) - journal0)
        if tracer is not None:
            by_op = tracer.spans_by_op()
            out.self_time, out.gen_lag_total = layers.split_self_time(window.recs, by_op)
            worst = sorted(window.recs, key=lambda r: r[3] - r[5])[:5]
            out.slowest = [{"op": r[2], "client": r[1], "latency_vms": r[5] - r[3],
                            "spans": by_op.get(r[0], [])} for r in worst]
        if profile is not None:
            out.shares = layers.host_shares(profile)

        if any(a.config.cache for a in cluster.agents):
            cluster.settle(max(a.config.data_ttl_ms for a in cluster.agents) + 1.0)
        cluster.run(cluster.drain_agents(), limit=1e9)
        cluster.run(replayer.verify_final(sorted(scn.files), window), limit=1e9)
        if scn.restart_segments:
            _kill_and_restart(cluster, scn, replayer, out)
        out.corrupt, out.lost, out.complaints = oracle.corrupt, oracle.lost, oracle.complaints
        return out
    finally:
        if cluster is not None:
            cluster.close()
        if storage_dir is not None:
            shutil.rmtree(storage_dir, ignore_errors=True)


def _fault(cluster, what: str, index: int, fd_detect: list[float]):
    kernel, metrics = cluster.kernel, cluster.metrics

    async def crash():
        suspicions, at = metrics.get("fd.suspicions"), kernel.now
        cluster.crash(index)
        while metrics.get("fd.suspicions") == suspicions and kernel.now - at < 5000.0:
            await kernel.sleep(5.0)
        fd_detect.append(kernel.now - at)

    async def recover():
        await cluster.recover(index)

    return {"crash": crash, "recover": recover}[what]


SLICES = 8


def _slice_rates(host_acks: list[float], t0: float) -> list[float]:
    """Ops per host second over ``SLICES`` equal-count runs of
    consecutive completions; their median ignores a contended burst that
    a total over the window would absorb."""
    n = len(host_acks)
    cuts = sorted({n * k // SLICES for k in range(1, SLICES + 1)} - {0})
    rates, last_i, last_t = [], 0, t0
    for cut in cuts:
        rates.append((cut - last_i) / (host_acks[cut - 1] - last_t))
        last_i, last_t = cut, host_acks[cut - 1]
    return rates


def _journal_bytes(storage_dir: str | None) -> int:
    if storage_dir is None:
        return 0
    return sum(os.path.getsize(os.path.join(storage_dir, name))
               for name in os.listdir(storage_dir))


def _kill_and_restart(cluster, scn: Scenario, replayer: Replayer, out: Round) -> None:
    """Bulk-load a namespace, ``kill -9`` the cell, cold-restart it from
    the journals and verify every acked write through fresh agents."""
    bulk_load(cluster, scn.restart_segments)
    cluster.settle(100.0)
    cluster.kill()
    t0 = time.perf_counter()
    journal = cluster.servers[0].disk.backend.reopen()
    journal.load()
    out.replay_records_per_s = journal.replay_stats["records"] / (time.perf_counter() - t0)
    journal.close()

    paths = sorted(scn.files)
    t0 = time.perf_counter()
    cluster.restart()   # in place: same Cluster, fresh kernel, servers and agents
    cluster.run(cluster.agents[0].mount())
    cluster.run(replayer.verify_final(paths[:1], out.window))
    out.restart_s = time.perf_counter() - t0
    cluster.run(replayer.verify_final(paths[1:], out.window), limit=1e9)
    out.counters["deceit.groups_resurrected"] = cluster.metrics.get("deceit.groups_resurrected")


# ---------------------------------------------------------------------- #
# folding rounds into metrics
# ---------------------------------------------------------------------- #

def virtual_digest(rounds: list[Round]) -> str:
    """sha256 over every virtual quantity of the run: each op's due,
    issue and ack instants and outcome, every counter delta, the event
    count and the oracle's verdicts.  Host-side work must not move it."""
    return hashlib.sha256(repr([r.digest_parts() for r in rounds]).encode()).hexdigest()


def knee_index(rounds: list[Round]) -> int:
    """The highest ramp step whose p99 meets the frozen limit with at
    most 1% of its ops failed (step 0 if none does)."""
    best = 0
    for i, r in enumerate(rounds):
        if percentile(r.window.latencies(), 99) <= RAMP_P99_LIMIT_VMS and \
                r.window.failed <= 0.01 * r.window.attempted:
            best = i
    return best


def end_to_end(rounds: list[Round], extra_setups=()) -> dict[str, float]:
    """The end-to-end metrics of one untraced run, pooled over its rounds
    (for ``write_ramp``: over its ramp steps).  Host timings are brought
    to the defining box's speed (``HostSpeed``); ``extra_setups`` already
    are."""
    lat = [x for r in rounds for x in r.window.latencies()]
    virtual_s = sum(r.window.virtual_s for r in rounds)
    ok = sum(r.window.attempted - r.window.failed for r in rounds)
    return {
        "op_p50_vms": percentile(lat, 50),
        "op_p90_vms": percentile(lat, 90),
        "goodput_ops_per_vs": ok / virtual_s,
        "user_mb_per_vs": sum(r.user_bytes for r in rounds) / 2**20 / virtual_s,
        "sim_ops_per_s": statistics.median(
            x / r.host_speed for r in rounds for x in r.slice_rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(
            [r.setup_s * r.host_speed for r in rounds] + list(extra_setups)),
    }


def per_layer(name: str, plain: list[Round], traced: list[Round],
              profiled: Round) -> dict[str, float]:
    """The per-layer metrics: counts from the untraced rounds, virtual
    self time from the traced rounds, host shares from the profiled one."""
    counters: Counter = sum((Counter(r.counters) for r in plain), Counter())
    n_ops = sum(r.window.attempted for r in plain)
    virtual_s = sum(r.window.virtual_s for r in plain)
    host_s = sum(r.host_s for r in plain)
    events = sum(r.events for r in plain)
    written = sum(r.written_bytes for r in plain)

    def median_p50(series):
        return statistics.median(r.pipeline_p50[series] for r in plain)

    out = layers.counter_metrics(counters, n_ops, virtual_s, median_p50)
    lags = [x for r in plain for x in r.window.gen_lags()]
    lat = [x for r in plain for x in r.window.latencies()]
    knee = plain[knee_index(plain)] if name == "write_ramp" else None
    traced_ops = sum(r.window.attempted for r in traced)
    restarts = [r.restart_s for r in plain if r.restart_s]
    out.update({
        "agent.unavail_vms": max(r.window.worst_gap_ms() for r in plain),
        "core.groups_resurrected": counters.get("deceit.groups_resurrected", 0),
        "isis.fd_detect_vms": statistics.median(r.fd_detect_vms for r in plain),
        "storage.journal_bytes_per_user_byte":
            sum(r.journal_bytes for r in plain) / written if written else 0.0,
        "storage.replay_records_per_s":
            statistics.median(r.replay_records_per_s for r in plain),
        "storage.restart_to_serving_s": statistics.median(restarts) if restarts else 0.0,
        "sim.events_per_op": events / n_ops,
        "sim.events_per_s": events / host_s,
        "sim.host_us_per_event": host_s / events * 1e6,
        "bench.gen_lag_mean_vms": sum(r.gen_lag_total for r in traced) / traced_ops,
        "bench.gen_lag_p99_vms": percentile(lags, 99),
        "bench.op_mean_vms": sum(lat) / n_ops,
        "bench.op_p95_vms": percentile(lat, 95),
        "bench.op_p99_vms": percentile(lat, 99),
        "bench.knee_clients": len({rec[1] for rec in knee.window.recs}) if knee else 0,
        "bench.knee_goodput_ops_per_vs": knee.window.goodput_ops_per_vs if knee else 0.0,
        "bench.fail_frac": sum(r.window.failed for r in plain) / n_ops,
        "bench.acked_lost": sum(r.lost for r in plain),
        "bench.host_speed": statistics.median(r.host_speed for r in plain),
        "bench.trace_overhead_frac": sum(r.host_s for r in traced) / host_s - 1.0,
        "bench.contended": int(abs(host_s - sum(r.cpu_s for r in plain)) > 0.05 * host_s),
    })
    for layer in layers.LAYERS:
        out[f"{layer}.self_vms"] = sum(r.self_time[layer] for r in traced) / traced_ops
    out.update(profiled.shares)
    return out


def run_workload(name: str, seed: int, size: float, trace: bool) -> dict:
    """One process's worth of work: every round of ``name``, untraced;
    with ``trace`` also a traced pass of every round (asserted to
    reproduce the untraced ``virtual_digest``) and a profile pass of the
    first round.  Returns the result record ``run.py`` prints and saves.
    """
    scenarios = WORKLOADS[name]
    speed = HostSpeed()
    plain = []
    for scn in scenarios(seed, size):
        plain.append(run_round(scn))
        plain[-1].host_speed = speed.lap()
    digest = virtual_digest(plain)
    errors = sum((r.window.errors for r in plain), Counter())
    n_ops = sum(r.window.attempted for r in plain)
    record = {
        "workload": name, "seed": seed, "size": size, "trace": trace,
        "virtual_digest": digest,
        "n_ops": n_ops,
        # the result line counts every op issued and checked: the timed
        # ones and the verification reads after each window
        "attempted": n_ops + sum(r.window.final_reads for r in plain),
        "failed": sum(r.window.failed + r.window.final_failed for r in plain),
        "errors": errors,
        "corrupt_reads": sum(r.corrupt for r in plain),
        "acked_lost": sum(r.lost for r in plain),
        "complaints": [c for r in plain for c in r.complaints][:20],
        "rounds": [_round_row(r) for r in plain],
    }
    if name == "write_ramp":
        record["knee"] = plain[knee_index(plain)].label
    record["correct"] = record["corrupt_reads"] == 0 and record["acked_lost"] == 0
    if not trace:
        todo = scenarios(seed, size)
        extra = []
        for i in range(SETUP_SAMPLES.get(name, 11) - len(plain)):
            setup_s = time_setup(todo[i % len(todo)])
            extra.append(setup_s * speed.lap())
        record["host_speed"] = [r.host_speed for r in plain]
        record["metrics"] = end_to_end(plain, extra)
        _check_names(record["metrics"], END_TO_END)
        return record

    traced = [run_round(s, TRACED) for s in scenarios(seed, size)]
    record["traced_digest"] = virtual_digest(traced)
    profiled = run_round(scenarios(seed, size)[0], PROFILED)
    record["metrics"] = per_layer(name, plain, traced, profiled)
    _check_names(record["metrics"], PER_LAYER)
    record["traced_mean_op_vms"] = (
        sum(x for r in traced for x in (rec[5] - rec[3] for rec in r.window.recs))
        / sum(r.window.attempted for r in traced))
    record["slowest_traces"] = [t for r in traced for t in r.slowest][:10]
    return record


def _round_row(r: Round) -> dict:
    lat = r.window.latencies()
    return {"label": r.label, "n_ops": r.window.attempted, "failed": r.window.failed,
            "op_p50_vms": percentile(lat, 50), "op_p95_vms": percentile(lat, 95),
            "op_p99_vms": percentile(lat, 99),
            "goodput_ops_per_vs": r.window.goodput_ops_per_vs,
            "host_s": r.host_s, "setup_s": r.setup_s}


def _check_names(metrics: dict, registry) -> None:
    want = {m.name for m in registry}
    if set(metrics) != want:
        raise AssertionError(f"metric names drifted from the registry: "
                             f"{sorted(set(metrics) ^ want)}")
