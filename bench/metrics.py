"""The metric registry: every name the benchmark prints, in one table.

``BENCHMARK.json`` is rendered from this module (``manifest()``), so the
file the driver reads, the glossary in ``README.md`` and the numbers the
runner prints cannot drift apart.

Two clocks.  ``virtual`` metrics are functions of the seed alone (compute
costs zero virtual time), so a same-seed rerun repeats them *exactly* and
``virtual_digest`` pins them; ``host`` metrics are what the machine
running the simulator pays and carry run-to-run noise.
"""

from __future__ import annotations

from dataclasses import dataclass

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 10

#: name -> why the workload exists (one line; ``README.md`` has the paragraph)
WORKLOADS = {
    "paper_mix": "open loop, paper's 2.3 small-file op mix on 4 servers with agent "
                 "caches on: agent caches and nfs name handling decide most ops",
    "write_ramp": "closed loop ramp of 2..24 uncached writers on replicated files: token passes, "
                  "cbcast rounds and group commit under contention; agent caches bypassed",
    "scale_hotspot": "open loop zipf reads on 64 servers x 32 agents: sim dispatch, net "
                     "transmit and the isis heartbeat mesh do the host work, user ops almost none",
    "stream_striped": "closed loop 256 KiB scans + 64 KiB range writes on striped 1-2 MiB "
                      "files: striping fan-out, per-byte net charge, readahead; no name work",
    "crash_restart": "open loop on journal-backed replicated files through a server crash, "
                     "recovery and a whole-cell kill/restart: failure detection, failover, replay",
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str          # "lower" | "higher"
    clock: str           # "virtual" | "host"
    doc: str
    bound: float | None = None   # end-to-end only: tolerated worsening, share of parent median
    moves: str = ""      # per-layer only: the end-to-end metric it should move, and where


def _e2e(name, unit, better, clock, bound, doc):
    return Metric(name, unit, better, clock, doc, bound=bound)


# Bounds are shares of the parent's median.  The driver compares runs made
# with *different* seeds, so a virtual metric's bound has to cover its
# across-seed spread (BASELINE.json records both); a same-seed comparison
# of virtual metrics is exact and needs no bound (``bench.compare``).
END_TO_END = [
    _e2e("op_p50_vms", "vms", "lower", "virtual", 0.25,
         "median virtual ms from an op being due (open loop) or issued (closed loop) "
         "to its acked reply at the Agent call; exact over every op of the run"),
    _e2e("op_p90_vms", "vms", "lower", "virtual", 0.25,
         "90th percentile of the same: the highest percentile whose across-seed spread "
         "stays inside a bound on every workload (mean, p95 and p99 are bench.op_*)"),
    _e2e("goodput_ops_per_vs", "ops/vs", "higher", "virtual", 0.15,
         "succeeded ops per virtual second of the measured windows"),
    _e2e("user_mb_per_vs", "MiB/vs", "higher", "virtual", 0.25,
         "user payload MiB read or written per virtual second"),
    _e2e("sim_ops_per_s", "ops/s", "higher", "host", 0.25,
         "user ops per host second at the defining box's speed (bench.host_speed): "
         "median over the run's forty measured slices"),
    _e2e("peak_rss_mb", "MiB", "lower", "host", 0.20,
         "ru_maxrss of the workload's process"),
    _e2e("setup_s", "s", "lower", "host", 0.25,
         "host seconds, at the defining box's speed, to build the cell, prepopulate and "
         "run the untimed warm-up: "
         "median over the run's rounds plus throwaway set-ups, eleven samples in all "
         "(five on scale_hotspot)"),
]


def _layer(name, unit, better, clock, moves, doc):
    return Metric(name, unit, better, clock, doc, moves=moves)


_V, _H = "virtual", "host"
PER_LAYER = [
    # -- agent --------------------------------------------------------- #
    _layer("agent.attr_cache_hit_ratio", "ratio", "higher", _V, "op_p50_vms on paper_mix",
           "getattr served from the agent attr cache / all getattr answers"),
    _layer("agent.data_cache_hit_ratio", "ratio", "higher", _V, "op_p50_vms on paper_mix",
           "whole-file and ranged reads served from the agent data cache / lookups of it"),
    _layer("agent.revalidations_per_op", "1/op", "lower", _V, "op_p50_vms on paper_mix",
           "version-pair revalidations (data + readdir) per user op"),
    _layer("agent.readahead_hit_ratio", "ratio", "higher", _V, "user_mb_per_vs on stream_striped",
           "ranged reads answered from a prefetched stripe / ranged reads"),
    _layer("agent.failovers", "count", "lower", _V, "agent.unavail_vms on crash_restart",
           "times an agent moved to the next server after a timeout"),
    _layer("agent.busy_retries", "count", "lower", _V, "op_p90_vms on write_ramp",
           "requests retried after ERR_BUSY backpressure"),
    _layer("agent.unavail_vms", "vms", "lower", _V, "op_p90_vms on crash_restart",
           "longest gap between two consecutive successful completions of any one client "
           "(ISSUE's unavail_vms; per-layer here because it is a fault metric and a "
           "max statistic elsewhere)"),
    _layer("agent.self_vms", "vms", "lower", _V, "op_p50_vms on paper_mix",
           "mean virtual ms per op spent in the agent and nowhere deeper (user hops, "
           "backoff, timeouts waited out)"),
    _layer("agent.host_share", "frac", "lower", _H, "sim_ops_per_s on paper_mix",
           "share of cProfile tottime in src/repro/agent/"),
    # -- nfs ----------------------------------------------------------- #
    _layer("nfs.requests_per_op", "1/op", "lower", _V, "op_p50_vms on paper_mix",
           "NFS envelope requests served per user op"),
    _layer("nfs.dir_retries", "count", "lower", _V, "op_p90_vms on paper_mix",
           "directory transactions retried"),
    _layer("nfs.dirop_conflicts", "count", "lower", _V, "op_p90_vms on paper_mix",
           "dirop proposals that lost a race"),
    _layer("nfs.unchanged_reply_ratio", "ratio", "higher", _V, "user_mb_per_vs on paper_mix",
           "read/readdir replies answered 'unchanged' (no payload) / read+readdir requests"),
    _layer("nfs.self_vms", "vms", "lower", _V, "op_p50_vms on paper_mix",
           "mean virtual ms per op inside an NFS rpc span and nowhere deeper"),
    _layer("nfs.host_share", "frac", "lower", _H, "sim_ops_per_s on paper_mix",
           "share of cProfile tottime in src/repro/nfs/"),
    # -- core ---------------------------------------------------------- #
    _layer("core.write_p50_vms", "vms", "lower", _V, "op_p90_vms on write_ramp",
           "median pipeline.write_ms (segment update path)"),
    _layer("core.read_p50_vms", "vms", "lower", _V, "op_p50_vms on scale_hotspot",
           "median pipeline.read_ms (segment read path)"),
    _layer("core.token_passes_per_update", "ratio", "lower", _V,
           "goodput_ops_per_vs on write_ramp", "write-token passes per segment update"),
    _layer("core.reads_forwarded_ratio", "ratio", "lower", _V, "op_p50_vms on scale_hotspot",
           "segment reads forwarded to another holder / segment reads"),
    _layer("core.read_cache_hit_ratio", "ratio", "higher", _V, "op_p50_vms on scale_hotspot",
           "segment-server read cache hits / lookups"),
    _layer("core.replica_fetches", "count", "lower", _V, "op_p90_vms on scale_hotspot",
           "replicas pulled from a peer to serve a read"),
    _layer("core.replicas_lru_dropped", "count", "lower", _V, "op_p90_vms on scale_hotspot",
           "idle extra replicas dropped with an update"),
    _layer("core.stripe_ios_per_range_op", "ratio", "lower", _V,
           "op_p90_vms on stream_striped",
           "stripe segment reads per ranged server read: a range op waits for the "
           "slowest of these"),
    _layer("core.groups_resurrected", "count", "higher", _V,
           "storage.restart_to_serving_s on crash_restart",
           "file groups rebuilt from disk by cold starts"),
    _layer("core.self_vms", "vms", "lower", _V, "op_p90_vms on write_ramp",
           "mean virtual ms per op inside a pipeline or server-to-server rpc span and "
           "nowhere deeper (token, lock and reply waits)"),
    _layer("core.host_share", "frac", "lower", _H, "sim_ops_per_s on write_ramp",
           "share of cProfile tottime in src/repro/core/"),
    # -- isis ---------------------------------------------------------- #
    _layer("isis.mcasts_per_update", "ratio", "lower", _V, "goodput_ops_per_vs on write_ramp",
           "group multicasts per segment update"),
    _layer("isis.deliveries_per_mcast", "ratio", "lower", _V,
           "goodput_ops_per_vs on write_ramp", "deliveries per multicast (group size)"),
    _layer("isis.view_changes", "count", "lower", _V, "agent.unavail_vms on crash_restart",
           "group view changes installed"),
    _layer("isis.fd_suspicions", "count", "lower", _V, "agent.unavail_vms on crash_restart",
           "failure-detector suspicions raised"),
    _layer("isis.fd_detect_vms", "vms", "lower", _V, "agent.unavail_vms on crash_restart",
           "virtual ms from the injected crash to the first suspicion (0 without a crash)"),
    _layer("isis.host_share", "frac", "lower", _H, "sim_ops_per_s on scale_hotspot",
           "share of cProfile tottime in src/repro/isis/ (heartbeat mesh)"),
    # -- net ----------------------------------------------------------- #
    _layer("net.msgs_per_op", "1/op", "lower", _V, "sim_ops_per_s on scale_hotspot",
           "messages transmitted per user op, background traffic included"),
    _layer("net.bytes_per_op", "B/op", "lower", _V, "user_mb_per_vs on stream_striped",
           "payload bytes moved per user op"),
    _layer("net.msgs_per_vs", "msgs/vs", "lower", _V, "sim_ops_per_s on scale_hotspot",
           "messages per virtual second (the background rate dominates at 64 servers)"),
    _layer("net.self_vms", "vms", "lower", _V, "op_p50_vms on every workload",
           "mean virtual ms per op with a message of the op in flight"),
    _layer("net.host_share", "frac", "lower", _H, "sim_ops_per_s on scale_hotspot",
           "share of cProfile tottime in src/repro/net/"),
    # -- storage ------------------------------------------------------- #
    _layer("storage.commits_per_op", "1/op", "lower", _V, "op_p90_vms on write_ramp",
           "disk commits per user op"),
    _layer("storage.records_per_commit", "ratio", "higher", _V,
           "goodput_ops_per_vs on write_ramp", "records per disk commit (group-commit occupancy)"),
    _layer("storage.sync_writes_per_op", "1/op", "lower", _V, "op_p90_vms on write_ramp",
           "synchronous disk writes per user op"),
    _layer("storage.self_vms", "vms", "lower", _V, "op_p90_vms on write_ramp",
           "mean virtual ms per op waiting on a disk commit"),
    _layer("storage.journal_bytes_per_user_byte", "ratio", "lower", _H,
           "storage.restart_to_serving_s on crash_restart",
           "journal bytes appended per user byte written (0 on the memory backend)"),
    _layer("storage.replay_records_per_s", "rec/s", "higher", _H,
           "storage.restart_to_serving_s on crash_restart",
           "records per host second replaying one server's journal (0 without a restart)"),
    _layer("storage.restart_to_serving_s", "s", "lower", _H, "itself, on crash_restart",
           "host seconds from restart() to the first verified read, median over the run's "
           "kill/restart cycles (ISSUE's restart_to_serving_s; 0 without a restart)"),
    _layer("storage.host_share", "frac", "lower", _H, "sim_ops_per_s on crash_restart",
           "share of cProfile tottime in src/repro/storage/"),
    # -- sim ----------------------------------------------------------- #
    _layer("sim.events_per_op", "1/op", "lower", _V, "sim_ops_per_s on every workload",
           "kernel events dispatched per user op"),
    _layer("sim.events_per_s", "events/s", "higher", _H, "sim_ops_per_s on scale_hotspot",
           "kernel events per host second (can fall when events_per_op falls)"),
    _layer("sim.host_us_per_event", "us", "lower", _H, "sim_ops_per_s on scale_hotspot",
           "host microseconds per kernel event"),
    _layer("sim.host_share", "frac", "lower", _H, "sim_ops_per_s on scale_hotspot",
           "share of cProfile tottime in src/repro/sim/"),
    # -- bench / stdlib (diagnostics) ---------------------------------- #
    _layer("bench.gen_lag_mean_vms", "vms", "lower", _V, "diagnostic",
           "mean virtual ms an open-loop op was issued after it was due (it queued "
           "behind its client's previous op); the remainder of the self_vms split"),
    _layer("bench.gen_lag_p99_vms", "vms", "lower", _V, "diagnostic",
           "99th percentile of the same: how late the open-loop generator ran"),
    _layer("bench.op_mean_vms", "vms", "lower", _V, "diagnostic",
           "mean op latency, due to acked: what the self_vms split sums to on the traced "
           "pass; on crash_restart the outage's stalled ops are most of it"),
    _layer("bench.op_p95_vms", "vms", "lower", _V, "diagnostic",
           "95th percentile op latency"),
    _layer("bench.op_p99_vms", "vms", "lower", _V, "diagnostic",
           "99th percentile op latency (ISSUE's op_p99_vms): the tail is bimodal "
           "(400 ms reply timeouts) or queue-driven on three workloads, so from seed to "
           "seed it moves by more than any allowed bound"),
    _layer("bench.knee_clients", "count", "higher", _V, "diagnostic",
           "write_ramp: clients at the highest ramp step whose p99 meets the frozen "
           "limit (0 elsewhere); flips between steps from seed to seed"),
    _layer("bench.knee_goodput_ops_per_vs", "ops/vs", "higher", _V, "diagnostic",
           "write_ramp: goodput at that step (0 elsewhere)"),
    _layer("bench.fail_frac", "frac", "lower", _V, "diagnostic",
           "failed or refused ops / attempted (ISSUE's fail_frac; the result line's "
           "failed/attempted carry the counts)"),
    _layer("bench.acked_lost", "count", "lower", _V, "diagnostic",
           "acked writes whose bytes a later verified read does not return "
           "(any value above 0 makes the run incorrect)"),
    _layer("bench.host_speed", "ratio", "higher", _H, "diagnostic",
           "this box's speed during the run on a fixed pure-Python loop, 1.0 = the "
           "defining box when quiet; sim_ops_per_s and setup_s are divided by it, every "
           "per-layer host column is raw"),
    _layer("bench.trace_overhead_frac", "frac", "lower", _H, "diagnostic",
           "traced pass host time / untraced pass host time - 1"),
    _layer("bench.contended", "count", "lower", _H, "diagnostic",
           "1 when perf_counter and process_time over the measured windows differ by "
           "more than 5%: something else had the CPU, distrust the host columns"),
    _layer("other.host_share", "frac", "lower", _H, "diagnostic",
           "share of cProfile tottime in repro modules outside the seven layers "
           "(metrics registry, testbed, obs)"),
    _layer("stdlib.host_share", "frac", "lower", _H, "diagnostic",
           "share of cProfile tottime in built-ins and the standard library"),
    _layer("bench.host_share", "frac", "lower", _H, "diagnostic",
           "share of cProfile tottime in bench/ itself (replay loop and oracle)"),
]

#: the self-time columns that, with ``bench.gen_lag_mean_vms``, sum to the
#: traced pass's mean op latency
SELF_VMS = ["agent.self_vms", "nfs.self_vms", "core.self_vms", "storage.self_vms",
            "net.self_vms"]
HOST_SHARES = [m.name for m in PER_LAYER if m.name.endswith(".host_share")]


def manifest() -> dict:
    """``BENCHMARK.json``, exactly as the driver contract spells it."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


def by_name() -> dict[str, Metric]:
    return {m.name: m for m in END_TO_END + PER_LAYER}
