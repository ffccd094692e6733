"""Per-layer accounting: where an op's virtual time and the host's CPU go.

Three sources, one per column family of the per-layer table:

- counter deltas over the measured window (``cluster.metrics``) give the
  work counts and useful/attempted ratios;
- the traced pass's span stream gives each layer's *virtual self time*:
  the part of an op's due-to-acked interval during which that layer's
  span was the deepest one open;
- the profile pass's ``cProfile`` ``tottime`` rolled up by
  ``src/repro/<package>/`` gives each layer's *host share*.
"""

from __future__ import annotations

import os

from repro.obs.tracer import Tracer

#: span layer -> depth (deeper wins an instant two spans both cover)
_DEPTH = {"agent": 0, "rpc": 1, "pipeline": 2, "disk": 3, "net": 4}
#: rpc methods served by the NFS envelope; every other rpc span is a
#: server-to-server call made by the segment layer
_NFS_METHODS = {"nfs", "nfs_root", "deceit_cmd"}
LAYERS = ("agent", "nfs", "core", "storage", "net")


def _layer_of(span_layer: str, label: str) -> str:
    if span_layer == "rpc":
        return "nfs" if label in _NFS_METHODS else "core"
    return {"agent": "agent", "pipeline": "core", "disk": "storage", "net": "net"}[span_layer]


class OpTracer(Tracer):
    """A :class:`Tracer` that remembers which trace minted which.

    The replayer stamps ``-op_id`` on the client task before each op;
    ``Agent._nfs`` mints its trace id while that stamp (or a trace minted
    under it, for fanned-out and prefetch tasks) is still the task's
    current trace, so following ``parent`` from any span's trace id ends
    at the op that caused it.
    """

    def __init__(self, kernel, capacity: int = 5_000_000):
        super().__init__(capacity)
        self.kernel = kernel
        self.parent: dict[int, int | None] = {}

    def mint(self) -> int:
        tid = super().mint()
        self.parent[tid] = self.kernel.current_trace()
        return tid

    def spans_by_op(self) -> dict[int, list]:
        """Spans grouped by the op id that (transitively) caused them."""
        owner: dict[int, int | None] = {}

        def resolve(tid):
            chain = []
            while tid is not None and tid > 0 and tid not in owner:
                chain.append(tid)
                tid = self.parent.get(tid)
            root = owner[tid] if tid in owner else (-tid if tid is not None else None)
            for t in chain:
                owner[t] = root
            return root

        out: dict[int, list] = {}
        for span in self.spans:
            op_id = resolve(span[0])
            if op_id is not None:
                out.setdefault(op_id, []).append(span)
        return out


def split_self_time(recs, spans_by_op) -> tuple[dict[str, float], float]:
    """Total virtual self time per layer over ``recs``, plus total
    generator lag.  For every op the five layers and the lag partition
    ``[due, acked]`` exactly, so the totals sum to the total op latency:
    time before issue is generator lag, an instant covered by spans goes
    to the deepest one, and an instant inside the op covered by none is
    the agent's own (user hops, backoff sleeps, cache work)."""
    totals = dict.fromkeys(LAYERS, 0.0)
    lag = 0.0
    for op_id, _client, _kind, due, issued, acked, _ok, _bytes in recs:
        lag += issued - due
        edges = []
        for _tid, start, end, span_layer, label in spans_by_op.get(op_id, ()):
            start, end = max(start, issued), min(end, acked)
            if end > start:
                key = (_DEPTH[span_layer], _layer_of(span_layer, label))
                edges.append((start, 1, key))
                edges.append((end, -1, key))
        edges.sort(key=lambda e: e[0])
        open_spans: dict[tuple, int] = {}
        at = issued
        for when, step, key in edges:
            if when > at:
                owner = max(k for k, n in open_spans.items() if n)[1] \
                    if any(open_spans.values()) else "agent"
                totals[owner] += when - at
                at = when
            open_spans[key] = open_spans.get(key, 0) + step
        totals["agent"] += acked - at
    return totals, lag


# ---------------------------------------------------------------------- #
# host share
# ---------------------------------------------------------------------- #

_PACKAGES = ("agent", "nfs", "core", "isis", "net", "storage", "sim")
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def host_shares(profile) -> dict[str, float]:
    """``cProfile`` ``tottime`` rolled up by package; shares sum to 1."""
    import pstats
    totals = dict.fromkeys(_PACKAGES + ("other", "stdlib", "bench"), 0.0)
    for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) in \
            pstats.Stats(profile).stats.items():
        totals[_bucket(filename)] += tottime
    whole = sum(totals.values()) or 1.0
    return {f"{name}.host_share": value / whole for name, value in totals.items()}


def _bucket(filename: str) -> str:
    norm = filename.replace("\\", "/")
    if "/repro/" in norm:
        package = norm.rsplit("/repro/", 1)[1].split("/", 1)[0]
        return package if package in _PACKAGES else "other"
    if filename.startswith(_BENCH_DIR):
        return "bench"
    return "stdlib"   # built-ins ("~"), the standard library, <string>


# ---------------------------------------------------------------------- #
# counters
# ---------------------------------------------------------------------- #

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counter_metrics(c: dict[str, int], n_ops: int, virtual_s: float,
                    latency_p50) -> dict[str, float]:
    """The count and ratio columns, from counter deltas ``c`` over a
    window of ``n_ops`` user ops and ``virtual_s`` virtual seconds."""
    g = lambda name: c.get(name, 0)   # noqa: E731
    updates = g("deceit.updates")
    return {
        "agent.attr_cache_hit_ratio": _ratio(
            g("agent.attr_cache_hits"), g("agent.attr_cache_hits") + g("nfs.ops.getattr")),
        "agent.data_cache_hit_ratio": _ratio(
            g("agent.data_cache_hits"),
            g("agent.data_cache_hits") + g("agent.data_cache_misses")),
        "agent.revalidations_per_op": _ratio(
            g("agent.data_cache_revalidations") + g("agent.dir_cache_revalidations"), n_ops),
        "agent.readahead_hit_ratio": _ratio(g("agent.readahead_hits"), g("agent.range_reads")),
        "agent.failovers": g("agent.failovers"),
        "agent.busy_retries": g("agent.busy_retries"),
        "nfs.requests_per_op": _ratio(g("nfs.requests"), n_ops),
        "nfs.dir_retries": g("nfs.dir_retries"),
        "nfs.dirop_conflicts": g("nfs.dirop_conflicts"),
        "nfs.unchanged_reply_ratio": _ratio(
            g("nfs.reads_unchanged") + g("nfs.readdirs_unchanged"),
            g("nfs.ops.read") + g("nfs.ops.readdir")),
        "core.write_p50_vms": latency_p50("pipeline.write_ms"),
        "core.read_p50_vms": latency_p50("pipeline.read_ms"),
        "core.token_passes_per_update": _ratio(g("deceit.token_passes"), updates),
        "core.reads_forwarded_ratio": _ratio(g("deceit.reads_forwarded"), g("deceit.reads")),
        "core.read_cache_hit_ratio": _ratio(
            g("deceit.read_cache_hits"),
            g("deceit.read_cache_hits") + g("deceit.read_cache_misses")),
        "core.replica_fetches": g("deceit.replica_fetches"),
        "core.replicas_lru_dropped": g("deceit.replicas_lru_dropped"),
        "core.stripe_ios_per_range_op": _ratio(g("striping.stripe_reads"),
                                               g("striping.range_reads")),
        "isis.mcasts_per_update": _ratio(g("isis.mcasts"), updates),
        "isis.deliveries_per_mcast": _ratio(g("isis.deliveries"), g("isis.mcasts")),
        "isis.view_changes": g("isis.view_changes"),
        "isis.fd_suspicions": g("fd.suspicions"),
        "net.msgs_per_op": _ratio(g("net.msgs"), n_ops),
        "net.bytes_per_op": _ratio(g("net.bytes_moved"), n_ops),
        "net.msgs_per_vs": _ratio(g("net.msgs"), virtual_s),
        "storage.commits_per_op": _ratio(g("disk.commits"), n_ops),
        "storage.records_per_commit": _ratio(g("disk.commit_records"), g("disk.commits")),
        "storage.sync_writes_per_op": _ratio(g("disk.sync_writes"), n_ops),
    }
