"""Tests for the workload generator and replay engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agent import AgentConfig
from repro.testbed import build_cluster
from repro.workloads import (
    NAMED_WORKLOADS,
    OpKind,
    WorkloadConfig,
    WorkloadGenerator,
    hotspot_config,
    replay,
    streaming_config,
    zipf_weights,
)


def test_population_respects_small_file_assumption():
    gen = WorkloadGenerator(WorkloadConfig(seed=1))
    summary = gen.summary()
    assert summary["max_bytes"] <= 20 * 1024
    assert summary["under_20k_fraction"] == 1.0


def test_trace_sorted_and_bounded():
    cfg = WorkloadConfig(duration_ms=10_000.0, seed=2)
    ops = WorkloadGenerator(cfg).generate()
    assert ops
    times = [op.at_ms for op in ops]
    assert times == sorted(times)


def test_op_mix_dominated_by_reads_and_metadata():
    """§2.3: getattr/lookup/read/write dominate."""
    ops = WorkloadGenerator(WorkloadConfig(duration_ms=120_000.0, seed=3)).generate()
    counts = {}
    for op in ops:
        counts[op.kind] = counts.get(op.kind, 0) + 1
    dominant = sum(counts.get(k, 0) for k in
                   (OpKind.GETATTR, OpKind.LOOKUP, OpKind.READ, OpKind.WRITE))
    assert dominant / len(ops) > 0.85


def test_write_sharing_is_rare():
    """§2.3: nearly simultaneous writes by two clients are very rare."""
    ops = WorkloadGenerator(WorkloadConfig(duration_ms=240_000.0, seed=4)).generate()
    writers: dict[str, set[int]] = {}
    for op in ops:
        if op.kind is OpKind.WRITE:
            writers.setdefault(op.path, set()).add(op.client)
    shared = sum(1 for clients in writers.values() if len(clients) > 1)
    assert shared / max(1, len(writers)) < 0.1


def test_directory_locality():
    """§2.3: file activity clusters in a small number of directories."""
    cfg = WorkloadConfig(duration_ms=120_000.0, n_dirs=8, seed=5)
    ops = WorkloadGenerator(cfg).generate()
    per_dir: dict[str, int] = {}
    for op in ops:
        d = op.path.split("/")[1] if "/" in op.path[1:] else op.path
        per_dir[d] = per_dir.get(d, 0) + 1
    ranked = sorted(per_dir.values(), reverse=True)
    top2 = sum(ranked[:2]) / sum(ranked)
    assert top2 > 0.5  # top quarter of dirs gets most of the traffic


def test_hotspot_config_concentrates_traffic_on_few_files():
    """The skewed-hotspot profile: zipf popularity over the whole file
    population, with a read-heavy mix (the regime file migration serves)."""
    cfg = hotspot_config(duration_ms=120_000.0, seed=11)
    assert cfg.file_zipf_s is not None
    ops = WorkloadGenerator(cfg).generate()
    per_file: dict[str, int] = {}
    reads = 0
    for op in ops:
        per_file[op.path] = per_file.get(op.path, 0) + 1
        reads += op.kind is OpKind.READ
    ranked = sorted(per_file.values(), reverse=True)
    top5 = sum(ranked[:5]) / sum(ranked)
    assert top5 > 0.35           # a handful of files take the heat
    assert reads / len(ops) > 0.45  # and the mix is read-dominated


def test_zipf_weights_shape():
    weights = zipf_weights(10, 1.2)
    assert len(weights) == 10
    assert weights == sorted(weights, reverse=True)
    assert weights[0] == 1.0


def test_writes_come_in_bursts():
    ops = WorkloadGenerator(WorkloadConfig(duration_ms=60_000.0, seed=6)).generate()
    writes = [op for op in ops if op.kind is OpKind.WRITE]
    assert writes
    # bursts: consecutive writes to the same path within a minute
    bursty = 0
    for a, b in zip(writes, writes[1:]):
        if a.path == b.path and b.at_ms - a.at_ms < 60_000:
            bursty += 1
    assert bursty > 0


@pytest.mark.parametrize("mix", sorted(NAMED_WORKLOADS))
def test_remove_is_issued_by_the_client_that_created_the_file(mix):
    """Open-loop, a remove handed to another client can overtake the
    creator's queued create and fail ERR_NOENT with no fault injected."""
    for seed in range(20):
        cfg = NAMED_WORKLOADS[mix](n_clients=4, duration_ms=60_000.0,
                                   seed=seed)
        creator: dict[str, int] = {}
        for op in WorkloadGenerator(cfg).generate():
            if op.kind is OpKind.CREATE:
                creator[op.path] = op.client
            elif op.kind is OpKind.REMOVE:
                assert op.client == creator[op.path], (mix, seed, op)


def test_determinism_by_seed():
    a = WorkloadGenerator(WorkloadConfig(seed=42)).generate()
    b = WorkloadGenerator(WorkloadConfig(seed=42)).generate()
    assert a == b
    c = WorkloadGenerator(WorkloadConfig(seed=43)).generate()
    assert a != c


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_generator_never_exceeds_size_cap(seed):
    gen = WorkloadGenerator(WorkloadConfig(seed=seed, duration_ms=5_000.0))
    assert all(f.size <= 20 * 1024 for f in gen.files)
    for op in gen.generate():
        assert op.at_ms >= 0


def test_replay_small_trace_end_to_end():
    cluster = build_cluster(n_servers=3, n_agents=2,
                            agent_config=AgentConfig(cache=True))
    cfg = WorkloadConfig(n_clients=2, n_dirs=2, files_per_dir=3,
                         duration_ms=3_000.0, mean_interarrival_ms=100.0,
                         seed=7)
    ops = WorkloadGenerator(cfg).generate()

    async def main():
        return await replay(cluster, ops)

    stats = cluster.run(main(), limit=2_000_000.0)
    assert stats.attempted == len(ops)
    assert stats.availability > 0.95
    assert stats.latency.count > 0


def test_streaming_config_mixes_scans_and_range_writes():
    cfg = streaming_config(duration_ms=30_000.0, seed=8)
    ops = WorkloadGenerator(cfg).generate()
    kinds = {op.kind for op in ops}
    assert OpKind.READ_RANGE in kinds and OpKind.WRITE_RANGE in kinds
    # scan chunks land on chunk-aligned offsets (sequential walks)
    for op in ops:
        if op.kind is OpKind.READ_RANGE and op.offset > 0:
            assert op.offset % cfg.range_chunk_bytes == 0
    # files are large-file-regime, far past the §2.3 small-file cap
    gen = WorkloadGenerator(cfg)
    assert max(f.size for f in gen.files) > 20 * 1024


def test_streaming_replay_over_striped_population():
    """The §6.2 streaming scenario end to end: scans + range writes over a
    striped population (scaled down so the sim stays quick)."""
    cluster = build_cluster(n_servers=4, n_agents=2,
                            agent_config=AgentConfig(cache=True))
    cfg = streaming_config(n_clients=2, n_dirs=1, files_per_dir=2,
                           duration_ms=3_000.0, mean_interarrival_ms=150.0,
                           median_file_bytes=8 * 1024,
                           max_file_bytes=16 * 1024,
                           range_chunk_bytes=2 * 1024, seed=9)
    ops = WorkloadGenerator(cfg).generate()

    async def main():
        return await replay(cluster, ops,
                            file_params={"stripe_size": 4 * 1024})

    stats = cluster.run(main(), limit=4_000_000.0)
    assert stats.availability > 0.95
    # the population really was striped and the scans went through the map
    assert cluster.metrics.get("striping.conversions") > 0
    assert cluster.metrics.get("striping.range_reads") > 0
    cluster.close()
