"""Whole-cell kill -9 / cold-restart crash matrix (§3.6 "Total Failure").

Every scenario drives a seeded workload that keeps all four risky paths
hot — group-commit batches, token transfers between servers, stripe
extends of a striped file, and directory ops — then ``kill -9``s the whole
cell at a randomized virtual instant, cold-restarts it from the storage
backends alone, and checks the §4 write-safety contract:

- every **acked** write is present afterwards (safety ≥ 1 means an ack
  attests at least one durable replica);
- every **unacked** write is absent or whole — never a torn mixture;
- an acked remove stays removed, an acked create stays visible.

A second workload family, *burst heads*, sleeps past ``STABLE_QUIET_MS``
between rounds, so every round's writes open a fresh §3.4 burst and carry
the unstable mark — dirops and stripe extends too, not only each file's
first rewrite — and a kill can cut a marked round at any of them.

The fast subset runs in tier-1; the full backend × safety × kill-point
matrix, for both families, is the tier-2 job (``RESTART_MATRIX=1``).  A
64-server same-seed determinism pin (matching ``test_scale``'s) proves the
kill/restart machinery — including a file-backed journal — never perturbs
the seeded event order.
"""

import os
import random

import pytest

from repro.core.stability import STABLE_QUIET_MS
from repro.testbed import build_cluster

FULL_MATRIX = os.environ.get("RESTART_MATRIX") == "1"

CHUNK = 256  # striped-file append unit


class OpLog:
    """What the workload acked vs what was in flight at the kill."""

    def __init__(self):
        self.files: dict[str, dict] = {}     # path -> {acked, pending}
        self.created: set[str] = set()       # paths whose create was acked
        self.big_acked = 0                   # chunks acked onto /big
        self.big_pending = False             # one more append in flight
        self.dir_acked: set[str] = set()     # names acked present in /dirs
        self.dir_removed: set[str] = set()   # names acked removed
        self.dir_pending: set[str] = set()   # create/remove in flight


def _big_bytes(chunks: int) -> bytes:
    return b"".join(bytes([i % 251]) * CHUNK for i in range(chunks))


#: pause between burst-head rounds: past the quiet period, so the stable
#: mark has gone out and the next round's first writes mark again
BURST_GAP_MS = STABLE_QUIET_MS + 20.0


async def _workload(cluster, log: OpLog, write_safety: int, n_files: int,
                    burst_heads: bool = False):
    """Setup then an endless risky loop; dies wherever the kill lands."""
    agents = cluster.agents
    for i, agent in enumerate(agents):
        agent.current = i % len(cluster.servers)
        await agent.mount()
    a0 = agents[0]
    for i in range(n_files):
        path = f"/f{i}"
        log.files[path] = {"acked": b"", "pending": None}
        await a0.create("/", f"f{i}")
        log.created.add(path)
        await a0.set_params(path, write_safety=write_safety,
                            min_replicas=min(2, len(cluster.servers)))
    await a0.mkdir("/", "dirs")
    log.created.add("/dirs")
    await a0.create("/", "big")
    log.created.add("/big")
    await a0.set_params("/big", stripe_size=2 * CHUNK,
                        write_safety=write_safety)
    r = 0
    while True:  # the kill is the only way out
        if burst_heads:
            await cluster.kernel.sleep(BURST_GAP_MS)
        writer = agents[r % len(agents)]
        path = f"/f{r % n_files}"
        value = f"{path}:round{r}".encode()
        entry = log.files[path]
        entry["pending"] = value
        await writer.write_file(path, value)          # token ping-pongs
        entry["acked"], entry["pending"] = value, None

        name = f"d{r}"
        log.dir_pending.add(name)
        await writer.create("/dirs", name)            # dirop: create
        log.dir_acked.add(name)
        log.dir_pending.discard(name)
        if r >= 2 and r % 3 == 0:
            victim = f"d{r - 2}"
            if victim in log.dir_acked:
                log.dir_pending.add(victim)
                await writer.remove("/dirs", victim)  # dirop: remove
                log.dir_removed.add(victim)
                log.dir_acked.discard(victim)
                log.dir_pending.discard(victim)

        log.big_pending = True                        # stripe extend
        await a0.write_at("/big", log.big_acked * CHUNK,
                          _big_bytes(log.big_acked + 1)[-CHUNK:])
        log.big_acked += 1
        log.big_pending = False
        r += 1


def _verify(cluster, log: OpLog) -> dict:
    """Post-restart: check the contract, return a canonical summary."""
    agent = cluster.agents[0]

    async def read_optional(path):
        """A create the kill interrupted may or may not have survived."""
        from repro.errors import NfsError
        try:
            return await agent.read_file(path)
        except NfsError:
            assert path not in log.created, f"{path}: acked create lost"
            return None

    async def check():
        await agent.mount()
        out = {}
        for path, entry in sorted(log.files.items()):
            data = await read_optional(path)
            if data is None:
                out[path] = None
                continue
            allowed = {entry["acked"]}
            if entry["pending"] is not None:
                allowed.add(entry["pending"])
            assert data in allowed, (
                f"{path}: recovered {data!r}, expected one of {allowed}")
            out[path] = data
        big = await read_optional("/big")
        if big is not None:
            min_len = log.big_acked * CHUNK
            max_len = min_len + (CHUNK if log.big_pending else 0)
            assert len(big) in (min_len, max_len), (
                f"/big: {len(big)} bytes, acked {min_len}, pending tail "
                f"{log.big_pending}")
            assert big == _big_bytes(len(big) // CHUNK), \
                "/big: torn stripe data"
            out["/big_chunks"] = len(big) // CHUNK
        if "/dirs" in log.created or log.dir_acked:
            names = {e["name"] for e in await agent.readdir("/dirs")}
            for name in log.dir_acked:
                assert name in names, f"/dirs/{name}: acked create lost"
            for name in log.dir_removed:
                assert name not in names, f"/dirs/{name}: acked remove undone"
            out["/dirs"] = sorted(names)
        return out

    return cluster.run(check())


def _crash_restart_scenario(backend, storage_root, seed, write_safety,
                            n_servers=4, n_agents=2, n_files=4,
                            burst_heads=False):
    kw = {}
    if backend != "memory":
        kw = {"backend": backend,
              "storage_dir": os.path.join(storage_root,
                                          f"{backend}-{seed}-{write_safety}")}
    if n_servers >= 16:
        # the large-cell profile (see build_scale_cluster): an all-pairs
        # 20 Hz heartbeat mesh at 64 servers would drown the run in events
        fd = max(50.0, n_servers * 4.0)
        kw.update(fd_interval_ms=fd, fd_timeout_ms=4 * fd,
                  merge_audit_interval_ms=max(2000.0, n_servers * 250.0),
                  scatter_agents=True)
    cluster = build_cluster(n_servers, n_agents=n_agents, seed=seed, **kw)
    log = OpLog()
    cluster.kernel.spawn(_workload(cluster, log, write_safety, n_files,
                                   burst_heads))
    rng = random.Random(seed * 7 + write_safety)
    # land anywhere from mid-setup to deep in the risky loop; the setup
    # takes about 650 ms, and a burst-head round about 350 ms, not 100
    latest = 2400.0 if burst_heads else 900.0
    cluster.kernel.run(until=cluster.kernel.now + rng.uniform(150.0, latest))
    # burst heads whose marked round the kill interrupts
    heads = sum(len(server.segments.pipeline.burst_heads)
                for server in cluster.servers)
    cluster.kill()
    cluster.restart()
    try:
        summary = _verify(cluster, log)
        summary["heads_at_kill"] = heads
        summary["metrics"] = cluster.metrics.snapshot()
        summary["now"] = cluster.kernel.now
        summary["acked_rounds"] = {p: e["acked"] for p, e in log.files.items()}
        return summary
    finally:
        cluster.close()


# --------------------------------------------------------------------- #
# tier-1: one fast cell per backend + the empty-cell edge
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("backend", ["memory", "journal", "sqlite"])
def test_restart_smoke(backend, tmp_path):
    summary = _crash_restart_scenario(backend, str(tmp_path), seed=5,
                                      write_safety=1)
    assert summary["now"] > 0  # contract checks themselves ran in _verify


def test_restart_smoke_burst_heads(tmp_path):
    summary = _crash_restart_scenario("journal", str(tmp_path), seed=4,
                                      write_safety=2, burst_heads=True)
    assert summary["heads_at_kill"] == 1   # the kill cut a marked round


def test_restart_before_any_user_write(tmp_path):
    """A cell killed right after bootstrap restarts to a working mount:
    the root handle itself must be durable."""
    cluster = build_cluster(3, n_agents=1, seed=9, backend="journal",
                            storage_dir=str(tmp_path / "boot"))
    cluster.settle(100.0)
    cluster.kill()
    cluster.restart()
    agent = cluster.agents[0]

    async def check():
        await agent.mount()
        await agent.create("/", "after")
        await agent.write_file("/after", b"post-restart write")
        return await agent.read_file("/after")

    assert cluster.run(check()) == b"post-restart write"
    cluster.close()


def test_double_restart(tmp_path):
    """Kill → restart → write → kill → restart: journals replay journals."""
    cluster = build_cluster(3, n_agents=1, seed=13, backend="journal",
                            storage_dir=str(tmp_path / "twice"))
    agent = cluster.agents[0]

    async def first():
        await agent.mount()
        await agent.create("/", "gen")
        await agent.write_file("/gen", b"one")

    cluster.run(first())
    cluster.settle(100.0)
    cluster.kill()
    cluster.restart()
    agent = cluster.agents[0]

    async def second():
        await agent.mount()
        assert await agent.read_file("/gen") == b"one"
        await agent.write_file("/gen", b"two")

    cluster.run(second())
    cluster.settle(100.0)
    cluster.kill()
    cluster.restart()
    agent = cluster.agents[0]

    async def third():
        await agent.mount()
        return await agent.read_file("/gen")

    assert cluster.run(third()) == b"two"
    cluster.close()


# --------------------------------------------------------------------- #
# tier-2: the full backend × safety × kill-point matrix
# --------------------------------------------------------------------- #

@pytest.mark.skipif(not FULL_MATRIX,
                    reason="full crash matrix runs in the tier-2 CI job "
                           "(RESTART_MATRIX=1)")
@pytest.mark.parametrize("backend", ["memory", "journal", "sqlite"])
@pytest.mark.parametrize("write_safety", [1, 2])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("burst_heads", [False, True],
                         ids=["loop", "burst_heads"])
def test_crash_matrix(backend, write_safety, seed, burst_heads, tmp_path):
    _crash_restart_scenario(backend, str(tmp_path), seed=seed,
                            write_safety=write_safety,
                            burst_heads=burst_heads)


# --------------------------------------------------------------------- #
# determinism pin (test_scale style): same seed → byte-identical runs
# --------------------------------------------------------------------- #

def test_restart_determinism_64_servers(tmp_path):
    """Two same-seed 64-server kill/restart runs on journal backends must
    agree on every counter, the virtual clock, and all recovered bytes —
    backends are real-time side effects that may never perturb the seeded
    event order."""
    first = _crash_restart_scenario("journal", str(tmp_path / "a"), seed=21,
                                    write_safety=1, n_servers=64, n_agents=8)
    second = _crash_restart_scenario("journal", str(tmp_path / "b"), seed=21,
                                     write_safety=1, n_servers=64, n_agents=8)
    assert first == second
