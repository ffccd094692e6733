"""Replay a workload trace against a Deceit cluster (or the baseline)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NfsError
from repro.metrics import LatencyStats
from repro.workloads.generator import Op, OpKind


@dataclass
class ReplayStats:
    """What a replay produces: per-op latencies and an availability figure."""

    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    latency: LatencyStats = field(default_factory=LatencyStats)
    by_kind: dict[str, LatencyStats] = field(default_factory=dict)

    @property
    def availability(self) -> float:
        """Fraction of operations that completed successfully."""
        return self.succeeded / self.attempted if self.attempted else 1.0

    def record(self, kind: OpKind, latency_ms: float, ok: bool) -> None:
        """Account one operation."""
        self.attempted += 1
        if ok:
            self.succeeded += 1
            self.latency.record(latency_ms)
            self.by_kind.setdefault(kind.value, LatencyStats()).record(latency_ms)
        else:
            self.failed += 1


async def _ensure_population(agents, ops: list[Op],
                             file_params: dict | None = None) -> None:
    """Create every directory/file the trace will touch (via agent 0).

    ``file_params`` (e.g. ``{"min_replicas": 3}``) is applied to every
    created file — how §6.1's users "set the replication level to 2 or 3 on
    important source and text files".
    """
    agent = agents[0]
    await agent.mount()
    dirs: set[str] = set()
    files: dict[str, int] = {}
    for op in ops:
        if op.kind is OpKind.READDIR:
            dirs.add(op.path)
        elif op.kind is OpKind.CREATE:
            dirs.add(op.path.rsplit("/", 1)[0])
        else:
            dirs.add(op.path.rsplit("/", 1)[0])
            if op.kind is not OpKind.REMOVE:
                # ranged ops address [offset, offset+size): the file must
                # be created large enough to cover their furthest extent
                extent = op.offset + op.size if op.kind in (
                    OpKind.READ_RANGE, OpKind.WRITE_RANGE) else op.size
                files[op.path] = max(files.get(op.path, 0), extent)
    for dirpath in sorted(dirs):
        if dirpath in ("", "/"):
            continue
        parent, _slash, name = dirpath.rpartition("/")
        try:
            await agent.mkdir(parent or "/", name)
        except NfsError:
            pass  # already exists
    for path, size in sorted(files.items()):
        parent, _slash, name = path.rpartition("/")
        try:
            await agent.create(parent or "/", name)
            await agent.write_file(path, b"x" * max(64, size))
            if file_params:
                await agent.set_params(path, **file_params)
        except NfsError:
            pass


async def _run_op(agent, op: Op) -> None:
    if op.kind is OpKind.GETATTR:
        await agent.getattr(op.path)
    elif op.kind is OpKind.LOOKUP:
        await agent.lookup_path(op.path)
    elif op.kind is OpKind.READ:
        await agent.read_file(op.path)
    elif op.kind is OpKind.READ_RANGE:
        await agent.read_at(op.path, op.offset, max(1, op.size))
    elif op.kind is OpKind.WRITE:
        await agent.write_file(op.path, b"w" * max(64, op.size))
    elif op.kind is OpKind.WRITE_RANGE:
        await agent.write_at(op.path, op.offset, b"r" * max(1, op.size))
    elif op.kind is OpKind.CREATE:
        parent, _slash, name = op.path.rpartition("/")
        await agent.create(parent or "/", name)
    elif op.kind is OpKind.REMOVE:
        parent, _slash, name = op.path.rpartition("/")
        await agent.remove(parent or "/", name)
    elif op.kind is OpKind.READDIR:
        await agent.readdir(op.path)


async def replay(cluster, ops: list[Op], prepopulate: bool = True,
                 file_params: dict | None = None) -> ReplayStats:
    """Drive a trace through the cluster's agents at trace timestamps.

    Each op is issued by its trace-assigned client agent at its trace time
    (operations whose client is busy queue behind it, as a real
    single-threaded user process would).  Failed ops (server unreachable,
    stale handles mid-crash) count against availability rather than
    aborting the replay.  ``file_params`` tunes every prepopulated file.
    """
    stats = ReplayStats()
    agents = cluster.agents
    if prepopulate:
        await _ensure_population(agents, ops, file_params)
    kernel = cluster.kernel
    start = kernel.now

    async def client_loop(client_index: int) -> None:
        mine = [op for op in ops if op.client % len(agents) == client_index]
        agent = agents[client_index]
        for op in mine:
            target = start + op.at_ms
            if kernel.now < target:
                await kernel.sleep(target - kernel.now)
            t0 = kernel.now
            try:
                await _run_op(agent, op)
                stats.record(op.kind, kernel.now - t0, ok=True)
            except NfsError:
                stats.record(op.kind, kernel.now - t0, ok=False)

    tasks = [kernel.spawn(client_loop(i)) for i in range(len(agents))]
    await kernel.all_of(tasks)
    return stats
