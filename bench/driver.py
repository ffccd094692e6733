"""The benchmark's own replay loop, latency book and output oracle.

Deliberately *not* ``repro.workloads.replay.replay``: that starts an op's
clock after the client finished queueing (hiding the wait a stall imposes
on later ops) and keeps percentiles in a reservoir.  Here an open-loop op
is timed from the moment it was *due*, every latency is kept, and how
late the generator ran is reported beside it.
"""

from __future__ import annotations

import math
import re
import time
import zlib
from collections import Counter
from dataclasses import dataclass, field

from repro.errors import NfsError

OPEN, CLOSED = "open", "closed"

#: share of the trace (open loop) or of the window (closed loop) replayed
#: untimed before measuring, so agent caches and file groups are warm
WARMUP_FRAC = 0.05


@dataclass(frozen=True)
class Op:
    """One generated user op.  ``at_ms`` (open loop) is its due time from
    the start of the trace; a closed loop ignores it."""

    at_ms: float
    kind: str          # getattr lookup read write create remove readdir read_at write_at
    path: str
    size: int = 0
    offset: int = 0


@dataclass
class FileSpec:
    """A prepopulated file.  ``block`` > 0 makes it a sequence of
    independently self-describing ``block``-byte records (ranged ops)."""

    size: int
    params: dict = field(default_factory=dict)
    block: int = 0


# ---------------------------------------------------------------------- #
# self-describing payloads
# ---------------------------------------------------------------------- #

MIN_PAYLOAD = 96


def make_payload(path: str, client: int, seq: int, size: int, offset: int = 0) -> bytes:
    """``path|client|seq|offset|size|crc`` + filler derived from the crc,
    exactly ``size`` bytes: any truncation, splice or misdirected write
    fails :func:`parse_payload`."""
    head = b"%s|%d|%d|%d|%d|" % (path.encode(), client, seq, offset, size)
    token = b"%08x" % zlib.crc32(head)
    fill = size - len(head) - 9
    if fill < 0:
        raise ValueError(f"payload of {size} bytes cannot carry its header")
    return head + token + b"\n" + (token * (fill // 8 + 1))[:fill]


def parse_payload(data: bytes) -> tuple[str, int, int, int] | None:
    """``(path, client, seq, offset)`` of an intact payload, else ``None``."""
    end = data.find(b"\n", 0, 512)
    if end < 9:
        return None
    head, token = data[:end - 8], data[end - 8:end]
    if b"%08x" % zlib.crc32(head) != token:
        return None
    fields = head.split(b"|")
    if len(fields) != 6:
        return None
    try:
        client, seq, offset, size = (int(f) for f in fields[1:5])
    except ValueError:
        return None
    fill = size - end - 1
    if size != len(data) or data[end + 1:] != (token * (fill // 8 + 1))[:fill]:
        return None
    return fields[0].decode(), client, seq, offset


class Oracle:
    """Checks every read and remembers what the last acked write was.

    Per record key ``(path, offset)`` it keeps the set of write seqs a
    correct system may return: the last acked write, plus any write that
    was in flight, failed, or acked concurrently with it.  ``corrupt``
    counts reads that are torn, misaddressed or from the future;
    ``lost`` counts keys whose verified final read is outside that set.
    """

    def __init__(self) -> None:
        self.seq = 0
        self.corrupt = 0
        self.lost = 0
        self.complaints: list[str] = []
        self._blocks: dict[str, int] = {}                   # path -> block size
        self._issued: dict[int, float] = {}                 # seq -> issue time
        self._open: dict[tuple[str, int], set[int]] = {}    # in flight or failed
        self._allowed: dict[tuple[str, int], dict[int, float]] = {}  # seq -> ack time

    def register(self, path: str, block: int) -> None:
        self._blocks[path] = block

    # -- writes -------------------------------------------------------- #

    def begin_write(self, path: str, offset: int, now: float) -> int:
        self.seq += 1
        self._issued[self.seq] = now
        self._open.setdefault((path, offset), set()).add(self.seq)
        return self.seq

    def ack_write(self, path: str, offset: int, seq: int, now: float) -> None:
        key = (path, offset)
        self._open[key].discard(seq)
        issued = self._issued.pop(seq)
        # an earlier ack stays allowed only if it overlapped this write
        # (the server may have ordered the two either way)
        keep = {s: t for s, t in self._allowed.get(key, {}).items() if t >= issued}
        keep[seq] = now
        self._allowed[key] = keep

    # -- reads --------------------------------------------------------- #

    def check_read(self, path: str, data: bytes, offset: int = 0) -> None:
        """Integrity and addressing of one read reply."""
        block = self._blocks.get(path, 0)
        if not block:
            self._check_record(path, 0, data)
            return
        if offset % block:
            raise ValueError("ranged ops on a blocked file must be block-aligned")
        for rel in range(0, len(data), block):
            self._check_record(path, offset + rel, data[rel:rel + block])

    def _check_record(self, path: str, offset: int, data: bytes) -> int | None:
        parsed = parse_payload(data)
        if parsed is None:
            return self._complain(f"{path}@{offset}: torn or foreign bytes ({len(data)} B)")
        got_path, _client, seq, got_offset = parsed
        if (got_path, got_offset) != (path, offset):
            return self._complain(f"{path}@{offset}: holds a write to {got_path}@{got_offset}")
        if seq > self.seq:
            return self._complain(f"{path}@{offset}: seq {seq} was never written")
        return seq

    def _complain(self, what: str) -> None:
        self.corrupt += 1
        if len(self.complaints) < 20:
            self.complaints.append(what)
        return None

    def check_final(self, path: str, data: bytes) -> None:
        """After the drain: every record of ``path`` must be the last
        acked write (or one the system was allowed to order after it)."""
        block = self._blocks.get(path, 0) or max(len(data), 1)
        for offset in range(0, max(len(data), 1), block):
            seq = self._check_record(path, offset, data[offset:offset + block])
            key = (path, offset)
            allowed = set(self._allowed.get(key, ())) | self._open.get(key, set())
            if seq is not None and seq not in allowed:
                self.lost += 1
                if len(self.complaints) < 20:
                    self.complaints.append(
                        f"{path}@{offset}: final read has seq {seq}, acked {sorted(allowed)}")


# ---------------------------------------------------------------------- #
# the replay loop
# ---------------------------------------------------------------------- #

_DIGITS = re.compile(r"\d+")


@dataclass
class Window:
    """Everything one measured window produced (virtual clock only)."""

    #: (op id, client, kind, due, issued, acked, ok, user bytes)
    recs: list[tuple] = field(default_factory=list)
    #: host ``perf_counter`` at each rec's ack (parallel to ``recs``; host
    #: clock, so it stays out of the virtual digest)
    host_acks: list[float] = field(default_factory=list)
    errors: Counter = field(default_factory=Counter)
    start_ms: float = 0.0
    end_ms: float = 0.0
    #: the untimed verification reads after the window, and how many failed
    final_reads: int = 0
    final_failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.recs)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.recs if not r[6])

    @property
    def virtual_s(self) -> float:
        return (self.end_ms - self.start_ms) / 1000.0

    @property
    def goodput_ops_per_vs(self) -> float:
        return (self.attempted - self.failed) / self.virtual_s

    def latencies(self) -> list[float]:
        """due -> acked per attempted op; a failed op counts as missing
        any limit, so it is valued at no less than the slowest success."""
        worst = max((r[5] - r[3] for r in self.recs if r[6]), default=0.0)
        return [r[5] - r[3] if r[6] else max(r[5] - r[3], worst) for r in self.recs]

    def gen_lags(self) -> list[float]:
        return [r[4] - r[3] for r in self.recs]

    def worst_gap_ms(self) -> float:
        """Longest stretch any client went without a successful completion."""
        last: dict[int, float] = {}
        worst = 0.0
        for rec in sorted(self.recs, key=lambda r: r[5]):
            if rec[6]:
                worst = max(worst, rec[5] - last.get(rec[1], self.start_ms))
                last[rec[1]] = rec[5]
        return worst


def percentile(values: list[float], p: float) -> float:
    """Exact nearest-rank percentile (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, math.ceil(p / 100.0 * len(ordered)) - 1))]


class Replayer:
    """Drives per-client op lists through a cell's agents."""

    def __init__(self, cluster, oracle: Oracle, mark_tasks: bool = False):
        self.cluster = cluster
        self.oracle = oracle
        #: stamp each op's id (negated) on the client task, so a tracer
        #: can tell which op every minted trace belongs to
        self.mark_tasks = mark_tasks
        self.op_ids = 0

    async def populate(self, files: dict[str, FileSpec]) -> None:
        """Create every directory and file through agent 0, each file
        holding a self-describing seq-0 image."""
        agent = self.cluster.agents[0]
        for a in self.cluster.agents:
            await a.mount()
        made = {"", "/"}
        for path in sorted(files):
            parent = path.rsplit("/", 1)[0]
            if parent not in made:
                made.add(parent)
                await agent.mkdir("/", parent.lstrip("/"))
        for path, spec in sorted(files.items()):
            parent, _slash, name = path.rpartition("/")
            self.oracle.register(path, spec.block)
            await agent.create(parent or "/", name)
            if spec.params:
                await agent.set_params(path, **spec.params)
            if spec.block:
                image = b"".join(self._payload(path, -1, spec.block, off)
                                 for off in range(0, spec.size, spec.block))
            else:
                image = self._payload(path, -1, spec.size, 0)
            await agent.write_file(path, image)

    def _payload(self, path: str, client: int, size: int, offset: int) -> bytes:
        """Populate-time image: acked by construction."""
        now = self.cluster.kernel.now
        seq = self.oracle.begin_write(path, offset, now)
        self.oracle.ack_write(path, offset, seq, now)
        return make_payload(path, client, seq, max(MIN_PAYLOAD, size), offset)

    async def run(self, ops: list[list[Op]], mode: str, duration_ms: float,
                  start_ms: float | None = None, faults=()) -> Window:
        """Replay ``ops[c]`` through agent ``c``.

        Open loop: op ``k`` is due at ``start + at_ms`` whether or not the
        client is free (a busy client's ops queue behind it, as a
        single-threaded user process would; the wait is in the latency).
        Closed loop: each client issues its next op when the previous one
        is acked, until ``duration_ms`` has passed.  ``faults`` is a list
        of ``(at_ms, callable)`` fired on schedule.
        """
        kernel = self.cluster.kernel
        start = kernel.now if start_ms is None else start_ms
        window = Window(start_ms=kernel.now)
        tasks: list = []

        async def client(index: int) -> None:
            agent = self.cluster.agents[index]
            pending = iter(ops[index])
            while mode == OPEN or kernel.now - start < duration_ms:
                op = next(pending, None)
                if op is None:
                    break
                due = kernel.now
                if mode == OPEN:
                    due = start + op.at_ms
                    if kernel.now < due:
                        await kernel.sleep(due - kernel.now)
                self.op_ids += 1
                op_id = self.op_ids
                if self.mark_tasks:
                    tasks[index].trace = -op_id
                issued = kernel.now
                ok, nbytes = await self._one(agent, index, op, window)
                window.recs.append((op_id, index, op.kind, due, issued,
                                    kernel.now, ok, nbytes))
                window.host_acks.append(time.perf_counter())
            if self.mark_tasks:
                tasks[index].trace = None

        async def fault(at_ms: float, fire) -> None:
            await kernel.sleep(max(0.0, start + at_ms - kernel.now))
            await fire()

        tasks.extend(kernel.spawn(client(i)) for i in range(len(ops)))
        extra = [kernel.spawn(fault(at, fire)) for at, fire in faults]
        await kernel.all_of(tasks + extra)
        window.end_ms = kernel.now
        return window

    async def _one(self, agent, client: int, op: Op, window: Window) -> tuple[bool, int]:
        kernel, oracle, kind, path = self.cluster.kernel, self.oracle, op.kind, op.path
        try:
            if kind == "getattr":
                await agent.getattr(path)
            elif kind == "lookup":
                await agent.lookup_path(path)
            elif kind == "read":
                data = await agent.read_file(path)
                oracle.check_read(path, data)
                return True, len(data)
            elif kind == "read_at":
                data = await agent.read_at(path, op.offset, op.size)
                oracle.check_read(path, data, op.offset)
                return True, len(data)
            elif kind in ("write", "write_at"):
                size = max(MIN_PAYLOAD, op.size)
                seq = oracle.begin_write(path, op.offset, kernel.now)
                data = make_payload(path, client, seq, size, op.offset)
                if kind == "write":
                    await agent.write_file(path, data)
                else:
                    await agent.write_at(path, op.offset, data)
                oracle.ack_write(path, op.offset, seq, kernel.now)
                return True, size
            elif kind == "readdir":
                await agent.readdir(path)
            elif kind in ("create", "remove"):
                parent, _slash, name = path.rpartition("/")
                await getattr(agent, kind)(parent or "/", name)
            else:
                raise ValueError(f"unknown op kind {kind!r}")
            return True, 0
        except NfsError as exc:
            window.errors[f"{kind}: {_DIGITS.sub('#', str(exc))}"] += 1
            return False, 0

    async def verify_final(self, paths, window: Window) -> None:
        """Read ``paths`` back through agent 0 and check each against its
        last acked write.  The caller has drained write-behind and let
        the agent cache TTL lapse, so each read is revalidated by
        version.  The reads are untimed, but a file that cannot be read
        back is a failed op like any other and is tallied in ``window``."""
        agent = self.cluster.agents[0]
        for path in paths:
            window.final_reads += 1
            try:
                data = await agent.read_file(path)
            except NfsError as exc:
                window.final_failed += 1
                window.errors[f"final read: {_DIGITS.sub('#', str(exc))}"] += 1
            else:
                self.oracle.check_final(path, data)
