"""Pluggable durability backends behind the simulated :class:`Disk`.

The ``Disk`` models *latency and loss* (what survives a crash, and when a
writer may be acked); a :class:`StorageBackend` models *bytes on real
media*.  Every group commit the disk declares durable is mirrored to the
backend as one atomic batch, so the backend's contents are exactly the
disk's stable store at every commit boundary — kill the hosting process at
any instant and a fresh backend opened on the same path replays to the
last commit, never to a partial batch.

Three implementations:

- :class:`MemoryBackend` — the historical in-memory store; "durable" only
  for as long as the Python object lives.  Zero overhead; the default.
- :class:`JournalBackend` — an append-only log file.  Each commit is one
  CRC-framed record (magic, checksum, length, pickled batch) written and
  fsync'd before the commit returns; ``load`` replays the log frame by
  frame and truncates a torn tail at the first bad frame.
- :class:`SqliteBackend` — one ``kv(key, value)`` table; each commit is
  one transaction.

A cold start's replay memory is the live key→value map plus one record
(a journal frame, an sqlite row) and a fixed read buffer: neither ``load``
holds the media's whole contents, so a long history costs replay time and
file size, not memory.

Backends are *real-time* side effects invoked synchronously at virtual
commit instants: they never touch the kernel, RNG, or clock, so enabling
one cannot perturb a seeded simulation's event order.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from typing import Any, BinaryIO, Iterator

#: Journal frame header: MAGIC + little-endian (crc32, payload length).
JOURNAL_MAGIC = b"DJL1"
_HEADER = struct.Struct("<4sII")
_HEADER_SIZE = _HEADER.size
#: Replay's read buffer: with one frame, all ``load`` holds of the file.
_READ_BUFFER = 64 * 1024


class StorageBackend:
    """Interface every durability backend implements.

    ``load()`` is called once when a disk opens on the backend and returns
    the durable key→value map.  ``commit(puts, dels)`` applies one atomic
    batch and must be durable when it returns.  ``reopen()`` simulates a
    cold process start: it returns a backend reading the same media with
    no shared in-memory state (file-backed kinds return a fresh instance;
    the memory kind can only return itself).
    """

    kind = "abstract"
    path: str | None = None

    def load(self) -> dict[str, Any]:
        raise NotImplementedError

    def commit(self, puts: list[tuple[str, Any]], dels: list[str]) -> None:
        raise NotImplementedError

    def reopen(self) -> "StorageBackend":
        raise NotImplementedError

    def close(self) -> None:
        pass

    #: Filled by ``load`` for file-backed kinds (replay diagnostics).
    replay_stats: dict[str, Any] = {}


class MemoryBackend(StorageBackend):
    """The in-memory store Deceit servers always had: survives a simulated
    server crash (the object outlives the ``Disk``) but not the hosting
    Python process."""

    kind = "memory"

    def __init__(self) -> None:
        self._data: dict[str, Any] = {}
        self.replay_stats = {"records": 0, "batches": 0, "torn_tail": False}

    def load(self) -> dict[str, Any]:
        self.replay_stats = {"records": len(self._data), "batches": 0,
                             "torn_tail": False}
        return dict(self._data)

    def commit(self, puts: list[tuple[str, Any]], dels: list[str]) -> None:
        self._data.update(puts)
        for key in dels:
            self._data.pop(key, None)

    def reopen(self) -> "MemoryBackend":
        return self

    def clear(self) -> None:
        """Drop every record: the cell this store belonged to has ended."""
        self._data = {}


class JournalBackend(StorageBackend):
    """Append-only journal file, one CRC-framed record per commit.

    Frame layout: ``b"DJL1" | crc32(payload) | len(payload) | payload``
    where the payload is ``pickle.dumps((puts, dels))``.  A frame is
    appended with one ``os.write`` and (by default) one ``os.fsync``
    before the commit returns, so a process killed between commits leaves
    either a whole frame or a torn tail — never a half-applied batch.

    ``load`` replays frames in order and stops at the first bad one
    (short header, wrong magic, length past EOF, or checksum mismatch),
    truncating the file there so the torn bytes cannot shadow future
    appends.  A frame whose checksum matches holds the bytes as written,
    so it is never torn: if its payload does not unpickle (it names a
    module this process lacks, say), ``load`` raises and leaves the file
    as it is rather than cut a good record away.  It streams: each frame
    is read, checked, unpickled and applied before the next is read, and
    a length field is checked against the file's size before anything of
    that length is read.  So replay holds the live map plus one frame,
    however long the journal's history.
    """

    kind = "journal"

    def __init__(self, path: str, fsync: bool = True) -> None:
        self.path = path
        self.fsync = fsync
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        self.replay_stats = {"records": 0, "batches": 0, "bytes": 0,
                             "torn_tail": False}

    def load(self) -> dict[str, Any]:
        data: dict[str, Any] = {}
        batches = records = offset = 0
        size = os.fstat(self._fd).st_size
        os.lseek(self._fd, 0, os.SEEK_SET)
        with open(self._fd, "rb", buffering=_READ_BUFFER,
                  closefd=False) as log:
            for puts, dels, offset in self._frames(log, size):
                data.update(puts)
                for key in dels:
                    data.pop(key, None)
                batches += 1
                records += len(puts) + len(dels)
        torn_tail = offset < size
        if torn_tail:
            os.ftruncate(self._fd, offset)
        # the reader read ahead of the last good frame: appends go there
        os.lseek(self._fd, offset, os.SEEK_SET)
        self.replay_stats = {"records": records, "batches": batches,
                             "bytes": offset, "torn_tail": torn_tail}
        return data

    def _frames(self, log: BinaryIO,
                size: int) -> Iterator[tuple[Any, Any, int]]:
        """Yield each good frame's ``(puts, dels, end offset)`` in order,
        reading one frame at a time; stop at the first torn or corrupt
        one, and raise at a CRC-good one that does not unpickle.  A length
        field is checked against the file's ``size`` before anything of
        that length is read."""
        offset = 0
        while offset < size:
            header = log.read(_HEADER_SIZE)
            if len(header) < _HEADER_SIZE:
                return
            magic, crc, length = _HEADER.unpack(header)
            start, offset = offset, offset + _HEADER_SIZE + length
            if magic != JOURNAL_MAGIC or offset > size:
                return
            payload = log.read(length)
            if len(payload) != length or zlib.crc32(payload) != crc:
                return
            try:
                puts, dels = pickle.loads(payload)
            except Exception as exc:
                raise pickle.UnpicklingError(
                    f"{self.path}: the frame at offset {start} passed its "
                    f"checksum but does not unpickle: {exc!r}") from exc
            yield puts, dels, offset

    def commit(self, puts: list[tuple[str, Any]], dels: list[str]) -> None:
        payload = pickle.dumps((puts, dels), protocol=pickle.HIGHEST_PROTOCOL)
        frame = _HEADER.pack(JOURNAL_MAGIC, zlib.crc32(payload),
                             len(payload)) + payload
        os.write(self._fd, frame)
        if self.fsync:
            os.fsync(self._fd)

    def reopen(self) -> "JournalBackend":
        self.close()
        return JournalBackend(self.path, fsync=self.fsync)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


class SqliteBackend(StorageBackend):
    """One ``kv(key TEXT PRIMARY KEY, value BLOB)`` table; each commit is
    one transaction, so a killed process recovers to a batch boundary via
    sqlite's own journal."""

    kind = "sqlite"

    def __init__(self, path: str) -> None:
        import sqlite3  # only a process that opens one pays for the module
        self.path = path
        self._conn = sqlite3.connect(path)
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS kv (key TEXT PRIMARY KEY, value BLOB)")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.commit()
        self.replay_stats = {"records": 0, "batches": 0, "torn_tail": False}

    def load(self) -> dict[str, Any]:
        data = {key: pickle.loads(value) for key, value
                in self._conn.execute("SELECT key, value FROM kv")}
        self.replay_stats = {"records": len(data), "batches": 0,
                             "torn_tail": False}
        return data

    def commit(self, puts: list[tuple[str, Any]], dels: list[str]) -> None:
        with self._conn:
            if puts:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO kv (key, value) VALUES (?, ?)",
                    [(key, pickle.dumps(value,
                                        protocol=pickle.HIGHEST_PROTOCOL))
                     for key, value in puts])
            if dels:
                self._conn.executemany("DELETE FROM kv WHERE key = ?",
                                       [(key,) for key in dels])

    def reopen(self) -> "SqliteBackend":
        self.close()
        return SqliteBackend(self.path)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def make_backend(kind: str, path: str | None = None,
                 **opts: Any) -> StorageBackend:
    """Factory used by the testbed: ``memory`` | ``journal`` | ``sqlite``.

    File-backed kinds require ``path`` (the backing file; created on first
    open, replayed when it already exists).
    """
    if kind == "memory":
        return MemoryBackend()
    if path is None:
        raise ValueError(f"backend kind {kind!r} requires a path")
    if kind == "journal":
        return JournalBackend(path, **opts)
    if kind == "sqlite":
        return SqliteBackend(path, **opts)
    raise ValueError(f"unknown backend kind {kind!r}")
