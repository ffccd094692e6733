"""Unit tests for the durability backends behind the simulated Disk.

The contract under test (see :mod:`repro.storage.backend`): a backend's
contents equal the disk's stable store at every commit boundary, a commit
is atomic (whole batch or nothing), and ``reopen()`` on the same media
recovers exactly the committed state — including after a torn tail.
"""

import os

import pytest

from repro.storage import (Disk, JournalBackend, KvStore, MemoryBackend,
                           SqliteBackend, make_backend)
from repro.storage.backend import _HEADER_SIZE, JOURNAL_MAGIC
from tests.conftest import run


@pytest.fixture(params=["memory", "journal", "sqlite"])
def backend(request, tmp_path):
    kind = request.param
    path = None if kind == "memory" else str(tmp_path / f"store.{kind}")
    b = make_backend(kind, path=path)
    yield b
    b.close()


def _peek(backend):
    """Read the durable state the way a second process would — a fresh
    handle on the same media — without disturbing the live backend."""
    if backend.kind == "memory":
        return backend.load()
    fresh = make_backend(backend.kind, path=backend.path)
    try:
        return fresh.load()
    finally:
        fresh.close()


# --------------------------------------------------------------------- #
# the common backend contract
# --------------------------------------------------------------------- #

def test_commit_then_load_roundtrip(backend):
    backend.commit([("a", 1), ("b", {"x": [1, 2]})], [])
    backend.commit([("c", "v")], ["a"])
    reopened = backend.reopen()
    assert reopened.load() == {"b": {"x": [1, 2]}, "c": "v"}
    reopened.close()


def test_empty_backend_loads_empty(backend):
    assert backend.load() == {}


def test_delete_of_missing_key_is_noop(backend):
    backend.commit([("k", 1)], ["never-existed"])
    assert backend.reopen().load() == {"k": 1}


def test_reopen_drops_no_commits(backend):
    for i in range(20):
        backend.commit([(f"k{i}", i)], [f"k{i - 2}"] if i >= 2 else [])
    expect = {"k18": 18, "k19": 19}
    assert backend.reopen().load() == expect


def test_disk_mirrors_stable_to_backend(kernel, backend):
    """The integration invariant: after any mix of sync writes, buffered
    writes, and a flush, reopening the backend yields the disk's durable
    state — exactly what a crash would leave behind."""
    disk = Disk(kernel, flush_interval_ms=10_000.0, backend=backend)

    async def main():
        await disk.write("seg/1", "synced", sync=True)
        await disk.write("seg/2", "buffered", sync=False)
        await disk.write("seg/3", "gone", sync=True)
        await disk.delete("seg/3", sync=True)
        return None

    run(kernel, main())
    durable = _peek(backend)
    assert durable == {"seg/1": "synced"}  # buffered write not yet stable

    async def flush():
        await disk.sync()

    run(kernel, flush())
    assert _peek(backend) == {"seg/1": "synced", "seg/2": "buffered"}


def test_disk_opens_on_preloaded_backend(kernel, backend):
    backend.commit([("env/root_sid", "deceit.root"), ("seg/x", 7)], [])
    disk = Disk(kernel, backend=backend)
    assert disk.read_now("env/root_sid") == "deceit.root"
    kv = KvStore(disk, "seg")
    assert kv.get_now("x") == 7


# --------------------------------------------------------------------- #
# journal specifics: framing and torn tails
# --------------------------------------------------------------------- #

def _journal_with(path, batches):
    b = JournalBackend(str(path))
    for puts, dels in batches:
        b.commit(puts, dels)
    b.close()
    return str(path)


def test_journal_torn_tail_truncated(tmp_path):
    path = _journal_with(tmp_path / "j", [([("a", 1)], []), ([("b", 2)], [])])
    whole = os.path.getsize(path)
    with open(path, "ab") as f:
        f.write(JOURNAL_MAGIC + b"\x00" * 7)  # torn header: half a frame
    b = JournalBackend(path)
    assert b.load() == {"a": 1, "b": 2}
    assert b.replay_stats["torn_tail"]
    assert b.replay_stats["batches"] == 2
    assert os.path.getsize(path) == whole  # tail physically truncated
    # the cleaned journal appends and replays normally afterwards
    b.commit([("c", 3)], [])
    assert b.reopen().load() == {"a": 1, "b": 2, "c": 3}


def test_journal_corrupt_payload_drops_suffix(tmp_path):
    """A bit flip inside record k makes k *and everything after it*
    unreadable — replay keeps the clean prefix, never a partial batch."""
    path = _journal_with(
        tmp_path / "j",
        [([(f"k{i}", i)], []) for i in range(4)],
    )
    raw = bytearray(open(path, "rb").read())
    raw[_HEADER_SIZE + 2] ^= 0xFF  # inside the first record's payload
    open(path, "wb").write(bytes(raw))
    b = JournalBackend(path)
    assert b.load() == {}
    assert b.replay_stats == {"records": 0, "batches": 0, "bytes": 0,
                              "torn_tail": True}


def test_journal_commit_is_one_frame(tmp_path):
    b = JournalBackend(str(tmp_path / "j"))
    b.commit([("a", 1), ("b", 2), ("c", 3)], ["x", "y"])
    b2 = b.reopen()
    b2.load()
    assert b2.replay_stats["batches"] == 1
    assert b2.replay_stats["records"] == 5


# --------------------------------------------------------------------- #
# factory / misc
# --------------------------------------------------------------------- #

def test_make_backend_kinds(tmp_path):
    assert isinstance(make_backend("memory"), MemoryBackend)
    assert isinstance(make_backend("journal", path=str(tmp_path / "j")),
                      JournalBackend)
    assert isinstance(make_backend("sqlite", path=str(tmp_path / "s")),
                      SqliteBackend)
    with pytest.raises(ValueError):
        make_backend("journal")  # file-backed kinds need a path
    with pytest.raises(ValueError):
        make_backend("tape", path="/dev/null")


def test_memory_reopen_is_identity():
    b = MemoryBackend()
    b.commit([("k", 1)], [])
    assert b.reopen() is b
    assert b.load() == {"k": 1}


def test_backend_close_idempotent(tmp_path):
    for kind in ("journal", "sqlite"):
        b = make_backend(kind, path=str(tmp_path / f"c.{kind}"))
        b.close()
        b.close()  # double close (kill() then close()) must not raise
