"""Unit tests for the simulated disk and KV store: durability semantics."""

import os
import pickle
import re
import zlib

import pytest

from repro.storage import Disk, DiskCrashed, JournalBackend, KvStore
from repro.storage.backend import _HEADER, JOURNAL_MAGIC
from tests.conftest import run


def test_sync_write_survives_crash(kernel):
    disk = Disk(kernel)

    async def main():
        await disk.write("k", {"v": 1}, sync=True)
        disk.crash()
        return await disk.read("k")

    assert run(kernel, main()) == {"v": 1}


def test_async_write_lost_on_crash_before_flush(kernel):
    disk = Disk(kernel, flush_interval_ms=1000.0)

    async def main():
        await disk.write("k", "unsafe", sync=False)
        disk.crash()  # before the flusher runs
        return await disk.read("k")

    assert run(kernel, main()) is None


def test_async_write_survives_after_flush_interval(kernel):
    disk = Disk(kernel, flush_interval_ms=100.0)

    async def main():
        await disk.write("k", "v", sync=False)
        await kernel.sleep(150.0)  # flusher fires
        disk.crash()
        return await disk.read("k")

    assert run(kernel, main()) == "v"


def test_crash_cancels_the_armed_flush(kernel):
    """A crash loses the write-behind map and the flush armed for it: an
    async write after the crash waits a whole flush interval of its own,
    not the rest of the dead map's."""
    disk = Disk(kernel, flush_interval_ms=500.0)

    async def main():
        await disk.write("k", "lost", sync=False)    # flush armed for t=500
        await kernel.sleep(400.0)
        disk.crash()
        await disk.write("x", "new", sync=False)     # flush armed for t=900
        await kernel.sleep(100.0)
        at_500 = disk.backend.load()
        await kernel.sleep(400.0)
        return at_500, disk.backend.load()

    assert run(kernel, main()) == ({}, {"x": "new"})


def test_async_write_visible_to_reads_before_flush(kernel):
    disk = Disk(kernel, flush_interval_ms=10_000.0)

    async def main():
        await disk.write("k", "buffered", sync=False)
        return await disk.read("k")

    assert run(kernel, main()) == "buffered"


def test_explicit_sync_makes_buffered_durable(kernel):
    disk = Disk(kernel, flush_interval_ms=10_000.0)

    async def main():
        await disk.write("k", "v", sync=False)
        await disk.sync()
        disk.crash()
        return await disk.read("k")

    assert run(kernel, main()) == "v"


def test_sync_covers_what_was_buffered_when_called(kernel):
    """An fsync is a group commit of the write-behind buffer as it stood
    at the call: a write issued while it waits is not covered."""
    disk = Disk(kernel, flush_interval_ms=10_000.0)

    async def main():
        await disk.write("before", 1, sync=False)
        fsync = disk.sync()
        await disk.write("after", 2, sync=False)
        await fsync
        assert disk.read_now("after") == 2  # buffered, visible to reads
        disk.crash()
        return disk.read_now("before"), disk.read_now("after")

    assert run(kernel, main()) == (1, None)


def test_sync_future_fails_on_crash(kernel):
    """Regression: a crash between ``sync()`` and its commit used to leave
    the returned future pending forever — the caller hung instead of
    learning its fsync died.  The crash must fail every in-flight sync."""
    disk = Disk(kernel, flush_interval_ms=10_000.0)

    async def main():
        await disk.write("k", "v", sync=False)
        first, second = disk.sync(), disk.sync()
        disk.crash()
        with pytest.raises(DiskCrashed):
            await first
        with pytest.raises(DiskCrashed):
            await second
        return await disk.read("k")

    assert run(kernel, main()) is None  # the buffered write died with it


def test_sync_after_crash_still_works(kernel):
    """A crash only kills in-flight syncs; the disk keeps serving."""
    disk = Disk(kernel, flush_interval_ms=10_000.0)

    async def main():
        fut = disk.sync()
        disk.crash()
        with pytest.raises(DiskCrashed):
            await fut
        await disk.write("k", "v", sync=False)
        await disk.sync()
        disk.crash()
        return await disk.read("k")

    assert run(kernel, main()) == "v"


def test_sync_write_slower_than_async(kernel):
    disk = Disk(kernel, write_ms=15.0)

    async def main():
        t0 = kernel.now
        await disk.write("a", 1, sync=False)
        async_cost = kernel.now - t0
        t1 = kernel.now
        await disk.write("b", 2, sync=True)
        sync_cost = kernel.now - t1
        return async_cost, sync_cost

    async_cost, sync_cost = run(kernel, main())
    assert async_cost == 0.0
    assert sync_cost == 15.0


def test_delete_sync(kernel):
    disk = Disk(kernel)

    async def main():
        await disk.write("k", "v", sync=True)
        await disk.delete("k", sync=True)
        return await disk.read("k")

    assert run(kernel, main()) is None


def test_async_delete_lost_on_crash(kernel):
    """An unsynced delete is undone by a crash: the old value resurfaces."""
    disk = Disk(kernel, flush_interval_ms=10_000.0)

    async def main():
        await disk.write("k", "v", sync=True)
        await disk.delete("k", sync=False)
        assert await disk.read("k") is None  # delete visible pre-crash
        disk.crash()
        return await disk.read("k")

    assert run(kernel, main()) == "v"


def test_values_deep_copied_on_write(kernel):
    """Mutating a written object must not retroactively change the disk."""
    disk = Disk(kernel)

    async def main():
        live = {"data": [1, 2]}
        await disk.write("k", live, sync=True)
        live["data"].append(3)
        return await disk.read("k")

    assert run(kernel, main()) == {"data": [1, 2]}


def test_values_deep_copied_on_read(kernel):
    disk = Disk(kernel)

    async def main():
        await disk.write("k", {"data": [1]}, sync=True)
        first = await disk.read("k")
        first["data"].append(99)
        return await disk.read("k")

    assert run(kernel, main()) == {"data": [1]}


def _nested():
    return {"meta": {"tags": ["a"], "pair": ([1], b"x")},
            "holders": {"s0"}, "buf": bytearray(b"ab"), "n": 3}


def _mutate(value):
    value["meta"]["tags"].append("b")
    value["meta"]["pair"][0].append(2)
    value["holders"].add("s1")
    value["buf"].extend(b"cd")


@pytest.mark.parametrize("batch", [False, True])
def test_nested_containers_copied_on_write_and_read(kernel, batch):
    """Every container level — dict, list, a list inside a tuple, set, and
    a mutable type outside those (bytearray) — is copied on write and on
    both reads, so mutating any of them leaves the disk's record alone."""
    disk = Disk(kernel)

    async def main():
        live = _nested()
        if batch:
            await disk.write_batch([("k", live)], sync=True)
        else:
            await disk.write("k", live, sync=True)
        _mutate(live)
        _mutate(await disk.read("k"))
        _mutate(disk.read_now("k"))
        return await disk.read("k")

    assert run(kernel, main()) == _nested()


def test_keys_listing_with_prefix(kernel):
    disk = Disk(kernel)

    async def main():
        await disk.write("seg/1", "a", sync=True)
        await disk.write("seg/2", "b", sync=True)
        await disk.write("tok/1", "c", sync=True)
        return disk.keys("seg/")

    assert run(kernel, main()) == ["seg/1", "seg/2"]


def test_read_now_zero_latency(kernel):
    disk = Disk(kernel)

    async def main():
        await disk.write("k", 5, sync=True)
        t0 = kernel.now
        value = disk.read_now("k")
        assert kernel.now == t0
        return value

    assert run(kernel, main()) == 5


def test_kvstore_namespacing(kernel):
    disk = Disk(kernel)
    segments = KvStore(disk, "segments")
    tokens = KvStore(disk, "tokens")

    async def main():
        await segments.put("x", 1)
        await tokens.put("x", 2)
        return await segments.get("x"), await tokens.get("x")

    assert run(kernel, main()) == (1, 2)


def test_kvstore_keys_and_items(kernel):
    disk = Disk(kernel)
    store = KvStore(disk, "ns")

    async def main():
        await store.put("b", 2)
        await store.put("a", 1)
        return store.keys(), store.items_now()

    keys, items = run(kernel, main())
    assert keys == ["a", "b"]
    assert items == [("a", 1), ("b", 2)]


def test_kvstore_rejects_slash_namespace(kernel):
    disk = Disk(kernel)
    with pytest.raises(ValueError):
        KvStore(disk, "bad/ns")


def test_kvstore_delete(kernel):
    disk = Disk(kernel)
    store = KvStore(disk, "ns")

    async def main():
        await store.put("k", "v")
        await store.delete("k")
        return await store.get("k"), store.keys()

    assert run(kernel, main()) == (None, [])


def test_journal_frame_that_passes_its_crc_is_never_torn(tmp_path):
    """A CRC-good frame holds the bytes as written: when its payload does
    not unpickle, replay must raise rather than truncate the journal there
    and destroy the good frames after it."""
    def frame(payload):
        return _HEADER.pack(JOURNAL_MAGIC, zlib.crc32(payload),
                            len(payload)) + payload

    def batch(key, value):
        return pickle.dumps(([(key, value)], []))

    path = tmp_path / "j"
    # the middle frame names a module no process has
    path.write_bytes(frame(batch("a", 1))
                     + frame(b"cno_such_mod_xyz\nthing\n.")
                     + frame(batch("c", 3)))
    size = os.path.getsize(path)
    journal = JournalBackend(str(path))
    where = f"{path}: the frame at offset {len(frame(batch('a', 1)))} "
    with pytest.raises(pickle.UnpicklingError, match=re.escape(where)):
        journal.load()
    journal.close()
    assert os.path.getsize(path) == size
