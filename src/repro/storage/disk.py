"""Simulated disk: keyed records, sync/async writes, crash semantics.

Latencies default to late-1980s numbers (a SCSI disk of the era did a small
synchronous write in ~15 ms and a cached read far faster).  The absolute
values only matter relative to network latency: a synchronous disk write
costs several network round trips, which is exactly the trade-off the
paper's *write safety level* parameter (§4) exposes.

Synchronous writes go through a **group-commit engine**: the disk has one
commit unit, and every record enqueued while a commit window is open rides
the same ``write_ms`` platter operation.  N sync writes issued in the same
virtual-time window therefore cost one commit, not N — the amortization
write-safety ≥ 1 needs to stay cheap.
A batch is atomic: a crash before its commit fires loses every record in
it, exactly like the asynchronous write-behind buffer.

Every write carries a sequence number, so reads (the page-cache view) and
the durable store both resolve mixed sync/async traffic to the same key by
*issue order* — an in-flight sync commit can neither shadow a later async
write from readers nor clobber it in the stable store.
"""

from __future__ import annotations

import copy
import itertools
from typing import Any

from repro.metrics import Metrics
from repro.sim import Kernel, SimFuture
from repro.storage.backend import MemoryBackend, StorageBackend

#: Sentinel marking a deletion (in commit batches and op resolution).
_DELETE = object()

#: Leaf types a record copy shares instead of copying: they are immutable.
_SHARED_LEAVES = frozenset({str, bytes, int, float, bool, type(None)})


def _copy_record(value: Any) -> Any:
    """A copy of ``value`` no later mutation of the original can reach.

    Rebuilds ``dict`` / ``list`` / ``tuple`` / ``set`` and shares the
    immutable leaves (a record is mostly payload bytes and strings, which
    ``copy.deepcopy`` walks through its memo for nothing); anything else
    falls back to ``copy.deepcopy``.
    """
    cls = type(value)
    if cls in _SHARED_LEAVES:
        return value
    if cls is dict:
        return {key: _copy_record(item) for key, item in value.items()}
    if cls is list:
        return [_copy_record(item) for item in value]
    if cls is tuple:
        return tuple(_copy_record(item) for item in value)
    if cls is set:
        return {_copy_record(item) for item in value}
    return copy.deepcopy(value)


class DiskCrashed(RuntimeError):
    """Raised into writers awaiting a sync commit the crash destroyed."""


class Disk:
    """A keyed non-volatile store attached to one server.

    ``write(key, value, sync=True)`` is durable on completion.
    ``write(key, value, sync=False)`` buffers the record; a background
    flusher makes it durable after ``flush_interval_ms`` unless a crash
    intervenes, in which case the buffered records are lost — this is the
    mechanism behind write-safety-level 0 ("asynchronous unsafe writes").

    ``write_batch`` commits many records under a single latency charge;
    independent sync writes that land in the same commit window are
    coalesced the same way.

    Values are copied (:func:`_copy_record`) on both write and read so that
    in-memory mutation of live objects can never retroactively alter
    "disk" contents.
    """

    def __init__(
        self,
        kernel: Kernel,
        name: str = "disk",
        write_ms: float = 15.0,
        read_ms: float = 8.0,
        flush_interval_ms: float = 500.0,
        metrics: Metrics | None = None,
        backend: StorageBackend | None = None,
    ):
        self.kernel = kernel
        self.name = name
        self.write_ms = write_ms
        self.read_ms = read_ms
        self.flush_interval_ms = flush_interval_ms
        self.metrics = metrics or Metrics()
        # The backend mirrors the stable store on real media; opening a
        # disk on a non-empty backend *is* the cold-start read of the
        # superblock — everything the previous incarnation committed.
        self.backend = backend if backend is not None else MemoryBackend()
        self._seq = itertools.count(1)          # issue order of every op
        self._stable: dict[str, Any] = self.backend.load()
        self._stable_seq: dict[str, int] = {}   # seq of last op applied
        self._buffer: dict[str, tuple[int, Any]] = {}
        self._deleted_buffer: dict[str, int] = {}
        self._flusher_scheduled = False
        # group-commit engine state: batches awaiting the next commit and
        # the armed commit event.  Batch records are
        # (key, value-or-_DELETE, seq).
        self._pending: list[tuple[list[tuple[str, Any, int]], SimFuture]] = []
        self._commit_handle = None
        # fsync() callers whose commit has not fired yet: a crash must fail
        # these futures too, not just the per-write ones
        self._sync_waiters: list[tuple[Any, SimFuture]] = []

    # ------------------------------------------------------------------ #
    # write path
    # ------------------------------------------------------------------ #

    def write(self, key: str, value: Any, sync: bool = True) -> SimFuture:
        """Store ``value`` under ``key``; future resolves when the call
        returns control (synchronous writes resolve only once durable)."""
        self.metrics.incr("disk.writes")
        value = _copy_record(value)
        if sync:
            self.metrics.incr("disk.sync_writes")
            return self._enqueue_sync([(key, value, next(self._seq))])
        done = self.kernel.create_future()
        self.metrics.incr("disk.async_writes")
        self._buffer[key] = (next(self._seq), value)
        self._deleted_buffer.pop(key, None)
        self._arm_flusher()
        done.set_result(None)
        return done

    def delete(self, key: str, sync: bool = True) -> SimFuture:
        """Remove ``key``; same durability semantics as :meth:`write`."""
        self.metrics.incr("disk.deletes")
        if sync:
            return self._enqueue_sync([(key, _DELETE, next(self._seq))])
        done = self.kernel.create_future()
        self._buffer.pop(key, None)
        self._deleted_buffer[key] = next(self._seq)
        self._arm_flusher()
        done.set_result(None)
        return done

    def write_batch(self, records: list[tuple[str, Any]],
                    sync: bool = True) -> SimFuture:
        """Commit many records atomically under one latency charge.

        ``records`` is a list of ``(key, value)`` pairs.  The whole batch
        becomes durable together — one ``write_ms`` commit regardless of
        how many records ride it.  (Batched deletions are not part of the
        public API; use :meth:`delete`.)
        """
        self.metrics.incr("disk.batch_writes")
        self.metrics.incr("disk.writes", len(records))
        stamped = [(key, _copy_record(value), next(self._seq))
                   for key, value in records]
        if sync:
            self.metrics.incr("disk.sync_writes", len(records))
            return self._enqueue_sync(stamped)
        done = self.kernel.create_future()
        self.metrics.incr("disk.async_writes", len(records))
        for key, value, seq in stamped:
            self._buffer[key] = (seq, value)
            self._deleted_buffer.pop(key, None)
        self._arm_flusher()
        done.set_result(None)
        return done

    # ------------------------------------------------------------------ #
    # group-commit engine
    # ------------------------------------------------------------------ #

    def _enqueue_sync(self, records: list[tuple[str, Any, int]]) -> SimFuture:
        done = self.kernel.create_future()
        tracer = self.kernel._tracer
        if tracer is not None:
            tid = self.kernel.current_trace()
            if tid is not None:
                # span closes when the commit resolves the future — i.e. at
                # platter time, covering the group-commit window this batch
                # waited in, not just the enqueue
                kernel = self.kernel
                t0 = kernel.now

                def _commit_span(_fut, _tid=tid, _t0=t0):
                    tracer.record(_tid, _t0, kernel.now, "disk", "commit")

                done.add_done_callback(_commit_span)
        self._pending.append((records, done))
        if self._commit_handle is None:
            self._commit_handle = self.kernel.schedule(
                self.write_ms, self._commit_pending)
        else:
            self.metrics.incr("disk.group_commit_joins")
        return done

    def _commit_pending(self) -> None:
        self._commit_handle = None
        batches, self._pending = self._pending, []
        if not batches:
            return
        size = 0
        effective: dict[str, Any] = {}
        for records, done in batches:
            self._apply_records(records, effective)
            size += len(records)
            done.try_set_result(None)
        # one backend commit per group-commit window: every batch that rode
        # this platter operation becomes durable together, atomically
        self._mirror_to_backend(effective)
        self.metrics.incr("disk.commits")
        self.metrics.incr("disk.commit_records", size)
        self.metrics.latency("disk.commit_batch_size").record(float(size))

    def _apply_records(self, records: list[tuple[str, Any, int]],
                       effective: dict[str, Any] | None = None) -> None:
        for key, value, seq in records:
            if self._apply_to_stable(key, value, seq) and effective is not None:
                effective[key] = value
            buffered = self._buffer.get(key)
            if buffered is not None and buffered[0] < seq:
                del self._buffer[key]
            deleted = self._deleted_buffer.get(key)
            if deleted is not None and deleted < seq:
                del self._deleted_buffer[key]

    def _apply_to_stable(self, key: str, value: Any, seq: int) -> bool:
        """Issue-ordered write to the durable store: an op never clobbers
        the effect of a later-issued one that already landed.  Returns
        whether the op took effect (and so must reach the backend)."""
        if seq <= self._stable_seq.get(key, 0):
            return False
        self._stable_seq[key] = seq
        if value is _DELETE:
            self._stable.pop(key, None)
        else:
            self._stable[key] = value
        return True

    def _mirror_to_backend(self, effective: dict[str, Any]) -> None:
        """Forward one committed window to the durability backend as one
        atomic batch — the backend's contents equal ``_stable`` at every
        commit boundary."""
        if not effective:
            return
        puts = [(key, value) for key, value in effective.items()
                if value is not _DELETE]
        dels = [key for key, value in effective.items() if value is _DELETE]
        self.backend.commit(puts, dels)

    def _arm_flusher(self) -> None:
        if self._flusher_scheduled:
            return
        self._flusher_scheduled = True
        self.kernel.schedule(self.flush_interval_ms, self._flush)

    def _flush(self) -> None:
        self._flusher_scheduled = False
        if not self._buffer and not self._deleted_buffer:
            return
        self.metrics.incr("disk.flushes")
        effective: dict[str, Any] = {}
        for key, (seq, value) in self._buffer.items():
            if self._apply_to_stable(key, value, seq):
                effective[key] = value
        for key, seq in self._deleted_buffer.items():
            if self._apply_to_stable(key, _DELETE, seq):
                effective[key] = _DELETE
        self._buffer.clear()
        self._deleted_buffer.clear()
        self._mirror_to_backend(effective)

    def sync(self) -> SimFuture:
        """Force all buffered writes durable (an ``fsync``).

        The returned future fails with :class:`DiskCrashed` if a crash
        destroys the buffered data before the commit fires — the caller
        must not mistake "the crash emptied the buffer" for durability.
        """
        done = self.kernel.create_future()
        entry = None

        def _commit() -> None:
            if entry in self._sync_waiters:
                self._sync_waiters.remove(entry)
            self._flush()
            done.try_set_result(None)

        handle = self.kernel.schedule(self.write_ms, _commit)
        entry = (handle, done)
        self._sync_waiters.append(entry)
        return done

    # ------------------------------------------------------------------ #
    # read path
    # ------------------------------------------------------------------ #

    def read(self, key: str) -> SimFuture:
        """Future resolving with a copy of the record (or ``None``).

        Reads observe buffered (not-yet-durable) writes, as a real OS page
        cache would — including sync batches still waiting on their commit.
        """
        self.metrics.incr("disk.reads")
        done = self.kernel.create_future()

        def _complete() -> None:
            done.try_set_result(_copy_record(self._live_value(key)))

        self.kernel.schedule(self.read_ms, _complete)
        return done

    def read_now(self, key: str) -> Any:
        """Zero-latency read used by recovery code scanning local state."""
        return _copy_record(self._live_value(key))

    def _latest_op(self, key: str) -> tuple[int, Any]:
        """The highest-seq operation on ``key`` across the stable store,
        the write-behind buffer, and uncommitted sync batches."""
        seq = self._stable_seq.get(key, 0)
        value = self._stable[key] if key in self._stable else _DELETE
        buffered = self._buffer.get(key)
        if buffered is not None and buffered[0] > seq:
            seq, value = buffered
        deleted = self._deleted_buffer.get(key)
        if deleted is not None and deleted > seq:
            seq, value = deleted, _DELETE
        for records, _done in self._pending:
            for rkey, rvalue, rseq in records:
                if rkey == key and rseq > seq:
                    seq, value = rseq, rvalue
        return seq, value

    def _live_value(self, key: str) -> Any:
        _seq, value = self._latest_op(key)
        return None if value is _DELETE else value

    def keys(self, prefix: str = "") -> list[str]:
        """All live keys with the given prefix (buffered writes included)."""
        candidates = set(self._stable) | set(self._buffer) | \
            set(self._deleted_buffer)
        for records, _done in self._pending:
            candidates.update(key for key, _v, _s in records)
        return sorted(
            key for key in candidates
            if key.startswith(prefix) and self._latest_op(key)[1] is not _DELETE
        )

    # ------------------------------------------------------------------ #
    # failure
    # ------------------------------------------------------------------ #

    def crash(self) -> None:
        """Lose everything not yet durable — the write-behind buffer *and*
        any sync batches whose group commit had not fired yet.  Writers
        still awaiting a destroyed commit get :class:`DiskCrashed` so they
        resume (and fail) instead of hanging forever."""
        lost = len(self._buffer) + len(self._deleted_buffer)
        lost += sum(len(records) for records, _done in self._pending)
        if lost:
            self.metrics.incr("disk.lost_on_crash", lost)
        self._buffer.clear()
        self._deleted_buffer.clear()
        self._flusher_scheduled = False
        pending, self._pending = self._pending, []
        if self._commit_handle is not None:
            self._commit_handle.cancel()
            self._commit_handle = None
        for _records, done in pending:
            done.try_set_exception(
                DiskCrashed(f"{self.name}: crashed before commit"))
        waiters, self._sync_waiters = self._sync_waiters, []
        for handle, done in waiters:
            handle.cancel()
            done.try_set_exception(
                DiskCrashed(f"{self.name}: crashed before fsync"))

    def close(self) -> None:
        """Release backend resources (file descriptors, connections)."""
        self.backend.close()

    @property
    def stable_keys(self) -> int:
        """Number of durable records (diagnostics)."""
        return len(self._stable)
