"""Property test: the simulated disk against a reference model of its
contract.

Hypothesis drives a memory-backed :class:`Disk` through random sequences of
writes, deletes and batches (each sync or async), fsyncs, clock advances
(0 / 5 / 15 / 600 virtual ms: the 15 ms commit window and the flusher
both fire) and crashes, on at most four keys.  The flusher runs every 500
ms, or every 20 ms so that a flush can land a newer record before the
commit of an older one.  After every step:

- ``read_now`` and ``keys`` see the newest issued op on each key;
- the backend's map equals the model's stable store, at every commit
  boundary and so after every step;
- a sync op's future is pending until its group commit, and resolves then;
- a crash fails every pending sync future with :class:`DiskCrashed`, and
  only committed or flushed ops survive it.
"""

from hypothesis import example, given, settings, strategies as st

from repro.sim import Kernel
from repro.storage import Disk, DiskCrashed

KEYS = ["a", "b", "c", "d"]
WRITE_MS = 15.0
DELETE = object()  # the model's tombstone

_KEY = st.sampled_from(KEYS)
STEP = st.one_of(
    st.tuples(st.just("write"), _KEY, st.booleans()),
    st.tuples(st.just("delete"), _KEY, st.booleans()),
    st.tuples(st.just("batch"), st.lists(_KEY, max_size=3), st.booleans()),
    st.tuples(st.just("sync")),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 5.0, 15.0, 600.0])),
    st.tuples(st.just("crash")),
)


class Model:
    """What the disk promises, kept by the clock: issue-ordered records, a
    group commit ``WRITE_MS`` after the first sync batch of an idle window,
    and a flush ``flush_ms`` after the first async record since the last
    flush or crash (a crash cancels the commit and the armed flush)."""

    def __init__(self, flush_ms):
        self.flush_ms = flush_ms
        self.seq = self.order = 0
        self.issued = {}    # key -> newest issued value, or DELETE
        self.durable = {}   # key -> (seq, value): the stable store
        self.buffer = {}    # key -> (seq, value): the write-behind map
        self.pending = []   # [(records, future)] awaiting the group commit
        self.events = []    # [(when, order, kind)], fired like the kernel's
        self.flush_armed = False

    def stage(self, now, pairs, sync, future):
        records = []
        for key, value in pairs:
            self.seq += 1
            self.issued[key] = value
            records.append((key, value, self.seq))
        if sync:
            self.enqueue(now, records, future)
            return
        for key, value, seq in records:
            self.buffer[key] = (seq, value)
        if not self.flush_armed:
            self.flush_armed = True
            self.schedule(now + self.flush_ms, "flush")

    def sync(self, now, future):
        records = [(key, value, seq)
                   for key, (seq, value) in self.buffer.items()]
        self.buffer.clear()
        self.enqueue(now, records, future)

    def enqueue(self, now, records, future):
        if not any(kind == "commit" for _w, _o, kind in self.events):
            self.schedule(now + WRITE_MS, "commit")
        self.pending.append((records, future))

    def schedule(self, when, kind):
        self.order += 1
        self.events.append((when, self.order, kind))

    def apply(self, records):
        for key, value, seq in records:
            if seq > self.durable.get(key, (0, None))[0]:
                self.durable[key] = (seq, value)

    def advance(self, until):
        while due := [event for event in self.events if event[0] <= until]:
            event = min(due)
            self.events.remove(event)
            if event[2] == "flush":
                self.flush_armed = False
                self.apply([(key, value, seq)
                            for key, (seq, value) in self.buffer.items()])
                self.buffer.clear()
                continue
            for records, future in self.pending:
                self.apply(records)
                assert future.done() and future.exception() is None
            self.pending = []

    def crash(self):
        for _records, future in self.pending:
            assert isinstance(future.exception(), DiskCrashed)
        self.pending = []
        self.buffer.clear()
        self.flush_armed = False
        self.events = []
        self.issued = {key: value for key, (_s, value) in self.durable.items()}


def _check(disk, model):
    live = {key: value for key, value in model.issued.items()
            if value is not DELETE}
    for key in KEYS:
        assert disk.read_now(key) == live.get(key)
    assert disk.keys() == sorted(live)
    stable = {key: value for key, (_s, value) in model.durable.items()
              if value is not DELETE}
    assert disk.backend.load() == stable
    assert disk.stable_keys == len(stable)
    for _records, future in model.pending:
        assert not future.done()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(flush_ms=st.sampled_from([20.0, 500.0]),
       steps=st.lists(STEP, max_size=40))
# a flush lands a newer async write on "a" before the commit of an older
# sync one: the commit must not clobber it
@example(flush_ms=20.0, steps=[("write", "b", False), ("advance", 15.0),
                               ("write", "a", True), ("write", "a", False),
                               ("advance", 5.0), ("advance", 15.0),
                               ("crash",)])
# the flush armed before a crash dies with it: "b", written after the
# crash, is not durable when that flush would have fired
@example(flush_ms=20.0, steps=[("write", "a", False), ("advance", 5.0),
                               ("crash",), ("write", "b", False),
                               ("advance", 15.0)])
def test_disk_keeps_its_contract(flush_ms, steps):
    kernel = Kernel()
    disk = Disk(kernel, write_ms=WRITE_MS, flush_interval_ms=flush_ms)
    model = Model(flush_ms)
    for value, (kind, *args) in enumerate(steps):
        now = kernel.now
        if kind in ("write", "delete", "batch"):
            target, sync = args
            pairs = [(key, DELETE if kind == "delete" else value)
                     for key in (target if kind == "batch" else [target])]
            if kind == "write":
                future = disk.write(target, value, sync=sync)
            elif kind == "delete":
                future = disk.delete(target, sync=sync)
            else:
                future = disk.write_batch(pairs, sync=sync)
            model.stage(now, pairs, sync, future)
            assert sync or future.done()  # an async op resolves at once
        elif kind == "sync":
            model.sync(now, disk.sync())
        elif kind == "advance":
            kernel.run(until=now + args[0])
            model.advance(now + args[0])
        else:
            disk.crash()
            model.crash()
        _check(disk, model)
