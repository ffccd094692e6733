"""Virtual-time event loop with awaitable futures and coroutine tasks.

The kernel is a classic discrete-event simulator: a priority queue of
``[when, seq, fn, args]`` entries and a virtual clock that jumps from
event to event.  On top of that sits a minimal coroutine runtime so protocol
code can be written with ``async``/``await`` instead of callback chains.

Determinism: events at equal virtual times fire in scheduling order (a
monotonically increasing sequence number breaks ties), so any simulation
driven by seeded RNGs is exactly reproducible.

Scale fast paths (the hot loops every simulated operation funnels through):

- a queued event is one list ``[when, seq, fn, args]`` — the only
  allocation scheduling makes — and ``(when, seq)`` is unique, so ordering
  is resolved by C-level list comparison that never reaches ``fn``;
- zero-delay events (coroutine steps, future callbacks) go through a FIFO
  deque of the same entries and never touch the heap — ``(when, seq)``
  order is preserved by merging the two sorted streams at pop time, one
  list comparison per event;
- an entry whose ``fn`` is ``None`` is dead: cancelled, or already handed
  to dispatch (it is marked *before* its callback runs, so a timer that
  cancels its own handle is a no-op).  Cancelled entries (one RPC timeout
  per RPC, nearly always cancelled) are counted, and the queue is compacted
  once they dominate it, instead of lingering until their deadline;
- :meth:`run` and :meth:`run_until_complete` share one inlined dispatch
  loop (:meth:`Kernel._drive`); the virtual-time bound is tested on heap
  entries only — a zero-delay event is never later than the clock.
"""

from __future__ import annotations

import heapq
import itertools
import warnings
from collections import deque
from collections.abc import Awaitable, Callable, Coroutine, Iterable
from typing import Any

# A discrete-event simulation legitimately stops with tasks scheduled but
# never started; their coroutine objects are then collected un-run.  That
# teardown case is handled *scoped* to kernel-owned coroutines — rather than
# with a module-wide message filter — so a genuinely dropped coroutine in
# user code (one never handed to spawn()) still warns as CPython intends:
#
# 1. Task.__del__ closes an un-started coroutine quietly (covers plain
#    refcount death, where the Task is always finalized first);
# 2. Kernel.shutdown() drains the queue, closing pending task coroutines;
# 3. for reference *cycles* (kernel -> queue -> task -> coroutine -> app ->
#    kernel) the GC may finalize the coroutine before its Task, so the
#    CPython warning hook is wrapped to skip exactly the coroutines a Task
#    adopted.  Membership is tracked by id (the GC clears weak references
#    before it runs finalizers, so a WeakSet would already be empty when the
#    hook fires); ids are discarded the moment a task starts, is closed, or
#    its warning is suppressed, so an address reused by a user coroutine is
#    not silenced.
_adopted_coro_ids: set[int] = set()


def _install_scoped_unawaited_filter() -> None:
    original = getattr(warnings, "_warn_unawaited_coroutine", None)
    if original is None or getattr(original, "_repro_scoped", False):
        return  # unknown interpreter layout, or already installed

    def _scoped(coro):
        if id(coro) in _adopted_coro_ids:
            # adopted by a Kernel Task the simulation never reached
            _adopted_coro_ids.discard(id(coro))
            return
        original(coro)

    _scoped._repro_scoped = True  # type: ignore[attr-defined]
    warnings._warn_unawaited_coroutine = _scoped  # type: ignore[attr-defined]


_install_scoped_unawaited_filter()


class SimTimeoutError(Exception):
    """Raised when :meth:`Kernel.wait_for` exceeds its timeout."""


class TaskCancelled(Exception):
    """Raised inside a coroutine whose :class:`Task` was cancelled."""


class SimFuture:
    """A single-assignment result container, awaitable from a :class:`Task`.

    Mirrors the essential surface of :class:`asyncio.Future` but runs on the
    simulation kernel's virtual clock.
    """

    __slots__ = ("kernel", "_done", "_result", "_exception", "_callbacks")

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self._done = False
        self._result: Any = None
        self._exception: BaseException | None = None
        self._callbacks: list[Callable[["SimFuture"], None]] = []

    def done(self) -> bool:
        """Return ``True`` once a result or exception has been set."""
        return self._done

    def result(self) -> Any:
        """Return the stored result, raising the stored exception if any."""
        if not self._done:
            raise RuntimeError("SimFuture result read before completion")
        if self._exception is not None:
            raise self._exception
        return self._result

    def exception(self) -> BaseException | None:
        """Return the stored exception (or ``None``)."""
        if not self._done:
            raise RuntimeError("SimFuture exception read before completion")
        return self._exception

    def set_result(self, value: Any = None) -> None:
        """Complete the future successfully with ``value``."""
        if self._done:
            raise RuntimeError("SimFuture already completed")
        self._done = True
        self._result = value
        self._fire_callbacks()

    def set_exception(self, exc: BaseException) -> None:
        """Complete the future with an exception."""
        if self._done:
            raise RuntimeError("SimFuture already completed")
        self._done = True
        self._exception = exc
        self._fire_callbacks()

    def try_set_result(self, value: Any = None) -> bool:
        """Set a result unless the future is already done; report success."""
        if self._done:
            return False
        self.set_result(value)
        return True

    def try_set_exception(self, exc: BaseException) -> bool:
        """Set an exception unless the future is already done."""
        if self._done:
            return False
        self.set_exception(exc)
        return True

    def add_done_callback(self, fn: Callable[["SimFuture"], None]) -> None:
        """Run ``fn(self)`` when the future completes (immediately if done)."""
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _fire_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def __await__(self):
        if not self._done:
            yield self
        return self.result()


class Task(SimFuture):
    """A coroutine driven by the kernel; completes with the coroutine's return.

    Tasks are themselves futures, so one coroutine can ``await`` another via
    ``await kernel.spawn(other())``.
    """

    __slots__ = ("_coro", "_cancelled", "_started", "name", "trace")

    def __init__(self, kernel: "Kernel", coro: Coroutine, name: str = ""):
        super().__init__(kernel)
        self._coro = coro
        self._cancelled = False
        self._started = False
        self.name = name or getattr(coro, "__name__", "task")
        #: request-trace id this task runs on behalf of (repro.obs.tracer);
        #: inherited by spawned children while a tracer is armed
        self.trace: Any = None
        _adopted_coro_ids.add(id(coro))

    def cancel(self) -> bool:
        """Request cancellation; returns ``False`` if already done."""
        if self._done:
            return False
        self._cancelled = True
        if not self._started:
            # Never entered the coroutine: close it outright so it cannot
            # leak as a "never awaited" object at interpreter teardown.
            self._coro.close()
            _adopted_coro_ids.discard(id(self._coro))
            self.try_set_exception(TaskCancelled())
            return True
        self.kernel._schedule_now(self._step, None)
        return True

    def __del__(self) -> None:
        # A task the simulation ended before ever stepping holds a coroutine
        # that was legitimately scheduled, just never reached — close it
        # quietly instead of letting GC flag it as a never-awaited bug.
        if not self._started and not self._done:
            try:
                self._coro.close()
            except Exception:
                pass
        _adopted_coro_ids.discard(id(self._coro))

    def _step(self, wakeup_value: Any) -> None:
        if self._done:
            return
        if not self._started:
            self._started = True
            # running now; no unawaited risk remains
            _adopted_coro_ids.discard(id(self._coro))
        # yield sanitizer (repro.analysis.ysan): attribute shared-state
        # accesses made during this step to this task.  Off by default;
        # the fast path pays one attribute load and `is None` test.
        kernel = self.kernel
        ysan = kernel._ysan
        if ysan is not None:
            ysan.begin_step(self)
        # request tracer (repro.obs.tracer): expose the running task so
        # trace ids propagate to spawned children and recorded spans.
        # Same off-by-default cost: one attribute load and `is None` test.
        if kernel._tracer is not None:
            kernel._current = self
        try:
            try:
                if self._cancelled:
                    awaited = self._coro.throw(TaskCancelled())
                elif isinstance(wakeup_value, BaseException):
                    awaited = self._coro.throw(wakeup_value)
                else:
                    awaited = self._coro.send(wakeup_value)
            except StopIteration as stop:
                self.try_set_result(stop.value)
                return
            except TaskCancelled as exc:
                self.try_set_exception(exc)
                return
            except BaseException as exc:  # propagate to awaiters
                self.try_set_exception(exc)
                return
            if not isinstance(awaited, SimFuture):
                self.try_set_exception(
                    TypeError(f"task awaited a non-SimFuture: {awaited!r}")
                )
                return
            awaited.add_done_callback(self._resume_from)
        finally:
            if kernel._tracer is not None:
                kernel._current = None
            if ysan is not None:
                ysan.end_step()

    def _resume_from(self, fut: SimFuture) -> None:
        if self._done:
            return
        exc = fut._exception
        if exc is not None:
            self.kernel._schedule_now(self._step, exc)
        else:
            self.kernel._schedule_now(self._step, fut._result)


class EventHandle:
    """Handle returned by :meth:`Kernel.schedule`; supports cancellation."""

    __slots__ = ("_entry", "_kernel")

    def __init__(self, entry: list, kernel: "Kernel"):
        self._entry = entry
        self._kernel = kernel

    def cancel(self, _fut: Any = None) -> None:
        """Prevent the scheduled callback from firing (idempotent, and a
        no-op once the callback has been dispatched).

        The entry stays queued but dead; the kernel counts dead entries and
        compacts the queue when they dominate it (an RPC-heavy run otherwise
        drags a heap full of never-to-fire timeout timers).  The ignored
        argument lets the bound method serve directly as a
        :meth:`SimFuture.add_done_callback` callback."""
        entry = self._entry
        if entry[2] is not None:
            entry[2] = None
            entry[3] = ()
            kernel = self._kernel
            kernel._cancelled += 1
            if (kernel._cancelled >= kernel.COMPACT_MIN_DEAD
                    and kernel._cancelled * 2 >= len(kernel._queue)):
                kernel._compact()

    @property
    def cancelled(self) -> bool:
        """Whether the event is dead: cancelled, or already dispatched."""
        return self._entry[2] is None


class Kernel:
    """The discrete-event simulation loop.

    All components of the reproduction share one kernel instance; virtual
    time (:attr:`now`) only advances inside :meth:`run` /
    :meth:`run_until_complete`.
    """

    #: Compaction trigger: rebuild the heap once at least this many events
    #: are dead *and* they make up half the queue.  Amortized O(1) per
    #: cancellation; keeps pathological timer churn from growing the heap.
    COMPACT_MIN_DEAD = 512

    def __init__(self) -> None:
        self.now: float = 0.0
        #: timed events: a heap of ``[when, seq, fn, args]`` entries;
        #: ``fn is None`` marks an entry dead (cancelled or dispatched)
        self._queue: list[list] = []
        #: zero-delay events (same entries), in (when, seq) order by
        #: construction — `now` never decreases and seq only grows, so
        #: appends stay sorted
        self._fifo: deque[list] = deque()
        #: how zero-delay events enter the fifo.  Default: the deque's own
        #: append (the fifo's identity never changes — see _compact — so
        #: binding it once is safe).  `set_perturbation` swaps in the
        #: tie-break shuffler; the hot path itself stays branch-free.
        self._fifo_push: Callable[[list], None] = self._fifo.append
        self._seq = itertools.count()
        self._events_processed = 0
        self._cancelled = 0  # dead events still sitting in queue or fifo
        #: witness hash chain (repro.analysis.witness); None = off, and the
        #: dispatch loop pays exactly one `is None` test per event
        self._witness: Any = None
        #: determinism guard (repro.analysis.guard) engaged around dispatch
        self._det_guard: Any = None
        #: yield sanitizer (repro.analysis.ysan); None = off, and Task._step
        #: pays exactly one `is None` test per step
        self._ysan: Any = None
        #: schedule-perturbation RNG (repro racecheck); None = off
        self._perturb: Any = None
        #: request tracer (repro.obs.tracer); None = off, and every hook —
        #: task steps, spawn, message send — pays one `is None` test
        self._tracer: Any = None
        #: the task currently being stepped; maintained only while a
        #: tracer is armed (the only consumer of task identity mid-step)
        self._current: Task | None = None

    def set_witness(self, witness: Any) -> None:
        """Attach (or detach, with ``None``) a per-event witness recorder.

        The recorder's ``fold_event(when, seq, fn, args)`` is called after
        every dispatched event.  Off by default; attach before running.
        """
        self._witness = witness

    def set_det_guard(self, guard: Any) -> None:
        """Attach a :class:`~repro.analysis.guard.DeterminismGuard`.

        While :meth:`run` / :meth:`run_until_complete` dispatch events the
        guard is engaged, so patched global entropy sources raise.
        """
        self._det_guard = guard

    def set_ysan(self, sanitizer: Any) -> None:
        """Attach (or detach, with ``None``) a yield sanitizer.

        The sanitizer's ``begin_step(task)`` / ``end_step()`` bracket every
        task step, so shared-state accesses (through its tracked
        containers) are attributed to the running task and to yield-point
        crossings.  Off by default.
        """
        self._ysan = sanitizer
        if sanitizer is not None:
            sanitizer.attach(self)

    def set_tracer(self, tracer: Any) -> None:
        """Attach (or detach, with ``None``) a request-span tracer.

        While armed, the kernel tracks the currently-stepping task so
        trace ids flow from parent to spawned child and hooks across the
        stack (network, pipeline, disk) can attribute their spans via
        :meth:`current_trace`.  Off by default — the hooks cost one
        attribute load and ``is None`` test each, the witness-chain
        discipline.  Arming or disarming never changes event order, so
        same-seed runs stay byte-identical either way.
        """
        self._tracer = tracer
        if tracer is None:
            self._current = None

    def current_trace(self) -> Any:
        """Trace id of the task being stepped right now (``None`` from
        plain callbacks or when no tracer is armed)."""
        task = self._current
        return None if task is None else task.trace

    def set_perturbation(self, rng: Any) -> None:
        """Arm (or disarm, with ``None``) seeded schedule perturbation.

        With an ``rng`` (a dedicated seeded ``random.Random`` — never the
        workload/network stream), every zero-delay event is inserted at an
        rng-chosen position among the queued events that share its virtual
        timestamp, instead of appended.  This shuffles exactly the
        tie-breaking that the FIFO's sequence numbers otherwise fix —
        virtual-time ordering is untouched — so a perturbed run explores a
        different but *legal* interleaving, reproducible from the rng's
        seed.  Disarmed (the default), scheduling goes through the plain
        deque append and runs are byte-identical to an unperturbed kernel.
        """
        self._perturb = rng
        self._fifo_push = (self._fifo.append if rng is None
                           else self._perturbed_push)

    def _perturbed_push(self, entry: list) -> None:
        """Insert a zero-delay event at a random same-timestamp position.

        Only the trailing run of fifo entries sharing the entry's ``when``
        is a legal insertion window (the fifo is sorted by ``when``;
        earlier timestamps must stay ahead).  During normal dispatch the
        whole fifo shares the current timestamp, so this is a full shuffle
        of the pending zero-delay batch.
        """
        fifo = self._fifo
        when = entry[0]
        n = 0
        for queued in reversed(fifo):
            if queued[0] != when:
                break
            n += 1
        pos = self._perturb.randint(0, n)
        if pos == n:
            fifo.append(entry)
        else:
            fifo.insert(len(fifo) - n + pos, entry)

    # ------------------------------------------------------------------ #
    # scheduling primitives
    # ------------------------------------------------------------------ #

    def schedule(self, delay: float, fn: Callable, *args: Any) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` units of virtual time."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        entry = [self.now + delay, next(self._seq), fn, args]
        if delay == 0:
            self._fifo_push(entry)
        else:
            heapq.heappush(self._queue, entry)
        return EventHandle(entry, self)

    def post(self, delay: float, fn: Callable, *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no cancellation handle.

        The hot paths (message arrival, timer-free protocol steps) never
        cancel, so they skip the handle allocation entirely.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        entry = [self.now + delay, next(self._seq), fn, args]
        if delay == 0:
            self._fifo_push(entry)
        else:
            heapq.heappush(self._queue, entry)

    def _schedule_now(self, fn: Callable, *args: Any) -> None:
        self._fifo_push([self.now, next(self._seq), fn, args])

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (both queues).

        Rebuilds *in place*: the run loops cache references to the queue
        and fifo containers, so their identities must never change.
        """
        self._queue[:] = [entry for entry in self._queue
                          if entry[2] is not None]
        heapq.heapify(self._queue)
        if any(entry[2] is None for entry in self._fifo):
            live = [entry for entry in self._fifo if entry[2] is not None]
            self._fifo.clear()
            self._fifo.extend(live)
        self._cancelled = 0

    # ------------------------------------------------------------------ #
    # coroutine layer
    # ------------------------------------------------------------------ #

    def spawn(self, coro: Coroutine, name: str = "") -> Task:
        """Start driving a coroutine; returns an awaitable :class:`Task`."""
        task = Task(self, coro, name=name)
        if self._tracer is not None and self._current is not None:
            task.trace = self._current.trace
        self._schedule_now(task._step, None)
        return task

    def create_future(self) -> SimFuture:
        """Return a fresh unresolved :class:`SimFuture`."""
        return SimFuture(self)

    def sleep(self, delay: float) -> SimFuture:
        """Future that resolves after ``delay`` virtual time units."""
        fut = SimFuture(self)
        self.post(delay, fut.try_set_result, None)
        return fut

    def wait_for(self, awaitable: Awaitable, timeout: float) -> SimFuture:
        """Wrap an awaitable with a timeout.

        The returned future resolves with the awaitable's result, or fails
        with :class:`SimTimeoutError` if ``timeout`` elapses first.  The
        underlying computation is *not* cancelled on timeout (matching the
        fire-and-forget nature of datagram protocols this models).
        """
        inner = awaitable if isinstance(awaitable, SimFuture) else self.spawn(awaitable)
        out = self.create_future()
        handle = self.schedule(
            timeout, out.try_set_exception, SimTimeoutError(f"timeout after {timeout}")
        )

        def _done(fut: SimFuture) -> None:
            handle.cancel()
            if fut._exception is not None:
                out.try_set_exception(fut._exception)
            else:
                out.try_set_result(fut._result)

        inner.add_done_callback(_done)
        return out

    def all_of(self, futures: Iterable[SimFuture]) -> SimFuture:
        """Future resolving with a list of results once every input is done.

        The first exception (if any) fails the aggregate immediately.
        """
        futures = list(futures)
        out = self.create_future()
        if not futures:
            out.set_result([])
            return out
        remaining = [len(futures)]

        def _one_done(_fut: SimFuture) -> None:
            if out.done():
                return
            if _fut._exception is not None:
                out.try_set_exception(_fut._exception)
                return
            remaining[0] -= 1
            if remaining[0] == 0:
                out.try_set_result([f._result for f in futures])

        for f in futures:
            f.add_done_callback(_one_done)
        return out

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run(self, until: float | None = None) -> int:
        """Process events until the queue empties or ``until`` is reached
        (events *at* ``until`` still fire; the clock then parks there).
        Returns the number of events processed."""
        before = self._events_processed
        # a future nobody completes: only the loop's two cold exits end it
        self._drive(SimFuture(self), until, park=True)
        return self._events_processed - before

    def run_until_complete(self, awaitable: Awaitable, limit: float | None = None) -> Any:
        """Drive the simulation until ``awaitable`` resolves; return its result.

        ``limit`` bounds virtual time as a safety net against livelock; if the
        awaitable is still pending at ``limit`` a :class:`SimTimeoutError` is
        raised.
        """
        fut = awaitable if isinstance(awaitable, SimFuture) else self.spawn(awaitable)
        self._drive(fut, limit, park=False)
        return fut.result()

    def _drive(self, fut: SimFuture, bound: float | None, park: bool) -> None:
        """The one dispatch loop: fire events in (when, seq) order until
        ``fut`` is done.  Meeting a live event past ``bound``, or running
        dry, is where the two callers differ, and both exits are cold:
        ``park`` (:meth:`run`) stops short with the clock at the bound,
        otherwise (:meth:`run_until_complete`) it is a timeout / deadlock.
        """
        # this loop drives every simulation in the repository: the merge of
        # the two queues is inlined (no per-event helper calls) because one
        # long scale run pumps millions of events through here
        queue, fifo = self._queue, self._fifo
        heappop, popleft = heapq.heappop, fifo.popleft
        witness = self._witness
        guard = self._det_guard
        engaged_before = False
        if guard is not None:
            engaged_before = guard.engaged
            guard.engaged = True
        try:
            while not fut._done:
                # a dead fifo head is dropped without consulting the heap:
                # under perturbation the fifo is not seq-sorted, so comparing
                # on a corpse could let the heap overtake a live entry behind it
                if fifo and (fifo[0][2] is None or not queue
                             or fifo[0] < queue[0]):
                    entry = popleft()
                elif queue:
                    entry = queue[0]
                    if (bound is not None and entry[0] > bound
                            and entry[2] is not None):
                        if not park:
                            raise SimTimeoutError(
                                f"virtual-time limit {bound} reached")
                        self.now = bound
                        return
                    heappop(queue)
                else:
                    if not park:
                        raise RuntimeError(
                            "simulation deadlock: no live events but future "
                            f"pending ({self.live_events} live events)")
                    if bound is not None and bound > self.now:
                        self.now = bound
                    return
                when, seq, fn, args = entry
                if fn is None:
                    self._cancelled -= 1
                    continue
                # dead before dispatch: a callback cancelling its own handle
                # (every RPC timeout does) must find nothing left to cancel,
                # or the dead count would skew
                entry[2] = None
                self.now = when
                fn(*args)
                if witness is not None:
                    witness.fold_event(when, seq, fn, args)
                self._events_processed += 1
        finally:
            if guard is not None:
                guard.engaged = engaged_before

    def shutdown(self) -> None:
        """Tear down a simulation mid-flight: drop every queued event and
        close the coroutines of tasks that never got to run, so nothing
        lingers to be flagged at garbage collection.  Idempotent."""
        for entry in self._queue + list(self._fifo):
            owner = getattr(entry[2], "__self__", None)
            if isinstance(owner, Task) and not owner._started \
                    and not owner._done:
                # closing before GC means no never-awaited warning can fire
                owner._coro.close()
                _adopted_coro_ids.discard(id(owner._coro))
                owner.try_set_exception(TaskCancelled())
            entry[2] = None
        self._queue.clear()
        self._fifo.clear()
        self._cancelled = 0

    @property
    def events_processed(self) -> int:
        """Total events this kernel has executed (for diagnostics)."""
        return self._events_processed

    @property
    def live_events(self) -> int:
        """Number of events queued and still due to fire.

        Cancelled-but-unreaped entries are excluded — this is the honest
        "is the simulation actually idle?" figure the deadlock diagnostic
        reports.
        """
        return len(self._queue) + len(self._fifo) - self._cancelled
