"""Unit tests for the discrete-event kernel and coroutine runtime."""

import random

import pytest

from repro.sim import Kernel, SimTimeoutError, TaskCancelled
from tests.conftest import run


def test_virtual_time_advances_per_event(kernel):
    fired = []
    kernel.schedule(10.0, lambda: fired.append(kernel.now))
    kernel.schedule(5.0, lambda: fired.append(kernel.now))
    kernel.run()
    assert fired == [5.0, 10.0]


def test_equal_time_events_fire_in_schedule_order(kernel):
    order = []
    for i in range(5):
        kernel.schedule(1.0, order.append, i)
    kernel.run()
    assert order == [0, 1, 2, 3, 4]


def test_schedule_negative_delay_rejected(kernel):
    with pytest.raises(ValueError):
        kernel.schedule(-1.0, lambda: None)


def test_cancel_prevents_firing(kernel):
    fired = []
    handle = kernel.schedule(1.0, fired.append, 1)
    handle.cancel()
    kernel.run()
    assert fired == []
    assert handle.cancelled


def test_run_until_limit_stops_clock_at_limit(kernel):
    fired = []
    kernel.schedule(100.0, fired.append, 1)
    kernel.run(until=50.0)
    assert kernel.now == 50.0
    assert fired == []
    kernel.run()
    assert fired == [1]


def test_sleep_advances_clock(kernel):
    async def main():
        await kernel.sleep(25.0)
        return kernel.now

    assert run(kernel, main()) == 25.0


def test_task_returns_value(kernel):
    async def main():
        return 42

    assert run(kernel, main()) == 42


def test_task_exception_propagates(kernel):
    async def boom():
        await kernel.sleep(1.0)
        raise ValueError("boom")

    async def main():
        with pytest.raises(ValueError, match="boom"):
            await kernel.spawn(boom())
        return "caught"

    assert run(kernel, main()) == "caught"


def test_nested_task_await(kernel):
    async def inner(x):
        await kernel.sleep(1.0)
        return x * 2

    async def outer():
        a = await kernel.spawn(inner(3))
        b = await kernel.spawn(inner(a))
        return b

    assert run(kernel, outer()) == 12


def test_wait_for_times_out(kernel):
    async def main():
        never = kernel.create_future()
        with pytest.raises(SimTimeoutError):
            await kernel.wait_for(never, 10.0)
        return kernel.now

    assert run(kernel, main()) == 10.0


def test_wait_for_passes_result_through(kernel):
    async def quick():
        await kernel.sleep(1.0)
        return "ok"

    async def main():
        return await kernel.wait_for(quick(), 100.0)

    assert run(kernel, main()) == "ok"


def test_all_of_collects_in_order(kernel):
    async def delayed(value, delay):
        await kernel.sleep(delay)
        return value

    async def main():
        futs = [kernel.spawn(delayed(i, 10.0 - i)) for i in range(3)]
        return await kernel.all_of(futs)

    # results follow input order even though completion order is reversed
    assert run(kernel, main()) == [0, 1, 2]


def test_all_of_empty(kernel):
    async def main():
        return await kernel.all_of([])

    assert run(kernel, main()) == []


def test_task_cancellation_raises_inside(kernel):
    progress = []

    async def victim():
        progress.append("start")
        await kernel.sleep(100.0)
        progress.append("never")

    async def main():
        task = kernel.spawn(victim())
        await kernel.sleep(1.0)
        task.cancel()
        with pytest.raises(TaskCancelled):
            await task
        return progress

    assert run(kernel, main()) == ["start"]


def test_future_single_assignment(kernel):
    fut = kernel.create_future()
    fut.set_result(1)
    with pytest.raises(RuntimeError):
        fut.set_result(2)
    assert fut.try_set_result(3) is False
    assert fut.result() == 1


def test_deadlock_detected(kernel):
    async def main():
        await kernel.create_future()  # never resolved

    with pytest.raises(RuntimeError, match="deadlock"):
        run(kernel, main())


def test_run_until_complete_respects_limit(kernel):
    async def main():
        await kernel.sleep(10_000.0)

    with pytest.raises(SimTimeoutError):
        kernel.run_until_complete(main(), limit=100.0)


def test_events_processed_counter(kernel):
    for _ in range(7):
        kernel.schedule(1.0, lambda: None)
    kernel.run()
    assert kernel.events_processed == 7


def test_shutdown_closes_never_started_tasks(kernel):
    ran = []

    async def never_runs():
        ran.append(True)

    task = kernel.spawn(never_runs())
    kernel.shutdown()
    assert not ran                      # coroutine never entered
    assert task.done()                  # resolved (cancelled), not dangling
    assert kernel.live_events == 0
    kernel.shutdown()                   # idempotent


def test_shutdown_leaves_no_unawaited_warnings(kernel):
    import gc
    import warnings as w

    async def never_runs():
        pass

    kernel.spawn(never_runs())
    kernel.shutdown()
    with w.catch_warnings(record=True) as caught:
        w.simplefilter("always")
        gc.collect()
    assert not [x for x in caught if "never awaited" in str(x.message)]


# ---- fast-path surface: live counts, fifo, compaction, post --------------- #

def test_live_events_excludes_cancelled(kernel):
    handles = [kernel.schedule(float(i + 1), lambda: None) for i in range(10)]
    assert kernel.live_events == 10
    for handle in handles[:6]:
        handle.cancel()
    assert kernel.live_events == 4
    kernel.run()
    assert kernel.live_events == 0


def test_cancel_after_fire_is_a_no_op(kernel):
    # RPC replies cancel their own already-fired timeout via done-callback;
    # that must not skew the live count below zero
    fired = []
    handle = kernel.schedule(1.0, fired.append, 1)
    kernel.run()
    handle.cancel()
    handle.cancel()
    assert fired == [1]
    assert kernel.live_events == 0


def test_zero_delay_events_keep_global_seq_order(kernel):
    order = []
    kernel.schedule(0.0, order.append, "z1")    # fifo, seq 0
    kernel.schedule(1.0, order.append, "heap")  # heap, seq 1
    kernel.schedule(0.0, order.append, "z2")    # fifo, seq 2
    kernel.run()
    assert order == ["z1", "z2", "heap"]


def test_zero_delay_from_callback_interleaves_by_seq(kernel):
    # an event spawned at time t from a callback must still fire after
    # events already scheduled for t with smaller seq — fifo and heap are
    # merged on (when, seq), not fifo-first
    order = []

    def outer():
        order.append("outer")
        kernel.schedule(0.0, order.append, "inner")

    kernel.schedule(5.0, outer)
    kernel.schedule(5.0, order.append, "later")
    kernel.run()
    assert order == ["outer", "later", "inner"]


def test_post_fire_and_forget(kernel):
    order = []
    kernel.post(2.0, order.append, "b")
    kernel.post(0.0, order.append, "a")
    assert kernel.live_events == 2
    kernel.run()
    assert order == ["a", "b"]
    with pytest.raises(ValueError):
        kernel.post(-1.0, lambda: None)


def test_mass_cancellation_compacts_and_preserves_order(kernel):
    fired, kept = [], []
    for i in range(2000):
        handle = kernel.schedule(float(i + 1), fired.append, i)
        if i % 4:
            handle.cancel()
        else:
            kept.append(i)
    assert kernel.live_events == len(kept)
    # the dead-entry threshold was crossed many times over: the heap must
    # have been compacted rather than retaining all 1500 corpses
    assert len(kernel._queue) < 2000
    kernel.run()
    assert fired == kept
    assert kernel.live_events == 0


def test_run_until_complete_drains_fifo_and_heap(kernel):
    order = []

    async def main():
        kernel.schedule(0.0, order.append, "zero")
        await kernel.sleep(3.0)
        kernel.post(0.0, order.append, "post")
        await kernel.sleep(1.0)
        return order

    assert run(kernel, main()) == ["zero", "post"]


# ---- one-list events: dead-before-dispatch, cross-queue seq order ---------- #

def _drain(kernel, how):
    """Empty the queues through either dispatch loop."""
    if how == "run":
        kernel.run()
    else:
        run(kernel, kernel.sleep(1_000.0))


@pytest.mark.parametrize("how", ["run", "run_until_complete"])
def test_timer_cancelling_its_own_handle_keeps_live_events_honest(kernel, how):
    # every RPC timeout does this: the fired timer fails the future, whose
    # done-callback cancels the timer's own handle.  The entry was already
    # popped, so counting it as a dead *queued* entry drove live_events
    # negative (and made the deadlock diagnostic and compaction trigger lie)
    handles, fired = [], []

    def fire(i):
        fired.append(i)
        handles[i].cancel()

    for i in range(5):
        handles.append(kernel.schedule(float(i + 1), fire, i))
    handles.append(kernel.schedule(0.0, fire, 5))      # fifo entry too
    _drain(kernel, how)
    assert fired == [5, 0, 1, 2, 3, 4]
    assert all(h.cancelled for h in handles)
    assert kernel.live_events == 0


@pytest.mark.parametrize("how", ["run", "run_until_complete"])
def test_mixed_primitives_at_equal_timestamps_fire_in_seq_order(kernel, how):
    # heap entries due at t=5 (scheduled earlier, smaller seq) and every
    # zero-delay primitive issued *at* t=5 share one timestamp; they fire
    # strictly by seq, whichever queue holds them
    order = []

    async def task(label):
        order.append(label)

    def burst():
        order.append("burst")
        kernel.schedule(0.0, order.append, "schedule0")
        kernel.post(0.0, order.append, "post0")
        kernel.spawn(task("spawn"))
        kernel.post(1.0, order.append, "next-tick")
        kernel.post(0.0, order.append, "post0-again")

    kernel.post(5.0, burst)
    kernel.schedule(5.0, order.append, "heap-schedule")
    kernel.post(5.0, order.append, "heap-post")
    _drain(kernel, how)
    assert order == ["burst", "heap-schedule", "heap-post",
                     "schedule0", "post0", "spawn",
                     "post0-again", "next-tick"]


@pytest.mark.parametrize("how", ["run", "run_until_complete"])
def test_forced_compaction_preserves_order_across_both_queues(kernel, how):
    kernel.COMPACT_MIN_DEAD = 4         # compact after a handful of corpses
    order, expect, doomed = [], [], []

    def burst():
        # zero-delay entries join the fifo while the heap still holds
        # later timers; every third of either kind is cancelled
        for i in range(12):
            h = kernel.schedule(0.0, order.append, ("fifo", i))
            (doomed if i % 3 == 0 else expect).append((h, ("fifo", i)))
        for h, _label in doomed:
            h.cancel()

    heap_expect = []
    for i in range(12):
        h = kernel.schedule(2.0 + i, order.append, ("heap", i))
        (doomed if i % 3 == 0 else heap_expect).append((h, ("heap", i)))
    kernel.post(1.0, burst)
    _drain(kernel, how)
    assert order == [label for _h, label in expect + heap_expect]
    assert kernel.live_events == 0
    assert kernel._cancelled == 0       # every corpse reaped exactly once


def test_perturbation_permutes_only_same_timestamp_ties():
    def scenario(perturb_seed):
        k = Kernel()
        if perturb_seed is not None:
            k.set_perturbation(random.Random(perturb_seed))
        fired = []

        def burst(t):
            for i in range(5):
                k.post(0.0, fired.append, (t, i))

        for t in (1.0, 2.0, 3.0):
            k.post(t, burst, t)
            k.post(t, fired.append, (t, "heap"))   # same instant, on the heap
        k.run()
        return fired

    plain = scenario(None)
    shuffled = {seed: scenario(seed) for seed in range(1, 6)}
    for fired in shuffled.values():
        assert sorted(fired, key=str) == sorted(plain, key=str)  # nothing lost or doubled
        assert [t for t, _ in fired] == sorted(t for t, _ in fired)
        # heap entries due at t were sequenced before anything posted at t
        for t in (1.0, 2.0, 3.0):
            assert [x for x in fired if x[0] == t][0] == (t, "heap")
    assert any(fired != plain for fired in shuffled.values())
    assert shuffled[3] == scenario(3)   # reproducible from the perturb seed


def test_shutdown_with_dead_and_live_entries_closes_unstarted_tasks(kernel):
    import gc
    import warnings as w

    async def never_runs():
        pass

    tasks = [kernel.spawn(never_runs()) for _ in range(3)]
    kernel.schedule(0.0, lambda: None).cancel()         # dead, fifo
    kernel.schedule(5.0, lambda: None).cancel()         # dead, heap
    kernel.schedule(5.0, lambda: None)                  # live, heap
    kernel.shutdown()
    assert all(t.done() for t in tasks)
    assert kernel.live_events == 0
    with w.catch_warnings(record=True) as caught:
        w.simplefilter("always")
        del tasks
        gc.collect()
    assert not [x for x in caught if "never awaited" in str(x.message)]
