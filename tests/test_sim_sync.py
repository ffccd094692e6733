"""Unit tests for the cooperative Lock."""

import pytest

from repro.sim import SimTimeoutError
from repro.sim.sync import Lock
from tests.conftest import run


def test_lock_mutual_exclusion(kernel):
    lock = Lock(kernel)
    trace = []

    async def worker(name, hold):
        await lock.acquire()
        try:
            trace.append(f"{name}+")
            await kernel.sleep(hold)
            trace.append(f"{name}-")
        finally:
            lock.release()

    async def main():
        tasks = [kernel.spawn(worker("a", 5.0)), kernel.spawn(worker("b", 5.0))]
        await kernel.all_of(tasks)

    run(kernel, main())
    # no interleaving: each worker completes before the next enters
    assert trace == ["a+", "a-", "b+", "b-"]


def test_lock_fifo_order(kernel):
    lock = Lock(kernel)
    order = []

    async def worker(i):
        await lock.acquire()
        order.append(i)
        lock.release()

    async def main():
        await lock.acquire()
        tasks = [kernel.spawn(worker(i)) for i in range(4)]
        await kernel.sleep(1.0)
        lock.release()
        await kernel.all_of(tasks)

    run(kernel, main())
    assert order == [0, 1, 2, 3]


def test_release_unheld_lock_raises(kernel):
    lock = Lock(kernel)
    with pytest.raises(RuntimeError):
        lock.release()


def test_double_release_raises(kernel):
    lock = Lock(kernel)

    async def main():
        await lock.acquire()
        lock.release()
        with pytest.raises(RuntimeError):
            lock.release()

    run(kernel, main())


def test_timed_out_acquirer_does_not_wedge_lock(kernel):
    """Regression: release() used to hand the lock to a waiter that had
    already given up (wait_for does not cancel the inner acquire), leaving
    it held by a phantom owner forever."""
    lock = Lock(kernel)
    trace = []

    async def impatient():
        fut = lock.acquire()
        try:
            await kernel.wait_for(fut, 5.0)
        except SimTimeoutError:
            lock.abandon(fut)
            trace.append("gave-up")
            return
        raise AssertionError("lock was not held; timeout expected")

    async def patient():
        await lock.acquire()
        trace.append("patient-acquired")
        lock.release()

    async def main():
        await lock.acquire()  # hold so both others must queue
        a = kernel.spawn(impatient())
        b = kernel.spawn(patient())
        await kernel.sleep(10.0)  # let the timeout fire
        lock.release()
        await kernel.all_of([a, b])

    run(kernel, main())
    assert trace == ["gave-up", "patient-acquired"]
    assert not lock.locked


def test_release_skips_crashed_waiter_future(kernel):
    """A waiter future failed externally (e.g. its node crashed) must be
    skipped by release(), not granted."""
    lock = Lock(kernel)
    order = []

    async def worker(i):
        await lock.acquire()
        order.append(i)
        lock.release()

    async def main():
        await lock.acquire()
        dead = lock.acquire()  # queued waiter...
        dead.set_exception(RuntimeError("node crashed"))  # ...then died
        live = kernel.spawn(worker(1))
        await kernel.sleep(1.0)
        lock.release()
        await live
        assert dead.exception() is not None  # consumed, not overwritten

    run(kernel, main())
    assert order == [1]
    assert not lock.locked


def test_abandon_after_grant_races_releases_on_behalf(kernel):
    """If the grant lands before abandon() runs, the abandoner briefly owns
    the lock; abandon() must pass it on instead of leaking it."""
    lock = Lock(kernel)

    async def main():
        await lock.acquire()
        fut = lock.acquire()  # queued
        lock.release()        # grant lands on fut immediately
        assert fut.done() and fut.exception() is None
        lock.abandon(fut)     # abandoner never looked: must release
        assert not lock.locked
        await lock.acquire()  # a later acquirer gets it at once
        lock.release()

    run(kernel, main())


def test_abandon_pending_future_is_idempotent(kernel):
    lock = Lock(kernel)

    async def main():
        await lock.acquire()
        fut = lock.acquire()
        lock.abandon(fut)
        lock.abandon(fut)  # second call is a no-op, not a double-release
        assert isinstance(fut.exception(), SimTimeoutError)
        lock.release()
        assert not lock.locked

    run(kernel, main())
