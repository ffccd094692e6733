"""Cooperative synchronization primitives on the simulation kernel.

Atomicity contract (what ``racelint`` / ``ysan`` assume of this layer):

- :class:`Lock` is FIFO and hand-off: ``release()`` passes ownership to
  the longest-waiting *live* acquirer without dropping the lock in
  between.  A waiter that gave up (``wait_for`` timeout — the kernel does
  **not** cancel the inner acquire — or a crashed task) must either be
  skipped because its future is already done, or renounced explicitly via
  :meth:`Lock.abandon`; otherwise its pending future would soak up a
  grant nobody is awaiting and wedge the lock forever.
"""

from __future__ import annotations

from collections import deque

from repro.sim.kernel import Kernel, SimFuture, SimTimeoutError


class Lock:
    """FIFO mutual-exclusion lock for tasks.

    Usage::

        await lock.acquire()
        try: ...
        finally: lock.release()

    With a timeout (the acquire future must be renounced on failure,
    because ``wait_for`` does not cancel the underlying acquire)::

        fut = lock.acquire()
        try:
            await kernel.wait_for(fut, timeout)
        except SimTimeoutError:
            lock.abandon(fut)
            raise
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self._locked = False
        # made on first contention: a cell holds thousands of locks that
        # never see a second acquirer
        self._waiters: deque[SimFuture] | None = None

    def acquire(self) -> SimFuture:
        """Future resolving once the lock is held by the caller."""
        fut = self.kernel.create_future()
        if not self._locked:
            self._locked = True
            fut.set_result(None)
        else:
            if self._waiters is None:
                self._waiters = deque()
            self._waiters.append(fut)
        return fut

    def release(self) -> None:
        """Release; hands off to the longest-waiting *live* acquirer.

        Waiter futures that are already done — abandoned via
        :meth:`abandon`, or failed by a node crash — are skipped: granting
        to one would "give" the lock to a task that stopped listening,
        wedging every later acquirer behind a phantom owner.
        """
        if not self._locked:
            raise RuntimeError("release of unheld lock")
        waiters = self._waiters
        while waiters:
            if waiters.popleft().try_set_result(None):
                return  # ownership handed off; lock stays held
        self._locked = False

    def abandon(self, fut: SimFuture) -> None:
        """Renounce a pending :meth:`acquire` future (idempotent).

        Call this when the would-be owner gives up on ``fut`` — typically
        after a ``wait_for`` timeout, which leaves the acquire future
        pending in the waiter queue.  If the grant already landed (the
        lock was handed to ``fut`` between the timeout firing and this
        call), the lock is released on the abandoner's behalf; otherwise
        the future is failed in place so :meth:`release` skips it.
        """
        if fut.done():
            if fut.exception() is None:
                # the grant raced the abandonment: we own the lock now,
                # and nobody is awaiting the future — pass it on
                self.release()
            return
        fut.set_exception(SimTimeoutError("lock acquire abandoned"))

    @property
    def locked(self) -> bool:
        """Whether the lock is currently held."""
        return self._locked

