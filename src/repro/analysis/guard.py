"""Runtime determinism guard: forbidden entropy sources raise in sim time.

``detlint`` proves at review time that sim-domain *source* never reads the
host clock or the global RNG; :class:`DeterminismGuard` proves it at *run*
time, covering the paths static analysis cannot see (third-party calls,
getattr dispatch, code the linter was suppressed on).  Opt in with
``build_cluster(det_guard=True)``: while the kernel is dispatching events,
calling ``time.time`` / ``monotonic`` / ``perf_counter`` (and ``_ns``
twins), any module-global ``random`` function, ``os.urandom``,
``uuid.uuid1`` / ``uuid.uuid4``, or constructing an **unseeded**
``random.Random()`` raises :class:`DeterminismError` at the offending
call site — the cheapest possible bisection.

Mechanics: the guard patches the *module attributes* with pass-through
wrappers.  Outside the kernel run loop (workload generation, benchmark
harness code, pytest itself) the wrappers delegate to the originals, so
installing a guard never breaks real-time code; the kernel flips
``engaged`` around its dispatch loop.  ``datetime.datetime.now`` lives on
a C type and cannot be patched — the static rule covers it.

Installation is process-global and refcounted (several live clusters may
each request a guard); :func:`acquire` / :func:`release` pair up, and
``Cluster.close()`` releases automatically.
"""

from __future__ import annotations

import os
import random
import time
import uuid
from typing import Any, Callable


class DeterminismError(RuntimeError):
    """A forbidden global entropy source was read inside the sim loop."""


#: (module, attribute) pairs patched with engaged-check wrappers.
_PATCHED_FUNCTIONS: list[tuple[Any, str]] = [
    (time, "time"), (time, "time_ns"),
    (time, "monotonic"), (time, "monotonic_ns"),
    (time, "perf_counter"), (time, "perf_counter_ns"),
    (os, "urandom"),
    (uuid, "uuid1"), (uuid, "uuid4"),
    (random, "random"), (random, "randrange"), (random, "randint"),
    (random, "uniform"), (random, "choice"), (random, "choices"),
    (random, "shuffle"), (random, "sample"), (random, "gauss"),
    (random, "getrandbits"), (random, "seed"),
]


class DeterminismGuard:
    """Patches global entropy sources to raise while ``engaged``.

    One instance per process (see :func:`acquire`); ``engaged`` is flipped
    by the kernel around event dispatch, so the wrappers cost one bool
    check when sim code legitimately runs in real time (CLI, benchmarks).
    """

    def __init__(self) -> None:
        self.engaged = False
        self.refs = 0
        self._saved: list[tuple[Any, str, Any]] = []
        self._installed = False

    def _wrap(self, module: Any, name: str,
              original: Callable) -> Callable:
        qualified = f"{module.__name__}.{name}"

        def guarded(*args: Any, **kwargs: Any) -> Any:
            if self.engaged:
                raise DeterminismError(
                    f"{qualified}() called inside the simulation loop; "
                    "sim code must use kernel.now / the injected seeded "
                    "rng (det_guard tripwire)")
            return original(*args, **kwargs)

        guarded.__name__ = name
        guarded.__qualname__ = name
        guarded._det_guard_original = original  # type: ignore[attr-defined]
        return guarded

    def install(self) -> None:
        """Patch the module attributes (idempotent)."""
        if self._installed:
            return
        self._installed = True
        for module, name in _PATCHED_FUNCTIONS:
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(module, name, original))
        # random.Random() with NO seed argument self-seeds from OS
        # entropy; a subclass keeps isinstance() and seeded construction
        # working everywhere else.
        original_random = random.Random
        self._saved.append((random, "Random", original_random))
        guard = self

        class GuardedRandom(original_random):  # type: ignore[valid-type,misc]
            def __init__(self, *args: Any, **kwargs: Any) -> None:
                if guard.engaged and not args and not kwargs:
                    raise DeterminismError(
                        "random.Random() constructed without a seed "
                        "inside the simulation loop; pass an explicit "
                        "seed (det_guard tripwire)")
                super().__init__(*args, **kwargs)

        GuardedRandom.__name__ = "Random"
        GuardedRandom.__qualname__ = "Random"
        random.Random = GuardedRandom  # type: ignore[misc]

    def uninstall(self) -> None:
        """Restore every patched attribute (idempotent)."""
        if not self._installed:
            return
        self._installed = False
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()
        self.engaged = False


_singleton: DeterminismGuard | None = None


def acquire() -> DeterminismGuard:
    """Install (or share) the process-wide guard; pair with :func:`release`."""
    global _singleton
    if _singleton is None:
        _singleton = DeterminismGuard()
        _singleton.install()
    _singleton.refs += 1
    return _singleton


def release(guard: DeterminismGuard | None) -> None:
    """Drop one reference; the last release uninstalls the patches."""
    global _singleton
    if guard is None or guard is not _singleton:
        return
    guard.refs -= 1
    if guard.refs <= 0:
        guard.uninstall()
        _singleton = None
