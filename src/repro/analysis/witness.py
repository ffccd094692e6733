"""Per-event witness hash chain: the determinism contract, made comparable.

A :class:`WitnessRecorder` attached to a kernel folds every dispatched
event — its virtual time, scheduling sequence number, and a label derived
from the callback (qualified name, owning task name, and for message
deliveries the message's kind/src/dst) — into a rolling CRC chain.  Two
same-seed runs that dispatch the same events in the same order produce the
same chain; the first divergent event breaks every hash after it, which is
exactly the property :mod:`repro.analysis.detcheck` bisects on.

Costs: **off by default** — an unattached kernel pays one ``is None`` test
per event and allocates nothing.  Attached, each event pays one label
build and one ``zlib.crc32`` fold; checkpoints (every
``checkpoint_interval`` events) bound memory to O(events/interval), and
full per-event detail is retained only inside an explicit
``detail_range`` window, so the bisector's re-runs stay cheap.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable


class WitnessRecorder:
    """Rolling hash chain over dispatched kernel events.

    Attach with ``kernel.set_witness(recorder)`` before running.  After a
    run, ``chain`` is the final hash, ``checkpoints[i]`` the chain value
    after ``(i + 1) * checkpoint_interval`` events, and ``details`` the
    ``(index, when, seq, label)`` tuples for events whose index fell in
    ``detail_range`` (a half-open ``(lo, hi)`` window).

    ``fault_at`` / ``fault_fn`` support controlled divergence injection
    (used by detcheck's self-test and the CLI's ``--inject-fault``): just
    before folding event ``fault_at``, ``fault_fn()`` runs — e.g. stealing
    one draw from the network RNG, which is what an undisciplined
    wall-clock or entropy read does to a seeded simulation.
    """

    __slots__ = ("chain", "index", "checkpoint_interval", "checkpoints",
                 "detail_lo", "detail_hi", "details", "fault_at", "fault_fn")

    def __init__(self, checkpoint_interval: int = 1024,
                 detail_range: tuple[int, int] | None = None) -> None:
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        self.chain = 0
        self.index = 0
        self.checkpoint_interval = checkpoint_interval
        self.checkpoints: list[int] = []
        self.detail_lo, self.detail_hi = detail_range or (0, 0)
        self.details: list[tuple[int, float, int, str]] = []
        self.fault_at: int | None = None
        self.fault_fn: Callable[[], Any] | None = None

    # ------------------------------------------------------------------ #
    # folding (called by the kernel dispatch loop)
    # ------------------------------------------------------------------ #

    @staticmethod
    def describe(fn: Callable, args: tuple) -> str:
        """Stable label for one event callback.

        ``qualname[/task-name][ kind src->dst]`` — everything in it is
        derived from seeded simulation state, never from process-global
        counters or object addresses.
        """
        label = getattr(fn, "__qualname__", None) or repr(type(fn).__name__)
        owner = getattr(fn, "__self__", None)
        if owner is not None:
            owner_name = getattr(owner, "name", None)
            if isinstance(owner_name, str) and owner_name:
                label = f"{label}/{owner_name}"
        if args:
            first = args[0]
            src = getattr(first, "src", None)
            dst = getattr(first, "dst", None)
            if isinstance(src, str) and isinstance(dst, str):
                kind = getattr(first, "kind", None)
                kind_name = getattr(kind, "value", "")
                tag = getattr(first, "tag", "")
                label = f"{label} {kind_name}/{tag} {src}->{dst}"
        return label

    def fold_event(self, when: float, seq: int, fn: Callable,
                   args: tuple) -> None:
        """Fold one dispatched event into the chain (kernel hot-path hook)."""
        if self.fault_at is not None and self.index == self.fault_at \
                and self.fault_fn is not None:
            self.fault_fn()
        label = self.describe(fn, args)
        self.chain = zlib.crc32(
            f"{when!r}|{seq}|{label}".encode(), self.chain)
        index = self.index
        if self.detail_lo <= index < self.detail_hi:
            self.details.append((index, when, seq, label))
        self.index = index + 1
        if self.index % self.checkpoint_interval == 0:
            self.checkpoints.append(self.chain)

    # ------------------------------------------------------------------ #
    # comparison
    # ------------------------------------------------------------------ #

    def summary(self) -> dict[str, Any]:
        """Chain digest for reports: final hash, event count, checkpoints."""
        return {"chain": f"{self.chain:08x}", "events": self.index,
                "checkpoints": len(self.checkpoints),
                "checkpoint_interval": self.checkpoint_interval}

    def matches(self, other: "WitnessRecorder") -> bool:
        """Whether two runs witnessed identical event streams."""
        return self.chain == other.chain and self.index == other.index


def first_divergent_checkpoint(a: list[int], b: list[int]) -> int | None:
    """Binary-search the first checkpoint where two chains disagree.

    Hash chains make the predicate "prefix identical up to checkpoint i"
    monotone — once the chains split, every later checkpoint differs — so
    the first mismatch is found in O(log n) probes.  Returns the
    checkpoint index, or ``None`` when every shared checkpoint matches
    (the divergence, if any, lies in the tail past the last checkpoint).
    """
    n = min(len(a), len(b))
    if n == 0 or a[:1] != b[:1]:
        return 0 if n and a[0] != b[0] else None
    if a[n - 1] == b[n - 1]:
        return None
    lo, hi = 0, n - 1  # a[lo] == b[lo], a[hi] != b[hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a[mid] == b[mid]:
            lo = mid
        else:
            hi = mid
    return hi
