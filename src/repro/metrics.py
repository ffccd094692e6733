"""Instrumentation: message, round, and latency accounting.

Every benchmark in ``benchmarks/`` reports quantities the paper's claims are
about — messages per update, communication rounds per operation, virtual-time
latencies — rather than wall-clock numbers the paper never published.  This
module is the single place those counters live.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict


class LatencyStats:
    """Summary statistics over a series of virtual-time latencies.

    ``count``/``total``/``minimum``/``maximum`` (and hence ``mean``) are
    exact over every recorded value.  Percentiles come from a bounded
    reservoir (Vitter's algorithm R, at most :attr:`RESERVOIR_CAP` values)
    so a million-sample scale run stays O(1) in memory, with the sorted
    view cached between :meth:`record` calls so repeated percentile reads
    sort at most once.  The reservoir RNG is seeded per instance, so
    same-seed simulations report identical percentiles.
    """

    #: Upper bound on retained raw samples; percentiles over a reservoir
    #: this size are within a fraction of a percent of exact.
    RESERVOIR_CAP = 8192

    __slots__ = ("count", "total", "minimum", "maximum", "samples",
                 "_sorted", "_rng")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = 0.0
        self.samples: list[float] = []  # the reservoir
        self._sorted: list[float] | None = None  # cache; None = stale
        self._rng = random.Random(0x1A7E)

    def record(self, value: float) -> None:
        """Add one latency sample."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        samples = self.samples
        if len(samples) < self.RESERVOIR_CAP:
            samples.append(value)
            self._sorted = None
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.RESERVOIR_CAP:
                samples[slot] = value
                self._sorted = None

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty), exact over all samples."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100], over the reservoir."""
        ordered = self._sorted
        if ordered is None:
            ordered = self._sorted = sorted(self.samples)
        if not ordered:
            return 0.0
        rank = max(0, min(len(ordered) - 1, math.ceil(p / 100.0 * len(ordered)) - 1))
        return ordered[rank]


class Metrics:
    """A hierarchical counter/latency registry.

    Components increment named counters (``metrics.incr("net.msgs")``) and
    record latencies (``metrics.latency("nfs.read").record(dt)``).  Counters
    are plain integers; reading an absent counter yields zero.
    """

    def __init__(self) -> None:
        self.counters: Counter[str] = Counter()
        self._latencies: dict[str, LatencyStats] = defaultdict(LatencyStats)

    def incr(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.counters[name] += amount

    def get(self, name: str) -> int:
        """Read counter ``name`` (0 if never incremented)."""
        return self.counters[name]

    def latency(self, name: str) -> LatencyStats:
        """Return (creating if needed) the latency series ``name``."""
        return self._latencies[name]

    def snapshot(self) -> dict[str, int]:
        """Copy of all counters (for before/after deltas in benchmarks)."""
        return dict(self.counters)

    def delta(self, before: dict[str, int]) -> dict[str, int]:
        """Counter changes since ``before`` (zero-change keys omitted)."""
        out: dict[str, int] = {}
        for key in set(self.counters) | set(before):
            change = self.counters[key] - before.get(key, 0)
            if change:
                out[key] = change
        return out

    def report(self, prefix: str = "") -> str:
        """Human-readable dump, optionally filtered by counter prefix."""
        lines = []
        for name in sorted(self.counters):
            if name.startswith(prefix):
                lines.append(f"{name:<40s} {self.counters[name]}")
        for name in sorted(self._latencies):
            if name.startswith(prefix):
                stats = self._latencies[name]
                lines.append(
                    f"{name:<40s} n={stats.count} mean={stats.mean:.3f} "
                    f"p50={stats.percentile(50):.3f} p99={stats.percentile(99):.3f} "
                    f"max={stats.maximum:.3f}"
                )
        return "\n".join(lines)
