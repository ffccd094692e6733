"""Live metrics scraping: periodic virtual-time snapshots.

``Metrics.report()`` only exists after the run ends; benchmarks that
want *trajectories* (queue growth under overload, cache warm-up,
replica migration) need a time series.  :class:`MetricsSampler` posts itself on
the kernel every ``period_ms`` of virtual time and snapshots the
counters plus selected latency reservoirs into a bounded ring the
testbed can read mid-run.

Determinism: a tick only *reads* the metrics and re-posts itself — it
draws no randomness and sends no messages, so arming the sampler never
changes workload behavior, and two same-seed runs with the sampler
armed produce byte-identical series.  Counter keys are iterated in
sorted order so the snapshot dicts themselves are order-stable.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable


class MetricsSampler:
    """Snapshot counters/latency percentiles on a virtual-time period."""

    #: Latency reservoirs sampled when the caller names none.
    DEFAULT_LATENCIES = ("pipeline.write_ms", "pipeline.read_ms")

    def __init__(self, metrics: Any, period_ms: float = 250.0,
                 capacity: int = 4096,
                 counter_names: Iterable[str] | None = None,
                 latencies: Iterable[str] | None = None):
        self.metrics = metrics
        self.period_ms = period_ms
        self.capacity = capacity
        #: None means "every counter that exists at tick time".
        self.counter_names = (None if counter_names is None
                              else tuple(counter_names))
        self.latencies = (self.DEFAULT_LATENCIES if latencies is None
                          else tuple(latencies))
        self.samples: deque[dict] = deque(maxlen=capacity)
        self.ticks = 0
        self._kernel: Any = None
        self._running = False

    # -- lifecycle ----------------------------------------------------- #

    def attach(self, kernel: Any) -> None:
        """Start (or, after a cold restart, resume) ticking on ``kernel``.

        The series survives a ``Cluster.restart()``: the new kernel's
        virtual clock restarts at 0, so post-restart samples carry the
        new cell's times — the ``incarnation`` the testbed tracks tells
        readers where the seam is.
        """
        self._kernel = kernel
        self._running = True
        kernel.post(self.period_ms, self._tick)

    def stop(self) -> None:
        """Stop ticking (the already-posted tick becomes a no-op)."""
        self._running = False

    # -- the tick ------------------------------------------------------ #

    def _tick(self) -> None:
        if not self._running:
            return
        kernel = self._kernel
        counters = self.metrics.counters
        names = (sorted(counters) if self.counter_names is None
                 else self.counter_names)
        snap = {name: counters[name] for name in names if name in counters}
        lat: dict[str, dict[str, float]] = {}
        for name in self.latencies:
            stats = self.metrics._latencies.get(name)
            if stats is None or not stats.count:
                continue
            lat[name] = {
                "count": stats.count,
                "mean": stats.mean,
                "p50": stats.percentile(50),
                "p99": stats.percentile(99),
            }
        self.ticks += 1
        self.samples.append({"t_ms": kernel.now, "counters": snap,
                             "latency": lat})
        kernel.post(self.period_ms, self._tick)

    # -- readers ------------------------------------------------------- #

    def series(self, counter: str) -> list[tuple[float, int]]:
        """``(t_ms, value)`` trajectory of one counter."""
        return [(s["t_ms"], s["counters"].get(counter, 0))
                for s in self.samples]

    def latency_series(self, name: str,
                       quantile: str = "p99") -> list[tuple[float, float]]:
        """``(t_ms, quantile)`` trajectory of one latency reservoir."""
        out = []
        for s in self.samples:
            stats = s["latency"].get(name)
            if stats is not None:
                out.append((s["t_ms"], stats[quantile]))
        return out

    def snapshot(self) -> list[dict]:
        """The whole series as a list (for determinism pins)."""
        return list(self.samples)
