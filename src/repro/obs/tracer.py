"""Virtual-time request tracing.

A :class:`Tracer` is armed on the kernel (``kernel.set_tracer``, wired
by ``build_cluster(tracing=True)``) exactly like the witness chain and
yield sanitizer: every hot-path hook is one attribute load plus an
``is None`` test when tracing is off.

Trace ids are minted at the NFS envelope — ``Agent._nfs`` mints one per
user-visible operation — and propagate two ways:

- **within a kernel**: the running :class:`~repro.sim.kernel.Task`
  carries ``task.trace``; ``Kernel.spawn`` copies it to children, so
  pipeline work forked on behalf of a request stays attributed;
- **across the wire**: ``Node.rpc``/``Node.send`` stamp the current
  task's trace id onto the outgoing :class:`~repro.net.message.Message`
  and ``Node._serve_rpc`` adopts it onto the serving task (and stamps
  the reply), so the id crosses agent → envelope → pipeline → disk.

Spans are plain tuples ``(trace_id, start_ms, end_ms, layer, label)``
appended to a bounded ring buffer — old spans fall off the front, the
simulation never grows without bound.  Everything is deterministic:
ids come from a per-tracer counter, times are virtual, and the span
stream of a same-seed run is byte-identical.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

#: Canonical layer order for waterfall rendering (outermost first).
LAYERS = ("agent", "rpc", "pipeline", "disk", "net")

Span = tuple[int, float, float, str, str]


class Tracer:
    """Bounded per-cell span ring buffer plus the id mint."""

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self.spans: deque[Span] = deque(maxlen=capacity)
        self.minted = 0

    # -- hot-path surface ---------------------------------------------- #

    def mint(self) -> int:
        """Mint the next trace id (deterministic counter, 1-based)."""
        self.minted += 1
        return self.minted

    def record(self, trace_id: int, start: float, end: float,
               layer: str, label: str) -> None:
        """Append one span.  Called only when the tracer is armed."""
        self.spans.append((trace_id, start, end, layer, label))

    # -- forensics ----------------------------------------------------- #

    def traces(self) -> dict[int, list[Span]]:
        """Spans grouped by trace id, in recording order."""
        out: dict[int, list[Span]] = {}
        for span in self.spans:
            out.setdefault(span[0], []).append(span)
        return out

    def slowest(self, n: int = 5,
                root_layer: str = "agent") -> list[tuple[float, int, list[Span]]]:
        """The ``n`` slowest complete traces, ranked by root-span length.

        A trace still in the buffer but whose root (``agent``-layer) span
        fell off the ring — or never finished — is skipped: its duration
        cannot be known.  Returns ``(duration_ms, trace_id, spans)``
        tuples, slowest first; ties break on trace id so the ranking is
        deterministic.
        """
        ranked = []
        for tid, spans in self.traces().items():
            roots = [s for s in spans if s[3] == root_layer]
            if not roots:
                continue
            duration = max(s[2] for s in roots) - min(s[1] for s in roots)
            ranked.append((duration, tid, spans))
        ranked.sort(key=lambda item: (-item[0], item[1]))
        return ranked[:n]

    # -- rendering ----------------------------------------------------- #

    @staticmethod
    def format_trace(trace_id: int, spans: Iterable[Span]) -> str:
        """One trace as an indented waterfall, times relative to start."""
        spans = sorted(spans, key=lambda s: (s[1], LAYERS.index(s[3])
                                             if s[3] in LAYERS else len(LAYERS)))
        t0 = min(s[1] for s in spans)
        t1 = max(s[2] for s in spans)
        root = next((s for s in spans if s[3] == "agent"), spans[0])
        lines = [f"trace {trace_id}  {root[4]}  {t1 - t0:.2f} ms "
                 f"({len(spans)} spans)"]
        for _tid, start, end, layer, label in spans:
            depth = LAYERS.index(layer) if layer in LAYERS else len(LAYERS)
            lines.append(f"  {'  ' * depth}[{layer:<8}] "
                         f"{start - t0:8.2f} .. {end - t0:8.2f}  {label}")
        return "\n".join(lines)

    def report(self, n: int = 5) -> str:
        """The ``slowest(n)`` exemplars, rendered (``repro trace``)."""
        ranked = self.slowest(n)
        if not ranked:
            return "no complete traces recorded"
        blocks = [f"slowest {len(ranked)} of {self.minted} traces "
                  f"({len(self.spans)} spans buffered, cap {self.capacity})"]
        for _duration, tid, spans in ranked:
            blocks.append(self.format_trace(tid, spans))
        return "\n\n".join(blocks)

    def snapshot(self) -> list[Span]:
        """The span stream as a list (for determinism pins)."""
        return list(self.spans)

