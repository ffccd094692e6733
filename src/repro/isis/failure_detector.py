"""Heartbeat failure detector.

ISIS's failure detector is *coordinated with communication*: once the system
decides a process failed, that decision is consistent — the process is
shunned even if it was merely slow (fail-stop abstraction enforced by the
membership layer).  Here, the detector produces *suspicions*; the group
layer turns suspicions into view changes, and epoch tags on heartbeats make
a recovered process look like a fresh joiner rather than a ghost.

During a partition, heartbeats stop crossing the boundary, so each side
suspects the other — which is precisely how Deceit experiences a partition
(§3.5): as the unavailability of some replicas.
"""

from __future__ import annotations

from typing import Callable

from repro.net import Node


class FailureDetector:
    """Per-process heartbeat monitor over a fixed peer roster.

    ``on_suspect(addr)`` fires (once per down-transition) when nothing has
    been heard from a peer for ``timeout_ms``; ``on_alive(addr)`` fires when
    a previously suspected peer is heard from again (recovery or partition
    heal).
    """

    def __init__(
        self,
        node: Node,
        peers: list[str],
        interval_ms: float = 50.0,
        timeout_ms: float = 200.0,
    ):
        self.node = node
        self.kernel = node.kernel
        self.peers = [p for p in peers if p != node.addr]
        self.interval_ms = interval_ms
        self.timeout_ms = timeout_ms
        self.last_heard: dict[str, float] = {}
        self.suspected: set[str] = set()
        #: virtual time the current suspicion of each peer began — the
        #: "down since" figure the health RPC reports for dead machines;
        #: cleared when the peer is heard from again
        self.suspected_since: dict[str, float] = {}
        self.peer_epochs: dict[str, int] = {}
        self._on_suspect: list[Callable[[str], None]] = []
        self._on_alive: list[Callable[[str], None]] = []
        self._running = False

    def subscribe(
        self,
        on_suspect: Callable[[str], None] | None = None,
        on_alive: Callable[[str], None] | None = None,
    ) -> None:
        """Register transition callbacks."""
        if on_suspect:
            self._on_suspect.append(on_suspect)
        if on_alive:
            self._on_alive.append(on_alive)

    def start(self) -> None:
        """Begin heartbeating and checking (idempotent)."""
        if self._running:
            return
        self._running = True
        now = self.kernel.now
        for peer in self.peers:
            self.last_heard.setdefault(peer, now)
        self._tick()

    def stop(self) -> None:
        """Stop heartbeating (e.g. on crash)."""
        self._running = False

    def add_peer(self, addr: str) -> None:
        """Grow the roster (new server added to the cell)."""
        if addr != self.node.addr and addr not in self.peers:
            self.peers.append(addr)
            self.last_heard[addr] = self.kernel.now

    def _tick(self) -> None:
        if not self._running or not self.node.alive:
            return
        # one shared payload for the whole burst (receivers only read it);
        # the multicast path sizes and counts the burst once instead of
        # walking an identical dict per peer — the all-pairs heartbeat
        # traffic is O(n²) per interval and dominates large cells
        self.node.multicast(
            self.peers,
            {"type": "heartbeat", "epoch": self.node.epoch},
            size_bytes=32,
            tag="heartbeat",
        )
        self._check()
        self.kernel.post(self.interval_ms, self._tick)

    def _check(self) -> None:
        now = self.kernel.now
        for peer in self.peers:
            silent = now - self.last_heard.get(peer, 0.0)
            if silent > self.timeout_ms and peer not in self.suspected:
                self.suspected.add(peer)
                # the peer went silent at last_heard; the suspicion *began*
                # now, when the timeout elapsed — health reports this time
                self.suspected_since[peer] = now
                self.node.network.metrics.incr("fd.suspicions")
                for fn in self._on_suspect:
                    fn(peer)

    def observe(self, src: str) -> None:
        """Feed any received message as evidence of the sender's liveness.

        A heartbeat additionally carries the sender's crash epoch — a bump
        means the peer crashed and recovered since we last saw it, so it
        must rejoin groups rather than resume (callers read
        :attr:`peer_epochs`).  ``IsisProcess.on_message`` stores it, with
        this method unrolled beside the store: heartbeats are the O(n²)
        traffic, everything else comes through here.
        """
        last = self.last_heard
        if src not in last and src not in self.peers:
            return
        last[src] = self.kernel.now
        if src in self.suspected:
            self.unsuspect(src)

    def unsuspect(self, src: str) -> None:
        """A suspected peer was heard from again: clear it and notify."""
        self.suspected.discard(src)
        self.suspected_since.pop(src, None)
        self.node.network.metrics.incr("fd.rejoins")
        for fn in self._on_alive:
            fn(src)

    def is_suspected(self, addr: str) -> bool:
        """Current suspicion status of ``addr``."""
        return addr in self.suspected
