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

Who pings whom
--------------
Every suspicion is first-hand: a peer is suspected only by a process that
*watched* it — expected its heartbeats — and heard nothing for
``timeout_ms``.  Who is watched depends on whether anything is happening:

*Calm* — each process pings and watches the nearest ``RING_NEIGHBOURS``
unsuspected peers on each side of the roster in address order: O(n)
heartbeats per interval cell-wide, not O(n²).  A suspected peer is still
pinged, with a request to answer, so its recovery (or a heal) shows within
one interval; a neighbour not heard from for two intervals is asked to
answer too, since it may not count us among *its* neighbours and only
silence after a request is evidence.  A peer's clock starts when it enters
the watch set.  A roster of at most ``2 × RING_NEIGHBOURS`` peers is all
neighbours: such a cell always runs the all-pairs mesh.

*Alarm* — a first-hand suspicion or un-suspicion, and a process's own
restart after a crash, make it ping and watch **every** peer until
``now + 2 × timeout_ms + interval_ms``.  Its heartbeats carry that deadline
and every receiver joins the alarm, so within one interval the whole cell
runs the mesh, starts a clock on every peer, and reaches its own first-hand
verdict; each verdict re-arms the alarm from its own instant, and after the
last one it runs out everywhere.  (The deadline is an absolute virtual
instant — the simulation has one clock; between real machines it would be
a generation number.  It must never be a remaining time: two processes that
re-arm each other on receipt never return to calm.)

What this costs: detection by the *neighbours* is as fast as the mesh
(within ``timeout + 2 × interval`` of the crash), but a process that was not
watching the victim learns of it only through the alarm — it starts its
clock when the alarm reaches it, so the whole cell suspects a crashed peer
within ``2 × timeout + 4 × interval``, about twice the mesh's latency.  The
group layer waits for its own coordinator's verdict, so a view change in a
large cell can take that long to start.
"""

from __future__ import annotations

from typing import Callable

from repro.net import Node
from repro.net.message import payload_size

#: peers pinged and watched on each side of the sorted roster while calm
RING_NEIGHBOURS = 2


class FailureDetector:
    """Per-process heartbeat monitor over a fixed peer roster.

    ``on_suspect(addr)`` fires (once per down-transition) when nothing has
    been heard from a *watched* peer for ``timeout_ms``; ``on_alive(addr)``
    fires when a previously suspected peer is heard from again (recovery or
    partition heal).
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
        #: the peers whose silence counts, in the order they are checked;
        #: a peer's clock starts at the tick it enters
        self.watched: list[str] = []
        #: every peer is pinged and watched until this virtual instant
        self.alarm_until = 0.0
        #: the plain heartbeat of the current epoch, and its wire size
        self._plain = {"type": "heartbeat", "epoch": node.epoch}
        self._plain_size = payload_size(self._plain)
        self._seat()
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
        # a (re)started process has heard nothing yet: whatever it heard
        # before a crash says nothing about who is alive now
        self.last_heard = dict.fromkeys(self.peers, self.kernel.now)
        if self.node.epoch:
            self._raise_alarm()     # back from a crash; a boot needs none
        self._tick()

    def stop(self) -> None:
        """Stop heartbeating (e.g. on crash)."""
        self._running = False

    def add_peer(self, addr: str) -> None:
        """Grow the roster (new server added to the cell)."""
        if addr != self.node.addr and addr not in self.peers:
            self.peers.append(addr)
            self.last_heard[addr] = self.kernel.now
            self._seat()

    def _seat(self) -> None:
        """Place this process on the ring: the roster in address order."""
        self._ring = sorted([*self.peers, self.node.addr])
        self._pos = self._ring.index(self.node.addr)
        self._near: list[str] | None = None

    def _neighbours(self) -> list[str]:
        """The nearest RING_NEIGHBOURS unsuspected peers each way round;
        kept until the ring or the suspected set changes (callers read)."""
        if self._near is not None:
            return self._near
        ring, suspected = self._ring, self.suspected
        out: list[str] = []
        for step in (1, -1):
            at, found = self._pos, 0
            for _ in range(len(ring) - 1):
                at = (at + step) % len(ring)
                peer = ring[at]
                if peer not in suspected:
                    if peer not in out:
                        out.append(peer)
                    found += 1
                    if found == RING_NEIGHBOURS:
                        break
        self._near = out
        return out

    def _raise_alarm(self) -> None:
        """Something changed first-hand: run the mesh long enough for every
        peer to start a clock on every other and let it run out."""
        self.alarm_until = (self.kernel.now + 2 * self.timeout_ms
                            + self.interval_ms)

    def _beat(self) -> dict:
        """The heartbeat payload: two keys when there is nothing to add (one
        dict per epoch, sized once), the alarm's absolute deadline (never a
        remaining time, see the module docstring) while one runs in a
        roster large enough to be calm."""
        if self._plain["epoch"] != self.node.epoch:
            self._plain = {"type": "heartbeat", "epoch": self.node.epoch}
            self._plain_size = payload_size(self._plain)
        if len(self.peers) > 2 * RING_NEIGHBOURS and \
                self.kernel.now < self.alarm_until:
            return {**self._plain, "alarm": self.alarm_until}
        return self._plain

    def _tick(self) -> None:
        if not self._running or not self.node.alive:
            return
        self._check()
        now = self.kernel.now
        last = self.last_heard
        multicast = self.node.multicast
        # one shared payload per burst (receivers only read it); the
        # multicast path counts the burst once
        beat = self._beat()
        psize = self._plain_size if beat is self._plain else None
        if len(self.peers) <= 2 * RING_NEIGHBOURS or "alarm" in beat:
            # a roster this small is all neighbours; under an alarm so is
            # a large one — either way the all-pairs mesh
            watch = self.peers
            multicast(watch, beat, size_bytes=32, tag="heartbeat",
                      payload_bytes=psize)
        else:
            watch = self._neighbours()
            # an answer is asked of the suspected, so recovery and heal
            # show within one interval, and of a neighbour gone quiet: it
            # may not count us among *its* neighbours, and only silence
            # after a request is evidence
            quiet = now - 2 * self.interval_ms
            ask = sorted(self.suspected)
            ask += [p for p in watch if last[p] < quiet]
            multicast([p for p in watch if p not in ask] if ask else watch,
                      beat, size_bytes=32, tag="heartbeat",
                      payload_bytes=psize)
            if ask:
                multicast(ask, {**beat, "ask": True}, size_bytes=32,
                          tag="heartbeat")
        if watch != self.watched:
            was = set(self.watched)
            for peer in watch:
                if peer not in was:
                    last[peer] = now
            self.watched = list(watch)
        self.kernel.post(self.interval_ms, self._tick)

    def _check(self) -> None:
        now = self.kernel.now
        for peer in self.watched:
            silent = now - self.last_heard.get(peer, 0.0)
            if silent > self.timeout_ms and peer not in self.suspected:
                self.suspected.add(peer)
                self._near = None
                # the peer went silent at last_heard; the suspicion *began*
                # now, when the timeout elapsed — health reports this time
                self.suspected_since[peer] = now
                self.node.network.metrics.incr("fd.suspicions")
                self._raise_alarm()
                for fn in self._on_suspect:
                    fn(peer)

    def heard_more(self, src: str, beat: dict) -> None:
        """The optional keys of a heartbeat from ``src``: ``alarm`` is the
        sender's alarm deadline, which we join; ``ask`` wants an answer."""
        alarm = beat.get("alarm", 0.0)
        if alarm > self.alarm_until:
            self.alarm_until = alarm
        if "ask" in beat:
            self.node.send(src, self._beat(), size_bytes=32, tag="heartbeat")

    def observe(self, src: str) -> None:
        """Feed any received message as evidence of the sender's liveness.

        A heartbeat additionally carries the sender's crash epoch — a bump
        means the peer crashed and recovered since we last saw it, so it
        must rejoin groups rather than resume (callers read
        :attr:`peer_epochs`).  ``IsisProcess.on_message`` stores it, with
        this method unrolled beside the store: heartbeats are the bulk of an
        idle cell's traffic, everything else comes through here.
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
        self._near = None
        self.suspected_since.pop(src, None)
        self.node.network.metrics.incr("fd.rejoins")
        self._raise_alarm()
        for fn in self._on_alive:
            fn(src)

    def is_suspected(self, addr: str) -> bool:
        """Current suspicion status of ``addr``."""
        return addr in self.suspected
