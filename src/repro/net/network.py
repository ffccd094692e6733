"""The shared network medium and the addressable-node base class.

Failure model (paper §2.3): machines crash without notification, messages
may be lost in transit, and the network may partition for long periods.
Communication is symmetric — if ``a`` can reach ``b`` then ``b`` can reach
``a`` — which the partition representation guarantees by construction
(partitions are disjoint address sets).

Every send funnels through :meth:`Network.transmit` and every delivery
through :meth:`Network._arrive`, which makes them the simulator's hottest
functions at scale.  The fast-path rules they follow: the per-kind counter
key is picked by identity tests on the message kind (no per-message
f-string, no Python-level ``Enum.__hash__``), payload sizes are computed at
most once per message and an RPC envelope walks only the caller's part of
it, per-tag counters are an opt-in (:class:`NetConfig.tag_metrics`), metric
bumps go straight at the counter dict instead of through a method call, and
arrival dispatches on the message kind itself — one frame between the
kernel and ``on_message``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
import random
from typing import Any, Callable

from repro.errors import RpcTimeout, Unreachable
from repro.metrics import Metrics
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.message import Message, MsgKind, payload_size
from repro.sim import Kernel, SimFuture

DEFAULT_RPC_TIMEOUT_MS = 200.0

# Kinds as module globals: the hot paths compare by identity.
_DATAGRAM = MsgKind.DATAGRAM
_RPC_REQUEST = MsgKind.RPC_REQUEST
_RPC_REPLY = MsgKind.RPC_REPLY

#: ``payload_size`` of the constant part of each RPC envelope (its keys and
#: the ``req_id`` int).  Envelopes are sized as this plus a walk of the
#: caller's part only; derived here so the sum cannot drift from a full
#: walk — ``net.bytes_moved`` and reply latency depend on it.
_REQUEST_FIXED = payload_size({"req_id": 0, "method": "", "args": {}})
_RESULT_FIXED = payload_size({"req_id": 0, "result": ""})
_ERROR_FIXED = payload_size({"req_id": 0, "error": ""})


@dataclass
class NetConfig:
    """Tunable network accounting knobs.

    ``tag_metrics`` arms the per-tag message counters
    (``net.msgs.tag.<tag>``) and the per-method expired-RPC counters
    (``net.rpc_expired.<method>``).  They are an opt-in because the key is
    built from the tag per message — benchmarks that break counts down by
    protocol purpose turn them on; scale runs leave them off and keep
    ``transmit()`` free of string building.
    """

    tag_metrics: bool = False


class RpcRemoteError(Exception):
    """An RPC handler raised on the remote side; carries the message text."""

    def __init__(self, error_type: str, message: str):
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.remote_message = message


class Network:
    """Simulated broadcast medium connecting :class:`Node` instances.

    One instance per simulation.  Owns the latency model, the drop
    probability, and the current partition.  All sends funnel through
    :meth:`transmit`, which is also where message metrics are counted.
    """

    def __init__(
        self,
        kernel: Kernel,
        latency: LatencyModel | None = None,
        drop_probability: float = 0.0,
        seed: int = 0,
        metrics: Metrics | None = None,
        config: NetConfig | None = None,
        incarnation: int = 0,
    ):
        self.kernel = kernel
        self.incarnation = incarnation  # the cell's life: one per restart
        self.latency = latency or ConstantLatency()
        self.drop_probability = drop_probability
        self.rng = random.Random(seed)
        self.metrics = metrics or Metrics()
        self.config = config or NetConfig()
        self.nodes: dict[str, Node] = {}
        self._partition_of: dict[str, int] = {}  # addr -> group id; absent = group 0
        self._partitioned = False
        self.trace: list[Message] | None = None  # set to [] to record all sends

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #

    def register(self, node: "Node") -> None:
        """Attach a node to the medium (addresses must be unique)."""
        if node.addr in self.nodes:
            raise ValueError(f"duplicate address {node.addr!r}")
        self.nodes[node.addr] = node

    def node(self, addr: str) -> "Node":
        """Look up a node by address."""
        return self.nodes[addr]

    # ------------------------------------------------------------------ #
    # partitions
    # ------------------------------------------------------------------ #

    def partition(self, groups: list[set[str]]) -> None:
        """Split the network into the given disjoint address groups.

        Addresses not mentioned in any group form one implicit extra group.
        Messages cross group boundaries only after :meth:`heal`.
        """
        seen: set[str] = set()
        for group in groups:
            overlap = seen & group
            if overlap:
                raise ValueError(f"addresses in two partitions: {overlap}")
            seen |= group
        self._partition_of = {}
        for gid, group in enumerate(groups, start=1):
            for addr in group:
                self._partition_of[addr] = gid
        self._partitioned = True
        self.metrics.incr("net.partitions")

    def heal(self) -> None:
        """Remove the partition; full connectivity resumes."""
        self._partition_of = {}
        self._partitioned = False
        self.metrics.incr("net.heals")

    def reachable(self, src: str, dst: str) -> bool:
        """True when a message sent now from ``src`` would reach ``dst``.

        Requires both endpoints alive and in the same partition group.
        Symmetric by construction.
        """
        a = self.nodes.get(src)
        b = self.nodes.get(dst)
        if a is None or b is None or not a.alive or not b.alive:
            return False
        if not self._partitioned:
            return True
        return self._partition_of.get(src, 0) == self._partition_of.get(dst, 0)

    # ------------------------------------------------------------------ #
    # transmission
    # ------------------------------------------------------------------ #

    def transmit(self, msg: Message) -> None:
        """Send ``msg``; it is delivered, dropped, or silently lost to a
        partition after the modeled latency."""
        counters = self.metrics.counters
        counters["net.msgs"] += 1
        kind = msg.kind
        if kind is _RPC_REQUEST:
            counters["net.msgs.rpc_req"] += 1
        elif kind is _RPC_REPLY:
            counters["net.msgs.rpc_reply"] += 1
        else:
            counters["net.msgs.dgram"] += 1
        if msg.tag and self.config.tag_metrics:
            counters["net.msgs.tag." + msg.tag] += 1
        counters["net.bytes"] += msg.size_bytes
        # actual payload bytes, independent of the declared wire size — the
        # honest bandwidth figure benchmarks report (a 2 MB read moves 2 MB
        # here whatever the caller declared)
        counters["net.bytes_moved"] += msg.payload_bytes()
        if self.trace is not None:
            self.trace.append(msg)
        if self.drop_probability and self.rng.random() < self.drop_probability:
            counters["net.dropped"] += 1
            return
        delay = self.latency.delay(msg.src, msg.dst, msg.size_bytes, self.rng)
        tracer = self.kernel._tracer
        if tracer is not None and msg.trace is not None:
            now = self.kernel.now
            tracer.record(msg.trace, now, now + delay, "net",
                          msg.tag or msg.kind.value)
        self.kernel.post(delay, self._arrive, msg)

    def multicast(self, src: str, dsts: list[str], payload: Any,
                  size_bytes: int = 256, tag: str = "",
                  payload_bytes: int | None = None) -> None:
        """Send one datagram payload to many destinations.

        The fast path for periodic fan-out (heartbeats: every server to
        every peer, forever): the payload object and its computed wire size
        are shared across the burst and metrics are bumped once per burst
        instead of once per message.  Per-destination drop and latency
        draws happen in the same order a loop of :meth:`transmit` calls
        would make, so seeded runs stay byte-identical either way.
        """
        if not dsts:
            return
        n = len(dsts)
        psize = payload_size(payload) if payload_bytes is None \
            else payload_bytes
        counters = self.metrics.counters
        counters["net.msgs"] += n
        counters["net.msgs.dgram"] += n
        if tag and self.config.tag_metrics:
            counters["net.msgs.tag." + tag] += n
        counters["net.bytes"] += size_bytes * n
        counters["net.bytes_moved"] += psize * n
        trace = self.trace
        drop = self.drop_probability
        rng = self.rng
        latency_delay = self.latency.delay
        post = self.kernel.post
        arrive = self._arrive
        for dst in dsts:
            msg = Message(src, dst, _DATAGRAM, payload, size_bytes, tag,
                          psize)
            if trace is not None:
                trace.append(msg)
            if drop and rng.random() < drop:
                counters["net.dropped"] += 1
                continue
            post(latency_delay(src, dst, size_bytes, rng), arrive, msg)

    def _arrive(self, msg: Message) -> None:
        # Reachability is evaluated at arrival time: a partition or crash
        # occurring while the message is in flight loses the message, which
        # matches datagram semantics.  (This is reachable() unrolled — one
        # Python frame per delivered message is measurable at scale.)
        nodes = self.nodes
        src, dst = msg.src, msg.dst
        a = nodes.get(src)
        b = nodes.get(dst)
        if (a is None or b is None or not a.alive or not b.alive
                or (self._partitioned
                    and self._partition_of.get(src, 0)
                    != self._partition_of.get(dst, 0))):
            self.metrics.counters["net.lost_unreachable"] += 1
            return
        kind = msg.kind
        if kind is _RPC_REQUEST:
            method = msg.payload["method"]
            name = b._serve_names.get(method)
            if name is None:
                name = b._serve_names[method] = f"{dst}:rpc:{method}"
            b.spawn(b._serve_rpc(msg), name)
        elif kind is _RPC_REPLY:
            b._accept_reply(msg)
        else:
            b.on_message(msg)


class Node:
    """Base class for every addressable participant in the simulation.

    Provides datagram send, request/reply RPC with timeouts, and
    crash/recover with fail-stop volatile-state semantics: a crash cancels
    all in-flight tasks spawned through :meth:`spawn` and bumps an epoch so
    stale replies are ignored; subclasses override :meth:`on_crash` /
    :meth:`on_recover` to model volatile-state loss.
    """

    def __init__(self, network: Network, addr: str):
        self.network = network
        self.addr = addr
        self.kernel = network.kernel
        self.alive = True
        self.epoch = 0  # bumped on every crash; stale work is discarded
        self._rpc_seq = itertools.count(1)
        self._pending_rpcs: dict[int, SimFuture] = {}
        # insertion-ordered task registry (dict-as-set): reaping a finished
        # task is O(1) instead of the quadratic list.remove() churn a busy
        # server would otherwise pay
        self._tasks: dict[Any, None] = {}
        self._handlers: dict[str, Callable] = {}
        #: serving-task names by method — one f-string per method, not per RPC
        self._serve_names: dict[str, str] = {}
        network.register(self)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def crash(self) -> None:
        """Fail-stop: drop volatile state, kill in-flight work."""
        if not self.alive:
            return
        self.alive = False
        self.epoch += 1
        tasks, self._tasks = self._tasks, {}
        for task in tasks:
            task.cancel()
        pending, self._pending_rpcs = self._pending_rpcs, {}
        for _req_id, fut in sorted(pending.items()):
            fut.try_set_exception(Unreachable(f"{self.addr} crashed with RPC pending"))
        self.network.metrics.incr("node.crashes")
        self.on_crash()

    def recover(self) -> None:
        """Restart after a crash; volatile state was lost, stable state kept."""
        if self.alive:
            return
        self.alive = True
        self.network.metrics.incr("node.recoveries")
        self.on_recover()

    def on_crash(self) -> None:
        """Hook: subclasses discard volatile state here."""

    def on_recover(self) -> None:
        """Hook: subclasses run their recovery protocol here."""

    def spawn(self, coro, name: str = ""):
        """Spawn a task tied to this node's life (cancelled on crash)."""
        task = self.kernel.spawn(coro, name=name or f"{self.addr}:task")
        self._tasks[task] = None
        task.add_done_callback(self._reap)
        return task

    @property
    def incarnation(self) -> str:
        """Address, cell incarnation and crash epoch: the name of this life,
        which the ids the node mints carry so no later life repeats them."""
        return f"{self.addr}.{self.network.incarnation}.{self.epoch}"

    def _reap(self, task) -> None:
        self._tasks.pop(task, None)

    # ------------------------------------------------------------------ #
    # datagrams
    # ------------------------------------------------------------------ #

    def send(self, dst: str, payload: Any, size_bytes: int = 256,
             tag: str = "", payload_bytes: int | None = None) -> None:
        """Fire-and-forget datagram.

        ``payload_bytes`` lets a caller that already knows the payload's
        wire size (or reuses one payload many times) skip the recursive
        size walk in :meth:`Network.transmit`.
        """
        if not self.alive:
            return
        msg = Message(self.addr, dst, _DATAGRAM, payload, size_bytes,
                      tag, payload_bytes=payload_bytes)
        kernel = self.kernel
        if kernel._tracer is not None and kernel._current is not None:
            msg.trace = kernel._current.trace
        self.network.transmit(msg)

    def multicast(self, dsts: list[str], payload: Any, size_bytes: int = 256,
                  tag: str = "", payload_bytes: int | None = None) -> None:
        """Fire-and-forget datagram to many destinations (shared payload;
        ``payload_bytes`` as for :meth:`send`)."""
        if not self.alive:
            return
        self.network.multicast(self.addr, dsts, payload, size_bytes, tag,
                               payload_bytes)

    # ------------------------------------------------------------------ #
    # RPC
    # ------------------------------------------------------------------ #

    def register_handler(self, method: str, fn: Callable) -> None:
        """Register an async RPC handler: ``async fn(src, /, **kwargs)``.

        ``src`` is positional-only, so an RPC whose arguments carry a key
        named ``src`` cannot collide with the caller's address."""
        self._handlers[method] = fn

    def rpc(
        self,
        dst: str,
        method: str,
        args: dict[str, Any] | None = None,
        timeout: float = DEFAULT_RPC_TIMEOUT_MS,
        size_bytes: int = 256,
        tag: str = "",
        args_bytes: int | None = None,
    ) -> SimFuture:
        """Invoke ``method`` on node ``dst``; future resolves with the reply.

        Fails with :class:`RpcTimeout` when no reply arrives in ``timeout``
        virtual ms (covering loss, crash, and partition uniformly — the
        caller cannot distinguish them, per the failure model), or with
        :class:`RpcRemoteError` when the remote handler raised.

        ``args_bytes`` is ``payload_size(args)`` for a caller that has
        already walked them.
        """
        kernel = self.kernel
        out = SimFuture(kernel)
        if not self.alive:
            out.set_exception(Unreachable(f"{self.addr} is down"))
            return out
        req_id = next(self._rpc_seq)
        self._pending_rpcs[req_id] = out
        if not args:
            args = {}
        msg = Message(self.addr, dst, _RPC_REQUEST,
                      {"req_id": req_id, "method": method, "args": args},
                      size_bytes, tag or method,
                      _REQUEST_FIXED + len(method)
                      + (payload_size(args) if args_bytes is None else args_bytes))
        if kernel._tracer is not None and kernel._current is not None:
            msg.trace = kernel._current.trace
        self.network.transmit(msg)
        handle = kernel.schedule(timeout, self._expire, req_id, method, dst,
                                 timeout)
        out.add_done_callback(handle.cancel)
        return out

    def _expire(self, req_id: int, method: str, dst: str,
                timeout: float) -> None:
        out = self._pending_rpcs.pop(req_id, None)
        if out is not None:
            metrics = self.network.metrics
            metrics.incr("net.rpc_expired")
            if self.network.config.tag_metrics:
                metrics.incr("net.rpc_expired." + method)
            out.try_set_exception(
                RpcTimeout(f"rpc {method} to {dst} timed out after {timeout}ms"))

    def call(self, dst: str, method: str, timeout: float = DEFAULT_RPC_TIMEOUT_MS,
             size_bytes: int = 256, tag: str = "", **kwargs: Any) -> SimFuture:
        """:meth:`rpc` with the arguments as keywords; ``await`` the result."""
        return self.rpc(dst, method, kwargs, timeout, size_bytes, tag)

    # ------------------------------------------------------------------ #
    # delivery (Network._arrive dispatches here by message kind)
    # ------------------------------------------------------------------ #

    async def _serve_rpc(self, msg: Message) -> None:
        payload = msg.payload
        kernel = self.kernel
        tracer = kernel._tracer
        if tracer is not None:
            # adopt the caller's trace onto the serving task (we are inside
            # its first step), so pipeline/disk work done on behalf of this
            # request — including spawned children — stays attributed
            served_since = kernel.now
            if msg.trace is not None and kernel._current is not None:
                kernel._current.trace = msg.trace
        method = payload["method"]
        handler = self._handlers.get(method)
        error: tuple[str, str] | None = None
        if handler is None:
            error = ("NoSuchMethod", method)
        else:
            epoch = self.epoch
            try:
                result = await handler(msg.src, **payload["args"])
            except Exception as exc:  # surfaces to caller as RpcRemoteError
                error = (type(exc).__name__, str(exc))
            if self.epoch != epoch or not self.alive:
                return  # crashed while serving: reply dies with us
        # replies are sized by their payload: a 2 MB read reply pays 2 MB
        # of transfer latency, a stat reply the minimum — without this,
        # bulk reads looked free and striping could not be measured
        # honestly.  Sized once here; transmit reuses the cached figure.
        if error is None:
            reply = {"req_id": payload["req_id"], "result": result}
            psize = _RESULT_FIXED + payload_size(result)
        else:
            reply = {"req_id": payload["req_id"], "error": error}
            psize = _ERROR_FIXED + payload_size(error)
        reply_msg = Message(self.addr, msg.src, _RPC_REPLY, reply,
                            max(256, psize), method + ".reply", psize)
        if tracer is not None and msg.trace is not None:
            tracer.record(msg.trace, served_since, kernel.now, "rpc", method)
            reply_msg.trace = msg.trace
        self.network.transmit(reply_msg)

    def _accept_reply(self, msg: Message) -> None:
        fut = self._pending_rpcs.pop(msg.payload["req_id"], None)
        if fut is None:
            return  # late reply after timeout/crash: drop
        if "error" in msg.payload:
            error_type, text = msg.payload["error"]
            fut.try_set_exception(RpcRemoteError(error_type, text))
        else:
            fut.try_set_result(msg.payload["result"])

    def on_message(self, msg: Message) -> None:
        """Hook for non-RPC datagrams; default drops them."""

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"<{type(self).__name__} {self.addr} {state}>"
