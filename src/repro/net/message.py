"""Message envelope for the simulated network."""

from __future__ import annotations

from enum import Enum
from typing import Any


class MsgKind(Enum):
    """Transport-level message categories."""

    DATAGRAM = "dgram"
    RPC_REQUEST = "rpc_req"
    RPC_REPLY = "rpc_reply"


class Message:
    """One message in flight on the simulated network.

    ``size_bytes`` feeds the latency model (bulk transfers cost more);
    ``tag`` is a free-form category string used only for metrics so
    benchmarks can break message counts down by protocol purpose
    (e.g. ``"update"``, ``"token_request"``, ``"stability"``).

    Slotted, hand-rolled class rather than a dataclass: a scale run creates
    millions of these, so construction cost and per-instance memory are on
    the simulator's critical path.  The payload's estimated wire size is
    computed at most once per message (:meth:`payload_bytes`) — callers
    that already know it (an RPC envelope is a constant plus the size of
    the caller's args or result; heartbeat bursts share one payload) pass
    it in and skip the walk entirely.
    """

    __slots__ = ("src", "dst", "kind", "payload", "size_bytes", "tag",
                 "_psize", "trace")

    def __init__(self, src: str, dst: str, kind: MsgKind, payload: Any,
                 size_bytes: int = 256, tag: str = "",
                 payload_bytes: int | None = None):
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.size_bytes = size_bytes
        self.tag = tag
        self._psize = payload_bytes
        #: request-trace id riding this message (repro.obs.tracer); stamped
        #: by Node.rpc/send only while a tracer is armed, else always None
        self.trace = None

    def payload_bytes(self) -> int:
        """Estimated wire size of the payload; computed once, then cached."""
        size = self._psize
        if size is None:
            size = self._psize = payload_size(self.payload)
        return size

    def __repr__(self) -> str:  # compact for traces
        return (
            f"Message({self.src}->{self.dst} "
            f"{self.kind.value}{'/' + self.tag if self.tag else ''})"
        )


def payload_size(obj: Any) -> int:
    """Estimated wire size of a payload, in bytes.

    Recursively sums the real length of every bytes/str value plus a
    small fixed charge per scalar — close enough that a 2 MB read reply
    costs 2 MB on the simulated network while a stat reply stays small.
    Used to size RPC *replies* honestly (requests already declare their
    size at the call site) and to feed the ``net.bytes_moved`` counter.
    """
    # Iterative walk with an explicit stack: recursion plus genexpr frames
    # made this the single hottest function in a scale run (an RPC payload
    # is ~a dozen nodes, and every request is walked once).  Exact type
    # checks first — the overwhelmingly common leaves are str/bytes/int —
    # with isinstance fallbacks for subclasses and rarer containers.
    total = 0
    stack = [obj]
    pop = stack.pop
    extend = stack.extend
    while stack:
        o = pop()
        t = type(o)
        if t is str or t is bytes:
            total += len(o)
        elif t is int:
            total += 8
        elif t is dict:
            extend(o.keys())
            extend(o.values())
        elif t is list or t is tuple:
            extend(o)
        elif o is None or t is bool or t is float:
            total += 8
        elif isinstance(o, (bytes, bytearray, str)):
            total += len(o)
        elif isinstance(o, dict):
            extend(o.keys())
            extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset)):
            extend(o)
        else:
            # floats, bools, None, enums, and anything exotic
            total += 8
    return total
