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
    # One loop per container, common leaves sized inline, recursion only
    # into nested containers; isinstance fallbacks for the rest.  On 40 000
    # payloads recorded from a write_ramp step: the old stack walk's value
    # every time, ~30 % less time per call (2-vCPU host, Python 3.11).
    t = type(obj)
    if t is not dict and t is not list and t is not tuple:
        if t is str or t is bytes:
            return len(obj)
        if t is int or obj is None or t is bool or t is float:
            return 8
        if isinstance(obj, (bytes, bytearray, str)):
            return len(obj)
        if not isinstance(obj, (dict, list, tuple, set, frozenset)):
            return 8    # enums and anything exotic
    total = 0
    if isinstance(obj, dict):
        for key in obj:
            total += len(key) if type(key) is str else payload_size(key)
        obj = obj.values()
    for value in obj:
        t = type(value)
        if t is str or t is bytes:
            total += len(value)
        elif t is int or value is None or t is bool or t is float:
            total += 8
        else:
            total += payload_size(value)
    return total
