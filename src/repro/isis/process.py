"""The ISIS process: group membership, ordered multicast, state transfer.

One :class:`IsisProcess` runs per server machine.  The application above it
(Deceit's segment server) supplies a :class:`GroupApp` with four callbacks:
message delivery, view-change notification, and state get/set for transfer
to joining members.

Protocol summary
----------------

*Multicast (cbcast)* — Birman-Schiper-Stephenson causal broadcast: each
message carries the sender's per-group vector clock; receivers delay
delivery until the clock condition holds.  Reply collection is ISIS-style:
the sender asks for the first *k* replies (or all) within a timeout and gets
whatever arrived — counting correct replies is exactly how Deceit's token
holder detects replica loss (§3.1).

*View change* — two rounds, whatever the group size and whatever the view's
history, both run by the coordinator through :meth:`IsisProcess._ask_each`
(every request leaves at the same instant; the members that stayed silent
are asked again together, three attempts of ``FLUSH_TIMEOUT_MS``).
*Flush*: the request carries the coordinator's **summary** of the view —
its delivered vector plus the keys it has received but not delivered,
O(senders + pending) — and each survivor pauses its sends and answers with
its own summary and the bodies the coordinator's lacks.  The coordinator
takes those in, in view order; a member silent through every attempt
leaves with the view.  *Install*: each survivor is sent the new membership
and the bodies *its* summary lacks (none in a settled group), declared at
their real size; a joiner is sent the application state instead.  Every
member drains what it was handed — causal order where possible, then
``(sender, seq)`` order for anything whose predecessors no survivor saw —
before the new view is announced, so every multicast any survivor has seen
is delivered exactly once at every survivor in the old view (virtual
synchrony), including one still in flight when the flush began.

*Stability* — what a view's log is for is the flush, so an entry can go
once every member has delivered it.  Nobody is asked: every ``mreply`` to a
multicast carries the replier's delivered vector for ``(group, view_id)``,
every ``mcast`` already carries its sender's, and once a sender has heard
from every other member of the current view the pointwise minimum — the
stability frontier — rides on its next multicast.  Receivers adopt the
larger of theirs and the one they hear and drop the log entries at or below
it that they have delivered; a late copy of a dropped multicast is
recognised by ``seq <= vc[sender]``.  What is still kept per view: the
delivered vector, the undeliverable (``pending``) messages, the log of what
is not yet known stable, each member's last report and the frontier — all
reset at install.  A group whose multicasts draw no replies learns nothing
and keeps its log until the next view, as before.

*Failure / partition* — heartbeat suspicions trigger view changes by the
lowest-ranked surviving member.  Each side of a partition installs its own
view and continues (partition-tolerant variant; see package docstring).
Stale processes are shunned by view-id/epoch checks and must rejoin.
"""

from __future__ import annotations

import itertools
from typing import Any, Protocol

from repro.errors import GroupNotFound, NotMember, RpcTimeout
from repro.isis.failure_detector import FailureDetector
from repro.isis.vector_clock import VectorClock
from repro.isis.view import View
from repro.net import Network, Node, RpcRemoteError
from repro.net.message import Message, payload_size
from repro.sim import SimFuture, SimTimeoutError
from repro.sim.sync import Lock

JOIN_TIMEOUT_MS = 1000.0
FLUSH_TIMEOUT_MS = 400.0
LOCATE_TIMEOUT_MS = 150.0
#: most groups one ``isis_locate`` request names: request and reply stay a
#: few KiB, far inside LOCATE_TIMEOUT_MS at the per-byte latency charge,
#: however many groups the asker hosts
LOCATE_CHUNK = 256
REPLY_TIMEOUT_MS = 400.0


class GroupApp(Protocol):
    """Callbacks the application layers provide to the group layer."""

    async def deliver(self, group: str, sender: str, payload: Any) -> Any:
        """Handle one group multicast; the return value is the reply."""
        ...

    def view_change(self, group: str, view: View, joined: list[str], left: list[str]) -> None:
        """Notification that a new view was installed."""
        ...

    def get_group_state(self, group: str) -> Any:
        """Snapshot application state for transfer to a joiner."""
        ...

    def set_group_state(self, group: str, state: Any) -> None:
        """Install transferred state on a joiner."""
        ...


class _GroupState:
    """Per-group bookkeeping at one member."""

    __slots__ = (
        "view", "vc", "pending", "log", "reported", "stable", "flushing",
        "flush_waiters", "ahead", "change_lock",
    )

    def __init__(self, view: View, kernel):
        self.view = view
        self.vc = VectorClock()
        self.pending: list[dict] = []      # received, not yet deliverable
        # received this view and not known stable (what a flush may need)
        self.log: dict[tuple[str, int], dict] = {}
        # delivered vector each other member last reported in this view
        self.reported: dict[str, dict[str, int]] = {}
        # stability frontier: every member has delivered up to here
        self.stable: dict[str, int] = {}
        self.flushing = False
        self.flush_waiters: list[SimFuture] = []
        self.ahead: list[dict] = []        # messages stamped with a future view
        self.change_lock = Lock(kernel)    # serializes view changes (coordinator)

    def seen(self, sender: str, seq: int) -> bool:
        """Whether this multicast was already received in this view — it is
        logged, or delivered (and possibly trimmed from the log since)."""
        return seq <= self.vc.get(sender) or (sender, seq) in self.log

    def all_delivered(self, me: str) -> dict[str, int]:
        """What every member of the view has delivered, as far as ``me``
        knows: the pointwise minimum of our vector and the others' reports —
        empty until every other member has reported in this view."""
        reports = []
        for member in self.view.members:
            if member != me:
                if member not in self.reported:
                    return {}
                reports.append(self.reported[member])
        return {sender: min([count, *(r.get(sender, 0) for r in reports)])
                for sender, count in self.vc.clock.items()}

    def adopt_frontier(self, heard: dict[str, int]) -> None:
        """Raise the stability frontier to ``heard`` where that is higher
        and drop the log entries it now covers (delivered here too)."""
        stable = self.stable
        moved = False
        for sender, count in heard.items():
            if count > stable.get(sender, 0):
                stable[sender] = count
                moved = True
        if moved:
            delivered = self.vc.clock
            for key in [k for k in self.log
                        if k[1] <= stable.get(k[0], 0)
                        and k[1] <= delivered.get(k[0], 0)]:
                del self.log[key]

    def summary(self) -> dict:
        """What this member holds of the view, in O(senders + pending):
        the delivered vector and the keys received but not yet delivered."""
        return {"vc": self.vc.as_dict(),
                "pending": [(m["sender"], m["seq"]) for m in self.pending]}

    def lacking(self, summary: dict) -> list[dict]:
        """The logged multicasts a member with ``summary`` has not received."""
        vc = summary["vc"]
        pending = set(summary["pending"])
        return [entry for key, entry in self.log.items()
                if key[1] > vc.get(key[0], 0) and key not in pending]


class IsisProcess(Node):
    """A Node speaking the group protocols, hosting one :class:`GroupApp`."""

    def __init__(
        self,
        network: Network,
        addr: str,
        cell_peers: list[str] | None = None,
        fd_interval_ms: float = 50.0,
        fd_timeout_ms: float = 200.0,
    ):
        super().__init__(network, addr)
        self.app: GroupApp | None = None
        self.groups: dict[str, _GroupState] = {}
        self._collectors: dict[int, dict] = {}
        self._collector_ids = itertools.count(1)
        self._join_waits: dict[str, SimFuture] = {}
        self.cell_peers = list(cell_peers or [])
        self.fd = FailureDetector(self, self.cell_peers, fd_interval_ms, fd_timeout_ms)
        self.fd.subscribe(on_suspect=self._on_peer_suspected)
        self._register_isis_handlers()

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #

    def set_app(self, app: GroupApp) -> None:
        """Attach the application (must precede group activity)."""
        self.app = app

    def start(self) -> None:
        """Start failure detection (call once the roster is final)."""
        self.fd.start()

    def set_cell_peers(self, peers: list[str]) -> None:
        """Define the cell roster used for heartbeats and group location."""
        self.cell_peers = [p for p in peers if p != self.addr]
        for p in self.cell_peers:
            self.fd.add_peer(p)

    def reachable(self, a: str, b: str) -> bool:
        """Whether the network currently delivers between two addresses
        (convenience for the pipeline services' transport port)."""
        return self.network.reachable(a, b)

    def _register_isis_handlers(self) -> None:
        self.register_handler("isis_locate", self._h_locate)
        self.register_handler("isis_join_req", self._h_join_req)
        self.register_handler("isis_leave_req", self._h_leave_req)
        self.register_handler("isis_flush", self._h_flush)
        self.register_handler("isis_install", self._h_install)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def on_crash(self) -> None:
        """Volatile group state dies with the process (§3.5: only replica
        data, token state, and the handle map are non-volatile)."""
        self.groups.clear()
        self._collectors.clear()
        for _group, fut in sorted(self._join_waits.items()):
            fut.try_set_exception(GroupNotFound("crashed while joining"))
        self._join_waits.clear()
        self.fd.stop()

    def on_recover(self) -> None:
        self.fd.start()

    # ------------------------------------------------------------------ #
    # membership API
    # ------------------------------------------------------------------ #

    def create_group(self, group: str) -> View:
        """Found a new group with this process as sole member."""
        if group in self.groups:
            raise ValueError(f"{self.addr} already in group {group}")
        view = View(group, 1, (self.addr,))
        self.groups[group] = _GroupState(view, self.kernel)
        self.network.metrics.incr("isis.groups_created")
        if self.app:
            self.app.view_change(group, view, [self.addr], [])
        return view

    async def join_group(self, group: str, contact: str | None = None,
                         timeout: float = JOIN_TIMEOUT_MS) -> View:
        """Join ``group``; locates a member if no ``contact`` is given.

        Blocks until the new view (including us) is installed here, state
        transfer included.  Raises :class:`GroupNotFound` if no member can
        be located within the cell.
        """
        if group in self.groups:
            return self.groups[group].view
        self.network.metrics.incr("isis.joins")
        if contact is None:
            contact = await self.locate_group(group)
        wait = self.kernel.create_future()
        self._join_waits[group] = wait
        try:
            await self.call(contact, "isis_join_req", timeout=timeout,
                            group=group, joiner=self.addr, tag="isis_join")
            await self.kernel.wait_for(wait, timeout)
        except (RpcTimeout, SimTimeoutError) as exc:
            raise GroupNotFound(f"join {group} via {contact} failed: {exc}") from exc
        finally:
            self._join_waits.pop(group, None)
        return self.groups[group].view

    async def leave_group(self, group: str) -> None:
        """Leave gracefully (coordinator runs the view change)."""
        state = self.groups.get(group)
        if state is None:
            return
        coord = state.view.coordinator
        if coord == self.addr:
            await self._run_view_change(group, leaving={self.addr}, joining=())
            self.groups.pop(group, None)
        else:
            try:
                await self.call(coord, "isis_leave_req", group=group,
                                leaver=self.addr, tag="isis_leave")
            except (RpcTimeout, RpcRemoteError):
                pass  # coordinator will discover via FD; we just forget
            self.groups.pop(group, None)

    def members(self, group: str) -> tuple[str, ...]:
        """Current view membership (empty tuple if not a member)."""
        state = self.groups.get(group)
        return state.view.members if state else ()

    def current_view(self, group: str) -> View | None:
        """Installed view, or ``None`` when not a member."""
        state = self.groups.get(group)
        return state.view if state else None

    def is_member(self, group: str) -> bool:
        """Whether this process currently belongs to ``group``."""
        return group in self.groups

    def group_names(self) -> list[str]:
        """Names of all groups this process belongs to."""
        return sorted(self.groups)

    def log_vitals(self) -> dict[str, int]:
        """What the view-change engine holds, over all groups:
        ``log_entries`` — multicasts of the current views kept for a flush
        (received, not yet known stable); ``flushing`` — groups paused by a
        flush that no install has ended (a view change under way, or stuck).
        """
        states = self.groups.values()
        return {"log_entries": sum(len(state.log) for state in states),
                "flushing": sum(1 for state in states if state.flushing)}

    async def locate_group(self, group: str) -> str:
        """Find any member of ``group`` by querying the cell roster.

        This is the "global search" of §3.2 — expensive (one round to every
        cell peer) and deliberately confined to the cell.
        """
        self.network.metrics.incr("isis.locates")
        if group in self.groups:
            return self.addr
        futures = [(peer, self.locate_at(peer, [group]))
                   for peer in self.cell_peers]
        found: str | None = None
        for peer, fut in futures:
            try:
                hosted = await fut
            except (RpcTimeout, RpcRemoteError):
                continue
            if hosted and found is None:
                found = peer
        if found is None:
            raise GroupNotFound(f"no member of {group} in cell")
        return found

    def locate_at(self, peer: str, groups: list[str],
                  tag: str = "isis_locate") -> SimFuture:
        """Ask ``peer`` which of ``groups`` (at most LOCATE_CHUNK) it hosts.

        Resolves with ``{group: {"coordinator", "view_id", "members"}}``
        for the groups ``peer`` is a member of — one round trip whatever
        the number of names.
        """
        size = payload_size(groups)
        return self.rpc(peer, "isis_locate", {"groups": groups},
                        timeout=LOCATE_TIMEOUT_MS, size_bytes=max(256, size),
                        tag=tag, args_bytes=len("groups") + size)

    # ------------------------------------------------------------------ #
    # multicast API
    # ------------------------------------------------------------------ #

    async def cbcast(
        self,
        group: str,
        payload: Any,
        nreplies: int | str = 0,
        timeout: float = REPLY_TIMEOUT_MS,
        size_bytes: int = 512,
        tag: str = "cbcast",
        on_audit=None,
        audit_timeout: float | None = None,
        count_reply=None,
    ) -> list[tuple[str, Any]]:
        """Causally ordered multicast; collect the first ``nreplies`` replies.

        ``nreplies=0`` returns immediately after sending; ``nreplies="all"``
        waits for every current member (or the timeout).  Returns
        ``[(member, reply_value), ...]`` in arrival order — the caller
        counts them (Deceit's replica-loss detection does exactly this).

        ``count_reply`` (a predicate over the reply value) narrows *which*
        replies satisfy ``nreplies``: every reply is still collected and
        returned, but the early wait completes only once ``nreplies``
        replies pass the predicate.  This is the write-safety commit point
        — a safety-*s* ack must wait for *s* durable copies, and a cache
        member's "got it, didn't persist it" reply must not count.

        ``on_audit`` keeps the reply collector alive after the early return
        and calls ``on_audit(all_replies)`` once ``audit_timeout`` (default:
        ``timeout``) has elapsed — this is how Deceit's token holder returns
        to the client after the first *s* replies yet still counts the full
        reply set to detect lost replicas (§3.1 method 1).
        """
        state = self.groups.get(group)
        if state is None:
            raise NotMember(f"{self.addr} not in {group}")
        await self._wait_not_flushing(state)
        view = state.view
        want = len(view.members) if nreplies == "all" else int(nreplies)
        req_id = None
        collected: SimFuture | None = None
        if want > 0 or on_audit is not None:
            req_id, collected = self._collect_replies(want, count_reply)
        state.adopt_frontier(state.all_delivered(self.addr))
        vc = state.vc.copy()
        vc.increment(self.addr)
        msg = {
            "type": "mcast",
            "group": group,
            "view_id": view.view_id,
            "sender": self.addr,
            "seq": vc.get(self.addr),
            "vc": vc.as_dict(),
            "payload": payload,
            "reply_req": req_id,
            "origin": self.addr,
        }
        if state.stable:
            msg["stable"] = dict(state.stable)
        self.network.metrics.incr("isis.mcasts")
        # one shared message: its wire size is walked once, not per member
        psize = payload_size(msg)
        for member in view.members:
            if member != self.addr:
                self.send(member, msg, size_bytes=size_bytes, tag=tag,
                          payload_bytes=psize)
        # Local copy delivers immediately (we are causally up to date).
        self._deliver_mcast(state, msg)
        if collected is None:
            return []
        if not collected.done():
            try:
                await self.kernel.wait_for(collected, timeout)
            except SimTimeoutError:
                pass  # return whatever arrived; caller counts correct replies
        if on_audit is None:
            return self._end_collection(req_id) or []
        # keep collecting in the background, then hand the full set to the audit
        early = list(self._collectors[req_id]["replies"])

        def _finish_audit() -> None:
            replies = self._end_collection(req_id)
            if replies is not None:     # None: a crash got there first
                on_audit(replies)

        self.kernel.schedule(audit_timeout or timeout, _finish_audit)
        return early

    # ------------------------------------------------------------------ #
    # reply collection (cbcast's)
    # ------------------------------------------------------------------ #

    def _collect_replies(self, want: int,
                         count_reply=None) -> tuple[int, SimFuture]:
        """Open a reply collection; returns ``(req_id, future)``.

        ``req_id`` travels in the multicast (``reply_req``) and comes back
        in every member's reply; the future resolves once ``want`` replies
        passing ``count_reply`` (default: any) have arrived — at once when
        ``want`` is 0.  Replies keep accumulating until
        :meth:`_end_collection`.
        """
        req_id = next(self._collector_ids)
        fut = self.kernel.create_future()
        if want == 0:
            fut.set_result(None)
        self._collectors[req_id] = {"fut": fut, "replies": [], "want": want,
                                    "count": count_reply, "counted": 0}
        return req_id, fut

    def _end_collection(self, req_id: int) -> list[tuple[str, Any]] | None:
        """Close a collection; returns ``[(member, value), ...]`` in arrival
        order, or ``None`` when it is already gone (a crash wiped it)."""
        record = self._collectors.pop(req_id, None)
        return None if record is None else list(record["replies"])

    def _wait_not_flushing(self, state: _GroupState) -> SimFuture:
        fut = self.kernel.create_future()
        if not state.flushing:
            fut.set_result(None)
        else:
            state.flush_waiters.append(fut)
        return fut

    # ------------------------------------------------------------------ #
    # multicast receive path
    # ------------------------------------------------------------------ #

    def on_message(self, msg: Message) -> None:
        payload = msg.payload
        kind = payload.get("type") if isinstance(payload, dict) else None
        if kind == "heartbeat":
            # FailureDetector.observe unrolled, plus the epoch store: the
            # heartbeat is the most frequent message of an idle cell
            fd = self.fd
            src = msg.src
            last = fd.last_heard
            if src in last or src in fd.peers:
                last[src] = self.kernel.now
                fd.peer_epochs[src] = payload.get("epoch", 0)
                if src in fd.suspected:
                    fd.unsuspect(src)
                if len(payload) > 2:
                    fd.heard_more(src, payload)
            return
        self.fd.observe(msg.src)
        if kind == "mcast":
            self._on_mcast(payload)
        elif kind == "mreply":
            self._on_mreply(payload)

    def _on_mcast(self, msg: dict) -> None:
        group = msg["group"]
        state = self.groups.get(group)
        if state is None:
            return  # not a member (stale sender view) — shun
        if msg["view_id"] < state.view.view_id:
            self.network.metrics.incr("isis.stale_mcasts")
            return
        if msg["view_id"] > state.view.view_id:
            state.ahead.append(msg)  # install in flight; hold
            return
        sender = msg["sender"]
        # a sender delivers its own; a report that arrives out of order
        # only understates what its member has delivered since
        state.reported[sender] = msg["vc"]
        if "stable" in msg:
            state.adopt_frontier(msg["stable"])
        if state.seen(sender, msg["seq"]):
            return  # duplicate (flush re-delivery overlap)
        state.log[(sender, msg["seq"])] = msg
        self._try_deliveries(state, msg)

    def _try_deliveries(self, state: _GroupState, new_msg: dict | None) -> None:
        if new_msg is not None:
            state.pending.append(new_msg)
        progress = True
        while progress:
            progress = False
            for queued in list(state.pending):
                msg_vc = VectorClock(queued["vc"])
                if state.vc.deliverable_from(queued["sender"], msg_vc):
                    state.pending.remove(queued)
                    self._deliver_mcast(state, queued)
                    progress = True

    def _deliver_mcast(self, state: _GroupState, msg: dict) -> None:
        state.vc.clock[msg["sender"]] = msg["seq"]
        state.log[(msg["sender"], msg["seq"])] = msg
        self.network.metrics.incr("isis.deliveries")
        if self.app is None:
            return
        self.spawn(self._apply_and_reply(msg), name=f"{self.addr}:deliver")

    async def _apply_and_reply(self, msg: dict) -> None:
        try:
            value = await self.app.deliver(msg["group"], msg["sender"],
                                           msg["payload"])
        except Exception as exc:
            value = {"_error": f"{type(exc).__name__}: {exc}"}
        req_id = msg.get("reply_req")
        if req_id is None:
            return
        reply = {"type": "mreply", "req_id": req_id,
                 "member": self.addr, "value": value}
        if msg["origin"] == self.addr:
            self._on_mreply(reply)
            return
        state = self.groups.get(msg["group"])
        if state is not None:
            # what we have delivered rides home with the answer: it is how
            # the sender learns what is stable, with no message of its own
            reply.update(group=msg["group"], view_id=state.view.view_id,
                         vc=state.vc.as_dict())
        self.send(msg["origin"], reply, size_bytes=128, tag="mreply")

    def _on_mreply(self, payload: dict) -> None:
        if "vc" in payload:
            state = self.groups.get(payload["group"])
            if state is not None and state.view.view_id == payload["view_id"]:
                state.reported[payload["member"]] = payload["vc"]
        record = self._collectors.get(payload["req_id"])
        if record is None:
            return  # late reply after collection closed
        record["replies"].append((payload["member"], payload["value"]))
        predicate = record["count"]
        if predicate is None:
            record["counted"] = len(record["replies"])
        elif predicate(payload["value"]):
            record["counted"] += 1
        if record["counted"] >= record["want"]:
            record["fut"].try_set_result(None)

    # ------------------------------------------------------------------ #
    # RPC handlers (membership machinery)
    # ------------------------------------------------------------------ #

    async def _h_locate(self, src: str, /, groups: list[str]) -> dict[str, dict]:
        """Which of ``groups`` this process hosts, and under what view.
        Groups it is not a member of are left out of the answer."""
        hosted = {}
        for group in groups:
            state = self.groups.get(group)
            if state is not None:
                view = state.view
                hosted[group] = {"coordinator": view.coordinator,
                                 "view_id": view.view_id,
                                 "members": list(view.members)}
        return hosted

    async def _h_join_req(self, src: str, /, group: str, joiner: str) -> dict:
        state = self.groups.get(group)
        if state is None:
            raise GroupNotFound(f"{self.addr} not in {group}")
        coord = state.view.coordinator
        if coord != self.addr:
            # forward to the coordinator on the joiner's behalf
            return await self.call(coord, "isis_join_req", group=group,
                                   joiner=joiner, tag="isis_join")
        await self._run_view_change(group, leaving=set(), joining=(joiner,))
        return {"view_id": self.groups[group].view.view_id}

    async def _h_leave_req(self, src: str, /, group: str, leaver: str) -> dict:
        state = self.groups.get(group)
        if state is None:
            raise GroupNotFound(f"{self.addr} not in {group}")
        if state.view.coordinator != self.addr:
            return await self.call(state.view.coordinator, "isis_leave_req",
                                   group=group, leaver=leaver, tag="isis_leave")
        await self._run_view_change(group, leaving={leaver}, joining=())
        return {"ok": True}

    async def _h_flush(self, src: str, /, group: str, view_id: int,
                       have: dict) -> dict:
        """Pause sends; answer with our summary of the view and the bodies
        the coordinator (whose summary is ``have``) lacks."""
        state = self.groups.get(group)
        if state is None or state.view.view_id != view_id:
            raise NotMember(f"flush for unknown/stale view {group}#{view_id}")
        state.flushing = True
        return {"have": state.summary(), "log": state.lacking(have)}

    async def _h_install(self, src: str, /, group: str, view_id: int,
                         members: list[str], log: list[dict],
                         state_snapshot: Any = None,
                         joined: list[str] | None = None,
                         left: list[str] | None = None) -> dict:
        self._install_view(group, view_id, members, log, state_snapshot,
                           joined or [], left or [])
        return {"ok": True}

    # ------------------------------------------------------------------ #
    # view change engine (runs at the coordinator)
    # ------------------------------------------------------------------ #

    async def _run_view_change(self, group: str, leaving: set[str],
                               joining: tuple[str, ...]) -> None:
        state = self.groups.get(group)
        if state is None:
            return
        await state.change_lock.acquire()
        try:
            state = self.groups.get(group)
            if state is None:
                return
            leaving = set(leaving) & set(state.view.members)
            joining = tuple(j for j in joining if j not in state.view.members)
            if not leaving and not joining:
                return
            self.network.metrics.incr("isis.view_changes")
            old_view = state.view
            # 1. flush survivors, all asked at once: each pauses sends and
            # answers with its summary and the bodies ours lacks; what we
            # lacked is taken in view order and delivered as causality allows
            state.flushing = True
            survivors = [m for m in old_view.members
                         if m not in leaving and m != self.addr]
            have = state.summary()
            flush = {"group": group, "view_id": old_view.view_id, "have": have}
            size = max(256, payload_size(have))
            acks = await self._ask_each(
                "isis_flush", {m: (flush, size) for m in survivors})
            for member in survivors:
                if member in acks:
                    self._absorb(state, acks[member]["log"])
                else:
                    leaving.add(member)     # silent through every attempt
            new_view = old_view.successor(leaving, joining)
            # 2. app state for joiners
            snapshot = None
            if joining and self.app is not None:
                snapshot = self.app.get_group_state(group)
            # 3. install everywhere (joiners too), each survivor sent only
            # the bodies its summary lacks; a member that stays silent is
            # the failure detector's problem
            joined_list = list(joining)
            left_list = sorted(leaving)
            installs = {}
            for member in new_view.members:
                if member == self.addr:
                    continue
                is_joiner = member in joining
                log = [] if is_joiner else state.lacking(acks[member]["have"])
                installs[member] = ({
                    "group": group, "view_id": new_view.view_id,
                    "members": list(new_view.members), "log": log,
                    "state_snapshot": snapshot if is_joiner else None,
                    "joined": joined_list, "left": left_list},
                    max(1024, payload_size(log)))
            await self._ask_each("isis_install", installs)
            # 4. install locally
            self._install_view(group, new_view.view_id, list(new_view.members),
                               [], None, joined_list, left_list)
        finally:
            state.change_lock.release()

    async def _ask_each(self, method: str,
                        requests: dict[str, tuple[dict, int]]) -> dict[str, Any]:
        """One round of a view change: ``method`` at every member named in
        ``requests`` (``{member: (args, size_bytes)}``), all sent at the
        same instant; returns the answers by member.

        A member that times out or refuses is asked again, together with
        the others that did, so a round lasts at most three
        ``FLUSH_TIMEOUT_MS`` however many members are silent — one lost
        datagram must not evict a healthy member (ISIS retransmits under
        its reliable transport).  A member silent through all three
        attempts is missing from the result.
        """
        answers: dict[str, Any] = {}
        waiting = list(requests)
        for _attempt in range(3):
            calls = [(member, self.rpc(member, method, requests[member][0],
                                       timeout=FLUSH_TIMEOUT_MS,
                                       size_bytes=requests[member][1]))
                     for member in waiting]
            waiting = []
            for member, answer in calls:
                try:
                    answers[member] = await answer
                except (RpcTimeout, RpcRemoteError):
                    waiting.append(member)
            if not waiting:
                break
        return answers

    def _install_view(self, group: str, view_id: int, members: list[str],
                      log: list[dict], state_snapshot: Any,
                      joined: list[str], left: list[str]) -> None:
        state = self.groups.get(group)
        is_joiner = state is None
        if state is not None and view_id <= state.view.view_id:
            return  # stale install
        view = View(group, view_id, tuple(members))
        if is_joiner:
            state = _GroupState(view, self.kernel)
            self.groups[group] = state
            if state_snapshot is not None and self.app is not None:
                self.app.set_group_state(group, state_snapshot)
        else:
            # virtual synchrony: deliver every multicast of the old view
            # that any survivor saw and we did not, in causal order where
            # possible.  Anything still pending has causal predecessors no
            # survivor saw; force-deliver it deterministically so all
            # members agree.
            self._absorb(state, log)
            leftovers = sorted(state.pending,
                               key=lambda m: (m["sender"], m["seq"]))
            state.pending.clear()
            for msg in leftovers:
                if state.vc.get(msg["sender"]) < msg["seq"]:
                    self._deliver_mcast(state, msg)
            state.view = view
        state.vc = VectorClock()
        state.pending.clear()
        state.log.clear()
        state.reported.clear()
        state.stable.clear()
        state.flushing = False
        waiters, state.flush_waiters = state.flush_waiters, []
        for fut in waiters:
            fut.try_set_result(None)
        ahead, state.ahead = state.ahead, []
        state.view = view
        if self.app is not None:
            self.app.view_change(group, view, joined, left)
        # wake a local joiner blocked in join_group()
        wait = self._join_waits.get(group)
        if wait is not None:
            wait.try_set_result(None)
        # process messages that arrived stamped with this (then-future) view
        for msg in ahead:
            self._on_mcast(msg)

    def _absorb(self, state: _GroupState, entries: list[dict]) -> None:
        """Take in multicasts of the current view that reached us through a
        flush instead of from their sender; deliver what causality allows."""
        for entry in entries:
            if not state.seen(entry["sender"], entry["seq"]):
                state.log[(entry["sender"], entry["seq"])] = entry
                state.pending.append(entry)
        self._try_deliveries(state, None)

    # ------------------------------------------------------------------ #
    # failure handling
    # ------------------------------------------------------------------ #

    def _on_peer_suspected(self, peer: str) -> None:
        for group, state in sorted(self.groups.items()):
            view = state.view
            if peer not in view.members:
                continue
            survivors = [m for m in view.members if not self.fd.is_suspected(m)]
            if survivors and survivors[0] == self.addr:
                suspects = {m for m in view.members if self.fd.is_suspected(m)}
                self.spawn(
                    self._run_view_change(group, leaving=suspects, joining=()),
                    name=f"{self.addr}:vchange:{group}",
                )
