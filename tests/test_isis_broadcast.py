"""Tests for cbcast ordering and reply-collection semantics."""

import pytest

from repro.errors import NotMember
from repro.isis.vector_clock import VectorClock
from repro.net import ConstantLatency, MsgKind
from tests.conftest import run
from tests.test_isis_groups import make_cell


async def _form_group(procs, name="g"):
    procs[0].create_group(name)
    for p in procs[1:]:
        await p.join_group(name)


def test_cbcast_reaches_all_members(kernel):
    _net, procs = make_cell(kernel, 3)

    async def main():
        await _form_group(procs)
        await procs[0].cbcast("g", {"op": "hello"}, nreplies="all")
        return [p.app.delivered for p in procs]

    delivered = run(kernel, main())
    for log in delivered:
        assert ("g", "s0", {"op": "hello"}) in log


def test_cbcast_collects_all_replies(kernel):
    _net, procs = make_cell(kernel, 3)

    async def main():
        await _form_group(procs)
        return await procs[0].cbcast("g", {"op": "x"}, nreplies="all")

    replies = run(kernel, main())
    assert sorted(member for member, _v in replies) == ["s0", "s1", "s2"]


def test_cbcast_first_k_replies_returns_early(kernel):
    _net, procs = make_cell(kernel, 3)

    async def main():
        await _form_group(procs)
        replies = await procs[0].cbcast("g", {"op": "x"}, nreplies=1)
        return replies

    replies = run(kernel, main())
    assert len(replies) >= 1  # returned after the first reply


def test_cbcast_zero_replies_is_fire_and_forget(kernel):
    _net, procs = make_cell(kernel, 3)

    async def main():
        await _form_group(procs)
        t0 = kernel.now
        out = await procs[0].cbcast("g", {"op": "x"}, nreplies=0)
        return out, kernel.now - t0

    out, elapsed = run(kernel, main())
    assert out == []
    assert elapsed == 0.0


def test_cbcast_reply_count_drops_with_crashed_member(kernel):
    """Counting correct replies detects replica loss (§3.1 method 1)."""
    _net, procs = make_cell(kernel, 3)

    async def main():
        await _form_group(procs)
        procs[2].crash()
        replies = await procs[0].cbcast("g", {"op": "x"}, nreplies="all",
                                        timeout=300.0)
        return sorted(m for m, _ in replies)

    assert run(kernel, main()) == ["s0", "s1"]


def test_cbcast_not_member_raises(kernel):
    _net, procs = make_cell(kernel, 3)
    procs[0].create_group("g")

    async def main():
        with pytest.raises(NotMember):
            await procs[1].cbcast("g", {"op": "x"})

    run(kernel, main())


def test_cbcast_fifo_per_sender(kernel):
    _net, procs = make_cell(kernel, 4)

    async def main():
        await _form_group(procs)
        for i in range(10):
            await procs[0].cbcast("g", {"n": i})
        await kernel.sleep(200.0)
        return [p.app.delivered for p in procs[1:]]

    logs = run(kernel, main())
    for log in logs:
        numbers = [payload["n"] for _g, s, payload in log if s == "s0"]
        assert numbers == list(range(10))


def test_cbcast_causal_across_senders(kernel):
    """s1's message that causally follows s0's must be delivered after it."""
    _net, procs = make_cell(kernel, 3)

    async def main():
        await _form_group(procs)
        await procs[0].cbcast("g", {"tag": "cause"}, nreplies="all")
        # s1 has now delivered "cause"; its next message causally follows
        await procs[1].cbcast("g", {"tag": "effect"}, nreplies="all")
        await kernel.sleep(200.0)
        return [p.app.delivered for p in procs]

    logs = run(kernel, main())
    for log in logs:
        tags = [payload["tag"] for _g, _s, payload in log]
        assert tags.index("cause") < tags.index("effect")


def test_messages_in_view_delivered_before_new_view(kernel):
    """Virtual synchrony: a multicast and a join serialize cleanly."""
    _net, procs = make_cell(kernel, 3)

    async def main():
        procs[0].create_group("g")
        await procs[1].join_group("g")
        send = kernel.spawn(procs[0].cbcast("g", {"op": "during"}, nreplies="all"))
        join = kernel.spawn(procs[2].join_group("g"))
        await kernel.all_of([send, join])
        await kernel.sleep(200.0)
        return procs[0].app.delivered, procs[1].app.delivered

    log0, log1 = run(kernel, main())
    assert ("g", "s0", {"op": "during"}) in log0
    assert ("g", "s0", {"op": "during"}) in log1


def test_stale_view_sender_is_shunned(kernel):
    """A member expelled by a view change cannot multicast into the group."""
    _net, procs = make_cell(kernel, 3)

    async def main():
        await _form_group(procs)
        procs[2].crash()
        await kernel.sleep(1000.0)  # view change removes s2
        before = len(procs[0].app.delivered)
        procs[2].recover()
        # s2 still has no group state (volatile); it cannot send at all
        with pytest.raises(NotMember):
            await procs[2].cbcast("g", {"op": "ghost"})
        return before, len(procs[0].app.delivered)

    before, after = run(kernel, main())
    assert before == after


# ----------------------------------------------------------------------- #
# the flush moves what is missing; stability trims the log
# ----------------------------------------------------------------------- #


class _HoldOnePair(ConstantLatency):
    """Constant latency, except that ``src -> dst`` datagrams crawl."""

    def __init__(self, src, dst, hold_ms):
        super().__init__(base_ms=2.0)
        self.pair, self.hold_ms = (src, dst), hold_ms

    def delay(self, src, dst, size_bytes, rng):
        if (src, dst) == self.pair:
            return self.hold_ms
        return super().delay(src, dst, size_bytes, rng)


def test_flush_hands_an_in_flight_multicast_to_the_member_that_missed_it(kernel):
    """Virtual synchrony across the flush: s1's multicast reached the
    coordinator but is still in flight to s2 when s3 joins.  s2 gets it from
    its install — that install alone carries a body, and is charged for it —
    delivers it before the new view is announced, and drops the late copy."""
    body = 64 * 1024
    net, procs = make_cell(kernel, 4, latency=_HoldOnePair("s1", "s2", 300.0))
    p0, p1, p2, p3 = procs
    deliveries_when_s2_saw_the_view = []
    announce = p2.app.view_change

    def view_change(group, view, joined, left):
        deliveries_when_s2_saw_the_view.append(
            net.metrics.get("isis.deliveries"))
        announce(group, view, joined, left)

    async def main():
        await _form_group(procs[:3])
        p2.app.view_change = view_change
        await p1.cbcast("g", {"blob": bytes(body)}, size_bytes=body)
        await kernel.sleep(10.0)            # at s0 and s1; crawling to s2
        assert net.metrics.get("isis.deliveries") == 2
        net.trace = []
        before = net.metrics.snapshot()
        await p3.join_group("g", contact="s0")
        joined = net.metrics.delta(before)
        await kernel.sleep(500.0)           # the held copy arrives, stale
        return joined

    joined = run(kernel, main())
    carried = {msg.dst: len(msg.payload["args"]["log"]) for msg in net.trace
               if msg.tag == "isis_install" and msg.kind is MsgKind.RPC_REQUEST}
    assert carried == {"s1": 0, "s2": 1, "s3": 0}
    assert joined["net.bytes"] > body       # the install declares its body
    assert deliveries_when_s2_saw_the_view == [3]
    blobs = [p for _g, s, p in p2.app.delivered if s == "s1"]
    assert len(blobs) == 1
    assert net.metrics.get("isis.deliveries") == 3
    assert net.metrics.get("isis.stale_mcasts") == 1


def test_acked_multicasts_leave_the_log_and_are_not_delivered_twice(kernel):
    net, procs = make_cell(kernel, 3)
    p0, p1, _p2 = procs

    async def main():
        await _form_group(procs)
        for i in range(20):
            await p0.cbcast("g", {"n": i}, nreplies="all")
        await p0.cbcast("g", {"n": 20})     # carries the frontier out
        await kernel.sleep(50.0)
        logs = [len(p.groups["g"].log) for p in procs]
        frontiers = [dict(p.groups["g"].stable) for p in procs]
        delivered = net.metrics.get("isis.deliveries")
        # a copy of a trimmed multicast turns up again
        stale = {"type": "mcast", "group": "g", "sender": "s0", "seq": 3,
                 "view_id": p1.current_view("g").view_id, "vc": {"s0": 3},
                 "payload": {"n": 2}, "reply_req": None, "origin": "s0"}
        p0.send("s1", stale)
        await kernel.sleep(50.0)
        return logs, frontiers, delivered

    logs, frontiers, delivered = run(kernel, main())
    assert all(n <= 2 for n in logs)
    assert frontiers == [{"s0": 20}] * 3
    assert net.metrics.get("isis.deliveries") == delivered
    assert [p["n"] for _g, _s, p in p1.app.delivered] == list(range(21))


def test_nothing_is_trimmed_until_every_member_has_reported(kernel):
    """Fire-and-forget multicasts draw no replies, so s0 never hears what
    s1 and s2 have delivered: nothing is known stable, nothing is dropped."""
    _net, procs = make_cell(kernel, 3)

    async def main():
        await _form_group(procs)
        for i in range(10):
            await procs[0].cbcast("g", {"n": i})
        await kernel.sleep(50.0)
        return [(len(p.groups["g"].log), dict(p.groups["g"].stable))
                for p in procs]

    assert run(kernel, main()) == [(10, {})] * 3


def test_frontier_and_reports_start_over_in_a_new_view(kernel):
    _net, procs = make_cell(kernel, 4)

    async def main():
        await _form_group(procs[:3])
        for i in range(5):
            await procs[0].cbcast("g", {"n": i}, nreplies="all")
        await procs[0].cbcast("g", {"n": 5})
        await kernel.sleep(50.0)
        before = [dict(p.groups["g"].stable) for p in procs[:3]]
        await procs[3].join_group("g")
        return before, [(p.groups["g"].stable, p.groups["g"].reported,
                         len(p.groups["g"].log)) for p in procs]

    before, after = run(kernel, main())
    assert before == [{"s0": 5}] * 3
    assert after == [({}, {}, 0)] * 4


# ----------------------------------------------------------------------- #
# vector clock unit tests
# ----------------------------------------------------------------------- #


def test_vc_deliverable_next_in_sequence():
    receiver = VectorClock({"a": 2})
    msg = VectorClock({"a": 3})
    assert receiver.deliverable_from("a", msg)


def test_vc_not_deliverable_gap():
    receiver = VectorClock({"a": 1})
    msg = VectorClock({"a": 3})
    assert not receiver.deliverable_from("a", msg)


def test_vc_not_deliverable_missing_causal_predecessor():
    receiver = VectorClock({"a": 0, "b": 0})
    # message from a that has seen b's first message
    msg = VectorClock({"a": 1, "b": 1})
    assert not receiver.deliverable_from("a", msg)


def test_vc_deliverable_with_satisfied_dependency():
    receiver = VectorClock({"a": 0, "b": 1})
    msg = VectorClock({"a": 1, "b": 1})
    assert receiver.deliverable_from("a", msg)


def test_vc_merge_and_dominates():
    a = VectorClock({"x": 1, "y": 5})
    b = VectorClock({"x": 3, "z": 2})
    a.merge(b)
    assert a.as_dict() == {"x": 3, "y": 5, "z": 2}
    assert a.dominates(b)
    assert not b.dominates(a)


def test_vc_equality_ignores_zero_entries():
    assert VectorClock({"a": 0}) == VectorClock({})
    assert VectorClock({"a": 1}) != VectorClock({})
