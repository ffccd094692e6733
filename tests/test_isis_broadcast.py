"""Tests for cbcast ordering and reply-collection semantics."""

import pytest

from repro.errors import NotMember
from repro.isis.vector_clock import VectorClock
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
