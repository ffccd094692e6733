"""Unit tests for the simulated network: datagrams, RPC, crash, partition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NfsError, RpcTimeout, Unreachable
from repro.metrics import Metrics
from repro.net import (ConstantLatency, LanWanLatency, MsgKind, Network, Node,
                       RpcRemoteError, UniformLatency)
from repro.net.message import payload_size
from repro.sim import Kernel
from tests.conftest import run


class Echo(Node):
    """Test node: records datagrams, serves an 'echo' and 'fail' RPC."""

    def __init__(self, network, addr):
        super().__init__(network, addr)
        self.inbox = []
        self.register_handler("echo", self._echo)
        self.register_handler("fail", self._fail)
        self.register_handler("slow", self._slow)

    async def _echo(self, src, value):
        return {"from": self.addr, "value": value}

    async def _fail(self, src):
        raise ValueError("deliberate")

    async def _slow(self, src, delay):
        await self.kernel.sleep(delay)
        return "done"

    def on_message(self, msg):
        self.inbox.append(msg.payload)


def test_datagram_delivery(kernel, network):
    a = Echo(network, "a")
    b = Echo(network, "b")
    a.send("b", {"hello": 1})
    kernel.run()
    assert b.inbox == [{"hello": 1}]


def test_rpc_roundtrip(kernel, network):
    a = Echo(network, "a")
    Echo(network, "b")

    async def main():
        return await a.call("b", "echo", value=7)

    assert run(kernel, main()) == {"from": "b", "value": 7}


def test_rpc_remote_error_surfaces(kernel, network):
    a = Echo(network, "a")
    Echo(network, "b")

    async def main():
        with pytest.raises(RpcRemoteError, match="deliberate"):
            await a.call("b", "fail")
        return True

    assert run(kernel, main())


def test_rpc_unknown_method(kernel, network):
    a = Echo(network, "a")
    Echo(network, "b")

    async def main():
        with pytest.raises(RpcRemoteError, match="NoSuchMethod"):
            await a.call("b", "nonexistent")
        return True

    assert run(kernel, main())


def test_rpc_timeout_on_crashed_destination(kernel, network):
    a = Echo(network, "a")
    b = Echo(network, "b")
    b.crash()

    async def main():
        with pytest.raises(RpcTimeout):
            await a.call("b", "echo", value=1, timeout=50.0)
        return kernel.now

    assert run(kernel, main()) == pytest.approx(50.0)


def test_rpc_timeout_on_slow_handler(kernel, network):
    a = Echo(network, "a")
    Echo(network, "b")

    async def main():
        with pytest.raises(RpcTimeout):
            await a.call("b", "slow", delay=500.0, timeout=50.0)

    run(kernel, main())


def test_crash_loses_in_flight_handler_reply(kernel, network):
    """A server that crashes while serving never replies (fail-stop)."""
    a = Echo(network, "a")
    b = Echo(network, "b")

    async def main():
        fut = a.rpc("b", "slow", {"delay": 100.0}, timeout=300.0)
        await kernel.sleep(50.0)
        b.crash()
        with pytest.raises(RpcTimeout):
            await fut

    run(kernel, main())


def test_recovered_node_serves_again(kernel, network):
    a = Echo(network, "a")
    b = Echo(network, "b")
    b.crash()
    b.recover()

    async def main():
        return await a.call("b", "echo", value=9)

    assert run(kernel, main())["value"] == 9


def test_partition_blocks_cross_group_traffic(kernel, network):
    a = Echo(network, "a")
    b = Echo(network, "b")
    c = Echo(network, "c")
    network.partition([{"a", "b"}, {"c"}])

    async def main():
        assert (await a.call("b", "echo", value=1))["value"] == 1
        with pytest.raises(RpcTimeout):
            await a.call("c", "echo", value=2, timeout=50.0)

    run(kernel, main())
    assert not network.reachable("a", "c")
    assert network.reachable("a", "b")


def test_partition_is_symmetric(kernel, network):
    Echo(network, "a")
    Echo(network, "b")
    network.partition([{"a"}, {"b"}])
    assert not network.reachable("a", "b")
    assert not network.reachable("b", "a")


def test_heal_restores_connectivity(kernel, network):
    a = Echo(network, "a")
    Echo(network, "b")
    network.partition([{"a"}, {"b"}])
    network.heal()

    async def main():
        return await a.call("b", "echo", value=3)

    assert run(kernel, main())["value"] == 3


def test_partition_overlap_rejected(kernel, network):
    Echo(network, "a")
    with pytest.raises(ValueError):
        network.partition([{"a"}, {"a", "b"}])


def test_message_in_flight_when_partition_starts_is_lost(kernel, network):
    a = Echo(network, "a")
    b = Echo(network, "b")
    a.send("b", "late")
    network.partition([{"a"}, {"b"}])  # before delivery event fires
    kernel.run()
    assert b.inbox == []
    assert network.metrics.get("net.lost_unreachable") == 1


def test_drop_probability_loses_messages(kernel):
    network = Network(kernel, latency=ConstantLatency(1.0), drop_probability=1.0, seed=1)
    a = Echo(network, "a")
    b = Echo(network, "b")
    a.send("b", "x")
    kernel.run()
    assert b.inbox == []
    assert network.metrics.get("net.dropped") == 1


def test_message_metrics_counted(kernel, network):
    a = Echo(network, "a")
    Echo(network, "b")

    async def main():
        await a.call("b", "echo", value=1)

    run(kernel, main())
    assert network.metrics.get("net.msgs") == 2  # request + reply
    assert network.metrics.get("net.msgs.rpc_req") == 1
    assert network.metrics.get("net.msgs.rpc_reply") == 1


def test_duplicate_address_rejected(kernel, network):
    Echo(network, "a")
    with pytest.raises(ValueError):
        Echo(network, "a")


def test_constant_latency_charges_bytes():
    model = ConstantLatency(base_ms=2.0, per_byte_ms=0.001)
    import random
    assert model.delay("a", "b", 1000, random.Random(0)) == pytest.approx(3.0)


def test_lanwan_latency_site_split():
    model = LanWanLatency(lan_ms=2.0, wan_ms=40.0)
    import random
    rng = random.Random(0)
    assert model.delay("cornell.s1", "cornell.s2", 0, rng) == 2.0
    assert model.delay("cornell.s1", "mit.s1", 0, rng) == 40.0


def test_trace_records_messages(kernel, network):
    network.trace = []
    a = Echo(network, "a")
    Echo(network, "b")
    a.send("b", "x", tag="test")
    kernel.run()
    assert len(network.trace) == 1
    assert network.trace[0].tag == "test"


# ---- scale fast paths: tag opt-in, multicast, task registry --------------- #

def test_tag_metrics_are_opt_in(kernel):
    from repro.metrics import Metrics
    from repro.net import NetConfig

    quiet = Network(kernel, seed=1, metrics=Metrics())
    a = Echo(quiet, "a")
    Echo(quiet, "b")
    a.send("b", "x", tag="probe")
    kernel.run()
    assert quiet.metrics.get("net.msgs") == 1
    assert "net.msgs.tag.probe" not in quiet.metrics.counters

    loud = Network(kernel, seed=1, metrics=Metrics(),
                   config=NetConfig(tag_metrics=True))
    c = Echo(loud, "c")
    Echo(loud, "d")
    c.send("d", "x", tag="probe")
    kernel.run()
    assert loud.metrics.get("net.msgs.tag.probe") == 1


def _burst_outcome(use_multicast, drop):
    k = Kernel()
    net = Network(k, latency=UniformLatency(1.0, 4.0), seed=7,
                  drop_probability=drop, metrics=Metrics())
    arrivals = []

    class Recorder(Echo):
        def on_message(self, msg):
            arrivals.append((k.now, self.addr))
            super().on_message(msg)

    nodes = [Recorder(net, f"n{i}") for i in range(9)]
    dsts = [f"n{i}" for i in range(1, 9)]
    payload = {"type": "ping", "x": 1}
    if use_multicast:
        nodes[0].multicast(dsts, payload, size_bytes=32, tag="t")
    else:
        for dst in dsts:
            nodes[0].send(dst, payload, size_bytes=32, tag="t")
    nodes[0].send("n1", "after")  # stream position must match too
    k.run()
    return (net.metrics.snapshot(), k.now, arrivals,
            [n.inbox for n in nodes], net.rng.getstate())


def test_multicast_matches_a_transmit_loop_exactly():
    # the heartbeat fast path must consume the seeded RNG in the same
    # order as per-destination sends — drop draw then latency draw, per
    # destination: same metrics, same arrival order, same deliveries,
    # same RNG state afterwards, on a lossless and on a lossy network
    for drop in (0.0, 0.35):
        looped, burst = _burst_outcome(False, drop), _burst_outcome(True, drop)
        assert looped == burst
        if drop:
            assert 0 < burst[0]["net.dropped"] < 9


def test_multicast_skips_dead_sender_and_empty_roster(kernel, network):
    a = Echo(network, "a")
    b = Echo(network, "b")
    a.multicast([], {"x": 1})
    a.crash()
    a.multicast(["b"], {"x": 1})
    kernel.run()
    assert b.inbox == []
    assert network.metrics.get("net.msgs") == 0


def test_task_registry_reaps_in_constant_shape(kernel, network):
    a = Echo(network, "a")

    async def noop():
        return 1

    tasks = [a.spawn(noop()) for _ in range(10)]
    kernel.run()
    assert all(t.done() for t in tasks)
    assert a._tasks == {}               # dict registry fully reaped


def test_crash_clears_task_registry_and_pending_rpcs(kernel, network):
    a = Echo(network, "a")
    Echo(network, "b")

    async def forever():
        await kernel.create_future()

    a.spawn(forever())
    fut = a.rpc("b", "slow", {"delay": 500.0})
    a.crash()
    assert a._tasks == {}
    assert a._pending_rpcs == {}
    kernel.run()
    assert isinstance(fut.exception(), Unreachable)


# ---- the flattened message lifecycle: sizes, in-flight loss, timer count --- #

_leaves = st.one_of(st.text(max_size=12), st.binary(max_size=12),
                    st.integers(), st.booleans(), st.none(),
                    st.floats(allow_nan=False))
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)


@given(args=st.one_of(st.none(), st.dictionaries(st.text(max_size=6), _values,
                                                 max_size=4)),
       result=_values, outcome=st.sampled_from(["result", "error", "no_method"]))
@settings(max_examples=120, deadline=None)
def test_rpc_envelope_sizes_equal_the_full_walk(args, result, outcome):
    # rpc()/_serve_rpc size an envelope as a constant plus a walk of the
    # caller's part; net.bytes_moved and reply latency depend on that sum
    # being exactly what walking the whole envelope gives
    kernel = Kernel()
    network = Network(kernel, seed=1, metrics=Metrics())
    network.trace = []
    a, b = Node(network, "a"), Node(network, "b")

    async def handler(src, **kwargs):
        if outcome == "error":
            raise ValueError(repr(result))
        return result

    if outcome != "no_method":
        b.register_handler("m\u00e9thode", handler)
    fut = a.rpc("b", "m\u00e9thode", args)
    kernel.run()
    request, reply = network.trace
    assert (request.kind, reply.kind) == (MsgKind.RPC_REQUEST, MsgKind.RPC_REPLY)
    for msg in (request, reply):
        assert msg.payload_bytes() == payload_size(msg.payload)
    assert reply.size_bytes == max(256, payload_size(reply.payload))
    assert network.metrics.get("net.bytes_moved") == \
        payload_size(request.payload) + payload_size(reply.payload)
    assert (fut.exception() is None) == (outcome == "result")


def test_every_rpc_in_a_seeded_cell_is_sized_like_the_full_walk():
    from repro.testbed import build_cluster

    cluster = build_cluster(4, 2, seed=11, scatter_agents=True)
    cluster.network.trace = []
    a, b = cluster.agents

    async def work():
        await a.mount()
        await b.mount()
        await a.mkdir("/", "d")
        await a.create("/d", "f")
        await a.write_file("/d/f", b"x" * 3000)
        await a.set_params("/d/f", min_replicas=3)
        assert await b.read_file("/d/f") == b"x" * 3000
        await b.create("/d", "g")
        await b.write_file("/d/g", b"y" * 100)
        await a.readdir("/d")
        await b.remove("/d", "g")
        with pytest.raises(NfsError):
            await a.getattr("/d/nope")

    cluster.run(work())
    cluster.settle(500.0)
    rpcs = [m for m in cluster.network.trace if m.kind is not MsgKind.DATAGRAM]
    cluster.close()
    assert len(rpcs) > 40
    assert {m.kind for m in rpcs} == {MsgKind.RPC_REQUEST, MsgKind.RPC_REPLY}
    for msg in rpcs:
        assert msg.payload_bytes() == payload_size(msg.payload), msg


@pytest.mark.parametrize("fault", ["crash", "partition"])
@pytest.mark.parametrize("kind", ["datagram", "rpc_request", "rpc_reply"])
def test_message_in_flight_when_destination_becomes_unreachable_is_lost(
        kernel, network, kind, fault):
    # reachability is judged when the message lands, not when it was sent
    a = Echo(network, "a")
    b = Echo(network, "b")
    fut, target = None, b
    if kind == "datagram":
        a.send("b", "late")
    else:
        fut = a.rpc("b", "echo", {"value": 1}, timeout=50.0)
        if kind == "rpc_reply":
            while not network.metrics.get("net.msgs.rpc_reply"):
                # half the 1 ms minimum flight time per step: stops with
                # the request served and the reply still in flight
                kernel.run(until=kernel.now + 0.5)
            target = a
    assert network.metrics.get("net.lost_unreachable") == 0
    if fault == "crash":
        target.crash()
    else:
        network.partition([{"a"}, {"b"}])
    kernel.run()
    assert network.metrics.get("net.lost_unreachable") == 1
    assert b.inbox == []
    if fut is not None:
        lost_with_caller = kind == "rpc_reply" and fault == "crash"
        assert isinstance(fut.exception(),
                          Unreachable if lost_with_caller else RpcTimeout)
    assert kernel.live_events == 0


def test_rpc_timeouts_leave_live_events_at_zero(kernel, network):
    # a fired timeout fails its future, whose done-callback cancels the
    # timer's own (already popped) handle; that must not count as a dead
    # queued entry — live_events used to read -5 here
    a = Echo(network, "a")
    b = Echo(network, "b")
    b.alive = False
    futs = [a.rpc("b", "echo", {"value": i}, timeout=10.0) for i in range(5)]
    kernel.run()
    assert all(isinstance(f.exception(), RpcTimeout) for f in futs)
    assert kernel.live_events == 0
