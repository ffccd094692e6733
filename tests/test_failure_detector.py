"""The failure detector above four peers: calm ring, alarm mesh.

Every bound is stated in the detector's own ``interval_ms`` / ``timeout_ms``
(``build_scale_cluster`` stretches both with the cell), never in literal
milliseconds.
"""

import pytest

from repro.core.conflicts import CONFLICT_GROUP
from repro.isis.failure_detector import RING_NEIGHBOURS
from repro.testbed import build_cluster, build_scale_cluster

N = 16


def _cell(n=N, settle_intervals=8):
    cluster = build_scale_cluster(n, 2, seed=3)
    fd = cluster.servers[0].proc.fd
    cluster.settle(settle_intervals * fd.interval_ms)
    return cluster, fd.interval_ms, fd.timeout_ms


def _fds(cluster):
    return [server.proc.fd for server in cluster.servers]


def _record_suspicions(cluster):
    """``[(virtual ms, suspecting server, suspected peer)]``, filled live."""
    raised = []
    for server in cluster.servers:
        server.proc.fd.subscribe(
            on_suspect=lambda peer, me=server.addr:
                raised.append((cluster.kernel.now, me, peer)))
    return raised


def _heartbeats(cluster, ms):
    """Heartbeats sent during the next ``ms``: (all of them, the asking ones)."""
    cluster.network.trace = []
    cluster.settle(ms)
    beats = [m for m in cluster.network.trace if m.tag == "heartbeat"]
    cluster.network.trace = None
    return beats, [m for m in beats if "ask" in m.payload]


def test_calm_cell_pings_ring_neighbours_only():
    cluster, interval, _timeout = _cell()
    ticks = 10
    beats, asks = _heartbeats(cluster, ticks * interval)
    cluster.close()
    # each ask draws one answer; everything else is a neighbour ping
    assert len(beats) <= ticks * 2 * RING_NEIGHBOURS * N + len(asks)
    assert all(len(m.payload) == 2 and m.size_bytes == 32 for m in beats
               if "ask" not in m.payload)
    assert not any(fd.suspected for fd in _fds(cluster))


def test_crash_is_suspected_first_hand_then_by_every_survivor():
    cluster, interval, timeout = _cell()
    raised = _record_suspicions(cluster)
    victim = cluster.servers[N // 2].addr
    at = cluster.kernel.now
    cluster.crash(N // 2)
    cluster.settle(2 * timeout + 4 * interval)
    cluster.close()
    assert {peer for _t, _me, peer in raised} == {victim}
    assert raised[0][0] - at <= timeout + 2 * interval
    assert {me for _t, me, _peer in raised} == \
        {s.addr for s in cluster.servers} - {victim}
    assert raised[-1][0] - at <= 2 * timeout + 4 * interval


def test_partition_is_complete_on_both_sides_and_heal_clears_it():
    cluster, interval, timeout = _cell()
    raised = _record_suspicions(cluster)
    half = N // 2
    at = cluster.kernel.now
    cluster.partition(set(range(half)), set(range(half, N)))
    cluster.settle(2 * timeout + 4 * interval)
    sides = [{s.addr for s in cluster.servers[:half]},
             {s.addr for s in cluster.servers[half:]}]
    for fd in _fds(cluster):
        other = sides[0] if fd.node.addr in sides[1] else sides[1]
        assert fd.suspected == other, fd.node.addr
    assert raised[-1][0] - at <= 2 * timeout + 4 * interval
    cluster.settle(2 * timeout)     # the alarm runs out; the sides go calm
    cluster.heal()
    cluster.settle(2 * interval)
    cluster.close()
    assert not any(fd.suspected for fd in _fds(cluster))


def test_message_loss_raises_no_suspicion_and_evicts_nobody():
    cluster, _interval, _timeout = _cell()
    before = [set(s.proc.members(CONFLICT_GROUP)) for s in cluster.servers]
    cluster.network.drop_probability = 0.05
    cluster.settle(20_000.0)
    cluster.close()
    assert cluster.metrics.get("fd.suspicions") == 0
    for server, members in zip(cluster.servers, before):
        assert set(server.proc.members(CONFLICT_GROUP)) >= members


def test_cell_returns_to_the_calm_rate_after_the_last_change():
    """The re-arm trap: an alarm that travelled as a remaining time would be
    renewed by every exchange; it travels as a deadline and runs out."""
    cluster, interval, timeout = _cell()
    raised = _record_suspicions(cluster)
    cluster.crash(N // 2)
    cluster.settle(2 * timeout + 4 * interval)
    assert len(raised) == N - 1
    mesh, _asks = _heartbeats(cluster, interval)
    assert len(mesh) > 2 * RING_NEIGHBOURS * N      # the alarm is the mesh
    last_change = raised[-1][0]
    cluster.settle(last_change + 2 * timeout + 2 * interval - cluster.kernel.now)
    ticks = 10
    beats, asks = _heartbeats(cluster, ticks * interval)
    cluster.close()
    assert all(fd.alarm_until <= last_change + 2 * timeout + interval
               for fd in _fds(cluster))
    # the survivors' rings, plus one ask per survivor per tick to the dead
    # peer, which never answers
    assert len(beats) <= ticks * (2 * RING_NEIGHBOURS + 1) * (N - 1)
    assert len(asks) == ticks * (N - 1)


@pytest.mark.parametrize("n", [4, 5])
def test_small_roster_sends_the_full_mesh_in_roster_order(n):
    """At most 2 x RING_NEIGHBOURS peers are all neighbours: every tick is
    one two-key heartbeat to every peer, in roster order — through a crash
    (an alarm) as much as at rest."""
    cluster = build_cluster(n, 1, seed=1)
    interval = cluster.servers[0].proc.fd.interval_ms
    addrs = [s.addr for s in cluster.servers]
    cluster.settle(4 * interval)
    cluster.crash(n - 1)
    ticks = 12
    beats, asks = _heartbeats(cluster, ticks * interval)
    cluster.close()
    assert not asks
    assert all(m.payload == {"type": "heartbeat", "epoch": 0} for m in beats)
    for me in addrs[:-1]:
        sent = [m.dst for m in beats if m.src == me]
        assert sent == [p for p in addrs if p != me] * ticks, me
    assert cluster.metrics.get("fd.suspicions") == n - 1
