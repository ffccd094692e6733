"""Tests for the §3.3 token protocol: the optimization that is built, the
ones that are not, and telling a busy token holder from a lost one.

The paper describes two optimizations and notes "Deceit currently uses
neither".  Optimization 2 (forwarding a likely single update to the
holder) is built, engaged by ``single_update_hint``, which dirops and
whole-file rewrites carry; we verify it preserves correctness and saves
the token movement it promises to save.  Optimization 1 (the first update
riding the token request) is not built: a request that finds the holder
busy is broadcast again, and an update riding it would be applied twice.
The last test pins that every acked update lands exactly once when a
request is asked again.
"""

from repro.agent import AgentConfig
from repro.core import FileParams, WriteOp
from repro.core.tokens import TOKEN_PASS_TIMEOUT_MS
from repro.errors import ReproError
from repro.testbed import build_cluster, build_core_cluster


def test_forwarded_single_write_does_not_move_token():
    """Optimization 2: the update travels; the token stays put."""
    cluster = build_core_cluster(3)
    s0, s1 = cluster.servers[0], cluster.servers[1]

    async def main():
        sid = await s0.create(params=FileParams(min_replicas=2), data=b"")
        await s1.write(sid, WriteOp(kind="append", data=b"fwd"),
                       single_update_hint=True)
        located = await s1.locate_replicas(sid)
        data = (await s0.read(sid)).data
        return located, data

    located, data = cluster.run(main())
    assert located["token_holder"] == "s0"   # token never moved
    assert data == b"fwd"
    assert cluster.metrics.get("deceit.forwarded_writes") == 1
    assert cluster.metrics.get("deceit.token_passes") == 0


def test_forwarded_write_falls_back_when_holder_dead():
    cluster = build_core_cluster(3)
    s0, s1 = cluster.servers[0], cluster.servers[1]

    async def main():
        sid = await s0.create(
            params=FileParams(min_replicas=2, write_availability="high"
                              if False else FileParams().write_availability),
            data=b"x")
        await s0.setparam(sid, write_availability="high")
        cluster.crash(0)
        await cluster.kernel.sleep(800.0)
        # hint set, but holder unreachable: falls back and still succeeds
        await s1.write(sid, WriteOp(kind="append", data=b"!"),
                       single_update_hint=True)
        return (await s1.read(sid)).data

    assert cluster.run(main()) == b"x!"


def test_forwarded_write_version_advances_for_caller():
    cluster = build_core_cluster(2)
    s0, s1 = cluster.servers[0], cluster.servers[1]

    async def main():
        sid = await s0.create(params=FileParams(min_replicas=2), data=b"")
        v1 = await s1.write(sid, WriteOp(kind="append", data=b"a"),
                            single_update_hint=True)
        v2 = await s1.write(sid, WriteOp(kind="append", data=b"b"),
                            single_update_hint=True)
        return v1, v2

    v1, v2 = cluster.run(main())
    assert v2.sub == v1.sub + 1


def test_a_stream_from_a_non_holder_moves_the_token_once():
    """A stream of updates from a server without the token: the first
    takes the token, the rest are local updates at the new holder."""
    cluster = build_core_cluster(3)
    s0, s1 = cluster.servers[0], cluster.servers[1]

    async def main():
        sid = await s0.create(
            params=FileParams(min_replicas=3, stability_notification=False),
            data=b"")
        for ch in (b"a", b"b", b"c"):
            await s1.write(sid, WriteOp(kind="append", data=ch))
        return (await s0.read(sid)).data

    assert cluster.run(main()) == b"abc"
    # exactly one token movement for the whole stream
    assert cluster.metrics.get("deceit.token_passes") == 1


# --------------------------------------------------------------------- #
# whole-file rewrites: forwarded, and the stream rule
# --------------------------------------------------------------------- #

def _replicated_file():
    """Three servers, three agents with caches off; the first agent (on
    s0, the token holder) made ``/f``, the others mount s1 and s2.  The
    access shortcut is off too, so every rewrite enters at its writer's
    mount server: the rule under test is the server's (with it on, the
    agent sends a rewrite to the token holder in the first place, see
    ``tests/test_agent.py``)."""
    cluster = build_cluster(3, 3, seed=3, scatter_agents=True,
                            agent_config=AgentConfig(cache=False,
                                                     shortcut=False))
    first = cluster.agents[0]

    async def setup():
        for agent in cluster.agents:
            await agent.mount()
        await first.create("/", "f")
        await first.set_params("/f", min_replicas=3, write_safety=2)
        await first.write_file("/f", b"init")

    cluster.run(setup())
    return cluster


def _counts(cluster) -> tuple[int, int]:
    m = cluster.metrics
    return m.get("deceit.forwarded_writes"), m.get("deceit.token_passes")


def test_alternating_rewriters_forward_and_never_move_the_token():
    """Two non-holders taking turns: each rewrite is a single update, so
    each goes to the holder (taking the token instead passes it on every
    rewrite)."""
    cluster = _replicated_file()
    reader, left, right = cluster.agents
    before = _counts(cluster)

    async def main():
        acked = []
        for i in range(20):
            image = f"rewrite {i}".encode()
            await (left, right)[i % 2].write_file("/f", image)
            acked.append(image)
        return acked, await reader.read_file("/f")

    acked, final = cluster.run(main())
    forwarded, passes = (a - b for a, b in zip(_counts(cluster), before))
    assert len(acked) == 20
    assert final == acked[-1]
    assert forwarded == 20
    assert passes == 0


def test_a_stream_forwards_once_then_takes_the_token():
    """One non-holder rewriting again and again: its first rewrite is
    forwarded, its second finds nobody wrote since and takes the token,
    the rest are local updates."""
    cluster = _replicated_file()
    writer = cluster.agents[1]
    before = _counts(cluster)
    seen = []

    async def main():
        for i in range(10):
            await writer.write_file("/f", f"stream {i}".encode())
            seen.append(tuple(a - b for a, b in zip(_counts(cluster), before)))

    cluster.run(main())
    assert seen[0] == (1, 0)              # forwarded, the token stays put
    assert seen[1] == (1, 1)              # the stream takes the token
    assert set(seen[2:]) == {(1, 1)}      # then local updates only


def test_contended_cell_mints_no_token():
    """Eight closed-loop writers on two replicated files of a fault-free
    four-server cell: no token request may end in a new major (treating
    every late pass as a lost holder minted three here, each a version
    branch with no fault)."""
    cluster = build_cluster(4, 8, seed=1, scatter_agents=True,
                            agent_config=AgentConfig(cache=False))
    kernel = cluster.kernel
    paths = ("/f0", "/f1")
    failed, acked = [], []

    async def writer(agent, path, until):
        n = 0
        while kernel.now < until:
            try:
                await agent.write_file(path, f"{agent} {n}".encode() * 8)
                acked.append(path)
            except ReproError as exc:
                failed.append(exc)
            n += 1

    async def main():
        for agent in cluster.agents:
            await agent.mount()
        first = cluster.agents[0]
        for path in paths:
            await first.create("/", path[1:])
            await first.set_params(path, min_replicas=3, write_safety=2)
        until = kernel.now + 2_000.0
        tasks = [kernel.spawn(writer(agent, paths[i % len(paths)], until))
                 for i, agent in enumerate(cluster.agents)]
        for task in tasks:
            await task

    cluster.run(main())
    assert failed == []
    assert len(acked) > 100
    assert cluster.metrics.get("deceit.tokens_generated") == 0


# --------------------------------------------------------------------- #
# a busy holder is not a lost one
# --------------------------------------------------------------------- #

def test_busy_holder_is_asked_again_not_replaced():
    """24 appends queued at the holder keep its update lock past
    TOKEN_PASS_TIMEOUT_MS; a request from s1 behind them must wait for the
    pass, not mint a second major with no fault."""
    cluster = build_core_cluster(3, seed=1)
    s0, s1 = cluster.servers[0], cluster.servers[1]
    kernel = cluster.kernel

    async def main():
        sid = await s0.create(params=FileParams(min_replicas=3,
                                                write_safety=2), data=b"")
        queued = [kernel.spawn(s0.write(sid, WriteOp(kind="append",
                                                     data=b"a")))
                  for _ in range(24)]
        await kernel.sleep(1.0)
        t0 = kernel.now
        version = await s1.write(sid, WriteOp(kind="append", data=b"b"))
        waited = kernel.now - t0
        for task in queued:
            await task
        return sid, version, waited, await s1.list_versions(sid)

    sid, version, waited, majors = cluster.run(main())
    assert waited > TOKEN_PASS_TIMEOUT_MS       # the busy case was reached
    assert cluster.metrics.get("deceit.tokens_generated") == 0
    assert list(majors) == [version.major]      # one major, no branch
    assert version.sub == 25                    # after all 24 queued appends
    assert cluster.metrics.get("deceit.token_rerequests") >= 1


def test_a_re_requested_token_applies_each_acked_update_once():
    """A token request that reaches a busy holder is broadcast again, and
    the holder answers both copies; each acked update still lands once.
    24 appends keep s0's update lock past TOKEN_PASS_TIMEOUT_MS, s1's
    ``R`` asks for the token behind them, and s0's own later ``L`` takes
    it back: every replica reads each acked append exactly once, in
    order."""
    cluster = build_core_cluster(3, seed=1)
    s0, s1 = cluster.servers[0], cluster.servers[1]
    kernel = cluster.kernel

    async def main():
        sid = await s0.create(
            params=FileParams(min_replicas=3, write_safety=2,
                              stability_notification=False), data=b"")
        tasks = [kernel.spawn(s0.write(sid, WriteOp(kind="append",
                                                    data=b"a")))
                 for _ in range(24)]
        await kernel.sleep(1.0)
        tasks.append(kernel.spawn(s1.write(sid, WriteOp(kind="append",
                                                        data=b"R"))))
        await kernel.sleep(20.0)
        tasks.append(kernel.spawn(s0.write(sid, WriteOp(kind="append",
                                                        data=b"L"))))
        for task in tasks:
            await task
        await kernel.sleep(3_000.0)
        return [srv.replicas[key].data for srv in cluster.servers
                for key in srv.replicas if key[0] == sid]

    images = cluster.run(main())
    assert len(images) == 3
    assert set(images) == {b"a" * 24 + b"RL"}
    assert cluster.metrics.get("deceit.token_rerequests") >= 1
