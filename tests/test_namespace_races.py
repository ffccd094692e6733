"""Namespace race tests: the four lost/leaked-file bugs a read-then-rewrite
directory transaction has, each proven closed on the dirop path.

The interleavings are forced deterministically: the victim operation's
directory mutation is gated on a future, the racing operation runs to
completion inside the window, then the gate opens.
"""

import pytest

from repro.errors import NfsError, NfsStat, NoSuchSegment
from repro.nfs import FileHandle
from repro.testbed import build_cluster


def gate_first_dir_write(env, gate, match=None):
    """Pause the next matching ``_dir_write`` on ``gate``.

    ``match(dirops)`` selects which call to gate; the original method is
    restored at the gated call, so retries and other mutations proceed.
    """
    orig = env._dir_write

    async def gated(fh, dirops, extra_meta=None):
        if match is None or match(dirops):
            env._dir_write = orig
            await gate
        return await orig(fh, dirops, extra_meta)

    env._dir_write = gated


def segment_gone(cluster, sid: str) -> bool:
    return all(s.segments.store.disk_majors(sid) == [] for s in cluster.servers)


# --------------------------------------------------------------------- #
# bug 1 — rename over an existing file must not leak the overwritten
# target (nlink decrement + GC)
# --------------------------------------------------------------------- #


def test_rename_over_file_collects_overwritten_target():
    cluster = build_cluster(3, n_agents=1, seed=5)
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        old = await agent.create("/", "a")
        await agent.write_file("/a", b"old contents")
        await agent.create("/", "b")
        await agent.write_file("/b", b"new contents")
        await agent.rename("/", "b", "/", "a")
        agent._handle_cache.clear()
        agent._dir_cache.clear()
        data = await agent.read_file("/a")
        with pytest.raises(NfsError):
            await agent.getattr("/b")
        return old, data

    old, data = cluster.run(main())
    assert data == b"new contents"
    # the overwritten target's storage was garbage collected, not leaked
    assert cluster.metrics.get("nfs.gc_collected") == 1
    assert segment_gone(cluster, old.sid)
    cluster.close()


def test_rename_onto_hard_link_of_same_file_is_noop():
    """POSIX: when old and new name the same file, rename does nothing —
    dropping the old name would shed a directory reference without its
    link decrement (a slow leak)."""
    cluster = build_cluster(3, n_agents=1, seed=7)
    agent = cluster.agents[0]

    async def main():
        await agent.mount()
        await agent.create("/", "a")
        await agent.write_file("/a", b"shared")
        await agent.link("/a", "/", "b")
        await agent.rename("/", "a", "/", "b")
        agent._handle_cache.clear()
        agent._dir_cache.clear()
        names = [e["name"] for e in await agent.readdir("/")]
        return names, await agent.read_file("/a"), await agent.read_file("/b")

    names, a_data, b_data = cluster.run(main())
    assert "a" in names and "b" in names       # both links survive
    assert a_data == b_data == b"shared"
    cluster.close()


def test_a_dirop_replay_is_recognized_by_its_id():
    """The duplicate rule on the namespace path: a dirop is applied once
    per id.  The same dirop under another id is a competing client's work
    and CONFLICTS (two concurrent removes: one success, one ENOENT — never
    two successes); under the same id it is a copy of the applied one,
    answered with the version pair that one produced, with no version
    bump."""
    from repro.core import WriteOp
    from repro.core.dirtable import encode_dir
    from repro.errors import DirOpConflict
    from repro.nfs.attrs import FileAttrs, FileType
    from repro.testbed import build_core_cluster

    cluster = build_core_cluster(3, seed=3)
    s0 = cluster.servers[0]
    m = cluster.metrics

    async def main():
        meta = FileAttrs(ftype=FileType.DIRECTORY).to_meta()
        data = encode_dir({})
        meta["length"] = len(data)
        sid = await s0.create(data=data, meta=meta)
        dirops = [{"action": "add", "name": "f",
                   "entry": {"h": "sX.1", "t": "reg"}}]
        v1 = await s0.write(sid, WriteOp(kind="dirop", dirops=dirops,
                                         uid=["s1.0.0", 1, 1]))
        with pytest.raises(DirOpConflict):
            await s0.write(sid, WriteOp(kind="dirop", dirops=dirops,
                                        uid=["s2.0.0", 1, 1]))
        again = await s0.write(sid, WriteOp(kind="dirop", dirops=dirops,
                                            uid=["s1.0.0", 1, 1]))
        return v1, again, await s0.get_version(sid)

    v1, again, v_after = cluster.run(main())
    assert again == v1
    assert v_after == v1                     # no second version bump
    assert m.get("deceit.duplicate_updates") == 1
    assert m.get("deceit.dirop_rejects") == 1
    cluster.close()


def test_a_forwarded_dirop_and_its_fallback_apply_once():
    """§3.3 optimization 2 under a slow holder: ``s1``'s forward of a
    dirop queues behind the holder's update lock past its reply bound and
    applies there, and the forward is sent again under the same minted
    id.  The second copy is answered with the first's version pair: one
    update, one entry, and the create that sent it succeeds."""
    cluster = build_cluster(3, n_agents=1, seed=5)
    agent = cluster.agents[0]
    s0, s1 = cluster.servers[0], cluster.servers[1]
    kernel = cluster.kernel

    async def stall(lock, ms):
        await lock.acquire()
        await kernel.sleep(ms)
        lock.release()

    async def main():
        await agent.mount()
        await agent.mkdir("/", "d")
        d = await agent.lookup_path("/d")
        assert [key[0] for key in s0.segments.store.tokens].count(d.sid) == 1
        kernel.spawn(stall(s0.segments._update_lock(d.sid), 600.0))
        await kernel.sleep(1.0)
        snap = cluster.metrics.snapshot()
        dirv = (await s1.envelope.create(d, "f"))["dir_version"]
        delta = cluster.metrics.delta(snap)
        listing = await s1.envelope.readdir(d)
        entries, version = listing["entries"], listing["version"]
        return dirv, version, [e["name"] for e in entries], delta

    dirv, version, names, delta = cluster.run(main())
    assert names == ["f"]
    assert dirv == version                   # the forward's own version
    assert delta.get("deceit.forwarded_writes") == 1
    assert delta.get("deceit.duplicate_updates") == 1
    assert delta.get("deceit.dirops") == 1
    cluster.close()


# --------------------------------------------------------------------- #
# bug 2 — remove racing a rename-over must not unlink the new file while
# decrementing the old target's nlink
# --------------------------------------------------------------------- #


def _remove_vs_rename_setup(cluster):
    agent = cluster.agents[0]

    async def setup():
        await agent.mount()
        victim = await agent.create("/", "victim")
        other = await agent.create("/", "other")
        return victim, other

    return agent, cluster.run(setup())


def test_remove_vs_rename_over_race_is_serialized():
    """dirops: the remove's expected-handle guard rejects the swapped
    entry; the retry retargets the file actually named now.  Both
    segments end up collected — nothing is leaked, nothing misdirected."""
    cluster = build_cluster(3, n_agents=1, seed=11)
    agent, (victim, other) = _remove_vs_rename_setup(cluster)
    env = cluster.servers[0].envelope
    kernel = cluster.kernel

    async def race():
        gate = kernel.create_future()
        gate_first_dir_write(
            env, gate,
            match=lambda dops: dops[0]["action"] == "remove"
            and dops[0]["name"] == "victim")
        root = env.root_fh
        task = kernel.spawn(env.remove(root, "victim"))
        await kernel.sleep(100.0)       # remove read its target, is gated
        await env.rename(root, "other", root, "victim")
        gate.set_result(None)
        await task
        entries = (await env.readdir(root))["entries"]
        return [e["name"] for e in entries]

    names = cluster.run(race())
    assert "victim" not in names and "other" not in names
    # rename-over collected the original victim; the retried remove
    # collected the file that actually held the name — no leaks
    assert cluster.metrics.get("nfs.gc_collected") == 2
    assert segment_gone(cluster, victim.sid)
    assert segment_gone(cluster, other.sid)
    cluster.close()


# --------------------------------------------------------------------- #
# bug 3 — rmdir racing a create inside the victim must never delete a
# non-empty directory / orphan the new child
# --------------------------------------------------------------------- #


def test_rmdir_vs_create_race_create_wins():
    """dirops: a create landing before the seal makes rmdir answer
    NOTEMPTY; the child stays reachable."""
    cluster = build_cluster(3, n_agents=1, seed=19)
    agent = cluster.agents[0]
    env = cluster.servers[0].envelope
    kernel = cluster.kernel

    async def race():
        await agent.mount()
        d = await agent.mkdir("/", "d")
        gate = kernel.create_future()
        gate_first_dir_write(env, gate,
                             match=lambda dops: dops[0]["action"] == "seal")
        root = env.root_fh
        task = kernel.spawn(env.rmdir(root, "d"))
        await kernel.sleep(100.0)       # rmdir is about to seal the victim
        child = FileHandle.decode((await env.create(
            FileHandle(sid=d.sid), "child", None))["fh"])
        gate.set_result(None)
        with pytest.raises(NfsError) as excinfo:
            await task
        return excinfo.value.status, child

    status, child = cluster.run(race())
    assert status == NfsStat.ERR_NOTEMPTY
    assert not segment_gone(cluster, child.sid)

    async def check():
        agent._handle_cache.clear()
        agent._dir_cache.clear()
        return await agent.readdir("/d")

    names = [e["name"] for e in cluster.run(check())]
    assert names == ["child"]
    cluster.close()


def test_rmdir_vs_create_race_rmdir_wins():
    """dirops: once the victim is sealed, the racing create fails cleanly
    and rolls its orphan segment back — no child in a deleted directory."""
    cluster = build_cluster(3, n_agents=1, seed=19)
    agent = cluster.agents[0]
    env = cluster.servers[0].envelope
    kernel = cluster.kernel

    async def race():
        await agent.mount()
        d = await agent.mkdir("/", "d")
        gate = kernel.create_future()
        gate_first_dir_write(
            env, gate,
            match=lambda dops: dops[0]["action"] == "add"
            and dops[0]["name"] == "child")
        dirfh = FileHandle(sid=d.sid)
        create_task = kernel.spawn(env.create(dirfh, "child", None))
        await kernel.sleep(100.0)       # create built its segment, is gated
        await env.rmdir(env.root_fh, "d")
        gate.set_result(None)
        with pytest.raises(NoSuchSegment):
            await create_task
        return d

    d = cluster.run(race())
    cluster.settle(200.0)
    # the victim directory is gone and the orphan child was rolled back:
    # nothing survives on any server beyond the reachable namespace
    assert segment_gone(cluster, d.sid)

    async def reachable():
        entries = (await env.readdir(env.root_fh))["entries"]
        return {cluster.root.sid} | {
            FileHandle.decode(e["fh"]).sid for e in entries}

    allowed = cluster.run(reachable())
    leftovers = {
        sid for server in cluster.servers
        for (sid, _major) in server.segments.store.replicas
    } - allowed
    assert leftovers == set()
    cluster.close()


# --------------------------------------------------------------------- #
# the two rollback paths ordinary traffic never reaches: a seal retreats
# when the victim was renamed away, an install retreats when the moved
# file died under it
# --------------------------------------------------------------------- #


def count_calls(env, name):
    """Wrap coroutine method ``env.<name>``; returns the live call list."""
    calls, orig = [], getattr(env, name)

    async def counted(*args):
        calls.append(args)
        return await orig(*args)

    setattr(env, name, counted)
    return calls


def test_rmdir_unseals_a_victim_renamed_away_under_it():
    cluster = build_cluster(3, n_agents=1, seed=23)
    agent = cluster.agents[0]
    env = cluster.servers[0].envelope
    kernel = cluster.kernel
    unseals = count_calls(env, "_unseal_quietly")

    async def race():
        await agent.mount()
        d = await agent.mkdir("/", "d")
        gate = kernel.create_future()
        gate_first_dir_write(
            env, gate,
            match=lambda dops: dops[0]["action"] == "remove"
            and dops[0]["name"] == "d")
        root = env.root_fh
        task = kernel.spawn(env.rmdir(root, "d"))
        await kernel.sleep(100.0)   # victim sealed; the parent remove waits
        await env.rename(root, "d", root, "e")
        gate.set_result(None)
        with pytest.raises(NfsError) as excinfo:
            await task
        # a directory left sealed would refuse this create
        await env.create(FileHandle(sid=d.sid), "child", None)
        return excinfo.value.status

    assert cluster.run(race()) == NfsStat.ERR_NOENT
    assert len(unseals) == 1

    async def check():
        return [e["name"] for e in await agent.readdir("/e")]

    assert cluster.run(check()) == ["child"]
    cluster.close()


@pytest.mark.parametrize("displaces", [False, True])
def test_rename_undoes_its_install_when_the_source_died(displaces):
    cluster = build_cluster(3, n_agents=2, seed=29)
    agent, other = cluster.agents
    env = cluster.servers[0].envelope
    kernel = cluster.kernel
    undos = count_calls(env, "_undo_install")

    async def race():
        await agent.mount()
        await other.mount()
        await agent.create("/", "a")
        if displaces:
            await agent.create("/", "b")
            await agent.write_file("/b", b"displaced, then restored")
        gate = kernel.create_future()
        gate_first_dir_write(
            env, gate, match=lambda dops: dops[0]["action"] == "replace")
        root = env.root_fh
        task = kernel.spawn(env.rename(root, "a", root, "b"))
        await kernel.sleep(100.0)   # rename read both names; install waits
        await other.remove("/", "a")        # last link: segment collected
        gate.set_result(None)
        with pytest.raises(NfsError) as excinfo:
            await task
        entries = (await env.readdir(root))["entries"]
        names = [e["name"] for e in entries]
        kept = await other.read_file("/b") if displaces else None
        return excinfo.value.status, names, kept

    status, names, kept = cluster.run(race())
    assert status == NfsStat.ERR_NOENT
    assert len(undos) == 1
    assert "a" not in names
    # toname holds what it held before: nothing, or the displaced entry
    assert ("b" in names) == displaces
    if displaces:
        assert kept == b"displaced, then restored"
    assert cluster.metrics.get("nfs.gc_collected") == 1     # only "a"
    cluster.close()


# --------------------------------------------------------------------- #
# bug 4 — listing a foreign directory must return handles that resolve
# from the client's own cell
# --------------------------------------------------------------------- #


def test_foreign_readdir_entries_carry_foreign_handles():
    from repro.testbed import build_cells

    cells = build_cells({"ithaca": 2, "boston": 2}, n_agents_per_cell=1)
    ithaca, boston = cells["ithaca"], cells["boston"]
    kernel = ithaca.kernel

    async def main():
        remote = boston.agents[0]
        await remote.mount()
        await remote.create("/", "paper.txt")
        await remote.write_file("/paper.txt", b"deceit usenix 1990")

        local = ithaca.agents[0]
        await local.mount()
        entries = await local.readdir("/priv/global/boston.s0")
        entry = next(e for e in entries if e["name"] == "paper.txt")
        fh = FileHandle.decode(entry["fh"])
        # the listed handle must already be stamped foreign — usable
        # directly from this cell without re-walking the path
        attrs = await local.getattr(fh)
        data = await local.read_file(fh)
        return fh, attrs, data

    fh, attrs, data = kernel.run_until_complete(main(), limit=600_000.0)
    assert fh.foreign and fh.home == "boston.s0"
    assert data == b"deceit usenix 1990"
    assert attrs.size == len(data)
    ithaca.close()


# --------------------------------------------------------------------- #
# the hot-directory claim: commuting dirops retire the retry storm
# --------------------------------------------------------------------- #

N_HOT = 8


def _concurrent_creates(cluster):
    kernel = cluster.kernel
    agents = cluster.agents

    async def main():
        for a in agents:
            await a.mount()
        await agents[0].mkdir("/", "shared")
        for a in agents:
            await a.lookup_path("/shared")      # warm the handle caches
        tasks = [
            kernel.spawn(agents[i % len(agents)].create("/shared", f"f{i}"))
            for i in range(N_HOT)
        ]
        for task in tasks:
            await task
        cluster.agents[0]._dir_cache.clear()
        return [e["name"] for e in await agents[0].readdir("/shared")]

    return cluster.run(main())


def test_hot_directory_commuting_creates_no_retries():
    cluster = build_cluster(3, n_agents=4, seed=23)
    names = _concurrent_creates(cluster)
    assert names == sorted(f"f{i}" for i in range(N_HOT))
    # commuting dirops: zero name conflicts
    assert cluster.metrics.get("nfs.dirop_conflicts") == 0
    assert cluster.metrics.get("deceit.dirops") >= N_HOT
    cluster.close()


# --------------------------------------------------------------------- #
# agent-side: version-validated readdir cache + negative-lookup cache
# --------------------------------------------------------------------- #


def test_agent_readdir_cache_serves_and_revalidates():
    cluster = build_cluster(3, n_agents=1, seed=31)
    agent = cluster.agents[0]
    m = cluster.metrics

    async def main():
        await agent.mount()
        await agent.create("/", "x")
        first = await agent.readdir("/")
        snap = m.snapshot()
        second = await agent.readdir("/")           # fresh: local hit
        hit_delta = m.delta(snap)
        await cluster.kernel.sleep(agent.config.attr_ttl_ms + 1)
        snap = m.snapshot()
        third = await agent.readdir("/")            # stale: revalidates
        reval_delta = m.delta(snap)
        return first, second, third, hit_delta, reval_delta

    first, second, third, hit_delta, reval_delta = cluster.run(main())
    assert [e["name"] for e in first] == ["priv", "x"]
    assert second == first and third == first
    assert hit_delta.get("agent.dir_cache_hits", 0) == 1
    assert hit_delta.get("nfs.ops.readdir", 0) == 0     # no server round
    # after TTL: one readdir round, but answered "unchanged" — version-
    # exact revalidation moved no entry bytes
    assert reval_delta.get("nfs.readdirs_unchanged", 0) == 1
    assert reval_delta.get("agent.dir_cache_revalidations", 0) == 1
    cluster.close()


def test_agent_negative_lookup_cache():
    cluster = build_cluster(3, n_agents=1, seed=31)
    agent = cluster.agents[0]
    m = cluster.metrics

    async def main():
        await agent.mount()
        with pytest.raises(NfsError):
            await agent.getattr("/nope")
        snap = m.snapshot()
        with pytest.raises(NfsError):
            await agent.getattr("/nope")            # answered locally
        miss_delta = m.delta(snap)
        await agent.create("/", "nope")             # clears the negative
        attrs = await agent.getattr("/nope")
        return miss_delta, attrs

    miss_delta, attrs = cluster.run(main())
    assert miss_delta.get("agent.neg_lookup_hits", 0) == 1
    assert miss_delta.get("nfs.ops.lookup", 0) == 0
    assert attrs.size == 0
    cluster.close()


def test_agent_dirop_results_patch_cached_listing():
    """This agent's own mutations keep the cached listing coherent via the
    dir_version pairs riding the replies — no refetch, no staleness."""
    cluster = build_cluster(3, n_agents=1, seed=31)
    agent = cluster.agents[0]
    m = cluster.metrics

    async def main():
        await agent.mount()
        await agent.readdir("/")                    # prime the cache
        await agent.create("/", "new")
        snap = m.snapshot()
        listing = await agent.readdir("/")          # patched, still local
        delta = m.delta(snap)
        await agent.remove("/", "new")
        snap = m.snapshot()
        after = await agent.readdir("/")
        delta2 = m.delta(snap)
        return listing, after, delta, delta2

    listing, after, delta, delta2 = cluster.run(main())
    assert "new" in [e["name"] for e in listing]
    assert "new" not in [e["name"] for e in after]
    assert delta.get("nfs.ops.readdir", 0) == 0
    assert delta2.get("nfs.ops.readdir", 0) == 0
    assert cluster.metrics.get("agent.dir_cache_patched") >= 2
    cluster.close()


def test_agent_rename_patches_listing_from_server_reply():
    """The renamed entry the agent caches comes from the server's
    ``moved_entry`` (the authority), not the agent's own listing of the
    source directory — and the patched listing still resolves."""
    cluster = build_cluster(3, n_agents=1, seed=47)
    agent = cluster.agents[0]
    m = cluster.metrics

    async def main():
        await agent.mount()
        await agent.mkdir("/", "dst")
        await agent.create("/", "x")
        await agent.write_file("/x", b"payload")
        await agent.readdir("/dst")                 # prime target listing
        await agent.rename("/", "x", "/dst", "y")
        snap = m.snapshot()
        listing = await agent.readdir("/dst")       # patched, no RPC
        data = await agent.read_file("/dst/y")
        return listing, data, m.delta(snap)

    listing, data, delta = cluster.run(main())
    entry = next(e for e in listing if e["name"] == "y")
    assert entry["type"] == "reg"
    assert data == b"payload"
    assert delta.get("nfs.ops.readdir", 0) == 0
    cluster.close()
