"""Placement tests: the method-4 migration barrier.

Covers the ``quiesced()`` barrier over §3.1 method-4 one-shot migrations
(immediate when idle, awaits in-flight pulls, survives a crash
mid-migration).  The agent-side stripe router is covered in
tests/test_striping.py.
"""

from repro.core import FileParams
from repro.testbed import build_core_cluster


# ---------------------------------------------------------------------- #
# quiescence
# ---------------------------------------------------------------------- #

def test_quiesced_is_immediate_when_nothing_is_pending():
    cluster = build_core_cluster(2)  # nothing in flight

    async def main():
        await cluster.servers[0].quiesced()
        return True

    assert cluster.run(main())


def test_quiesced_awaits_one_shot_migrations():
    """Every §3.1 one-shot migration is counted in flight, so
    ``quiesced()`` replaces the fixed sleeps the migration benchmarks used
    to race against."""
    cluster = build_core_cluster(3)
    s0, s1 = cluster.servers[0], cluster.servers[1]

    async def main():
        sid = await s0.create(params=FileParams(file_migration=True),
                              data=b"m" * 2048)
        await s1.read(sid)   # forwarded; spawns the migration
        await s1.quiesced()  # deterministic completion barrier
        return sid

    sid = cluster.run(main())
    assert any(k[0] == sid for k in s1.replicas)


def test_quiesced_survives_crash_mid_migration():
    """A crash while a tracked migration is in flight must neither wedge
    pending quiesced() waiters nor underflow the in-flight counter (the
    cancelled task's ``finally`` runs after the crash already zeroed it)."""
    cluster = build_core_cluster(3)
    s0, s1 = cluster.servers[0], cluster.servers[1]

    async def main():
        sid = await s0.create(params=FileParams(file_migration=True),
                              data=b"q" * 4096)
        await s1.read(sid)  # spawns the tracked one-shot migration
        waiter = cluster.kernel.spawn(s1.quiesced())
        cluster.crash(1)
        await cluster.kernel.sleep(300.0)
        assert waiter.done()                 # resolved, not wedged
        assert s1._migrations_inflight == 0  # no underflow
        await s1.quiesced()                  # fresh waiters resolve too
        return True

    assert cluster.run(main())
