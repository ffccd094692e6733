"""Unit tests for the pipeline services — no IsisProcess anywhere.

The acceptance bar for the decomposition: CatalogService, ReplicaStore,
and UpdatePipeline (plus the VersionedReadCache) must each be exercisable
with a kernel, a disk, and small stubs standing in for the ISIS transport
and the protocol mixins.
"""

import pytest

from repro.core.params import DEFAULT_PARAMS, FileParams
from repro.core.pipeline import (
    CatalogService,
    ReplicaStore,
    UpdateHooks,
    UpdatePipeline,
    VersionedReadCache,
    group_of,
)
from repro.core.segment import MajorInfo, Replica, SegmentCatalog, Token, WriteOp
from repro.core.versions import HistoryIndex, MajorAllocator, VersionPair
from repro.errors import GroupNotFound, NoSuchSegment
from repro.metrics import Metrics
from repro.sim import Kernel
from repro.sim.sync import Lock
from repro.storage import Disk

from tests.conftest import run


# --------------------------------------------------------------------- #
# stubs standing in for the IsisProcess facade
# --------------------------------------------------------------------- #

class StubMembership:
    """Just enough of the membership port for CatalogService."""

    def __init__(self, addr: str = "s0", known_groups: set | None = None):
        self.addr = addr
        self.known = known_groups or set()
        self.joined: list[str] = []

    def is_member(self, group: str) -> bool:
        return group in self.known

    async def join_group(self, group: str, contact: str | None = None):
        if group not in self.known:
            raise GroupNotFound(group)
        self.joined.append(group)

    def create_group(self, group: str):
        self.known.add(group)


class StubTransport(StubMembership):
    """Adds the broadcast/call surface the UpdatePipeline uses."""

    def __init__(self, kernel: Kernel, addr: str = "s0"):
        super().__init__(addr)
        self.kernel = kernel
        self.casts: list[dict] = []
        self.audits: list = []

    def members(self, group: str) -> tuple[str, ...]:
        return (self.addr,)

    async def cbcast(self, group, payload, nreplies=0, timeout=None,
                     size_bytes=0, tag="", on_audit=None, count_reply=None):
        self.casts.append(payload)
        if on_audit is not None:
            self.audits.append(on_audit)
        return []

    async def call(self, *a, **kw):  # pragma: no cover - not used here
        raise AssertionError("unit tests must not RPC")

    def spawn(self, coro, name=""):
        return self.kernel.spawn(coro, name=name)

    def reachable(self, a: str, b: str) -> bool:
        return True


def make_store(kernel: Kernel) -> ReplicaStore:
    return ReplicaStore(kernel, Disk(kernel))  # shares the disk's Metrics


def make_replica(sid: str = "s0.1", major: int = 1001,
                 data: bytes = b"payload") -> Replica:
    return Replica(sid=sid, major=major, data=data, meta={},
                   version=VersionPair(major, 0), params=DEFAULT_PARAMS,
                   branches=HistoryIndex())


# --------------------------------------------------------------------- #
# VersionedReadCache
# --------------------------------------------------------------------- #

def test_read_cache_version_exact():
    cache = VersionedReadCache(Metrics())
    v0, v1 = VersionPair(7, 0), VersionPair(7, 1)
    assert not cache.probe("sid", 7, v0)
    cache.warm("sid", 7, v0)
    assert cache.probe("sid", 7, v0)
    assert not cache.probe("sid", 7, v1)     # exact version only
    cache.warm("sid", 7, v1)                 # supersedes v0
    assert cache.probe("sid", 7, v1)
    assert not cache.probe("sid", 7, v0)
    assert cache.invalidate("sid", 7)
    assert not cache.probe("sid", 7, v1)
    assert not cache.invalidate("sid", 7)    # already cold
    assert cache.metrics.get("deceit.read_cache_invalidations") == 1


# --------------------------------------------------------------------- #
# ReplicaStore
# --------------------------------------------------------------------- #

def test_store_create_batch_is_one_commit(kernel):
    store = make_store(kernel)
    replica = make_replica()
    token = Token(sid=replica.sid, major=replica.major,
                  version=replica.version, parent=None, holders=["s0"])
    t0 = kernel.now
    run(kernel, store.persist_new_segment(replica, token, 1))
    assert kernel.now - t0 == pytest.approx(store.disk.write_ms)
    assert store.metrics.get("disk.commits") == 1
    assert store.counter_now() == 1
    assert store.disk_majors(replica.sid) == [replica.major]
    assert store.token_record_now(replica.sid, replica.major) is not None


def test_store_touch_read_charges_only_cold_versions(kernel):
    store = make_store(kernel)
    replica = make_replica()
    store.replicas[(replica.sid, replica.major)] = replica
    run(kernel, store.persist_replica(replica, sync=True))  # warms
    t0 = kernel.now
    run(kernel, store.touch_read(replica))
    assert kernel.now - t0 == 0.0                           # warm: free
    store.cache.clear()                                     # e.g. restart
    t0 = kernel.now
    run(kernel, store.touch_read(replica))
    assert kernel.now - t0 == pytest.approx(store.disk.read_ms)
    t0 = kernel.now
    run(kernel, store.touch_read(replica))                  # re-warmed
    assert kernel.now - t0 == 0.0


def test_store_destroy_invalidates_and_deletes(kernel):
    store = make_store(kernel)
    replica = make_replica()
    store.replicas[(replica.sid, replica.major)] = replica
    run(kernel, store.persist_replica(replica, sync=True))
    run(kernel, store.destroy_replica(replica.sid, replica.major))
    assert (replica.sid, replica.major) not in store.replicas
    assert store.replica_record_now(replica.sid, replica.major) is None
    assert not store.cache.probe(replica.sid, replica.major, replica.version)


# --------------------------------------------------------------------- #
# CatalogService
# --------------------------------------------------------------------- #

def make_catalog(kernel, membership=None, store=None):
    store = store or make_store(kernel)
    membership = membership or StubMembership()
    return CatalogService(membership, store, MajorAllocator(0),
                          kernel, Metrics()), membership, store


def test_catalog_unknown_segment_raises(kernel):
    catalog, _membership, _store = make_catalog(kernel)
    with pytest.raises(NoSuchSegment):
        run(kernel, catalog.ensure_group("nowhere.1"))


def test_catalog_resurrects_from_disk_records(kernel):
    store = make_store(kernel)
    replica = make_replica()
    token = Token(sid=replica.sid, major=replica.major,
                  version=replica.version, parent=None, holders=["s0"])
    run(kernel, store.persist_new_segment(replica, token, 1))
    store.volatile_reset()   # the crash: memory gone, records remain

    catalog, membership, _ = make_catalog(kernel, store=store)
    cat = run(kernel, catalog.ensure_group(replica.sid))
    assert membership.is_member(group_of(replica.sid))   # group re-founded
    assert cat.majors[replica.major].holder == "s0"      # token reclaimed
    assert store.replicas[(replica.sid, replica.major)].data == b"payload"
    assert store.tokens[(replica.sid, replica.major)].version == replica.version
    assert catalog.metrics.get("deceit.groups_resurrected") == 1


def test_catalog_pick_major(kernel):
    catalog, _m, _s = make_catalog(kernel)
    cat = SegmentCatalog(
        sid="x", params=DEFAULT_PARAMS, branches=HistoryIndex(),
        majors={5: MajorInfo(major=5, version=VersionPair(5, 3),
                             holder=None, holders=set())})
    assert catalog.pick_major(cat, None) == 5
    assert catalog.pick_major(cat, 5) == 5
    with pytest.raises(NoSuchSegment):
        catalog.pick_major(cat, 9)


# --------------------------------------------------------------------- #
# UpdatePipeline
# --------------------------------------------------------------------- #

def make_pipeline(kernel):
    store = make_store(kernel)
    transport = StubTransport(kernel)
    catalog = CatalogService(transport, store, MajorAllocator(0),
                             kernel, store.metrics)
    lock = Lock(kernel)
    hooks = UpdateHooks(
        ensure_token=None,  # filled below (needs the store)
        schedule_stable=lambda sid, major: None,
        pick_lru_victims=lambda sid, major: [],
        update_lock=lambda sid: lock,
        destroy_local_replica=_async_noop,
        repair_replica=lambda sid, major: _async_noop(sid, major),
        replenish=lambda sid, major: _async_noop(sid, major),
        maybe_disable_token=lambda sid, major, replies: None,
    )

    async def ensure_token(sid, major):
        return major

    hooks.ensure_token = ensure_token
    pipeline = UpdatePipeline(transport, catalog, store, hooks, store.metrics)
    return pipeline, transport, catalog, store


async def _async_noop(*_a, **_kw):
    return None


def seed_segment(catalog, store, sid="s0.1", major=1001):
    replica = make_replica(sid, major)
    params = FileParams(min_replicas=1, write_safety=1,
                        stability_notification=False)
    replica.params = params
    store.replicas[(sid, major)] = replica
    store.tokens[(sid, major)] = Token(sid=sid, major=major,
                                       version=replica.version, parent=None,
                                       holders=["s0"])
    catalog.install(SegmentCatalog(
        sid=sid, params=params, branches=HistoryIndex(),
        majors={major: MajorInfo(major=major, version=replica.version,
                                 holder="s0", holders={"s0"})}))
    catalog.membership.known.add(group_of(sid))
    return replica


def test_pipeline_write_broadcasts_and_advances_version(kernel):
    pipeline, transport, catalog, store = make_pipeline(kernel)
    replica = seed_segment(catalog, store)
    new_version = run(kernel, pipeline.write(
        replica.sid, WriteOp(kind="append", data=b"!")))
    assert new_version == VersionPair(replica.major, 1)
    update = next(p for p in transport.casts if p["op"] == "update")
    assert update["version"] == (replica.major, 1)
    assert store.tokens[(replica.sid, replica.major)].version == new_version
    assert catalog.get(replica.sid).majors[replica.major].version == new_version


def test_pipeline_guard_conflict(kernel):
    from repro.errors import VersionConflict
    pipeline, _t, catalog, store = make_pipeline(kernel)
    replica = seed_segment(catalog, store)
    stale = VersionPair(replica.major, 99)
    with pytest.raises(VersionConflict):
        run(kernel, pipeline.write(replica.sid, WriteOp(kind="append", data=b"!"),
                                   guard=stale))


def test_pipeline_deliver_update_applies_and_rewarms(kernel):
    pipeline, _t, catalog, store = make_pipeline(kernel)
    replica = seed_segment(catalog, store)
    payload = {
        "op": "update", "sid": replica.sid, "major": replica.major,
        "wop": WriteOp(kind="append", data=b"+x").to_dict(),
        "version": VersionPair(replica.major, 1).to_tuple(), "drop": [],
    }
    reply = run(kernel, pipeline.deliver_update(replica.sid, payload))
    assert reply["ok"] and reply["have_replica"]
    assert replica.data == b"payload+x"
    # the cache entry moved to the new version: version-exact invalidation
    assert store.cache.probe(replica.sid, replica.major,
                             VersionPair(replica.major, 1))
    assert not store.cache.probe(replica.sid, replica.major,
                                 VersionPair(replica.major, 0))


@pytest.mark.parametrize("sub", [1, 5])
def test_marked_update_persists_the_mark_before_replying(kernel, sub):
    """A burst head (§3.4) marks the replica unstable and records the mark
    in one synchronous commit before the reply leaves — with the op when
    the update applies (sub 1), alone when this copy missed updates (sub 5):
    recovery uses the durable mark to find possibly-inconsistent replicas."""
    pipeline, _t, catalog, store = make_pipeline(kernel)
    replica = seed_segment(catalog, store)
    replica.params = FileParams(min_replicas=1, write_safety=0)
    run(kernel, store.persist_replica(replica, sync=True))
    commits = store.metrics.get("disk.commits")
    payload = {
        "op": "update", "sid": replica.sid, "major": replica.major,
        "wop": WriteOp(kind="append", data=b"+x").to_dict(),
        "version": VersionPair(replica.major, sub).to_tuple(), "drop": [],
        "mark": True,
    }
    reply = run(kernel, pipeline.deliver_update(replica.sid, payload))
    assert reply.get("durable") if sub == 1 else reply.get("gap")
    assert store.metrics.get("disk.commits") == commits + 1
    assert catalog.get(replica.sid).majors[replica.major].unstable
    store.disk.crash()              # only what the reply attested survives
    record = store.replica_record_now(replica.sid, replica.major)
    assert record["stable"] is False
    assert record["data"] == (b"payload+x" if sub == 1 else b"payload")


def test_read_failover_asks_a_holder_learned_mid_failover(kernel):
    """The first holder asked has just dropped its replica; the replica
    the token holder fetched meanwhile becomes known while the failover
    runs, and that holder must be asked too."""
    from repro.core.pipeline import ReadService
    from repro.net.network import RpcRemoteError

    store = make_store(kernel)
    transport = StubTransport(kernel)
    catalog = CatalogService(transport, store, MajorAllocator(0),
                             kernel, store.metrics)
    replica = seed_segment(catalog, store)
    sid, major = replica.sid, replica.major
    del store.replicas[(sid, major)]             # s0 forwards the read
    info = catalog.get(sid).majors[major]
    info.holders = {"s1"}
    asked = []

    async def call(server, method, **kw):
        asked.append(server)
        if server == "s1":
            info.holders.add("s2")               # replica_created lands
            raise RpcRemoteError("NoSuchSegment", f"{sid};{major} not held")
        return {"data": b"from s2", "version": replica.version.to_tuple(),
                "meta": {}, "params": replica.params.to_dict()}

    transport.call = call
    reads = ReadService(transport, catalog, store,
                        stability_recovery=_async_noop,
                        request_migration=_async_noop)
    result = run(kernel, reads.read(sid))
    assert asked == ["s1", "s2"]
    assert (result.data, result.served_by) == (b"from s2", "s2")


def test_pipeline_deliver_update_gap_triggers_repair(kernel):
    pipeline, _t, catalog, store = make_pipeline(kernel)
    replica = seed_segment(catalog, store)
    payload = {
        "op": "update", "sid": replica.sid, "major": replica.major,
        "wop": WriteOp(kind="append", data=b"+x").to_dict(),
        "version": VersionPair(replica.major, 5).to_tuple(), "drop": [],
    }
    reply = run(kernel, pipeline.deliver_update(replica.sid, payload))
    assert reply.get("gap")
    assert store.metrics.get("deceit.update_gaps") == 1
    assert replica.data == b"payload"  # gap is not applied
