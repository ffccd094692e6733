"""The dynamic half of the atomicity toolchain: YieldSanitizer semantics,
seeded schedule perturbation, and the planted check-then-act fixture that
racelint (tests/test_racelint.py) catches statically and ysan must catch
here under at least one perturbed schedule — with an exact replay from
``(seed, perturb_seed)``.
"""

from __future__ import annotations

import random

from repro.analysis.ysan import TrackedDict, YieldSanitizer
from repro.sim import Kernel


class _FakeTask:
    def __init__(self, name):
        self.name = name


# --------------------------------------------------------------------- #
# TrackedDict unit semantics (driven by hand, no kernel)
# --------------------------------------------------------------------- #

class TestTrackedDict:
    def setup_method(self):
        self.ysan = YieldSanitizer()
        self.table = self.ysan.track("t.tokens", {"k": 0})
        self.a = _FakeTask("A")
        self.b = _FakeTask("B")

    def step(self, task):
        self.ysan.begin_step(task)

    def test_stale_write_across_yield_flagged(self):
        self.step(self.a)
        _ = self.table["k"]          # A reads
        self.step(self.b)
        self.table["k"] = 1          # B writes in between
        self.step(self.a)            # A resumed: a yield happened
        self.table["k"] = 2          # A writes on the stale read
        assert self.ysan.total_violations == 1
        v = self.ysan.violations[0]
        assert (v.reader, v.writer) == ("A", "B")
        assert v.domain == "t.tokens" and v.key == "k"
        assert v.write_step > v.read_step

    def test_same_step_rmw_clean(self):
        self.step(self.a)
        _ = self.table["k"]
        self.table["k"] = 1          # no yield between read and write
        self.step(self.b)
        self.table["k"] = 2
        assert self.ysan.total_violations == 0

    def test_revalidate_after_yield_clean(self):
        self.step(self.a)
        _ = self.table["k"]
        self.step(self.b)
        self.table["k"] = 1
        self.step(self.a)
        _ = self.table["k"]          # A re-reads: knowledge refreshed
        self.table["k"] = 2
        assert self.ysan.total_violations == 0

    def test_own_interleaved_write_clean(self):
        self.step(self.a)
        _ = self.table["k"]
        self.table["k"] = 1          # A's own write refreshes its record
        self.step(self.a)
        self.table["k"] = 2
        assert self.ysan.total_violations == 0

    def test_non_task_callback_write_is_the_interleaver(self):
        self.step(self.a)
        _ = self.table["k"]
        self.ysan.end_step()         # between steps: callback context
        self.table["k"] = 1
        self.step(self.a)
        self.table["k"] = 2
        assert self.ysan.total_violations == 1
        assert self.ysan.violations[0].writer == "(non-task callback)"

    def test_get_and_contains_count_as_reads(self):
        self.step(self.a)
        self.table.get("k")
        self.step(self.b)
        self.table.pop("k")          # delete counts as a write
        self.step(self.a)
        self.table["k"] = 9
        assert self.ysan.total_violations == 1

    def test_clear_wipes_tracking(self):
        self.step(self.a)
        _ = self.table["k"]
        self.step(self.b)
        self.table["k"] = 1
        self.table.clear()           # crash/volatile_reset boundary
        self.step(self.a)
        self.table["k"] = 2          # new incarnation: not stale
        assert self.ysan.total_violations == 0

    def test_violation_cap_counts_all(self):
        ysan = YieldSanitizer(max_violations=2)
        table = ysan.track("t", {"k": 0})
        a, b = _FakeTask("A"), _FakeTask("B")
        for _ in range(5):
            ysan.begin_step(a)
            _ = table["k"]
            ysan.begin_step(b)
            _ = table["k"]           # B re-reads: only A's write is stale
            table["k"] = 1
            ysan.begin_step(a)
            table["k"] = 2
        assert ysan.total_violations == 5
        assert len(ysan.violations) == 2
        assert "3 more" in ysan.report()


# --------------------------------------------------------------------- #
# schedule perturbation at the kernel level
# --------------------------------------------------------------------- #

class TestPerturbation:
    def _zero_delay_order(self, perturb_seed):
        kernel = Kernel()
        if perturb_seed is not None:
            kernel.set_perturbation(random.Random(perturb_seed))
        order = []
        for i in range(8):
            kernel.post(0.0, order.append, i)
        kernel.run()
        return order

    def test_default_is_fifo(self):
        assert self._zero_delay_order(None) == list(range(8))

    def test_perturbed_shuffles_ties(self):
        orders = {tuple(self._zero_delay_order(s)) for s in range(1, 9)}
        assert len(orders) > 1                      # schedules diverge
        assert tuple(range(8)) not in orders or len(orders) > 1

    def test_perturbed_run_is_reproducible(self):
        a = self._zero_delay_order(7)
        b = self._zero_delay_order(7)
        assert a == b                               # same perturb seed
        assert sorted(a) == list(range(8))          # nothing lost

    def test_perturbation_respects_virtual_time(self):
        kernel = Kernel()
        kernel.set_perturbation(random.Random(3))
        trace = []
        kernel.schedule(5.0, trace.append, "late")
        for i in range(4):
            kernel.post(0.0, trace.append, i)
        kernel.run()
        assert trace[-1] == "late"                  # ties shuffle, time wins
        assert sorted(trace[:4]) == [0, 1, 2, 3]

    def test_set_perturbation_none_restores_fifo(self):
        kernel = Kernel()
        kernel.set_perturbation(random.Random(5))
        kernel.set_perturbation(None)
        order = []
        for i in range(6):
            kernel.post(0.0, order.append, i)
        kernel.run()
        assert order == list(range(6))


# --------------------------------------------------------------------- #
# the planted fixture: caught under a perturbed schedule, replays exactly
# --------------------------------------------------------------------- #

def _planted_run(perturb_seed):
    """Two tasks doing a read-modify-write over one tracked key.

    Under the default FIFO schedule 'first' completes its RMW before
    'second' reads, so every default run is clean.  A perturbed tie-break
    can let 'second' read before 'first' writes — the classic lost-update
    interleaving — which ysan must then flag, naming both tasks.
    """
    kernel = Kernel()
    if perturb_seed is not None:
        kernel.set_perturbation(random.Random(perturb_seed))
    ysan = YieldSanitizer()
    kernel.set_ysan(ysan)
    table = ysan.track("cell.tokens", {"k": 0})

    async def first():
        value = table["k"]
        await kernel.sleep(0)        # the yield inside the RMW
        table["k"] = value + 1

    async def second():
        await kernel.sleep(0)        # hops: starts its RMW later...
        await kernel.sleep(0)
        value = table["k"]
        await kernel.sleep(0)        # ...and yields inside it too
        table["k"] = value + 1

    async def main():
        await kernel.all_of([kernel.spawn(first(), name="first"),
                             kernel.spawn(second(), name="second")])

    kernel.run_until_complete(main(), limit=1_000.0)
    return ysan


def test_planted_fixture_default_schedule_clean():
    ysan = _planted_run(None)
    assert ysan.total_violations == 0


def test_planted_fixture_caught_under_perturbation():
    hits = {seed: ysan for seed in range(1, 33)
            if (ysan := _planted_run(seed)).total_violations}
    assert hits, "no perturbed schedule in 1..32 exposed the planted race"
    seed, ysan = next(iter(hits.items()))
    v = ysan.violations[0]
    assert {v.reader, v.writer} == {"first", "second"}  # both tasks named
    assert v.write_step > v.read_step

    # exact replay: the same (seed, perturb_seed) reproduces the identical
    # violation — same tasks, same event positions (frozen dataclass eq)
    again = _planted_run(seed)
    assert again.violations and again.violations[0] == v


# --------------------------------------------------------------------- #
# integration: build_cluster arming and the racecheck driver
# --------------------------------------------------------------------- #

def test_build_cluster_arms_tracked_state():
    from repro.testbed import build_cluster
    cluster = build_cluster(n_servers=3, seed=7, ysan=True)
    try:
        for server in cluster.servers:
            assert isinstance(server.segments.store.tokens, TrackedDict)
            assert isinstance(server.segments.store.replicas, TrackedDict)
            assert isinstance(server.segments.cat.catalogs, TrackedDict)
        assert cluster.ysan is not None
        assert cluster.kernel._ysan is cluster.ysan
    finally:
        cluster.close()


def test_build_cluster_default_has_no_sanitizer():
    from repro.testbed import build_cluster
    cluster = build_cluster(n_servers=3, seed=7)
    try:
        assert cluster.ysan is None
        assert cluster.kernel._ysan is None
        assert not isinstance(cluster.servers[0].segments.store.tokens,
                              TrackedDict)
    finally:
        cluster.close()


def test_small_workload_with_ysan_is_clean():
    from repro.testbed import build_cluster
    cluster = build_cluster(n_servers=3, seed=11, ysan=True, perturb_seed=2)

    async def wl():
        agent = cluster.agents[0]
        await agent.create("/", "f1")
        await agent.write_file("/f1", b"x" * 512)
        return await agent.read_file("/f1")

    try:
        assert cluster.run(wl()) == b"x" * 512
        assert cluster.ysan.total_violations == 0
    finally:
        cluster.close()


def test_restart_rearms_ysan_and_perturbation():
    """kill(); restart() builds a fresh kernel and fresh servers: the
    sanitizer must be hooked into both again (a ``cluster.ysan`` attached
    to nothing reports zero violations forever) and the perturbation
    stream re-seeded on the new kernel."""
    from repro.testbed import build_cluster
    cluster = build_cluster(3, 1, seed=3, ysan=True, perturb_seed=7)

    async def wl():
        agent = cluster.agents[0]
        await agent.create("/", "f")
        await agent.write_file("/f", b"x")

    try:
        cluster.run(wl())
        cluster.kill()
        cluster.restart()
        assert cluster.kernel._ysan is cluster.ysan
        assert cluster.ysan.kernel is cluster.kernel
        assert cluster.kernel._perturb is not None
        for server in cluster.servers:
            store = server.segments.store
            assert isinstance(store.tokens, TrackedDict)
            assert isinstance(store.replicas, TrackedDict)
            assert isinstance(server.segments.cat.catalogs, TrackedDict)
    finally:
        cluster.close()


def test_racecheck_smoke_reports_clean():
    from repro.analysis.racecheck import format_report, racecheck
    report = racecheck(workload="zipf", n_servers=4, n_agents=2,
                       duration_ms=400.0, seed=42, schedules=2)
    assert report["clean"]
    assert len(report["runs"]) == 2
    assert {r["perturb_seed"] for r in report["runs"]} == {1, 2}
    assert all(r["error"] is None for r in report["runs"])
    text = format_report(report)
    assert "CLEAN" in text


def test_oracle_names_a_pair_that_diverged_inside_one_view():
    """The perturbed-schedule oracle knows virtual synchrony: agreement is
    clean, a delivered vector or a held multicast that differs is named."""
    from repro.analysis.racecheck import check_virtual_synchrony
    from tests.conftest import run
    from tests.test_isis_groups import make_cell

    kernel = Kernel()
    _net, procs = make_cell(kernel, 3)
    p0, p1, p2 = procs

    async def main():
        p0.create_group("g")
        p2.create_group("g")        # an unmerged instance, also numbered 1
        await p0.cbcast("g", {"n": 0})
        # same group, same view number, different members and vectors:
        # not one view, because neither lists the other
        assert check_virtual_synchrony(procs) == []
        await p1.join_group("g", contact="s0")
        await p0.cbcast("g", {"n": 1}, nreplies="all")

    run(kernel, main())
    assert check_virtual_synchrony(procs) == []
    p1.groups["g"].vc.increment("s0")           # s1 delivered one more
    p1.groups["g"].pending.append({"sender": "s0", "seq": 9})
    problems = check_virtual_synchrony(procs)
    assert len(problems) == 2 and all("g#2 at s0/s1" in p for p in problems)
    assert "delivered" in problems[0] and "undelivered" in problems[1]
    p1.crash()                                  # only live processes count
    assert check_virtual_synchrony(procs) == []


def test_oracle_names_a_replica_not_stable_at_a_quiet_point():
    """§3.4 at a quiet point: every live replica of a major whose enabled
    token holder is live is stable and at the token's version.  Mid-burst
    the oracle names the unstable replicas; after the quiet period and the
    stable mark it is clean; a replica off the token's version is named."""
    from repro.analysis.racecheck import check_invariants
    from repro.testbed import build_cluster
    cluster = build_cluster(3, 1, seed=5)

    async def wl():
        agent = cluster.agents[0]
        await agent.create("/", "f")
        await agent.set_params("/f", min_replicas=3)
        await agent.write_file("/f", b"x")

    try:
        cluster.run(wl())
        mid_burst = check_invariants(cluster)
        assert mid_burst and all("§3.4 quiet point" in p for p in mid_burst)
        cluster.settle(500.0)
        assert check_invariants(cluster) == []
        key, replica = next(
            (key, replica) for server in cluster.servers
            for key, replica in server.segments.store.replicas.items()
            if key not in server.segments.store.tokens)
        replica.version = replica.version.next_update()
        assert len(check_invariants(cluster)) == 1
    finally:
        cluster.close()
